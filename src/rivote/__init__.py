"""rivote: electoral competition with rationally inattentive voters.

A numpy library for entropy-cost-optimal attention strategies,
symmetric-equilibrium enumeration over finite policy grids, attention sets
and their closed-form thresholds, and Blackwell garbling of finite news
technologies, plus a small CLI experiment runner.
"""

__version__ = "0.1.0"

from .core import (
    CandidateSpec,
    Electorate,
    NumericError,
    PolicyAxis,
    Scenario,
    SymmetryError,
    TabulatedUtility,
    UtilitySpec,
    ValidationError,
    audit_scenario,
    derived_kappa,
    utility,
)
from .election import (
    EquilibriumRecord,
    StrategyAssignment,
    aggregate_and_rationalize,
    assignment_for,
    attention_frontier,
    check_ic,
    downsian_winner,
    enumerate_equilibria,
    median_differential,
    on_path_belief,
    perfect_observation_winner,
    profile_belief,
    truncation_statistic,
    value_matrix,
)
from .extensions import (
    Frontier,
    MultiIssueReduction,
    commitment_belief,
    dissemination_filter,
    multi_issue_reduce,
    quarter_circle_frontier,
    tabulated_frontier,
)
from .news import (
    MarkovKernel,
    NewsTechnology,
    attention_frontier_noisy,
    audit_news,
    news_belief,
    posterior_value,
    signal_belief,
)
from .scenario_io import load_scenario, scenario_from_dict, scenario_hash
from .solver import (
    AttentionSolution,
    BeliefOverProfiles,
    attention_membership,
    attentive,
    attention_threshold_delta,
    entropy,
    gamma,
    gamma_inverse,
    mutual_information,
    solve_attention,
)

# bench/workloads.py still imports the per-game names: plain aliases of the one enumerator
enumerate_equilibria_noisy = enumerate_equilibria_commitment = enumerate_equilibria
