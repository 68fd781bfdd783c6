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
    utility,
    value_matrix,
)
from .election import (
    EquilibriumRecord,
    StrategyAssignment,
    aggregate_and_rationalize,
    assignment_for,
    attention_frontier,
    attention_frontier_noisy,
    attention_set,
    check_ic,
    enumerate_equilibria,
    game_belief,
    perfect_observation_winner,
    profile_belief,
    truncation_statistic,
)
from .extensions import (
    MultiIssueReduction,
    dissemination_filter,
    multi_issue_reduce,
    quarter_circle_frontier,
    tabulated_frontier,
)
from .news import (
    MarkovKernel,
    NewsTechnology,
    audit_news,
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
    gamma_inverse,
    mutual_information,
    solve_attention,
)

# bench/workloads.py still imports the per-game names: plain aliases of the one enumerator
enumerate_equilibria_noisy = enumerate_equilibria_commitment = enumerate_equilibria
