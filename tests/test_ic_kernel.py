"""The batched IC kernel against the scalar oracle, its mirror identity, the
pruned equilibrium search against the exhaustive one, and the one admission
each scenario object caches."""
import copy
import itertools
import pickle
import time
from collections import Counter
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivote import core, election
from rivote.core import Electorate, SymmetryError, ValidationError
from rivote.election import (
    StrategyAssignment,
    aggregate_and_rationalize,
    assignment_for,
    attention_set,
    check_ic,
    electorate_attention,
    enumerate_equilibria,
    game_belief,
    game_of,
    perfect_observation_winner,
    truncation_statistic,
)
from rivote.news import expected_winning_matrix
from rivote.presets import example3_scenario, figure2_scenario, figure3_scenario, table1_scenario
from rivote.scenario_io import load_scenario, scenario_from_dict
from tests.conftest import bench_workloads
from tests.oracles import (
    _two_sided_gaps,
    commitment_gaps,
    exhaustive_equilibria,
    exhaustive_rows,
    majority_winner,
    passing,
    table_kernel,
)

INCREASING = "^limited commitment requires strictly increasing policies$"
SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
TWO_TYPES = ((0.25, 0.5), (0.75, 0.5))
THREE_TYPES = ((0.2, 1 / 3), (0.5, 1 / 3), (0.8, 1 / 3))
THIRDS = [[-0.001, 1 / 3], [0.0, 1 / 3], [0.001, 1 / 3]]
NO_MEDIAN = [[-0.1, 0.5], [0.1, 0.5]]  # a Downsian voter at t = 0 would misprice W


def game(n, types=TWO_TYPES, family="absolute", xi=None, eta=None, rent=8.0,
         win_weight=3.0, lose_weight=1.0, loser_sign=-1, groups=THIRDS):
    """Scenario on the interior grid k/(n+1); ``table`` tabulates -(t-a)^2."""
    grid = [k / (n + 1) for k in range(1, n + 1)]
    utility = {"family": family, "office_rent": rent, "win_weight": win_weight,
               "lose_weight": lose_weight, "loser_sign": loser_sign}
    if family == "table":
        # reneging winners play their type, so types are policies too
        a_values = sorted({a for g in (*grid, *(t for t, _ in types)) for a in (g, -g)})
        t_values = sorted({0.0, *(t for t, _ in groups)} | {x for t, _ in types for x in (t, -t)})
        utility["table"] = {"a": a_values, "t": t_values,
                            "values": [[-(t - a) * (t - a) for t in t_values] for a in a_values]}
    doc = {"schema_version": 1, "policies": {"beta": grid}, "utility": utility,
           "candidates": {"beta": [list(t) for t in types]},
           "electorate": {"groups": groups}, "attention": {"mu": 1.0}}
    if xi is not None:
        doc["news"] = {"family": "slant", "xi": xi, "signals": [0.25, 0.75]}
    if eta is not None:
        doc["commitment"] = {"eta": eta}
    return scenario_from_dict(doc)


def kernel_and_oracle(scenario, pipeline):
    """The IC kernel the game table builds for the scenario's game and a
    scalar oracle of (beta, alpha) gaps."""
    assert game_of(scenario) == pipeline
    grid = scenario.beta_axis.values
    kernel = table_kernel(scenario)
    if pipeline == "baseline":
        return kernel, lambda a: _two_sided_gaps(scenario, a, partial(majority_winner, scenario))
    if pipeline == "noisy":
        g = expected_winning_matrix(scenario.news, grid)
        return kernel, lambda a: _two_sided_gaps(
            scenario, a, lambda x, y: float(g[grid.index(-x), grid.index(y)]))
    return kernel, lambda a: commitment_gaps(scenario, a, scenario.eta)


def all_rows(scenario):
    n_types = len(scenario.beta_types.types)
    rows = itertools.product(range(len(scenario.beta_axis.values)), repeat=n_types)
    return np.array(list(rows), dtype=np.intp)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


GRIDS = {
    "absolute_n1": (lambda: game(1), "baseline"),
    "absolute_n12": (lambda: game(12), "baseline"),
    "quadratic_n12": (lambda: game(12, family="quadratic"), "baseline"),
    "table_n12": (lambda: game(12, family="table"), "baseline"),
    "3types_n8": (lambda: game(8, THREE_TYPES), "baseline"),
    "noisy_xi.6": (lambda: game(12, xi=0.6), "noisy"),
    "noisy_xi.75": (lambda: game(12, xi=0.75), "noisy"),
    "commit_eta.8": (lambda: game(10, eta=0.8), "commitment"),
    "commit_eta0": (lambda: game(10, eta=0.0), "commitment"),
    "commit_eta.8_3types": (lambda: game(7, THREE_TYPES, eta=0.8), "commitment"),
    "commit_eta0_3types": (lambda: game(7, THREE_TYPES, eta=0.0), "commitment"),
    "no_median_n12": (lambda: game(12, groups=NO_MEDIAN), "baseline"),
    "no_median_commit_eta0": (lambda: game(10, eta=0.0, groups=NO_MEDIAN), "commitment"),
}


@pytest.mark.parametrize("label", GRIDS)
def test_kernel_gaps_bitwise_equal_scalar_oracle(label):
    make, pipeline = GRIDS[label]
    scenario = make()
    kernel, oracle = kernel_and_oracle(scenario, pipeline)
    grid = scenario.beta_axis.values
    types = scenario.beta_types
    rows = all_rows(scenario)
    beta, alpha = kernel.gaps(rows)
    for row, b, a in zip(rows, beta, alpha):
        assignment = StrategyAssignment(
            types.type_values, types.type_probs, tuple(grid[i] for i in row))
        ob, oa = oracle(assignment)
        assert [t for t, _ in ob] == list(kernel.types)
        assert [t for t, _ in oa] == list(kernel.alpha_types)
        np.testing.assert_array_equal(bits(b), bits([g for _, g in ob]))
        np.testing.assert_array_equal(bits(a), bits([g for _, g in oa]))


@pytest.mark.parametrize("label",
                         ["absolute_n12", "3types_n8", "noisy_xi.75", "commit_eta.8_3types"])
def test_chunked_scan_keeps_order_and_gaps(label, monkeypatch):
    scenario = GRIDS[label][0]()
    kernel = table_kernel(scenario)
    expected = list(passing(kernel, exhaustive_rows(scenario)))
    # chunks of one row, five rows and the default search and score alike,
    # each with a fresh kernel, so its open gains are chunked the same way
    for floats in (1, 5 * len(kernel.types) * len(kernel.grid), core.CHUNK_FLOATS):
        monkeypatch.setattr(core, "CHUNK_FLOATS", floats)
        assert table_kernel(scenario).search(10 ** 6) == expected


ONE_ROW = {
    "baseline": (lambda: game(6), "baseline"),
    "noisy": (lambda: game(6, xi=0.75), "noisy"),
    "commitment": (lambda: game(6, eta=0.8), "commitment"),
    # where check_ic once scored the pooling map (0.01, 0.01) as incentive
    # compatible, although the game has no such strategy
    "partial_commitment_eta.9": (
        lambda: replace(load_scenario(SCENARIOS / "partial_commitment.json"), eta=0.9),
        "commitment"),
}


@pytest.mark.parametrize("label", ONE_ROW)
def test_one_row_checks_equal_oracle(label):
    make, pipeline = ONE_ROW[label]
    scenario = make()
    _, oracle = kernel_and_oracle(scenario, pipeline)
    grid = scenario.beta_axis.values
    types = scenario.beta_types
    for row in all_rows(scenario):
        assignment = StrategyAssignment(
            types.type_values, types.type_probs, tuple(grid[i] for i in row))
        if pipeline == "commitment" and any(np.diff(row) <= 0):
            # not increasing, so no strategy of the game: refused, not scored
            with pytest.raises(ValidationError, match=INCREASING):
                check_ic(scenario, assignment)
            continue
        ok, gaps = check_ic(scenario, assignment)
        ob, oa = oracle(assignment)
        expected = {("beta", t): g for t, g in ob}
        expected.update({("alpha", t): g for t, g in oa})
        assert gaps == expected
        assert ok == (min(expected.values()) >= -election.TOL)


def test_rationalized_check_equals_oracle(figure2):
    for policies in itertools.product(figure2.beta_axis.values, repeat=2):
        assignment = StrategyAssignment(
            figure2.beta_types.type_values, figure2.beta_types.type_probs, policies)
        levels = assignment.levels
        on_path = election.aggregate_and_rationalize(replace(figure2, mu=0.09), assignment)

        def w_beta(x, a):
            if -x in levels and a in levels:
                return float(on_path[levels.index(-x), levels.index(a)])
            return perfect_observation_winner(figure2, x, a)

        ob, oa = _two_sided_gaps(figure2, assignment, w_beta)
        expected = {("beta", t): g for t, g in ob}
        expected.update({("alpha", t): g for t, g in oa})
        _, gaps = check_ic(replace(figure2, mu=0.09), assignment, rationalized=True)
        assert gaps == expected


def test_alpha_side_is_not_redundant(figure2):
    # aggregated attention strategies are not complementary on path: at mu = .09
    # beta wins a pooling map's one on-path cell with probability 0, so
    # W + W^T - 1 is -1 there and alpha's slack is not beta's read backwards
    scenario = replace(figure2, mu=0.09)
    grid, types = scenario.beta_axis.values, scenario.beta_types
    for a in grid:
        pooling = StrategyAssignment(types.type_values, types.type_probs, (a, a))
        on_path = election.aggregate_and_rationalize(scenario, pooling)
        np.testing.assert_array_equal(on_path + on_path.T - 1.0, -1.0)
    checks = {}
    for policies in itertools.product(grid, repeat=2):
        assignment = StrategyAssignment(types.type_values, types.type_probs, policies)
        checks[policies] = check_ic(scenario, assignment, rationalized=True)
    differ = [policies for policies, (_, gaps) in checks.items()
              if not np.allclose([gaps["beta", t] for t in types.type_values],
                                 [gaps["alpha", -t] for t in types.type_values],
                                 rtol=0, atol=1e-12)]
    assert differ == [(0.01, 0.01), (0.2, 0.2), (0.4, 0.4)]
    # beta's side alone would pass the pooling map; alpha type -0.8 refuses it
    ok, gaps = checks[0.01, 0.01]
    assert [gaps["beta", t] for t in types.type_values] == [0.0, 0.0]
    assert gaps["alpha", -0.8] == pytest.approx(-0.67, abs=1e-12)
    assert not ok


@pytest.mark.parametrize("label", GRIDS)
def test_mirror_identity_on_fixed_grids(label):
    make, pipeline = GRIDS[label]
    scenario = make()
    kernel, _ = kernel_and_oracle(scenario, pipeline)
    beta, alpha = kernel.gaps(all_rows(scenario))
    # alpha's type -t is beta's type t read backwards
    np.testing.assert_allclose(alpha[:, ::-1], beta, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    n_types=st.integers(1, 3),
    family=st.sampled_from(["absolute", "quadratic"]),
    pipeline=st.sampled_from(["baseline", "noisy", "commitment"]),
    knob=st.floats(0.05, 0.95),
    rent=st.floats(0.0, 10.0),
    win_weight=st.floats(0.0, 10.0),
    lose_weight=st.floats(0.0, 10.0),
    loser_sign=st.sampled_from([1, -1]),
)
def test_mirror_identity_property(n, n_types, family, pipeline, knob, rent, win_weight,
                                  lose_weight, loser_sign):
    types = tuple((t, 1.0 / n_types) for t in (0.2, 0.5, 0.8)[:n_types])
    scenario = game(n, types, family, rent=rent, win_weight=win_weight,
                    lose_weight=lose_weight, loser_sign=loser_sign,
                    xi=knob if pipeline == "noisy" else None,
                    eta=knob if pipeline == "commitment" else None)
    kernel, _ = kernel_and_oracle(scenario, pipeline)
    beta, alpha = kernel.gaps(all_rows(scenario))
    np.testing.assert_allclose(alpha[:, ::-1], beta, rtol=0, atol=1e-12)


@pytest.mark.parametrize("pipeline", ["baseline", "noisy", "commitment"])
def test_off_grid_policy_is_a_validation_error(pipeline):
    scenario = game(5, xi=0.75 if pipeline == "noisy" else None,
                    eta=0.8 if pipeline == "commitment" else None)
    assignment = StrategyAssignment(
        scenario.beta_types.type_values, scenario.beta_types.type_probs, (0.1, 0.3))
    with pytest.raises(ValidationError, match="policy 0.1 is not on candidate beta's grid"):
        check_ic(scenario, assignment)


def audit_failing_news():
    # a decreasing likelihood ratio fails audit_news on the grid
    doc = figure3_scenario(0.75, n_policies=4)
    doc["news"] = {"family": "table", "signals": [0.25, 0.75],
                   "policies": doc["policies"]["beta"],
                   "rows": [[0.2, 0.8], [0.4, 0.6], [0.6, 0.4], [0.8, 0.2]]}
    return scenario_from_dict(doc)


def flat_news():
    # every policy sends each signal alike: no 2x2 log minor is positive
    doc = figure3_scenario(0.75, n_policies=4)
    doc["news"] = {"family": "table", "signals": [0.25, 0.75],
                   "policies": doc["policies"]["beta"], "rows": [[0.5, 0.5]] * 4}
    return scenario_from_dict(doc)


def asymmetric_electorate():
    return replace(game(6), electorate=Electorate(((-0.2, 0.7), (0.2, 0.3))))


def test_check_ic_refuses_news_the_enumeration_refuses():
    scenario = audit_failing_news()
    assignment = assignment_for(scenario, scenario.beta_axis.values[:2])
    with pytest.raises(ValidationError, match="^news technology rejected: ratio ordering"):
        enumerate_equilibria(scenario)
    with pytest.raises(ValidationError, match="^news technology rejected: ratio ordering"):
        check_ic(scenario, assignment)


ENTRY_POINTS = {
    "game_belief": lambda scenario, assignment: game_belief(scenario, assignment, -0.05),
    "electorate_attention": electorate_attention,
    "aggregate_and_rationalize": aggregate_and_rationalize,
    "check_ic": check_ic,
}
# every call that reads a scenario's game, as a call on (scenario, assignment)
READERS = {
    **ENTRY_POINTS,
    "check_ic_rationalized": partial(check_ic, rationalized=True),
    "enumerate_equilibria": lambda scenario, _: enumerate_equilibria(scenario),
    "attention_set": lambda scenario, _: attention_set(scenario, [0.1, 0.3], [0.5, 0.7], -0.05),
}
REFUSED = {
    "asymmetric": (asymmetric_electorate, SymmetryError,
                   "^symmetric-equilibrium routine refused an asymmetric scenario: "
                   "electorate is not symmetric around the median$"),
    "flat_news": (flat_news, ValidationError,
                  r"^news technology rejected: ratio ordering fails for policies \(0.2, 0.4\) "
                  r"and signals \(0.25, 0.75\)$"),
}


@pytest.mark.parametrize("entry", READERS)
@pytest.mark.parametrize("refused", REFUSED)
def test_every_reader_of_the_game_refuses_what_admission_refuses(refused, entry):
    # one message per scenario, from beliefs, aggregation, checks, search and scans alike
    make, error, message = REFUSED[refused]
    scenario = make()
    assignment = assignment_for(scenario, scenario.beta_axis.values[:2])
    with pytest.raises(error, match=message):
        READERS[entry](scenario, assignment)


FOREIGN = {"other_types": ((0.1, 0.9), (0.5, 0.5)), "other_probs": ((0.3, 0.8), (0.4, 0.6))}


@pytest.mark.parametrize("foreign", FOREIGN)
@pytest.mark.parametrize("doc, entry", [
    *(("figure2", entry) for entry in ENTRY_POINTS),
    *(("example3_eta.5", entry) for entry in ENTRY_POINTS if entry != "aggregate_and_rationalize"),
])
def test_every_entry_point_refuses_other_types_than_the_scenarios(doc, entry, foreign):
    # one refusal for all, where the beliefs would value types the game lacks
    doc = figure2_scenario() if doc == "figure2" else example3_scenario(0.5)
    scenario = scenario_from_dict(doc)
    assignment = StrategyAssignment(*FOREIGN[foreign], (0.01, 0.4))
    with pytest.raises(ValidationError,
                       match="^the assignment's types are not the scenario's candidate types$"):
        ENTRY_POINTS[entry](scenario, assignment)


@pytest.mark.parametrize("pipeline", ["baseline", "noisy", "commitment"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_a_policy_off_the_grid(entry, pipeline):
    # the gate checks the grid, before aggregation refuses the other games by name
    scenario = game(5, xi=0.75 if pipeline == "noisy" else None,
                    eta=0.8 if pipeline == "commitment" else None)
    grid = scenario.beta_axis.values
    assignment = StrategyAssignment(
        scenario.beta_types.type_values, scenario.beta_types.type_probs, (grid[0], 0.9))
    with pytest.raises(ValidationError, match="^policy 0.9 is not on candidate beta's grid$"):
        ENTRY_POINTS[entry](scenario, assignment)


def test_aggregation_refuses_a_game_before_solving_a_group(monkeypatch):
    calls, solve_groups = [], election.solve_groups
    monkeypatch.setattr(election, "solve_groups",
                        lambda *args: calls.append(args) or solve_groups(*args))
    scenario = scenario_from_dict(figure3_scenario(0.75))
    assignment = assignment_for(scenario, scenario.beta_axis.values[:2])
    with pytest.raises(ValidationError, match="^aggregate_and_rationalize models the baseline"):
        aggregate_and_rationalize(scenario, assignment)
    assert calls == []
    electorate_attention(scenario, assignment)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# The pruned search against the exhaustive oracle
# ---------------------------------------------------------------------------

WORKLOADS = bench_workloads()
FOUR_TYPES = tuple((t, 0.25) for t in (0.2, 0.4, 0.6, 0.8))
SIX_TYPES = tuple((t, 1 / 6) for t in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9))


def bench_game(**kwargs):
    return scenario_from_dict(WORKLOADS.game_doc(**kwargs))


SEARCHED = {
    **{p.stem: partial(load_scenario, p) for p in sorted(SCENARIOS.glob("*.json"))},
    **{label: partial(bench_game, **kwargs)
       for label, (_, _, kwargs) in WORKLOADS.IC_TASKS.items()},
    "4types_n20": partial(bench_game, n=20, types=FOUR_TYPES),
    "no_median_n12": GRIDS["no_median_n12"][0],
    "no_median_commit_eta0": GRIDS["no_median_commit_eta0"][0],
}


def searched(label):
    """A shipped scenario, an ``ic_grid`` game of the benchmark, 4 x 20, or a
    game of an electorate without a group at t = 0."""
    return SEARCHED[label]()


def fingerprint(records):
    """Everything a record holds, floats as exact reprs and arrays as bytes."""
    return [(r.kind, r.assignment.policies, repr(r.gaps), repr(r.min_gap), r.attentive,
             r.expected_w.tobytes(),
             [(t, s.regime, repr((s.m_bar, s.likelihood_ratio, s.info, s.residual)),
               s.m.tobytes()) for t, s in r.attention])
            for r in records]


@pytest.mark.parametrize("label", SEARCHED)
def test_pruned_records_equal_the_exhaustive_oracle(label):
    scenario = searched(label)
    records = enumerate_equilibria(scenario)
    assert fingerprint(records) == fingerprint(exhaustive_equilibria(scenario))


@pytest.mark.parametrize("label", SEARCHED)
def test_bound_on_complete_rows_is_the_kernel_slack(label):
    # with every type known the bound is beta's slack, bitwise the scalar
    # oracle's, as alpha's slack is; sampled rows plus every equilibrium
    scenario = searched(label)
    kernel, oracle = kernel_and_oracle(scenario, game_of(scenario))
    rows = list(exhaustive_rows(scenario))
    n, k = len(kernel.grid), len(kernel.types)
    count = max(8, 1_200 // (n * k * k))  # the oracle walks grid x types^2 per row
    picked = {rows[i] for i in np.linspace(0, len(rows) - 1, count).astype(int)}
    picked |= {row for row, _ in kernel.search(10 ** 6)}
    rows = np.array(sorted(picked), dtype=np.intp)
    beta, alpha = kernel.bound(rows).min(axis=2), kernel.gaps(rows)[1]
    types = scenario.beta_types
    for row, b, a in zip(rows, beta, alpha):
        assignment = StrategyAssignment(
            types.type_values, types.type_probs, tuple(kernel.grid[i] for i in row))
        ob, oa = oracle(assignment)
        np.testing.assert_array_equal(bits(b), bits([g for _, g in ob]))
        np.testing.assert_array_equal(bits(a), bits([g for _, g in oa]))


def rentless_game_doc(**kwargs):
    doc = WORKLOADS.game_doc(**kwargs)
    doc["utility"]["office_rent"] = 0.0
    return scenario_from_dict(doc)


@pytest.mark.parametrize("make, counts", [
    (lambda: scenario_from_dict(figure2_scenario()), (2, 2)),
    (partial(rentless_game_doc, n=6, types=THREE_TYPES), (3, 2)),
    (partial(bench_game, n=10, types=THREE_TYPES), (1, 0)),
], ids=["figure2", "3types_n6_rentless", "3types_n10"])
def test_a_kernel_with_eta_searches_the_strictly_increasing_rows(make, counts):
    # at eta = 1 the stage values are the baseline ones, so the search given
    # eta returns exactly the baseline search's strictly increasing rows
    scenario = make()
    baseline = table_kernel(scenario)
    types = scenario.beta_types
    increasing = election.ICKernel(scenario.beta_axis.values, types.type_values,
                                   types.type_probs, baseline.w, scenario.utility, eta=1.0)
    every = baseline.search(10 ** 6)
    expected = [(row, gaps) for row, gaps in every
                if all(a < b for a, b in itertools.pairwise(row))]
    found = increasing.search(10 ** 6)
    assert (len(every), len(expected)) == counts
    assert [row for row, _ in found] == [row for row, _ in expected]
    for (_, gaps), (_, want) in zip(found, expected):
        np.testing.assert_array_equal(bits([g for _, g in gaps]), bits([g for _, g in want]))
        assert [t for t, _ in gaps] == [t for t, _ in want]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 9),
    n_types=st.integers(1, 3),
    family=st.sampled_from(["absolute", "quadratic", "table"]),
    pipeline=st.sampled_from(["baseline", "noisy", "commitment"]),
    knob=st.floats(0.05, 0.95),
    rent=st.sampled_from([0.0, 8.0]),
    lose_weight=st.sampled_from([0.0, 1.0]),
    loser_sign=st.sampled_from([1, -1]),
)
def test_pruned_search_is_exact_property(n, n_types, family, pipeline, knob, rent,
                                         lose_weight, loser_sign):
    # zero rents and loser values make ties and zero payoffs
    types = tuple((t, 1.0 / n_types) for t in (0.2, 0.5, 0.8)[:n_types])
    scenario = game(n, types, family, rent=rent, lose_weight=lose_weight,
                    loser_sign=loser_sign, xi=knob if pipeline == "noisy" else None,
                    eta=knob if pipeline == "commitment" else None)
    oracle = exhaustive_equilibria(scenario)
    assert fingerprint(enumerate_equilibria(scenario)) == fingerprint(oracle)
    # no prefix the bound cuts at the 1e-9 margin starts a passing row of any order
    kernel = table_kernel(scenario)
    passed = [row for row, _ in passing(kernel, map(tuple, all_rows(scenario).tolist()))]
    for level in range(1, n_types + 1):
        prefixes = np.array(list(itertools.product(range(n), repeat=level)), dtype=np.intp)
        cut = kernel.bound(prefixes).min(axis=(1, 2)) < -election.TOL - 1e-9
        assert not {tuple(p) for p in prefixes[cut].tolist()} & {r[:level] for r in passed}


def test_six_types_on_twenty_policies_under_the_default_cap():
    # 20 ** 6 = 6.4e7 maps, far beyond the default cap of 200,000 visited prefixes
    scenario = scenario_from_dict(WORKLOADS.game_doc(20, types=SIX_TYPES))
    start = time.perf_counter()
    records = enumerate_equilibria(scenario)
    assert time.perf_counter() - start < 1.0
    assert records and all(r.min_gap >= -election.TOL for r in records)


# ---------------------------------------------------------------------------
# One admission per scenario object
# ---------------------------------------------------------------------------

@pytest.fixture()
def audits(monkeypatch):
    """Calls of admission's two audits, counted by name."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("require_symmetric", "audit_news"):
        monkeypatch.setattr(election, name, counted(name, getattr(election, name)))
    return calls


@pytest.mark.parametrize("pipeline", ["baseline", "noisy", "commitment"])
def test_each_scenario_object_is_admitted_once(pipeline, audits):
    scenario = game(6, xi=0.75 if pipeline == "noisy" else None,
                    eta=0.8 if pipeline == "commitment" else None)
    records = enumerate_equilibria(scenario)  # none in the commitment game
    assert records == [] if pipeline == "commitment" else records
    enumerate_equilibria(scenario)
    assignment = assignment_for(scenario, scenario.beta_axis.values[:2])
    check_ic(scenario, assignment)
    if pipeline != "commitment":
        attention_set(scenario, [0.1, 0.3], [0.5, 0.7], -0.05)
    game_belief(scenario, assignment, 0.5)
    electorate_attention(scenario, assignment)
    if pipeline == "baseline":
        aggregate_and_rationalize(scenario, assignment)
        check_ic(scenario, assignment, rationalized=True)
    truncation_statistic(scenario, records, 0.5)
    assert audits == Counter(require_symmetric=1, audit_news=int(pipeline == "noisy"))


@pytest.mark.parametrize("entry", READERS)
def test_every_reader_of_the_game_admits_a_fresh_scenario_once(entry, audits):
    scenario = game(6)
    assignment = assignment_for(scenario, scenario.beta_axis.values[:2])
    READERS[entry](scenario, assignment)
    READERS[entry](scenario, assignment)
    assert audits == Counter(require_symmetric=1)


def test_a_replaced_scenario_is_admitted_afresh(audits):
    scenario = game(6)
    other = replace(scenario, mu=0.5)
    assert fingerprint(enumerate_equilibria(other)) == fingerprint(enumerate_equilibria(other))
    enumerate_equilibria(scenario)
    assert audits == Counter(require_symmetric=2)


@pytest.mark.parametrize("refused, error, message", [
    (asymmetric_electorate,
     SymmetryError, "^symmetric-equilibrium routine refused an asymmetric scenario"),
    (audit_failing_news, ValidationError, "^news technology rejected: ratio ordering"),
], ids=["asymmetric", "news_audit"])
def test_a_refused_scenario_is_refused_on_every_call(refused, error, message, audits):
    scenario = refused()
    assignment = assignment_for(scenario, scenario.beta_axis.values[:2])
    calls = (enumerate_equilibria, enumerate_equilibria, partial(check_ic, assignment=assignment))
    for call in calls:
        with pytest.raises(error, match=message):
            call(scenario)
    assert audits["require_symmetric"] == 3


WARM = {**SEARCHED, **{f"preset_{label}": partial(scenario_from_dict, doc) for label, doc in (
    ("table1", table1_scenario()), ("figure2", figure2_scenario()),
    ("example3_eta.5", example3_scenario(0.5)),
    *((f"figure3_xi{xi}", figure3_scenario(xi)) for xi in (0.6, 0.75, 0.9)))}}


def records_bits(records):
    """``fingerprint`` and each record's ``total_info``, as an exact repr."""
    return fingerprint(records), [repr(r.total_info) for r in records]


@pytest.mark.parametrize("label", WARM)
def test_an_admitted_scenario_enumerates_bitwise_as_a_fresh_one(label):
    cold = records_bits(enumerate_equilibria(WARM[label]()))
    warm = WARM[label]()
    enumerate_equilibria(warm)
    assert records_bits(enumerate_equilibria(warm)) == cold


def test_the_rationalized_check_leaves_the_scenarios_game_alone():
    # on the pooling map (0.2, 0.2) the groups' aggregate differs from W's
    # on-path cell, so the rationalized check prices a W of its own
    scenario = scenario_from_dict(figure2_scenario())
    cold = records_bits(enumerate_equilibria(scenario_from_dict(figure2_scenario())))
    assignment = assignment_for(scenario, (0.2, 0.2))
    assert check_ic(scenario, assignment, rationalized=True)[1] != check_ic(scenario, assignment)[1]
    assert records_bits(enumerate_equilibria(scenario)) == cold


@pytest.mark.parametrize("doc", [table1_scenario(), figure2_scenario(), example3_scenario(0.5)],
                         ids=["table1", "figure2", "example3_eta.5"])
def test_an_admitted_scenario_pickles_and_copies_as_its_fields(doc):
    scenario = scenario_from_dict(doc)
    records = records_bits(enumerate_equilibria(scenario))
    for twin in (pickle.loads(pickle.dumps(scenario)), copy.copy(scenario), copy.deepcopy(scenario)):
        assert twin == scenario and set(vars(twin)) == {f.name for f in fields(scenario)}
        assert records_bits(enumerate_equilibria(twin)) == records
