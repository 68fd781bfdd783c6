"""The batched IC kernel against the scalar oracle, its mirror identity, and
the pruned equilibrium search against the exhaustive one."""
import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivote import election
from rivote.core import ValidationError
from rivote.election import (
    StrategyAssignment,
    check_ic,
    downsian_winner,
    enumerate_equilibria,
    game_of,
    perfect_observation_winner,
)
from rivote.news import expected_winning_matrix
from rivote.presets import build
from rivote.scenario_io import load_scenario
from tests.conftest import bench_workloads
from tests.oracles import (
    _two_sided_gaps,
    commitment_gaps,
    exhaustive_equilibria,
    exhaustive_rows,
    passing,
    table_kernel,
)

INCREASING = "^limited commitment requires strictly increasing policies$"
SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
TWO_TYPES = ((0.25, 0.5), (0.75, 0.5))
THREE_TYPES = ((0.2, 1 / 3), (0.5, 1 / 3), (0.8, 1 / 3))
THIRDS = [[-0.001, 1 / 3], [0.0, 1 / 3], [0.001, 1 / 3]]


def game(n, types=TWO_TYPES, family="absolute", xi=None, eta=None, rent=8.0,
         win_weight=3.0, lose_weight=1.0, loser_sign=-1):
    """Scenario on the interior grid k/(n+1); ``table`` tabulates -(t-a)^2."""
    grid = [k / (n + 1) for k in range(1, n + 1)]
    utility = {"family": family, "office_rent": rent, "win_weight": win_weight,
               "lose_weight": lose_weight, "loser_sign": loser_sign}
    if family == "table":
        # reneging winners play their type, so types are policies too
        a_values = sorted({a for g in (*grid, *(t for t, _ in types)) for a in (g, -g)})
        t_values = sorted({0.0, *(t for t, _ in THIRDS)} | {x for t, _ in types for x in (t, -t)})
        utility["table"] = {"a": a_values, "t": t_values,
                            "values": [[-(t - a) * (t - a) for t in t_values] for a in a_values]}
    doc = {"schema_version": 1, "policies": {"beta": grid}, "utility": utility,
           "candidates": {"beta": [list(t) for t in types]},
           "electorate": {"groups": THIRDS}, "attention": {"mu": 1.0}}
    if xi is not None:
        doc["news"] = {"family": "slant", "xi": xi, "signals": [0.25, 0.75]}
    if eta is not None:
        doc["commitment"] = {"eta": eta}
    return build(doc)


def kernel_and_oracle(scenario, pipeline):
    """The IC kernel the game table builds for the scenario's game and a
    scalar oracle of (beta, alpha) gaps."""
    assert game_of(scenario) == pipeline
    grid = scenario.beta_axis.values
    spec = scenario.utility
    kernel = table_kernel(scenario)
    if pipeline == "baseline":
        return kernel, lambda a: _two_sided_gaps(
            scenario, a, lambda x, y: downsian_winner(spec, x, y))
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
    follows = election._game(scenario)[2]
    kernel = table_kernel(scenario)
    expected = list(passing(kernel, exhaustive_rows(scenario)))
    # chunks of one row, five rows and the default search and score alike,
    # each with a fresh kernel, so its open gains are chunked the same way
    for floats in (1, 5 * len(kernel.types) * len(kernel.grid), election.IC_CHUNK_FLOATS):
        monkeypatch.setattr(election, "IC_CHUNK_FLOATS", floats)
        assert table_kernel(scenario).search(follows, 10 ** 6) == expected


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
        _, gaps = check_ic(replace(figure2, mu=0.09), assignment, w_source="rationalized")
        assert gaps == expected


def test_alpha_side_is_not_redundant(figure2):
    # perfect observation gives ties to alpha: beta wins no diagonal cell, so
    # W + W^T - 1 is -1 there and alpha's slack is not beta's read backwards
    scenario = replace(figure2, mu=0.09)
    grid, types = scenario.beta_axis.values, scenario.beta_types
    g = np.array(grid)
    w = perfect_observation_winner(scenario, -g[:, None], g[None, :])
    np.testing.assert_array_equal(np.diag(w + w.T - 1.0), -1.0)
    checks = {}
    for policies in itertools.product(grid, repeat=2):
        assignment = StrategyAssignment(types.type_values, types.type_probs, policies)
        checks[policies] = check_ic(scenario, assignment, w_source="rationalized")
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
    with pytest.raises(ValidationError, match="off candidate beta's grid"):
        check_ic(scenario, assignment)


# ---------------------------------------------------------------------------
# The pruned search against the exhaustive oracle
# ---------------------------------------------------------------------------

WORKLOADS = bench_workloads()
FOUR_TYPES = tuple((t, 0.25) for t in (0.2, 0.4, 0.6, 0.8))
SIX_TYPES = tuple((t, 1 / 6) for t in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9))
SEARCHED = {
    **{p.stem: p for p in sorted(SCENARIOS.glob("*.json"))},
    **{label: kwargs for label, (_, _, kwargs) in WORKLOADS.IC_TASKS.items()},
    "4types_n20": {"n": 20, "types": FOUR_TYPES},
}


def searched(label):
    """A shipped scenario, an ``ic_grid`` game of the benchmark, or 4 x 20."""
    source = SEARCHED[label]
    return load_scenario(source) if isinstance(source, Path) else build(
        WORKLOADS.game_doc(**source))


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
    picked |= {row for row, _ in kernel.search(election._game(scenario)[2], 10 ** 6)}
    rows = np.array(sorted(picked), dtype=np.intp)
    beta, alpha = kernel.bound(rows).min(axis=2), kernel.gaps(rows)[1]
    types = scenario.beta_types
    for row, b, a in zip(rows, beta, alpha):
        assignment = StrategyAssignment(
            types.type_values, types.type_probs, tuple(kernel.grid[i] for i in row))
        ob, oa = oracle(assignment)
        np.testing.assert_array_equal(bits(b), bits([g for _, g in ob]))
        np.testing.assert_array_equal(bits(a), bits([g for _, g in oa]))


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
    scenario = build(WORKLOADS.game_doc(20, types=SIX_TYPES))
    start = time.perf_counter()
    records = enumerate_equilibria(scenario)
    assert time.perf_counter() - start < 1.0
    assert records and all(r.min_gap >= -election.TOL for r in records)
