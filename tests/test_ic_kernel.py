"""The batched IC kernel against the scalar oracle, and its mirror identity."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivote import election
from rivote.core import ValidationError
from rivote.election import (
    ICKernel,
    StrategyAssignment,
    check_ic,
    downsian_winner,
    game_of,
    perfect_observation_winner,
)
from rivote.news import expected_winning_matrix
from rivote.presets import build
from tests.oracles import _two_sided_gaps, commitment_gaps

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
        a_values = sorted({a for g in grid for a in (g, -g)})
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
    types = scenario.beta_types
    grid = scenario.beta_axis.values
    spec = scenario.utility
    w_of, eta, _, _ = election._game(scenario)
    kernel = ICKernel(grid, types.type_values, types.type_probs, w_of(scenario), spec, eta)
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


@pytest.mark.parametrize("label", ["absolute_n12", "noisy_xi.75", "commit_eta.8_3types"])
def test_chunked_scan_keeps_order_and_gaps(label, monkeypatch):
    make, pipeline = GRIDS[label]
    scenario = make()
    kernel, _ = kernel_and_oracle(scenario, pipeline)
    rows = [tuple(r) for r in all_rows(scenario).tolist()]
    beta, alpha = kernel.gaps(np.array(rows))
    ok = np.minimum(beta.min(axis=1), alpha.min(axis=1)) >= -election.TOL
    expected = [(rows[r], tuple(zip(kernel.types, beta[r].tolist())))
                for r in np.flatnonzero(ok)]
    # chunks of one, a few and all rows score every row alike
    for floats in (1, 5 * len(kernel.types) * len(kernel.grid), election.IC_CHUNK_FLOATS):
        monkeypatch.setattr(election, "IC_CHUNK_FLOATS", floats)
        assert list(kernel.passing(rows)) == expected


@pytest.mark.parametrize("pipeline", ["baseline", "noisy", "commitment"])
def test_one_row_checks_equal_oracle(pipeline):
    scenario = game(6, xi=0.75 if pipeline == "noisy" else None,
                    eta=0.8 if pipeline == "commitment" else None)
    _, oracle = kernel_and_oracle(scenario, pipeline)
    grid = scenario.beta_axis.values
    types = scenario.beta_types
    for row in all_rows(scenario):
        assignment = StrategyAssignment(
            types.type_values, types.type_probs, tuple(grid[i] for i in row))
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
