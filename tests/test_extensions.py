import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from rivote.core import ValidationError, utility
from rivote.election import (
    ICKernel,
    assignment_for,
    downsian_matrix,
    enumerate_equilibria,
    on_path_belief,
    value_matrix,
)
from rivote.extensions import (
    commitment_belief,
    dissemination_filter,
    golden_max,
    multi_issue_reduce,
    quarter_circle_frontier,
    audit_frontier,
    tabulated_frontier,
    weighted_bliss_utility,
)
from rivote.presets import figure2_scenario
from rivote.scenario_io import scenario_from_dict
from rivote.solver import attention_membership, gamma_inverse, solve_attention

from tests import oracles


def hurdle(mu, tau=0.001):
    """Closed-form attention hurdle of the two-level benchmark."""
    return mu * gamma_inverse(4.0 * math.exp(2.0 * tau / mu) - 2.0)


class TestDisseminationFilter:
    @pytest.fixture()
    def records(self, figure2):
        return enumerate_equilibria(replace(figure2, mu=0.09))

    def test_no_cost_keeps_every_record(self, figure2, records):
        assert figure2.dissemination_cost is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dissemination_filter(records, figure2) == tuple(records)

    def test_vanishing_cost_is_noop(self, figure2, records):
        kept = dissemination_filter(records, replace(figure2, dissemination_cost=1e-12))
        assert len(kept) == len(records)

    def test_cost_above_entropy_empties(self, figure2, records):
        with pytest.warns(UserWarning):
            kept = dissemination_filter(records, replace(figure2, dissemination_cost=math.log(4.0)))
        assert kept == ()

    def test_intermediate_cost_selects_by_total_information(self, figure2, records):
        weights = dict(figure2.electorate.groups)
        totals = sorted(r.total_information(weights) for r in records)
        assert totals[0] < totals[1]
        cost = 0.5 * (totals[0] + totals[1])
        kept = dissemination_filter(records, replace(figure2, dissemination_cost=cost))
        assert len(kept) == 1
        assert kept[0].total_information(weights) == totals[1]

    def test_monotone_in_cost(self, figure2, records):
        sizes = []
        for cost in np.linspace(1e-6, 1.0, 15):
            sizes.append(len(dissemination_filter(records, replace(figure2, dissemination_cost=cost))))
        assert sizes == sorted(sizes, reverse=True)


class TestCommitment:
    def test_blend(self, example3_factory):
        scenario = example3_factory(0.25)
        a = assignment_for(scenario, (0.01, 0.4))
        belief = commitment_belief(scenario, a, -0.05)
        blend = (0.25 * value_matrix(scenario.utility, a.policies, -0.05)
                 + 0.75 * value_matrix(scenario.utility, a.types, -0.05))
        np.testing.assert_array_equal(belief.values, blend.ravel())

    @pytest.mark.parametrize("eta", [1.5, -3.0])
    def test_eta_out_of_range_refused(self, example3_factory, eta):
        # the scenario is the one source of eta, and it checks the range
        with pytest.raises(ValidationError, match=r"eta must lie in \[0, 1\]"):
            replace(example3_factory(0.5), eta=eta)

    def test_full_commitment_is_identity(self, figure2):
        # at eta = 1 the commitment belief is the baseline belief bit for bit
        assert figure2.eta == 1.0
        for r in enumerate_equilibria(figure2):
            for t, sol in r.attention:
                belief = commitment_belief(figure2, r.assignment, t)
                base = on_path_belief(figure2, r.assignment, t)
                assert belief.values.tobytes() == base.values.tobytes()
                assert belief.probs.tobytes() == base.probs.tobytes()
                np.testing.assert_array_equal(solve_attention(belief, figure2.mu).m, sol.m)

    def test_no_commitment_ignores_proposals(self, example3_factory):
        scenario = example3_factory(0.0)
        beliefs = [
            commitment_belief(scenario, assignment_for(scenario, pols), -0.001)
            for pols in ((0.01, 0.2), (0.01, 0.4), (0.2, 0.4))
        ]
        for other in beliefs[1:]:
            np.testing.assert_array_equal(beliefs[0].values, other.values)

    def test_requires_strictly_increasing_policies(self, figure2):
        with pytest.raises(ValidationError):
            commitment_belief(figure2, assignment_for(figure2, (0.2, 0.01)), 0.0)

    def test_case1_boundary_crossing(self, example3_factory):
        # weak hurdle: more commitment power removes the narrow assignment
        # from the attention set exactly where the blend crosses the hurdle
        mu, tau = 10.0, 0.001
        rhs = hurdle(mu, tau)
        assert rhs < 0.5  # inference effect alone clears the hurdle
        for pols in ((0.01, 0.2), (0.01, 0.4)):
            gap = pols[1] - pols[0]
            for eta in np.linspace(0.0, 1.0, 21):
                scenario = example3_factory(float(eta))
                belief = commitment_belief(scenario, assignment_for(scenario, pols), -tau)
                member = attention_membership(belief, mu)
                assert member == (eta * gap + (1 - eta) * 0.5 >= rhs)

    def test_case2_opposite_direction(self):
        # strong hurdle: only assignments wider than the inference effect can
        # retain attention, and only at high commitment
        doc = figure2_scenario()
        doc["policies"]["beta"] = [0.01, 0.6]
        doc["candidates"]["beta"] = [[0.2, 0.5], [0.7, 0.5]]
        mu, tau = 38.0, 0.001
        doc["attention"]["mu"] = mu
        rhs = hurdle(mu, tau)
        assert rhs > 0.5
        scenario = scenario_from_dict(doc)
        a = assignment_for(scenario, (0.01, 0.6))  # gap .59 > inference effect .5
        members = [
            attention_membership(commitment_belief(replace(scenario, eta=float(eta)), a, -tau), mu)
            for eta in np.linspace(0.0, 1.0, 21)
        ]
        assert members == sorted(members)  # flips from out to in as eta rises
        assert not members[0] and members[-1]

    def test_ic_reduces_to_baseline_at_full_commitment(self, figure2):
        from rivote.election import check_ic

        grid, types = figure2.beta_axis.values, figure2.beta_types
        kernel = ICKernel(grid, types.type_values, types.type_probs,
                          downsian_matrix(figure2.utility, grid), figure2.utility, eta=1.0)
        for pols in ((0.01, 0.2), (0.01, 0.4), (0.2, 0.4)):
            assert kernel.check(pols) == check_ic(figure2, assignment_for(figure2, pols))


class TestFrontier:
    def test_quarter_circle_shape(self):
        frontier = quarter_circle_frontier()
        assert frontier.b(-1.0) == pytest.approx(1.0)
        assert frontier.b(1.0) == pytest.approx(-1.0)
        assert frontier.b_prime(-1.0) == 0.0
        assert frontier.b_prime(0.999) < -20
        assert audit_frontier(frontier) == []

    def test_tabulated_matches_samples(self):
        base = quarter_circle_frontier()
        a = np.linspace(-1, 1, 41)
        frontier = tabulated_frontier(a, [base.b(x) for x in a])
        for x in np.linspace(-0.9, 0.9, 10):
            assert frontier.b(x) == pytest.approx(base.b(x), abs=5e-4)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.floats(0.01, 0.5), min_size=2, max_size=12),
        drops=st.lists(st.floats(0.001, 3.0), min_size=12, max_size=12),
        start=st.floats(-1.0, 0.5),
        where=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=20),
    )
    def test_monotone_cubic_matches_pchip(self, steps, drops, start, where):
        a = start + np.concatenate([[0.0], np.cumsum(steps)])
        b = -np.concatenate([[0.0], np.cumsum(drops[: len(steps)])])
        frontier = tabulated_frontier(a, b)
        pchip = PchipInterpolator(a, b)
        slope = pchip.derivative()
        # inside the samples, at the samples and extrapolated on both sides
        span = a[-1] - a[0]
        xs = np.concatenate([a, a[0] + span * np.asarray(where)])
        for x in xs:
            np.testing.assert_allclose(frontier.b(x), pchip(x), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(frontier.b_prime(x), slope(x), rtol=1e-12, atol=1e-12)

    def test_bad_table_rejected(self):
        with pytest.raises(ValidationError):
            tabulated_frontier([0.0, 0.5, 1.0], [0.0, 0.2, 0.4])  # increasing b

    def test_golden_section(self):
        assert golden_max(lambda a: -((a - 0.3) ** 2), -1, 1, 1e-10) == pytest.approx(
            0.3, abs=1e-8
        )
        # even concave objective peaks at the center
        assert golden_max(lambda a: -(a ** 4) - a * a, -1, 1, 1e-10) == pytest.approx(
            0.0, abs=1e-8
        )


class TestMultiIssue:
    def test_reduction_properties(self):
        red = multi_issue_reduce(weighted_bliss_utility(), quarter_circle_frontier())
        assert red.problems == ()
        assert np.all(np.diff(red.tangency) < 0)  # pro-b types trade a away
        assert np.all(np.isfinite(red.uhat_table))
        assert not red.sid_checked  # sign conditions oppose the audited ordering

    def test_tangency_satisfies_first_order_condition(self):
        u2 = weighted_bliss_utility()
        frontier = quarter_circle_frontier()
        red = multi_issue_reduce(u2, frontier)
        for t, a_star in zip(red.t_grid[::5], red.tangency[::5]):
            h = 1e-6
            slope = (
                u2(a_star + h, frontier.b(a_star + h), t)
                - u2(a_star - h, frontier.b(a_star - h), t)
            ) / (2 * h)
            assert abs(slope) < 1e-3

    def test_single_crossing_violation_refused(self):
        def backwards(a, b, t):  # weight on issue b falls with the type
            return -(1 + 0.5 * t) * (a - 2.0) ** 2 - (1 - 0.5 * t) * (b - 2.0) ** 2

        with pytest.raises(ValidationError, match="single crossing"):
            multi_issue_reduce(backwards, quarter_circle_frontier())

    def test_non_monotone_utility_refused(self):
        def decreasing_in_b(a, b, t):
            return -(a - 2.0) ** 2 + (b - 2.0) ** 2

        with pytest.raises(ValidationError, match="increasing"):
            multi_issue_reduce(decreasing_in_b, quarter_circle_frontier())

    def test_augmented_spec_lookup(self):
        red = multi_issue_reduce(
            weighted_bliss_utility(),
            quarter_circle_frontier(),
            a_grid=np.linspace(-1, 1, 41),
            t_grid=np.linspace(-1, 1, 5),
        )
        spec = red.utility_spec()
        assert utility(spec, red.a_grid[3], red.t_grid[1]) == red.uhat_table[1, 3]

    def test_issues_scenario_section(self):
        # the issues section swaps the voter family for the augmented table
        from rivote.core import SymmetryError
        from rivote.election import enumerate_equilibria
        from rivote.extensions import quarter_circle_frontier, weighted_bliss_utility

        doc = figure2_scenario()
        doc["issues"] = {
            "frontier": "quarter_circle",
            "utility2": {"family": "weighted_bliss", "bliss": 2.0, "slope": 0.5},
            "a_grid_size": 60,
        }
        scenario = scenario_from_dict(doc)
        assert scenario.utility.family == "table"
        assert scenario.utility.win_weight == 12.0
        u2 = weighted_bliss_utility()
        frontier = quarter_circle_frontier()
        for a in (0.01, 0.2, 0.4, -0.4):
            for t in (-0.001, 0.0, 0.3, 0.8):
                assert utility(scenario.utility, a, t) == pytest.approx(
                    u2(a, frontier.b(a), t), abs=1e-12
                )
        # the collapsed economy is not mirror symmetric: equilibrium routines refuse
        with pytest.raises(SymmetryError):
            enumerate_equilibria(scenario)

    def test_issues_bad_frontier_rejected(self):
        doc = figure2_scenario()
        doc["issues"] = {"frontier": "nosuch"}
        with pytest.raises(ValidationError, match="frontier"):
            scenario_from_dict(doc)


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _outcome(reduce, *args, **kwargs):
    """The reduction's fields, or its refusal with numpy scalars printed as floats."""
    try:
        red = reduce(*args, **kwargs)
    except ValidationError as exc:
        return "refused", re.sub(r"np\.float64\(([^)]*)\)", r"\1", str(exc))
    return "reduced", red.uhat_table, red.tangency, red.problems, red.sid_checked, red.sid_ok


def assert_matches_oracle(u2, frontier, **kwargs):
    new = _outcome(multi_issue_reduce, u2, frontier, **kwargs)
    old = _outcome(oracles.multi_issue_reduce, u2, frontier, **kwargs)
    if "refused" in (new[0], old[0]):  # both refuse at the same first violating point
        assert new == old
        return
    assert _same_bits(new[1], old[1]) and _same_bits(new[2], old[2])
    assert new[3:] == old[3:]


class TestMultiIssueAgainstOracle:
    """The array reduction equals the scalar loop bitwise."""

    @pytest.mark.parametrize("grids", [
        {},
        {"a_grid": np.linspace(-1, 1, 41), "t_grid": np.linspace(-1, 1, 5)},
        {"a_grid": np.linspace(-1, 1, 200), "lattice": 7},
    ], ids=["default", "41x5", "lattice7"])
    def test_preset(self, grids):
        assert_matches_oracle(weighted_bliss_utility(), quarter_circle_frontier(), **grids)

    @pytest.mark.parametrize("size", [60, 200])
    def test_issues_section_grids(self, monkeypatch, size):
        import rivote.extensions

        calls = []
        reduce = rivote.extensions.multi_issue_reduce
        monkeypatch.setattr(rivote.extensions, "multi_issue_reduce",
                            lambda *a, **kw: calls.append((a, kw)) or reduce(*a, **kw))
        doc = figure2_scenario()
        doc["issues"] = {"frontier": "quarter_circle", "a_grid_size": size}
        scenario_from_dict(doc)
        (args, kwargs), = calls
        assert len(kwargs["a_grid"]) > size
        assert_matches_oracle(*args, **kwargs)

    @pytest.mark.parametrize("u2", [
        lambda a, b, t: -(1 + 0.5 * t) * (a - 2.0) ** 2 - (1 - 0.5 * t) * (b - 2.0) ** 2,
        lambda a, b, t: -(a - 2.0) ** 2 + (b - 2.0) ** 2,
        lambda a, b, t: -(a - 0.3) * (a - 0.3) - (b - 2.0) * (b - 2.0),
    ], ids=["single_crossing", "decreasing_in_b", "peak_in_a"])
    def test_refusals_name_the_oracle_point(self, u2):
        with pytest.raises(ValidationError):
            multi_issue_reduce(u2, quarter_circle_frontier())
        assert_matches_oracle(u2, quarter_circle_frontier())

    @settings(max_examples=40, deadline=None)
    @given(
        bliss=st.floats(0.5, 4.0),
        slope=st.floats(0.01, 0.99),
        lattice=st.integers(2, 25),
        n_a=st.integers(3, 60),
        t_points=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=9, unique=True),
        drops=st.one_of(st.none(), st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8)),
    )
    def test_property(self, bliss, slope, lattice, n_a, t_points, drops):
        if drops is None:
            frontier = quarter_circle_frontier()
        else:  # concave samples: drops that grow along a
            a = np.linspace(-1.0, 1.0, len(drops) + 1)
            frontier = tabulated_frontier(a, 1.0 - np.concatenate([[0.0], np.cumsum(sorted(drops))]))
        assert_matches_oracle(
            weighted_bliss_utility(bliss, slope), frontier,
            a_grid=np.linspace(-1.0, 1.0, n_a), t_grid=np.sort(t_points), lattice=lattice,
        )

    @pytest.mark.parametrize("grids", [
        {},
        {"a_grid": np.linspace(-1, 1, 41), "t_grid": np.linspace(-1, 1, 5)},
    ], ids=["default", "41x5"])
    def test_squares_as_products_keep_the_pow_tables(self, grids):
        # the preset squares by products; with Python's pow the tables and
        # tangencies of these grids are the same bits
        def pow_u2(a, b, t):
            return -(1.0 - 0.5 * t) * (a - 2.0) ** 2 - (1.0 + 0.5 * t) * (b - 2.0) ** 2

        new = multi_issue_reduce(weighted_bliss_utility(), quarter_circle_frontier(), **grids)
        old = oracles.multi_issue_reduce(pow_u2, quarter_circle_frontier(), **grids)
        assert _same_bits(new.uhat_table, old.uhat_table)
        assert _same_bits(new.tangency, old.tangency)

    def test_callables_broadcast_bitwise(self):
        # dense enough that libm pow(x, 2) and x * x would differ at some points
        a = np.linspace(-1.3, 1.3, 20001)
        t = np.array([-1.0, 0.3, 1.0])[:, None]
        u2 = weighted_bliss_utility(1.7, 0.3)
        table = tabulated_frontier(np.linspace(-1, 1, 9),
                                   [1.0, 0.9, 0.7, 0.4, 0.0, -0.5, -1.1, -1.8, -2.6])
        for frontier in (quarter_circle_frontier(), table):
            for fn in (frontier.b, frontier.b_prime):
                assert _same_bits(fn(a), [fn(float(x)) for x in a])
            b = frontier.b(a)
            assert _same_bits(u2(a, b, t), [[u2(float(x), float(y), float(s)) for x, y in zip(a, b)]
                                            for s in t[:, 0]])

    def test_tabulated_frontier_bits_pinned(self):
        frontier = tabulated_frontier(np.linspace(-1, 1, 9),
                                      [1.0, 0.9, 0.7, 0.4, 0.0, -0.5, -1.1, -1.8, -2.6])
        # outside, inside and at the samples; bits of the scalar evaluation before
        # the callables broadcast
        xs = np.array([-1.2, -0.55, -0.5, 0.0, 0.37, 0.5, 1.3])
        expected_b = [float.fromhex(h) for h in (
            "0x1.fa43fe5c91d14p-1", "0x1.7e97fd28fcc02p-1", "0x1.6666666666666p-1", "0x0.0p+0",
            "-0x1.8d000717998d4p-1", "-0x1.199999999999ap+0", "-0x1.d7396d0917d6ep+1")]
        expected_slope = [float.fromhex(h) for h in (
            "0x1.6b2dbd194238cp-2", "-0x1.da0b321b9469ap-1", "-0x1.eb851eb851ebap-1",
            "-0x1.c71c71c71c71cp+0", "-0x1.333ce110d4d75p+1", "-0x1.4ad4ad4ad4ad5p+1",
            "-0x1.e52bd3c361142p+1")]
        assert _same_bits(frontier.b(xs), expected_b)
        assert _same_bits(frontier.b_prime(xs), expected_slope)
        assert _same_bits([frontier.b(x) for x in xs], expected_b)

    def test_golden_max_broadcasts_over_brackets(self):
        peaks = np.array([0.3, -0.2, 0.9])
        lo = np.array([-1.0, -1.0, 0.0])
        found = golden_max(lambda a: -(a - peaks) * (a - peaks), lo, 1.0, 1e-10)
        for peak, start, x in zip(peaks, lo, found):
            assert x == oracles.golden_max(lambda a: -(a - peak) * (a - peak), start, 1.0, 1e-10)
