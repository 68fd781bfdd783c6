import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rivote.core import (
    CandidateSpec,
    Electorate,
    PolicyAxis,
    Scenario,
    TabulatedUtility,
    UtilitySpec,
    ValidationError,
    _grid_index,
    audit_concavity,
    audit_increasing_differences,
    audit_mirror_symmetry,
    audit_partisan_gap,
    audit_scenario,
    _derived_kappa,
    probability_floats,
    utility,
)
from rivote.election import (
    StrategyAssignment,
    attention_frontier,
    stage_tables,
)
from rivote.extensions import multi_issue_reduce, quarter_circle_frontier, tabulated_frontier
from rivote.extensions import weighted_bliss_utility
from rivote.news import NewsTechnology
from rivote.solver import BeliefOverProfiles, gamma_inverse
from tests import oracles
from tests.oracles import loser_value, voter_utility, winner_value


def differential_utility(spec, profile, t):
    """v(a, t): gain of the beta policy over the alpha policy for voter t."""
    a_alpha, a_beta = profile
    return float(utility(spec, a_beta, t) - utility(spec, a_alpha, t))


def candidate_stage_payoffs(spec, a, a_opponent, t):
    """(value if winning with policy a, value if losing to a_opponent) for
    type t, read from the IC kernel's stage tables."""
    win, lose = stage_tables(spec, np.array([a]), np.array([a_opponent]),
                             np.array([t]), np.array([-t]))
    return float(win[0, 0]), float(lose[0, 0, 0])


class TestVoterUtility:
    def test_absolute_loss(self, abs_spec):
        assert utility(abs_spec, 0.01, -0.05) == pytest.approx(-0.06)

    def test_bliss_point(self, abs_spec):
        assert utility(abs_spec, 0.37, 0.37) == 0.0

    def test_quadratic(self, quad_spec):
        assert utility(quad_spec, 0.4, 0.0) == pytest.approx(-0.16)

    def test_table_lookup_and_miss(self):
        table = TabulatedUtility((-0.5, 0.5), (-1.0, 1.0), ((1.0, 2.0), (3.0, 4.0)))
        spec = UtilitySpec(family="table", table=table)
        assert utility(spec, 0.5, -1.0) == 3.0
        with pytest.raises(ValidationError, match=r"policy=0\.25 is not on the utility table"):
            utility(spec, 0.25, -1.0)
        with pytest.raises(ValidationError, match=r"type=0\.0 is not on the utility table"):
            utility(spec, [0.5, -0.5], 0.0)

    def test_broadcasts_policies_against_types(self, quad_spec):
        u = utility(quad_spec, np.array([0.1, 0.4])[:, None], np.array([-0.2, 0.0, 0.3]))
        assert u.shape == (2, 3)
        assert u[1, 0] == pytest.approx(-0.36)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


A_POINTS = (-0.9, -0.4, -0.2, -0.01, 0.01, 0.2, 0.4, 0.9)
T_POINTS = (-0.8, -0.3, -0.05, 0.0, 0.05, 0.3, 0.8)
# the 1e-12 match admits two grid points for some queries: the first one wins
CROWDED_A = (-0.5, 0.3, 0.3 + 1.5e-12, 0.3 + 3e-12, 0.7)


def _crowded_table():
    t_grid = (-0.5, 0.0, 0.5)
    return TabulatedUtility(
        CROWDED_A, t_grid,
        tuple(tuple(10.0 * i + j for j in range(len(t_grid))) for i in range(len(CROWDED_A))))


class TestUtilityAgainstScalarOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["absolute", "quadratic"]),
        a=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
        t=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
    )
    def test_closed_forms_bitwise(self, family, a, t):
        spec = UtilitySpec(family=family)
        got = utility(spec, np.array(a)[:, None], np.array(t))
        want = [[voter_utility(spec, x, y) for y in t] for x in a]
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_table_bitwise(self):
        values = tuple(tuple(-abs(t - a) ** 1.5 for t in T_POINTS) for a in A_POINTS)
        spec = UtilitySpec(family="table", table=TabulatedUtility(A_POINTS, T_POINTS, values))
        # queries a few ulps and up to 1e-12 off the grid still match
        a = np.array([x + s for x in A_POINTS for s in (0.0, 9e-13, -9e-13)])
        t = np.array([y + 5e-13 for y in T_POINTS])
        got = utility(spec, a[:, None], t)
        want = [[voter_utility(spec, x, y) for y in t] for x in a]
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_table_first_match_wins(self):
        spec = UtilitySpec(family="table", table=_crowded_table())
        queries = [x + s for x in CROWDED_A for s in (-1e-12, -5e-13, 0.0, 5e-13, 1e-12)]
        queries += [0.3 + 0.75e-12, 0.3 + 2.25e-12]
        for a in queries:
            for t in (-0.5, 0.0, 0.5):
                assert utility(spec, a, t) == voter_utility(spec, a, t), (a, t)
        # 0.3 + .75e-12 is within 1e-12 of the first two points; it reads row 1
        assert utility(spec, 0.3 + 0.75e-12, 0.0) == 11.0
        np.testing.assert_array_equal(
            utility(spec, np.array(queries), 0.0),
            [voter_utility(spec, a, 0.0) for a in queries])

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["absolute", "quadratic", "table"]),
        grid=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4, unique=True),
        types=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3, unique=True),
        eta=st.one_of(st.none(), st.floats(0.0, 1.0)),
        rent=st.floats(0.0, 10.0),
        win_weight=st.floats(0.0, 10.0),
        lose_weight=st.floats(0.0, 10.0),
        loser_sign=st.sampled_from([1, -1]),
    )
    def test_stage_tables_bitwise(self, family, grid, types, eta, rent, win_weight,
                                  lose_weight, loser_sign):
        grid, types = np.array(sorted(grid)), np.array(sorted(types))
        table = None
        if family == "table":
            a_pts = sorted({x for v in (*grid, *types) for x in (v, -v)})
            t_pts = sorted({x for v in types for x in (v, -v)})
            table = TabulatedUtility(a_pts, t_pts, tuple(
                tuple(-(t - a) * (t - a) for t in t_pts) for a in a_pts))
        spec = UtilitySpec(family=family, office_rent=rent, win_weight=win_weight,
                           lose_weight=lose_weight, loser_sign=loser_sign, table=table)
        opp_types = -types[::-1]
        win, lose = stage_tables(spec, grid, -grid, types, opp_types, eta)
        if eta is None:
            want_win = [[winner_value(spec, a, t) for a in grid] for t in types]
            want_lose = [[[loser_value(spec, x, t) for t in types] for x in -grid]
                         for _ in opp_types]
        else:
            want_win = [[eta * winner_value(spec, a, t) + (1.0 - eta) * winner_value(spec, t, t)
                         for a in grid] for t in types]
            want_lose = [[[eta * loser_value(spec, x, t) + (1.0 - eta) * loser_value(spec, t2, t)
                           for t in types] for x in -grid] for t2 in opp_types]
        np.testing.assert_array_equal(bits(win), bits(want_win))
        np.testing.assert_array_equal(bits(lose), bits(want_lose))


class TestGridIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        gaps=st.lists(st.sampled_from([1.5e-12, 2e-12, 1e-6, 0.1, 0.7]), min_size=12,
                      max_size=12),
        start=st.floats(-1.0, 1.0),
        offsets=st.lists(st.sampled_from([0.0, 1e-12, -1e-12, 1.0000001e-12, -1.0000001e-12,
                                          5e-13, -5e-13, 2e-12, -2e-12, 1e-13]),
                         min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 11), min_size=6, max_size=6),
        shape=st.sampled_from([(), (6,), (2, 3), (3, 1, 2)]),
    )
    def test_indices_and_refusal_equal_the_reference(self, n, gaps, start, offsets, picks,
                                                     shape):
        # strictly increasing grids, some of them crowded within 1e-12, queried
        # at, just inside and just beyond 1e-12 of their points
        grid = start + np.concatenate(([0.0], np.cumsum(gaps[:n - 1])))
        assume(np.all(np.diff(grid) > 0))
        x = np.array([grid[k % n] + offsets[i % len(offsets)]
                      for i, k in enumerate(picks)])[:math.prod(shape)].reshape(shape)
        refusal = "point {!r} is off the grid"
        try:
            want = oracles.grid_index(grid, x, refusal)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                _grid_index(grid, x, refusal)
            return
        got = _grid_index(grid, x, refusal)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(got, want)


class TestDifferentialUtility:
    def test_direct(self, abs_spec):
        assert differential_utility(abs_spec, (-0.4, 0.01), -0.05) == pytest.approx(0.29)

    def test_symmetric_profile_at_median(self, abs_spec):
        assert differential_utility(abs_spec, (-0.3, 0.3), 0.0) == 0.0

    def test_pro_alpha_voter_dislikes_extreme_beta(self, abs_spec):
        # direct evaluation: u(.4, -.2) - u(-.01, -.2) = -.6 + .19
        assert differential_utility(abs_spec, (-0.01, 0.4), -0.2) == pytest.approx(-0.41)


class TestCandidatePayoffs:
    def test_winner(self):
        spec = UtilitySpec(family="absolute", office_rent=8.0, win_weight=12.0)
        win, _ = candidate_stage_payoffs(spec, 0.2, -0.4, 0.3)
        assert win == pytest.approx(6.8)

    def test_pure_office_motivation(self):
        spec = UtilitySpec(family="absolute", office_rent=8.0)
        _, lose = candidate_stage_payoffs(spec, 0.2, -0.9, 0.3)
        assert lose == 0.0

    def test_loser_sign_as_printed(self):
        spec = UtilitySpec(family="absolute", lose_weight=1.0, loser_sign=1)
        _, lose = candidate_stage_payoffs(spec, 0.4, -0.2, 0.8)
        assert lose == pytest.approx(1.0)

    def test_loser_sign_flipped(self):
        spec = UtilitySpec(family="absolute", lose_weight=1.0, loser_sign=-1)
        _, lose = candidate_stage_payoffs(spec, 0.4, -0.2, 0.8)
        assert lose == pytest.approx(-1.0)


class TestInvariantAudits:
    A_GRID = (-0.9, -0.4, -0.2, -0.01, 0.01, 0.2, 0.4, 0.9)
    T_GRID = (-0.8, -0.3, -0.05, 0.0, 0.05, 0.3, 0.8)

    @pytest.mark.parametrize("family", ["absolute", "quadratic"])
    def test_mirror_symmetry(self, family):
        spec = UtilitySpec(family=family)
        assert audit_mirror_symmetry(spec, self.A_GRID, self.T_GRID) == []

    def test_quadratic_increasing_differences_strict_everywhere(self, quad_spec):
        assert audit_increasing_differences(quad_spec, self.A_GRID, self.T_GRID) == []

    def test_absolute_increasing_differences(self, abs_spec):
        # weak everywhere, strict on overlapping policy/type pairs
        assert audit_increasing_differences(abs_spec, self.A_GRID, self.T_GRID) == []

    @pytest.mark.parametrize("family", ["absolute", "quadratic"])
    def test_concavity(self, family):
        spec = UtilitySpec(family=family)
        assert audit_concavity(spec, self.A_GRID, self.T_GRID) == []

    def test_partisan_gap_absolute(self, abs_spec):
        kappa = _derived_kappa(abs_spec, (-0.4, -0.01), (0.01, 0.4))
        assert kappa == pytest.approx(0.02)
        assert audit_partisan_gap(
            abs_spec, (-0.4, -0.01), (0.01, 0.4), (0.05, 0.2, 0.8), kappa
        ) == []

    def test_partisan_gap_quadratic(self, quad_spec):
        kappa = _derived_kappa(quad_spec, (-0.4, -0.01), (0.01, 0.4))
        assert kappa == pytest.approx(0.04)
        assert audit_partisan_gap(
            quad_spec, (-0.4, -0.01), (0.01, 0.4), (0.05, 0.2, 0.8), kappa
        ) == []

    def test_table_kappa_brute_force_matches_closed_form(self, abs_spec):
        # tabulate the absolute-loss family and compare the minimised constant
        a_grid = (-0.4, -0.01, 0.01, 0.4)
        t_grid = (-0.8, -0.2, 0.0, 0.2, 0.8)
        table = TabulatedUtility(
            a_grid, t_grid, tuple(tuple(-abs(t - a) for t in t_grid) for a in a_grid)
        )
        spec = UtilitySpec(family="table", table=table)
        kappa = _derived_kappa(spec, (-0.4, -0.01), (0.01, 0.4), (0.2, 0.8))
        # worst profile keeps a gap of 2*a1 = .02, minimised over t at t = .8
        assert kappa == pytest.approx(0.02 / 0.8, abs=1e-12)

    def test_scenario_audit_clean(self, figure2):
        assert audit_scenario(figure2) == []


class TestConstruction:
    def test_axis_rejects_wrong_half_interval(self):
        with pytest.raises(ValidationError):
            PolicyAxis((0.0, 0.5))
        with pytest.raises(ValidationError):
            PolicyAxis((0.5, 1.5))

    def test_axis_mirror_roundtrip(self):
        axis = PolicyAxis((0.01, 0.2, 0.4))
        assert axis.alpha_values == (-0.4, -0.2, -0.01)
        assert tuple(-a for a in reversed(axis.alpha_values)) == axis.values

    def test_candidate_probs_must_sum(self):
        with pytest.raises(ValidationError):
            CandidateSpec(((0.3, 0.5), (0.8, 0.4)))

    def test_electorate_weights(self):
        with pytest.raises(ValidationError):
            Electorate(((0.0, 0.5), (0.5, 0.4)))
        assert Electorate(((-0.2, 0.5), (0.2, 0.5))).is_symmetric()
        assert not Electorate(((-0.2, 0.4), (0.0, 0.2), (0.3, 0.4))).is_symmetric()

    def test_scenario_requires_a_policy_axis(self):
        with pytest.raises(ValidationError, match="beta_axis must be a PolicyAxis"):
            Scenario(
                beta_axis=None,
                utility=UtilitySpec(),
                beta_types=CandidateSpec(((0.5, 1.0),)),
                electorate=Electorate(((-0.1, 0.5), (0.1, 0.5))),
                mu=1.0,
            )

    def test_scenario_requires_positive_mu(self):
        with pytest.raises(ValidationError):
            Scenario(
                beta_axis=PolicyAxis((0.1, 0.4)),
                utility=UtilitySpec(),
                beta_types=CandidateSpec(((0.5, 1.0),)),
                electorate=Electorate(((-0.1, 0.5), (0.1, 0.5))),
                mu=0.0,
            )


def _scenario(**fields):
    return Scenario(**{"beta_axis": PolicyAxis((0.1, 0.4)), "utility": UtilitySpec(),
                       "beta_types": CandidateSpec(((0.5, 1.0),)),
                       "electorate": Electorate(((-0.1, 0.5), (0.1, 0.5))), "mu": 1.0,
                       **fields})


# one entry per (constructor or entry point, field): builds it with x in the field
NON_FINITE = {
    "PolicyAxis.values": lambda x: PolicyAxis((0.1, x)),
    "PolicyAxis.values(one)": lambda x: PolicyAxis((x,)),
    "UtilitySpec.office_rent": lambda x: UtilitySpec(office_rent=x),
    "UtilitySpec.win_weight": lambda x: UtilitySpec(win_weight=x),
    "UtilitySpec.lose_weight": lambda x: UtilitySpec(lose_weight=x),
    "UtilitySpec.kappa": lambda x: UtilitySpec(kappa=x),
    "CandidateSpec.type": lambda x: CandidateSpec(((0.3, 0.5), (x, 0.5))),
    "CandidateSpec.probability": lambda x: CandidateSpec(((0.3, 0.5), (0.8, x))),
    "Electorate.type": lambda x: Electorate(((-0.2, 0.5), (x, 0.5))),
    "Electorate.weight": lambda x: Electorate(((-0.2, 0.5), (0.2, x))),
    "Scenario.mu": lambda x: _scenario(mu=x),
    "Scenario.eta": lambda x: _scenario(eta=x),
    "Scenario.dissemination_cost": lambda x: _scenario(dissemination_cost=x),
    "NewsTechnology.signals": lambda x: NewsTechnology((0.25, x), lambda a: a),
    "BeliefOverProfiles.probs": lambda x: BeliefOverProfiles(((0, 1), (1, 0)), (0.5, x),
                                                             (0.1, -0.1)),
    "StrategyAssignment.types": lambda x: StrategyAssignment((0.3, x), (0.5, 0.5), (0.1, 0.2)),
    "StrategyAssignment.types(one)": lambda x: StrategyAssignment((x,), (1.0,), (0.1,)),
    "StrategyAssignment.type_probs": lambda x: StrategyAssignment((0.3, 0.8), (0.5, x),
                                                                  (0.1, 0.2)),
    "StrategyAssignment.policies": lambda x: StrategyAssignment((0.3, 0.8), (0.5, 0.5),
                                                                (0.1, x)),
    "attention_frontier.level_probs": lambda x: attention_frontier(
        UtilitySpec(), [0.1], [0.2, 0.3], 0.0, 1.0, level_probs=(x, x)),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_fields_are_refused(case, x):
    # each check is written so that NaN fails it: no silent NaN gets through
    with pytest.raises(ValidationError):
        NON_FINITE[case](x)


def _reduce(**grids):
    return multi_issue_reduce(weighted_bliss_utility(), quarter_circle_frontier(), **grids)


_TABLE = ((0.0, 0.0), (0.0, 0.0))
# one entry per site that reads a grid: each built one that was not finite and
# strictly increasing into a result, NaN or inf, or a misleading refusal
BAD_GRIDS = {
    "TabulatedUtility.a_values": lambda: TabulatedUtility((0.1, math.nan), (0.0, 0.5), _TABLE),
    "TabulatedUtility.t_values": lambda: TabulatedUtility((0.1, 0.2), (0.0, math.inf), _TABLE),
    "TabulatedUtility.u(nan)": lambda: TabulatedUtility((0.1, 0.2), (0.0, 0.5),
                                                        ((0.0, math.nan), (0.0, 0.0))),
    "TabulatedUtility.u(inf)": lambda: TabulatedUtility((0.1, 0.2), (0.0, 0.5),
                                                        ((0.0, 0.0), (-math.inf, 0.0))),
    "tabulated_frontier.a(nan)": lambda: tabulated_frontier([-1, math.nan, 1], [1, 0.5, -1]),
    "tabulated_frontier.a(inf)": lambda: tabulated_frontier([-1, 0, math.inf], [1, 0.5, -1]),
    "tabulated_frontier.b(nan)": lambda: tabulated_frontier([-1, 0, 1], [1, math.nan, -1]),
    "multi_issue_reduce.a_grid(descending)": lambda: _reduce(a_grid=np.linspace(1, -1, 50)),
    "multi_issue_reduce.a_grid(nan)": lambda: _reduce(a_grid=[-1.0, math.nan, 1.0]),
    "multi_issue_reduce.t_grid(unsorted)": lambda: _reduce(t_grid=[0.5, -0.5, 0.0]),
    "attention_frontier.a2(descending)": lambda: attention_frontier(
        UtilitySpec(), [0.01, 0.1], np.arange(0.95, 0.0, -0.05), -0.001, 10.0),
    "attention_frontier.a2(nan)": lambda: attention_frontier(
        UtilitySpec(), [0.01, 0.1], [0.2, math.nan, 0.4], -0.001, 10.0),
    "attention_frontier.a1(nan)": lambda: attention_frontier(
        UtilitySpec(), [0.01, math.nan], [0.2, 0.4], -0.001, 10.0),
    "attention_frontier.a1(-inf)": lambda: attention_frontier(
        UtilitySpec(), [-math.inf], [0.2, 0.4], -0.001, 10.0),
    # type axes are sorted first, so only a duplicate or a non-finite type can fail
    "CandidateSpec.types(duplicate)": lambda: CandidateSpec(((0.3, 0.5), (0.3, 0.5))),
    "CandidateSpec.types(nan)": lambda: CandidateSpec(((0.3, 0.5), (math.nan, 0.5))),
    "Electorate.types(duplicate)": lambda: Electorate(((0.2, 0.5), (0.2, 0.5))),
    "Electorate.types(nan)": lambda: Electorate(((-0.2, 0.5), (math.nan, 0.5))),
}


@pytest.mark.parametrize("case", BAD_GRIDS)
def test_grids_must_be_finite_and_strictly_increasing(case):
    with pytest.raises(ValidationError, match="must be finite"):
        BAD_GRIDS[case]()


# one entry per site of the probability rule: (what its message names, a build
# with the two probabilities p)
PROBABILITY_SITES = {
    "CandidateSpec": ("type probabilities",
                      lambda p: CandidateSpec(((0.3, p[0]), (0.8, p[1])))),
    "Electorate": ("group weights", lambda p: Electorate(((-0.2, p[0]), (0.2, p[1])))),
    "StrategyAssignment": ("type probabilities",
                           lambda p: StrategyAssignment((0.3, 0.8), p, (0.1, 0.2))),
    "BeliefOverProfiles": ("support probabilities",
                           lambda p: BeliefOverProfiles(((0, 1), (1, 0)), p, (0.1, -0.1))),
    "frontier_scan": ("level probabilities", lambda p: attention_frontier(
        UtilitySpec(), [0.1], [0.2, 0.3], 0.0, 1.0, level_probs=p)),
}
BAD_PROBABILITIES = {
    "nan": ((0.5, math.nan), "must be positive"),
    "zero": ((1.0, 0.0), "must be positive"),
    "negative": ((1.1, -0.1), "must be positive"),
    "inf": ((0.5, math.inf), "must sum to 1"),
    "sum_off_by_1e-9": ((0.5, 0.5 + 1e-9), "must sum to 1"),
}


@pytest.mark.parametrize("bad", BAD_PROBABILITIES)
@pytest.mark.parametrize("site", PROBABILITY_SITES)
def test_every_distribution_is_refused_by_the_one_probability_rule(site, bad):
    what, build = PROBABILITY_SITES[site]
    probs, reason = BAD_PROBABILITIES[bad]
    with pytest.raises(ValidationError, match=f"^{what} {reason}$"):
        build(probs)
    build((0.5, 0.5 + 1e-13))  # within 1e-12 of 1


def test_an_empty_distribution_does_not_sum_to_1():
    with pytest.raises(ValidationError, match="^type probabilities must sum to 1$"):
        CandidateSpec(())
    with pytest.raises(ValidationError, match="^group weights must sum to 1$"):
        Electorate(())


def test_probability_floats_returns_a_new_array():
    # a belief freezes the array it gets back, not the caller's
    given = np.array([0.25, 0.75])
    probs = probability_floats(given, "p")
    assert probs is not given and probs.dtype == float and probs.tolist() == [0.25, 0.75]
    BeliefOverProfiles(((0, 1), (1, 0)), given, (0.1, -0.1))
    assert given.flags.writeable


def test_gamma_inverse_refuses_nan():
    with pytest.raises(ValidationError, match="requires y >= 2"):
        gamma_inverse(math.nan)


def test_kappa_override_is_respected():
    spec = UtilitySpec(family="absolute", kappa=0.015)
    assert _derived_kappa(spec, (-0.4,), (0.01, 0.4)) == 0.015


def test_mirror_symmetry_of_stage_payoffs(abs_spec):
    spec = UtilitySpec(family="absolute", office_rent=8.0, win_weight=12.0,
                       lose_weight=1.0, loser_sign=-1)
    for a, opp, t in ((0.2, -0.4, 0.3), (0.4, -0.01, 0.8)):
        win, lose = candidate_stage_payoffs(spec, a, opp, t)
        win_m, lose_m = candidate_stage_payoffs(spec, -a, -opp, -t)
        assert win == pytest.approx(win_m, abs=1e-15)
        assert lose == pytest.approx(lose_m, abs=1e-15)
