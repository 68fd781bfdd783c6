import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivote.core import (
    CandidateSpec,
    Electorate,
    PolicyAxis,
    Scenario,
    TabulatedUtility,
    UtilitySpec,
    ValidationError,
    audit_concavity,
    audit_increasing_differences,
    audit_mirror_symmetry,
    audit_partisan_gap,
    audit_scenario,
    derived_kappa,
    utility,
)
from rivote.election import stage_tables
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
        kappa = derived_kappa(abs_spec, (-0.4, -0.01), (0.01, 0.4))
        assert kappa == pytest.approx(0.02)
        assert audit_partisan_gap(
            abs_spec, (-0.4, -0.01), (0.01, 0.4), (0.05, 0.2, 0.8), kappa
        ) == []

    def test_partisan_gap_quadratic(self, quad_spec):
        kappa = derived_kappa(quad_spec, (-0.4, -0.01), (0.01, 0.4))
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
        kappa = derived_kappa(spec, (-0.4, -0.01), (0.01, 0.4), (0.2, 0.8))
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


def test_kappa_override_is_respected():
    spec = UtilitySpec(family="absolute", kappa=0.015)
    assert derived_kappa(spec, (-0.4,), (0.01, 0.4)) == 0.015


def test_mirror_symmetry_of_stage_payoffs(abs_spec):
    spec = UtilitySpec(family="absolute", office_rent=8.0, win_weight=12.0,
                       lose_weight=1.0, loser_sign=-1)
    for a, opp, t in ((0.2, -0.4, 0.3), (0.4, -0.01, 0.8)):
        win, lose = candidate_stage_payoffs(spec, a, opp, t)
        win_m, lose_m = candidate_stage_payoffs(spec, -a, -opp, -t)
        assert win == pytest.approx(win_m, abs=1e-15)
        assert lose == pytest.approx(lose_m, abs=1e-15)
