import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from rivote import solver
from rivote.core import EXACT, NumericError, ValidationError
from rivote.election import enumerate_equilibria
from rivote.scenario_io import scenario_from_dict
from rivote.solver import (
    BeliefOverProfiles,
    attention_membership,
    attention_threshold_delta,
    attentive,
    entropy,
    gamma_inverse,
    log_mean_exp,
    mutual_information,
    solve_attention,
    solve_groups,
)
from tests import oracles
from tests.conftest import bench_workloads, two_level_belief


class TestEntropy:
    def test_uniform(self):
        assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_degenerate(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_direct_evaluation(self):
        expected = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0397207708399179)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            entropy([1.1, -0.1])

    @pytest.mark.parametrize("call", [
        lambda: entropy([0.5, math.nan]),
        lambda: entropy([0.5, math.inf]),
        lambda: solver.binary_entropy(math.nan),
        lambda: solver.binary_entropy([0.5, -math.inf]),
        lambda: mutual_information([math.nan, 0.5], [0.5, 0.5]),
        lambda: mutual_information([0.5, 0.5], [0.5, math.inf]),
    ], ids=["entropy_nan", "entropy_inf", "binary_nan", "binary_inf", "mi_m_nan", "mi_probs_inf"])
    def test_non_finite_refused(self, call):
        # NaN used to drop out of every comparison and return a number
        with pytest.raises(ValidationError, match="must be finite"):
            call()


class TestMutualInformation:
    def test_constant_decision_carries_nothing(self):
        assert mutual_information([0.3, 0.3, 0.3], [0.2, 0.5, 0.3]) == 0.0

    def test_benchmark_median_row(self):
        m = [0.5, 0.0130, 0.9870, 0.5]
        assert mutual_information(m, [0.25] * 4) == pytest.approx(0.312, abs=0.002)

    def test_revealed_binary_partition(self):
        assert mutual_information([0.0, 0.0, 1.0, 1.0], [0.25] * 4) == pytest.approx(
            math.log(2), abs=1e-12
        )

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
        st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_decision_side_equals_state_side(self, m, seed):
        # H(decision) - E H(decision|state) == H(state) - E H(state|decision)
        rng = np.random.default_rng(seed)
        p = rng.random(len(m)) + 1e-3
        p /= p.sum()
        m = np.asarray(m)
        lhs = mutual_information(m, p)
        m_bar = float(p @ m)
        h_state = entropy(p)
        cond = 0.0
        for s, mass in ((1, m_bar), (0, 1.0 - m_bar)):
            if mass <= 0:
                continue
            post = p * (m if s == 1 else 1.0 - m) / mass
            cond += mass * entropy(post)
        assert lhs == pytest.approx(h_state - cond, abs=1e-9)
        assert 0.0 <= lhs <= min(h_state, math.log(2)) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 64),
        ends=st.integers(0, 8),
        solved=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        log_mu=st.floats(math.log(1e-3), math.log(3.0)),
    )
    def test_bitwise_equal_to_the_reference(self, n, ends, solved, seed, log_mu):
        # the reference is the earlier body: one binary_entropy call for E[m]
        # as a float and one for m; m has exact 0s and 1s, or is a solve's
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(n))
        m = rng.random(n)
        m[rng.integers(0, n, ends)] = rng.integers(0, 2, ends)
        if solved:
            values = rng.normal(0.0, 1.0, n)
            values[rng.integers(0, n, ends)] = 0.0
            m = solve_groups(values[None], probs, math.exp(log_mu))[0].m
        got, want = mutual_information(m, probs), oracles.mutual_information(m, probs)
        assert type(got) is type(want) is float
        assert _bytes(got) == _bytes(want)


class TestBeliefValidation:
    def test_probs_must_sum(self):
        with pytest.raises(ValidationError):
            BeliefOverProfiles(("a", "b"), [0.6, 0.5], [0.0, 1.0])

    def test_support_must_be_distinct(self):
        with pytest.raises(ValidationError):
            BeliefOverProfiles(("a", "a"), [0.5, 0.5], [0.0, 1.0])

    def test_zero_prob_rejected(self):
        with pytest.raises(ValidationError):
            BeliefOverProfiles(("a", "b"), [1.0, 0.0], [0.0, 1.0])


class TestSolveAttention:
    def test_benchmark_interior_row(self, table_belief):
        sol = solve_attention(table_belief(-0.05), 0.09)
        assert sol.regime == "interior"
        assert sol.info == pytest.approx(0.315, abs=0.002)
        np.testing.assert_allclose(sol.m, [0.296, 0.006, 0.930, 0.148], atol=0.002)
        assert sol.residual <= 1e-12

    def test_benchmark_corner_row(self, table_belief):
        sol = solve_attention(table_belief(-0.2), 0.09)
        assert sol.regime == "corner_zero"
        assert sol.m_bar == 0.0
        assert np.all(sol.m == 0.0)
        assert sol.info == 0.0

    def test_median_voter_splits_exactly(self, table_belief):
        sol = solve_attention(table_belief(0.0), 0.09)
        assert sol.m_bar == pytest.approx(0.5, abs=1e-10)

    def test_corner_one_with_uniformly_positive_values(self):
        belief = BeliefOverProfiles(("x", "y"), [0.5, 0.5], [0.8, 0.9])
        sol = solve_attention(belief, 0.05)
        assert sol.regime == "corner_one"
        assert np.all(sol.m == 1.0)
        assert math.isinf(sol.likelihood_ratio)

    def test_logit_sufficiency_equal_values_equal_probs(self, abs_spec):
        belief = BeliefOverProfiles(
            ("p", "q", "r"), [0.2, 0.5, 0.3], [0.3, -0.1, 0.3]
        )
        sol = solve_attention(belief, 0.2)
        assert sol.m[0] == sol.m[2]

    def test_monotone_in_values(self):
        belief = BeliefOverProfiles(
            tuple(range(5)), [0.2] * 5, [-0.4, -0.1, 0.0, 0.1, 0.4]
        )
        sol = solve_attention(belief, 0.15)
        assert sol.regime == "interior"
        assert np.all(np.diff(sol.m) > 0)

    def test_average_monotone_in_type_with_strict_differences(self, quad_spec):
        # strict increasing differences make the average choice probability
        # strictly increasing across interior voters
        mbars = []
        for t in (-0.1, -0.05, 0.0, 0.05, 0.1):
            sol = solve_attention(two_level_belief(quad_spec, 0.1, 0.5, t), 0.05)
            assert sol.regime == "interior"
            mbars.append(sol.m_bar)
        assert np.all(np.diff(mbars) > 0)

    def test_tiny_mu_does_not_overflow(self, table_belief):
        sol = solve_attention(table_belief(-0.05), 1e-4)
        assert sol.regime == "interior"
        assert np.all(np.isfinite(sol.m))

    def test_non_finite_values_raise(self):
        belief = BeliefOverProfiles(("a", "b"), [0.5, 0.5], [0.0, 1.0])
        object.__setattr__(belief, "values", np.array([0.0, np.inf]))
        with pytest.raises(NumericError):
            solve_attention(belief, 1.0)

    def test_corner_flags_match_moment_inequalities(self, table_belief):
        for t in (-0.3, -0.2, -0.1, -0.05, 0.0, 0.05):
            belief = table_belief(t)
            sol = solve_attention(belief, 0.09)
            e_pos = float(np.dot(belief.probs, np.exp(belief.values / 0.09)))
            e_neg = float(np.dot(belief.probs, np.exp(-belief.values / 0.09)))
            if e_pos < 1.0:
                assert sol.regime == "corner_zero"
            elif e_neg < 1.0:
                assert sol.regime == "corner_one"
            else:
                assert sol.regime == "interior"


class TestMembership:
    def test_benchmark_nonmember(self, table_belief):
        belief = table_belief(-0.2)
        # brute-force moment: mean of the four exponentials
        moment = float(np.mean(np.exp(belief.values / 0.09)))
        assert moment == pytest.approx(0.4295, abs=0.002)
        assert not attention_membership(belief, 0.09)

    def test_median_always_member(self, table_belief):
        assert attention_membership(table_belief(0.0), 0.09)
        assert attention_membership(table_belief(0.0), 1000.0)

    def test_boundary_with_all_zero_values(self):
        belief = BeliefOverProfiles(("a", "b"), [0.5, 0.5], [0.0, 0.0])
        assert attention_membership(belief, 1.0)

    def test_near_boundary_belief_has_one_classification(self):
        # log E[exp(v/mu)] = -5e-14 lies within the 1e-12 tolerance: the voter
        # is attentive, so the solver must not report the corner_zero regime
        low = math.log(2.0 * math.exp(-5e-14) - math.exp(0.5))
        belief = BeliefOverProfiles(("lo", "hi"), [0.5, 0.5], [low, 0.5])
        moment = float(log_mean_exp(belief.values, belief.probs, 1.0))
        assert -EXACT < moment < 0.0
        assert attention_membership(belief, 1.0)
        sol = solve_attention(belief, 1.0)
        assert sol.regime == "interior"
        assert sol.m_bar == pytest.approx(0.0, abs=1e-11)

    @settings(max_examples=50, deadline=None)
    @given(
        groups=st.integers(1, 301),
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        log_mu=st.floats(math.log(1e-3), math.log(3.0)),
    )
    def test_batched_corners_are_the_row_by_row_tests(self, groups, n, seed, log_mu):
        # one log_mean_exp call over a batch's values and their negation
        # decides each row as the one-row tests do, also for rows shifted so
        # that log E[exp(v/mu)] lies within 1e-13 of -1e-12, or
        # log E[exp(-v/mu)] within 1e-13 of 0
        rng, mu = np.random.default_rng(seed), math.exp(log_mu)
        probs = rng.dirichlet(np.ones(n))
        loc, scale = rng.uniform(-2.0, 2.0, (groups, 1)), rng.uniform(0.1, 3.0, (groups, 1))
        values = mu * rng.normal(loc, scale, (groups, n))
        kind, offset = rng.integers(0, 3, groups), rng.uniform(-0.9e-13, 0.9e-13, groups)
        lower, upper = log_mean_exp(values, probs, mu), log_mean_exp(-values, probs, mu)
        shift = np.select([kind == 1, kind == 2],
                          [mu * (offset - EXACT - lower), mu * (upper - offset)])
        values = values + shift[:, None]
        lower, upper = log_mean_exp(values, probs, mu), log_mean_exp(-values, probs, mu)
        assert np.all(np.abs(lower + EXACT)[kind == 1] <= 1e-13)
        assert np.all(np.abs(upper)[kind == 2] <= 1e-13)
        for v, sol in zip(values, solve_groups(values, probs, mu)):
            regime = ("corner_zero" if not attentive(v, probs, mu) else
                      "corner_one" if log_mean_exp(-v, probs, mu) < 0.0 else "interior")
            assert sol.regime == regime

    @pytest.mark.parametrize("mu", [0.0, -0.09, math.nan])
    @pytest.mark.parametrize("rule", [
        lambda belief, mu: attentive(belief.values, belief.probs, mu),
        lambda belief, mu: log_mean_exp(belief.values, belief.probs, mu),
        solve_attention,
        attention_membership,
    ], ids=["attentive", "log_mean_exp", "solve_attention", "attention_membership"])
    def test_mu_must_be_positive(self, rule, mu):
        # the rule itself checks mu, so no entry point can skip the check
        belief = BeliefOverProfiles(("lo", "hi"), [0.5, 0.5], [-1.0, 0.5])
        with pytest.raises(ValidationError, match="^mu must be positive$"):
            rule(belief, mu)


def _bits(x):
    """The bit patterns of ``x``, elementwise and with its shape."""
    return np.asarray(x, dtype=float).view(np.uint64)


class TestLogMeanExp:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 4),
        n=st.integers(1, 64),
        scale=st.sampled_from([1e-3, 1.0, 40.0]),
        ties=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        mu=st.floats(0.01, 3.0),
        batched=st.booleans(),
    )
    def test_bitwise_equal_to_scipy_logsumexp(self, rows, n, scale, ties, seed, mu, batched):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, scale, (rows, n))
        # copy each row's maximum onto a few other points: tied maxima
        for r in range(rows):
            values[r, rng.integers(0, n, ties)] = values[r].max()
        probs = rng.dirichlet(np.ones(n) * 0.7)
        probs = np.maximum(probs, 1e-300)
        if not batched:
            values = values[0]
        got = log_mean_exp(values, probs, mu)
        want = logsumexp(values / mu, axis=-1, b=probs)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @settings(max_examples=300, deadline=None)
    @given(
        batch=st.lists(st.integers(1, 3), max_size=2),
        n=st.integers(1, 64),
        scale=st.sampled_from([1e-3, 1.0, 40.0]),
        ties=st.integers(0, 3),
        zeros=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
        log_mu=st.floats(math.log(1e-3), math.log(3.0)),
    )
    def test_bitwise_equal_to_the_reference(self, batch, n, scale, ties, zeros, seed, log_mu):
        # the reference is the earlier body on numpy's max and sum wrappers
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, scale, (*batch, n))
        for idx in np.ndindex(*batch):  # tied maxima, then exact zeros
            values[idx][rng.integers(0, n, ties)] = values[idx].max()
            values[idx][rng.integers(0, n, zeros)] = 0.0
        probs = rng.dirichlet(np.ones(n))
        probs = np.maximum(probs, 1e-300)
        mu = math.exp(log_mu)
        got, want = log_mean_exp(values, probs, mu), oracles.log_mean_exp(values, probs, mu)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_rows_are_independent_of_the_batch(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 2.0, (3, 5, 4))
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        batch = log_mean_exp(values, probs, 0.7)
        for idx in np.ndindex(3, 5):
            assert _bits(batch[idx]) == _bits(log_mean_exp(values[idx], probs, 0.7))

    def test_per_row_probs_as_the_frontier_scan_masks_them(self):
        # probs of the values' own shape, one row each: zero where the
        # profile has probability 0, which frontier_scan leaves in and gives
        # the row's least kept value
        rng = np.random.default_rng(6)
        values = rng.normal(0.0, 2.0, (3, 5, 4))
        keep = rng.random((3, 5, 4)) < 0.7
        keep[..., 0] = True
        floor = np.min(values, axis=-1, where=keep, initial=np.inf, keepdims=True)
        probs = np.where(keep, rng.dirichlet(np.ones(4), (3, 5)), 0.0)
        probs, values = probs / probs.sum(axis=-1, keepdims=True), np.where(keep, values, floor)
        batch = log_mean_exp(values, probs, 0.7)
        for idx in np.ndindex(3, 5):
            assert _bits(batch[idx]) == _bits(log_mean_exp(values[idx], probs[idx], 0.7))

    def test_non_finite_payoffs_refused(self):
        with pytest.raises(NumericError):
            log_mean_exp([1.0, np.inf], [0.5, 0.5], 1.0)


class TestGamma:
    def test_gamma_at_one(self):
        assert 2 * math.cosh(1.0) == pytest.approx(math.e + 1 / math.e, abs=1e-12)

    def test_inverse_at_two(self):
        assert gamma_inverse(2.0) == 0.0

    def test_inverse_closed_form(self):
        assert gamma_inverse(4.0) == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-12)
        assert 2 * math.cosh(gamma_inverse(4.0)) == pytest.approx(4.0, abs=1e-12)

    def test_below_domain(self):
        with pytest.raises(ValidationError):
            gamma_inverse(1.9)

    @given(st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, x):
        # 2 cosh(x) = 2 + x^2 + O(x^4): doubles cannot carry x below sqrt(eps),
        # so the achievable roundtrip accuracy degrades to ~1.5e-8 near zero
        assert gamma_inverse(2 * math.cosh(x)) == pytest.approx(x, rel=1e-10, abs=3e-8)


class TestThresholdDelta:
    def test_vanishes_with_centrist_voter(self):
        # the threshold scales like sqrt(|t|) near the median
        values = [attention_threshold_delta(1.0, t, 2.0, 0.5) for t in (1e-3, 1e-6, 1e-9)]
        assert values[0] > values[1] > values[2] > 0
        assert values[2] < 1e-4
        assert attention_threshold_delta(1.0, 0.0, 2.0, 0.5) == 0.0

    def test_rejects_degenerate_diag(self):
        with pytest.raises(ValidationError):
            attention_threshold_delta(1.0, 0.1, 2.0, 1.0)

    def test_matches_two_level_membership_boundary(self, abs_spec):
        # scan the membership boundary in the level gap and compare
        mu, tau = 10.0, 0.001
        delta = attention_threshold_delta(mu, tau, 2.0, 0.5)
        lo, hi = 0.0, 1.0
        a1 = 0.05
        for _ in range(60):
            gap = 0.5 * (lo + hi)
            if attention_membership(two_level_belief(abs_spec, a1, a1 + gap, -tau), mu):
                hi = gap
            else:
                lo = gap
        assert 0.5 * (lo + hi) == pytest.approx(delta, abs=1e-6)

    def test_strictly_increasing_in_mu(self):
        kappa = 2.0
        mus = np.linspace(kappa / (2 * math.log(2)), 100.0, 80)
        deltas = [attention_threshold_delta(m, 0.001, kappa, 0.5) for m in mus]
        assert np.all(np.diff(deltas) > 0)

    def test_large_argument_branch(self):
        val = attention_threshold_delta(1e-4, 0.5, 2.0, 0.5)
        assert math.isfinite(val) and val > 0


from tests.oracles import brute_force_objective_max


class TestOracleEquivalence:
    def test_solver_matches_brute_force_on_benchmark(self, table_belief):
        belief = table_belief(-0.05)
        mu = 0.09
        sol = solve_attention(belief, mu)
        brute, _ = brute_force_objective_max(belief.values, belief.probs, mu)
        assert sol.objective(belief, mu) >= brute - 1e-9
        assert abs(sol.objective(belief, mu) - brute) <= 1e-4

    def test_seeded_random_instances(self):
        rng = np.random.default_rng(20240)
        for _ in range(5):  # the full 20-instance sweep runs in acceptance
            values = rng.uniform(-1.0, 1.0, 4)
            probs = rng.dirichlet(np.ones(4) * 2.0)
            mu = rng.uniform(0.05, 0.5)
            belief = BeliefOverProfiles(tuple(range(4)), probs, values)
            sol = solve_attention(belief, mu)
            brute, _ = brute_force_objective_max(values, probs, mu)
            assert sol.objective(belief, mu) >= brute - 1e-9
            assert abs(sol.objective(belief, mu) - brute) <= 1e-4


def _bytes(x) -> bytes:
    """The float bytes of ``x``, for bitwise comparison of whole solution fields."""
    return np.asarray(x, dtype=float).tobytes()


def assert_same_solution(belief, mu):
    """The solver and the one-step-at-a-time oracle agree bit for bit."""
    got, want = solve_attention(belief, mu), oracles.solve_attention(belief, mu)
    assert got.regime == want.regime
    for field in ("m_bar", "likelihood_ratio", "m", "info", "residual"):
        assert _bytes(getattr(got, field)) == _bytes(getattr(want, field)), field
    return got


@st.composite
def certificate_beliefs(draw, sides=(0.0, 1.0, -1.0)):
    """Beliefs at the certificate's weak spots: up to 64 points, |v| / mu up
    to 700 (e near 1e-304), exact ties and zeros, and, on a nonzero side, one
    point against all the others, which puts the root at the 1e-12 or
    1 - 1e-12 floor."""
    n = draw(st.integers(1, 64))
    top = draw(st.sampled_from([1.0, 30.0, 700.0]))
    pool = draw(st.lists(st.floats(-top, top), min_size=1, max_size=4)) + [0.0]
    value = st.one_of(st.sampled_from(pool), st.floats(-top, top))
    values = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    side = draw(st.sampled_from(sides))
    if side and n > 1:
        values = side * np.abs(values)
        values[0] = -side * draw(st.floats(1.0, top))
        weights[0] = weights[1:].sum() * 10.0 ** draw(st.floats(-14.0, -1.0))
    mu = 10.0 ** draw(st.floats(-3.0, 0.0))
    return BeliefOverProfiles(tuple(range(n)), weights / weights.sum(), values * mu), mu


@st.composite
def oracle_beliefs(draw):
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)) + [0.0]
    value = st.one_of(st.sampled_from(pool), st.floats(-1.0, 1.0))  # ties are common
    values = draw(st.lists(value, min_size=n, max_size=n))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    mu = 10.0 ** draw(st.floats(-3.0, 1.0))    # mu = 1e-3 puts |v|/mu near 1000
    return BeliefOverProfiles(tuple(range(n)), weights / weights.sum(),
                              scale * np.array(values)), mu


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(oracle_beliefs())
    def test_bitwise_property(self, case):
        assert_same_solution(*case)

    @pytest.mark.parametrize("values, probs, mu, regime", [
        ((-0.3, -0.1, -0.2), (0.2, 0.5, 0.3), 0.1, "corner_zero"),
        ((0.3, 0.1, 0.2), (0.2, 0.5, 0.3), 0.1, "corner_one"),
        ((0.4, 0.4, -0.5, -0.5), (0.25, 0.25, 0.25, 0.25), 0.2, "interior"),  # ties
        ((0.0,), (1.0,), 0.5, "interior"),                                      # one point
        ((0.25,), (1.0,), 0.5, "corner_one"),
        ((0.8, -0.9, 0.001, -0.001), (0.1, 0.6, 0.2, 0.1), 1e-3, "interior"),  # |v|/mu 900
        ((0.75, -0.75), (0.5, 0.5), 1e-3, "interior"),
    ])
    def test_bitwise_cases(self, values, probs, mu, regime):
        belief = BeliefOverProfiles(tuple(range(len(values))), probs, values)
        assert assert_same_solution(belief, mu).regime == regime

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_on_benchmark_belief_stream(self, seed):
        regimes = [assert_same_solution(belief, mu).regime
                   for belief, mu in benchmark_belief_stream(seed)]
        assert len(regimes) == 600
        assert {"corner_zero", "corner_one", "interior"} <= set(regimes)

    @settings(max_examples=300, deadline=None)
    @given(certificate_beliefs())
    def test_bitwise_where_certificates_are_weakest(self, case):
        assert_same_solution(*case)


@functools.cache
def benchmark_belief_stream(seed: int = 0):
    """(belief, mu) of each item of the benchmark's seeded belief stream:
    supports of 4-64 profiles, news beliefs among them."""
    workloads = bench_workloads()
    from rivote import NewsTechnology, UtilitySpec, profile_belief, signal_belief

    techs = {f"slant_{xi}": NewsTechnology.slant(xi) for xi in workloads.NOISY_XIS}
    techs["revealing"] = NewsTechnology.revealing(workloads.REVEAL_GRID)
    specs = {f: UtilitySpec(family=f) for f in ("absolute", "quadratic")}
    stream = []
    for item in workloads.belief_stream(seed):
        p = np.array(item["probs"])
        args = (specs[item["family"]], item["levels"], np.outer(p, p), item["t"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # revealing beliefs drop profiles
            belief = (profile_belief(*args) if item["news"] is None
                      else signal_belief(techs[item["news"]], *args))
        stream.append((belief, item["mu"]))
    return stream


def _counting_bisect(monkeypatch):
    """Wrap ``solver._foc`` and ``solver._bisect``; returns the list of
    arguments of each interior solve's exact evaluations made while
    ``_bisect`` runs (not the solution's own one at m_bar)."""
    calls, bisect, foc = [], solver._bisect, solver._foc
    active = []

    def counting(*arrays):
        calls.append([])
        active.append(True)
        try:
            return bisect(*arrays)
        finally:
            active.pop()

    def counted(probs, pos, e, num, m_bar):
        if active:
            calls[-1].append(m_bar)
        return foc(probs, pos, e, num, m_bar)

    monkeypatch.setattr(solver, "_bisect", counting)
    monkeypatch.setattr(solver, "_foc", counted)
    return calls


def test_certified_bisection_evaluates_few_midpoints(monkeypatch):
    # the plain bisection makes about 56 exact evaluations per interior solve;
    # the window's certificates cover both floors, so no floor is evaluated
    calls = _counting_bisect(monkeypatch)
    regimes = [solve_attention(belief, mu).regime for belief, mu in benchmark_belief_stream(0)]
    counts = [len(args) for args in calls]
    assert len(counts) == regimes.count("interior") > 250
    assert np.mean(counts) <= 17 and max(counts) <= 25
    floors = {solver._MBAR_FLOOR, 1.0 - solver._MBAR_FLOOR}
    assert not [args for args in calls if floors & set(args)]


def test_uncertified_window_is_the_plain_bisection(monkeypatch):
    # a radius of +inf certifies nothing: after the window both floors are
    # evaluated, the lower first, then every midpoint, as in the oracle's
    # loop, and the bits are the same
    calls = _counting_bisect(monkeypatch)
    monkeypatch.setattr(solver, "_radius", lambda *args: math.inf)
    plain, foc = [], oracles._foc
    monkeypatch.setattr(oracles, "_foc", lambda x, p, m_bar: plain.append(m_bar) or foc(x, p, m_bar))
    interior = 0
    for belief, mu in benchmark_belief_stream(0)[:120]:
        del calls[:], plain[:]
        if assert_same_solution(belief, mu).regime != "interior":
            continue
        interior += 1
        (args,) = calls
        newton = len(args) - len(plain)  # the oracle's floors, then its midpoints
        assert plain[:2] == [solver._MBAR_FLOOR, 1.0 - solver._MBAR_FLOOR]
        assert args[newton:] == plain and 0 < newton <= solver._MAX_NEWTON
    assert interior > 40


@settings(max_examples=300, deadline=None)
@given(certificate_beliefs(sides=(1.0, -1.0)))
def test_a_row_rooted_at_a_floor_stops_there(case):
    # a window that does not certify a floor's side tests that floor after
    # Newton, lower first: a row rooted at a floor ends on its test, and no
    # midpoint is evaluated
    assume(len(case[0].support) > 1)  # one point has no side
    with pytest.MonkeyPatch.context() as patch:
        calls = _counting_bisect(patch)
        m_bar = solve_attention(*case).m_bar
    floors = [solver._MBAR_FLOOR, 1.0 - solver._MBAR_FLOOR]
    if m_bar in floors:
        (args,) = calls
        assert args[-1] == m_bar  # the floor's test ends the solve
        assert len(args) <= solver._MAX_NEWTON + 4  # Newton, two certificates, two floors


def test_ic_grid_rows_rooted_at_the_lower_floor_evaluate_nothing(monkeypatch):
    # their values are all 0, so F = 0: foc(1e-12) = 0 makes 1e-12 the root
    # without an evaluation
    workloads = bench_workloads()
    roots = []
    bisect = solver._bisect
    monkeypatch.setattr(solver, "_bisect", lambda *row: roots.append(bisect(*row)) or roots[-1])
    calls = _counting_bisect(monkeypatch)
    for _group, _pipeline, kwargs in workloads.IC_TASKS.values():
        enumerate_equilibria(scenario_from_dict(workloads.game_doc(**kwargs)))
    counts = [len(args) for args, root in zip(calls, roots, strict=True)
              if root == solver._MBAR_FLOOR]
    assert 0 < len(counts) < len(roots) and counts == [0] * len(counts)


def test_solver_reaches_the_blahut_arimoto_optimum():
    # an independent algorithm for any support size: the solver's objective
    # equals the Blahut-Arimoto limit, and BA's m_bar goes where the solver's
    # is, so to below 1e-6 or above 1 - 1e-6 on corner beliefs
    regimes = set()
    for belief, mu in benchmark_belief_stream():
        sol = solve_attention(belief, mu)
        limit, m_bar = oracles.blahut_arimoto(belief.values, belief.probs, mu)
        assert -1e-9 <= sol.objective(belief, mu) - limit <= 1e-9
        assert abs(m_bar - sol.m_bar) < 1e-6
        regimes.add(sol.regime)
    assert regimes == {"corner_zero", "corner_one", "interior"}
