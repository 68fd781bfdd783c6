import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from rivote.core import EXACT, NumericError, ValidationError
from rivote.solver import (
    BeliefOverProfiles,
    attention_membership,
    attention_threshold_delta,
    entropy,
    gamma,
    gamma_inverse,
    log_mean_exp,
    mutual_information,
    solve_attention,
)
from tests import oracles
from tests.conftest import two_level_belief


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


def _bits(x):
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

    def test_rows_are_independent_of_the_batch(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 2.0, (3, 5, 4))
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        batch = log_mean_exp(values, probs, 0.7)
        for idx in np.ndindex(3, 5):
            assert _bits(batch[idx]) == _bits(log_mean_exp(values[idx], probs, 0.7))

    def test_non_finite_payoffs_refused(self):
        with pytest.raises(NumericError):
            log_mean_exp([1.0, np.inf], [0.5, 0.5], 1.0)


class TestGamma:
    def test_gamma_at_one(self):
        assert gamma(1.0) == pytest.approx(math.e + 1 / math.e, abs=1e-12)

    def test_inverse_at_two(self):
        assert gamma_inverse(2.0) == 0.0

    def test_inverse_closed_form(self):
        assert gamma_inverse(4.0) == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-12)
        assert gamma(gamma_inverse(4.0)) == pytest.approx(4.0, abs=1e-12)

    def test_below_domain(self):
        with pytest.raises(ValidationError):
            gamma_inverse(1.9)

    @given(st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, x):
        # gamma(x) = 2 + x^2 + O(x^4): doubles cannot carry x below sqrt(eps),
        # so the achievable roundtrip accuracy degrades to ~1.5e-8 near zero
        assert gamma_inverse(gamma(x)) == pytest.approx(x, rel=1e-10, abs=3e-8)


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


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_solution(belief, mu):
    """The solver and the one-step-at-a-time oracle agree bit for bit."""
    got, want = solve_attention(belief, mu), oracles.solve_attention(belief, mu)
    assert got.regime == want.regime
    for field in ("m_bar", "likelihood_ratio", "m", "info", "residual"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), field
    return got


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

    def test_bitwise_on_benchmark_belief_stream(self):
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        from rivote import NewsTechnology, UtilitySpec, profile_belief, signal_belief

        techs = {f"slant_{xi}": NewsTechnology.slant(xi) for xi in workloads.NOISY_XIS}
        techs["revealing"] = NewsTechnology.revealing(workloads.REVEAL_GRID)
        specs = {f: UtilitySpec(family=f) for f in ("absolute", "quadratic")}
        regimes = []
        for item in workloads.belief_stream(0):
            p = np.array(item["probs"])
            args = (specs[item["family"]], item["levels"], np.outer(p, p), item["t"])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # revealing beliefs drop profiles
                belief = (profile_belief(*args) if item["news"] is None
                          else signal_belief(techs[item["news"]], *args))
            regimes.append(assert_same_solution(belief, item["mu"]).regime)
        assert len(regimes) == workloads.N_BELIEFS
        assert {"corner_zero", "corner_one", "interior"} <= set(regimes)
