"""Acceptance suite: one timed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
Every tolerance is pinned here; nothing is deferred to calibration.
"""
import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from rivote import election
from rivote.core import UtilitySpec
from rivote.election import (
    ICKernel,
    attention_frontier,
    enumerate_equilibria,
    game_belief,
    profile_belief,
)
from rivote.extensions import (
    dissemination_filter,
    multi_issue_reduce,
    quarter_circle_frontier,
    weighted_bliss_utility,
)
from rivote.news import (
    posterior_value_matrix,
    signal_belief,
)
from rivote.presets import figure2_scenario, figure3_scenario
from rivote.scenario_io import scenario_from_dict
from rivote.solver import (
    BeliefOverProfiles,
    attention_membership,
    attention_threshold_delta,
    gamma_inverse,
    log_mean_exp,
    solve_attention,
)
from tests.oracles import (
    brute_force_objective_max,
    downsian_matrix,
    random_kernel,
    random_symmetric_sigma,
    random_tp2_technology,
)

TOL_TABLE = 0.002


def noisy_member(tech, spec, levels, sigma, t, mu):
    """Whether voter t attends to news about the policy matrix."""
    return attention_membership(signal_belief(tech, spec, levels, sigma, t), mu)


@contextmanager
def criterion(number, description, limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(
        f"criterion {number:2d} [{description}]: PASS ({elapsed:.2f}s < {limit_s}s)",
        flush=True,
    )
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget"


def benchmark_belief(t, a1=0.01, a2=0.4):
    spec = UtilitySpec(family="absolute")
    return profile_belief(spec, (a1, a2), np.full((2, 2), 0.25), t)


def test_criterion_01_attention_table():
    with criterion(1, "attention-by-voter table", 1.0):
        expected = {
            -0.2: ("corner_zero", 0.0, (0.0, 0.0, 0.0, 0.0)),
            -0.05: ("interior", 0.315, (0.296, 0.006, 0.930, 0.148)),
            0.0: ("interior", 0.312, (0.500, 0.012, 0.987, 0.500)),
        }
        for t, (regime, info, m) in expected.items():
            sol = solve_attention(benchmark_belief(t), 0.09)
            assert sol.regime == regime
            assert sol.info == pytest.approx(info, abs=TOL_TABLE)
            np.testing.assert_allclose(sol.m, m, atol=TOL_TABLE)


def test_criterion_02_attention_by_cost_table():
    with criterion(2, "attention-by-cost table", 1.0):
        # The published mu=.2 row prints m(-.4,.4) = .148, which contradicts
        # the row's own average (m_bar = .283 and the other three cells force
        # .193); we assert the self-consistent value and the row identity.
        expected = {
            0.01: (0.261, (0.046, 0.000, 1.000, 0.000)),
            0.10: (0.344, (0.300, 0.009, 0.905, 0.162)),
            0.20: (0.283, (0.263, 0.048, 0.627, 0.193)),
        }
        for mu, (m_bar, m) in expected.items():
            sol = solve_attention(benchmark_belief(-0.05), mu)
            assert sol.m_bar == pytest.approx(m_bar, abs=TOL_TABLE)
            np.testing.assert_allclose(sol.m, m, atol=TOL_TABLE)
            assert float(np.mean(sol.m)) == pytest.approx(sol.m_bar, abs=1e-12)


def test_criterion_03_equilibrium_set(figure2):
    with criterion(3, "three-level equilibrium set", 5.0):
        records = enumerate_equilibria(figure2, verify_rationalizable=True)
        assert {r.assignment.policies for r in records} == {(0.01, 0.2), (0.01, 0.4)}
        for mu in (0.1, 1.0, 10.0, 100.0):
            assert {
                r.assignment.policies for r in enumerate_equilibria(replace(figure2, mu=mu))
            } == {(0.01, 0.2), (0.01, 0.4)}


def test_criterion_04_frontier_dominates_closed_form(abs_spec):
    with criterion(4, "attention frontier vs closed form", 10.0):
        mu, tau, step = 10.0, 0.001, 0.005
        bound = mu * gamma_inverse(4.0 * math.exp(2.0 * tau / mu) - 2.0)
        a1_grid = np.arange(step, 0.7 + step / 2, step)
        a2_grid = np.arange(step, 1.0 + step / 2, step)
        frontier = attention_frontier(abs_spec, a1_grid, a2_grid, -tau, mu)
        found = frontier[~np.isnan(frontier[:, 1])]
        assert len(found) >= 80
        assert np.all(found[:, 1] - found[:, 0] >= bound - 1e-12)


def test_criterion_05_slanted_news_suite():
    with criterion(5, "slanted-news qualitative suite", 60.0):
        xis = (0.6, 0.75, 0.9)
        scan = np.arange(0.02, 1.0, 0.02)
        pairs = [(a1, a2) for a1 in scan for a2 in scan if a2 > a1 + 1e-9]
        sigma = np.full((2, 2), 0.25)
        member_sets = []
        dists = []
        for xi in xis:
            scenario = scenario_from_dict(figure3_scenario(xi))
            records = enumerate_equilibria(scenario)
            assert records, f"no equilibria at xi={xi}"
            dists.append(
                max(
                    max(abs(r.assignment.policies[0] - 0.25),
                        abs(r.assignment.policies[1] - 0.75))
                    for r in records
                )
            )
            member_sets.append(
                {
                    pair
                    for pair in pairs
                    if noisy_member(
                        scenario.news, scenario.utility, pair, sigma, -0.001, scenario.mu
                    )
                }
            )
        # (a) attention sets strictly nested decreasing
        assert member_sets[2] < member_sets[1] < member_sets[0]
        # (b) equilibria trend monotonically toward the bliss points (1/4, 3/4)
        assert dists[0] >= dists[1] >= dists[2]
        assert dists[2] < dists[0]


# Coarse-grid indices (step 0.01) of the refinement centres that the oracle's
# coarse pass found in double precision; its single-precision pass must agree.
CRITERION_06_CENTRES = [
    (30, 1, 96, 3), (0, 0, 100, 0), (0, 0, 0, 0), (7, 3, 58, 57),
    (100, 100, 100, 100), (100, 100, 100, 100), (100, 100, 100, 100), (4, 7, 35, 43),
    (88, 99, 11, 98), (19, 51, 96, 79), (56, 2, 40, 1), (100, 100, 100, 100),
    (100, 100, 100, 100), (39, 6, 3, 2), (0, 0, 0, 0), (0, 0, 0, 0),
    (0, 0, 0, 0), (0, 0, 0, 0), (32, 89, 30, 76), (100, 0, 0, 43),
]


def test_criterion_06_solver_oracle_equivalence():
    with criterion(6, "solver vs brute-force oracle", 30.0):
        rng = np.random.default_rng(20240603)
        for expected_centre in CRITERION_06_CENTRES:
            values = rng.uniform(-1.0, 1.0, 4)
            probs = rng.dirichlet(np.ones(4) * 2.0)
            mu = float(rng.uniform(0.05, 0.5))
            belief = BeliefOverProfiles(tuple(range(4)), probs, values)
            sol = solve_attention(belief, mu)
            brute, centre = brute_force_objective_max(values, probs, mu)
            assert tuple(round(c / 0.01) for c in centre) == expected_centre
            assert sol.objective(belief, mu) >= brute - 1e-9
            assert abs(sol.objective(belief, mu) - brute) <= 1e-4


def test_criterion_07_garbling_property_suite(abs_spec):
    with criterion(7, "garbling property suite", 60.0):
        rng = np.random.default_rng(77)
        for _ in range(50):
            tech, policies = random_tp2_technology(rng)
            k = tech.k
            sigma = random_symmetric_sigma(rng, len(policies))
            garbled = tech.garbled(random_kernel(rng, k))
            t = float(rng.uniform(-0.5, 0.5))

            p, nu = posterior_value_matrix(tech, abs_spec, policies, sigma, t)
            p2, nu2 = posterior_value_matrix(garbled, abs_spec, policies, sigma, t)

            mean = float(np.sum(p * nu))
            mean2 = float(np.sum(p2 * nu2))
            assert abs(mean - mean2) <= 1e-12

            assert float(np.dot(p2.ravel(), np.exp(nu2.ravel()))) <= float(
                np.dot(p.ravel(), np.exp(nu.ravel()))
            ) + 1e-12

            _, nu0 = posterior_value_matrix(tech, abs_spec, policies, sigma, 0.0)
            _, nu02 = posterior_value_matrix(garbled, abs_spec, policies, sigma, 0.0)
            assert nu02[k - 1, 0] <= nu0[k - 1, 0] + 1e-12

            pair_sigma = np.full((2, 2), 0.25)
            mu = float(rng.uniform(0.05, 0.4))
            for i in range(len(policies)):
                for j in range(i + 1, len(policies)):
                    pair = (policies[i], policies[j])
                    if noisy_member(garbled, abs_spec, pair, pair_sigma, -0.05, mu):
                        assert noisy_member(
                            tech, abs_spec, pair, pair_sigma, -0.05, mu
                        )


def test_criterion_08_monotonicity_suite(abs_spec, quad_spec):
    with criterion(8, "monotonicity suite", 60.0):
        # average support nondecreasing in the type, strict between interiors
        m_bars = {}
        for t in (-0.2, -0.05, 0.0, 0.05, 0.2):
            m_bars[t] = solve_attention(benchmark_belief(t), 0.09)
        ordered = [m_bars[t] for t in sorted(m_bars)]
        for lo, hi in zip(ordered, ordered[1:]):
            assert hi.m_bar >= lo.m_bar - 1e-12
            if lo.regime == hi.regime == "interior":
                assert hi.m_bar > lo.m_bar

        # the attention threshold rises strictly with the marginal cost
        kappa = 2.0
        mus = np.linspace(kappa / (2.0 * math.log(2.0)), 100.0, 250)
        deltas = [attention_threshold_delta(mu, 0.001, kappa, 0.5) for mu in mus]
        assert np.all(np.diff(deltas) > 0)

        # attention sets nest downward as the cost rises
        scan = np.arange(0.05, 1.0, 0.05)
        pairs = [(a1, a2) for a1 in scan for a2 in scan if a2 > a1 + 1e-9]
        sigma = np.full((2, 2), 0.25)
        previous = None
        for mu in np.geomspace(0.01, 100.0, 12):
            members = {
                pair
                for pair in pairs
                if attention_membership(profile_belief(abs_spec, pair, sigma, -0.01), mu)
            }
            if previous is not None:
                assert members <= previous
            previous = members

        # the median's exponential moment is strictly above one on random
        # non-degenerate symmetric matrices
        rng = np.random.default_rng(88)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            a = tuple(0.01 + np.cumsum(rng.uniform(0.02, 0.2, n)))
            s = random_symmetric_sigma(rng, n)
            mu = float(rng.uniform(0.05, 5.0))
            belief = profile_belief(abs_spec, a, s, 0.0)
            assert float(log_mean_exp(belief.values, belief.probs, mu)) > 0.0


@pytest.mark.filterwarnings("ignore:dropped")
def test_criterion_09_reductions(figure2):
    with criterion(9, "exact reductions", 10.0):
        # fully revealing news: identical records bit for bit
        doc = figure2_scenario()
        doc["news"] = {"family": "revealing", "policies": doc["policies"]["beta"]}
        noisy = enumerate_equilibria(scenario_from_dict(doc))
        base = enumerate_equilibria(figure2)
        assert [r.assignment.policies for r in base] == [
            r.assignment.policies for r in noisy
        ]
        for b, n in zip(base, noisy):
            assert b.gaps == n.gaps
            for (tb, sb), (tn, sn) in zip(b.attention, n.attention):
                assert tb == tn and sb.m_bar == sn.m_bar and sb.info == sn.info
                np.testing.assert_array_equal(sb.m, sn.m)

        # full commitment: the transform is the identity.  At eta = 1 the
        # commitment kernel prices every row bit for bit as the baseline one,
        # every baseline equilibrium is strictly increasing (so the
        # commitment game's rows lose none), and the commitment belief and
        # its attention solution are the baseline ones bit for bit
        grid, types = figure2.beta_axis.values, figure2.beta_types
        kernels = [ICKernel(grid, types.type_values, types.type_probs,
                            downsian_matrix(figure2.utility, grid), figure2.utility, eta)
                   for eta in (None, 1.0)]
        rows = np.array(list(itertools.product(range(len(grid)), repeat=len(types.types))))
        for b, c in zip(kernels[0].gaps(rows), kernels[1].gaps(rows)):
            assert b.tobytes() == c.tobytes()
        assert figure2.eta == 1.0
        for r in base:
            policies = r.assignment.policies
            assert all(lo < hi for lo, hi in zip(policies, policies[1:]))
            for t, sol in r.attention:
                # the commitment rule itself: the scenario's row is the baseline's
                b, a = game_belief(figure2, r.assignment, t), r.assignment
                probs, values = election._commitment_arrays(figure2.utility, 1.0, a.types,
                                                            a.levels, a.sigma, t)
                c = BeliefOverProfiles(b.support, probs.ravel(), values.ravel())
                assert b.probs.tobytes() == c.probs.tobytes()
                assert b.values.tobytes() == c.values.tobytes()
                sc = solve_attention(c, figure2.mu)
                assert sc.m.tobytes() == sol.m.tobytes()
                assert (sc.m_bar, sc.info, sc.regime) == (sol.m_bar, sol.info, sol.regime)

        # vanishing dissemination cost: the filter keeps every attentive record
        records = enumerate_equilibria(replace(figure2, mu=0.09))
        assert all(r.total_info > 0 for r in records)
        assert len(dissemination_filter(records, replace(figure2, dissemination_cost=1e-12))) == len(records)


def test_criterion_10_two_issue_audit():
    with criterion(10, "two-issue reduction audit", 10.0):
        reduction = multi_issue_reduce(
            weighted_bliss_utility(),
            quarter_circle_frontier(),
            a_grid=np.linspace(-1.0, 1.0, 200),
        )
        assert reduction.problems == ()
        assert np.all(np.diff(reduction.tangency) < 0)
        table = reduction.uhat_table
        assert np.all(np.isfinite(table))
        # monotone up to the peak, strictly concave along policies
        assert np.all(np.diff(table, 2, axis=1) < 0)
