import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rivote.core
import rivote.election
from rivote.core import Electorate, SymmetryError, UtilitySpec, ValidationError, utility
from rivote.election import (
    aggregate_and_rationalize,
    assignment_for,
    attention_frontier,
    check_ic,
    enumerate_equilibria,
    game_belief,
    perfect_observation_winner,
    profile_belief,
    truncation_statistic,
    value_matrix,
)
from rivote.presets import figure2_scenario
from rivote.scenario_io import load_scenario, scenario_from_dict
from rivote.solver import (
    attention_membership,
    attention_threshold_delta,
    log_mean_exp,
    solve_attention,
)
from tests.conftest import two_level_belief
from tests.oracles import downsian_matrix

SHIPPED = sorted((Path(__file__).parents[1] / "demos" / "scenarios").glob("*.json"))


def test_verify_rationalizable_counts_the_records_own_solutions(figure2, monkeypatch):
    # every group of each record is solved in one batched call while its
    # record is built, and verify_rationalizable adds none
    solve, calls = rivote.election.solve_groups, []
    monkeypatch.setattr(rivote.election, "solve_groups",
                        lambda *a: calls.append(a) or solve(*a))
    records = enumerate_equilibria(figure2, verify_rationalizable=True)
    assert len(records) == 2 and len(figure2.electorate.groups) == 3
    assert len(calls) == 2 and all(len(values) == 3 for values, *_ in calls)
    assert len(enumerate_equilibria(figure2)) == 2 and len(calls) == 4


class TestDownsianWinner:
    # the scenario's groups vote; a lone group at t = 0 is Downs's median voter
    @pytest.fixture()
    def median(self, figure2):
        return replace(figure2, electorate=Electorate(((0.0, 1.0),)))

    def test_center_closer_beta_wins(self, median):
        assert perfect_observation_winner(median, -0.4, 0.01) == 1.0

    def test_equidistant_split(self, median):
        assert perfect_observation_winner(median, -0.3, 0.3) == 0.5

    def test_center_closer_alpha_wins(self, median):
        assert perfect_observation_winner(median, -0.01, 0.4) == 0.0


class TestValueMatrix:
    @pytest.mark.parametrize("family", ["absolute", "quadratic"])
    def test_median_value_structure(self, family):
        # scaled median differentials: antisymmetric, positive below the
        # diagonal, maximised at the widest profile
        rng = np.random.default_rng(7)
        spec = UtilitySpec(family=family)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = np.sort(rng.uniform(0.01, 1.0, n))
            while np.any(np.diff(a) < 1e-4):
                a = np.sort(rng.uniform(0.01, 1.0, n))
            delta = value_matrix(spec, a, 0.0)
            assert np.max(np.abs(delta + delta.T)) <= 1e-12
            lower = np.tril_indices(n, -1)
            assert np.all(delta[lower] > 0)
            assert np.argmax(delta) == np.ravel_multi_index((n - 1, 0), (n, n))


class TestAggregation:
    def test_off_diagonal_profile_beta_wins(self, figure2):
        # moderate-vs-centrist profile: the more centrist candidate wins
        assignment = assignment_for(figure2, (0.01, 0.4))
        w = aggregate_and_rationalize(replace(figure2, mu=0.09), assignment)
        assert w[1, 0] == 1.0 and w[0, 1] == 0.0

    def test_diagonal_profiles_split(self, figure2):
        assignment = assignment_for(figure2, (0.01, 0.4))
        w = aggregate_and_rationalize(replace(figure2, mu=0.09), assignment)
        assert w[0, 0] == 0.5 and w[1, 1] == 0.5

    def test_recovers_perfect_observation_matrix(self, table1):
        assignment = assignment_for(table1, (0.01, 0.4))
        w = aggregate_and_rationalize(table1, assignment)
        np.testing.assert_array_equal(w, downsian_matrix(table1.utility, (0.01, 0.4)))

    def test_group_sum_identity(self, table1):
        # symmetric voters jointly favour the candidate closer to the center
        assignment = assignment_for(table1, (0.01, 0.4))
        levels, sigma = assignment.levels, assignment.sigma
        sols = {
            t: solve_attention(profile_belief(table1.utility, levels, sigma, t), table1.mu)
            for t, _ in table1.electorate.groups
        }
        n = len(levels)
        for t in (0.05, 0.2):
            m_pos = sols[t].m.reshape(n, n)
            m_neg = sols[-t].m.reshape(n, n)
            for i in range(n):
                for j in range(i):
                    assert m_pos[i, j] + m_neg[i, j] >= 1.0 - 1e-9

    def test_voter_symmetry_of_solutions(self, table1):
        assignment = assignment_for(table1, (0.01, 0.4))
        levels, sigma = assignment.levels, assignment.sigma
        for t in (0.05, 0.2):
            pos = solve_attention(profile_belief(table1.utility, levels, sigma, t), table1.mu)
            neg = solve_attention(profile_belief(table1.utility, levels, sigma, -t), table1.mu)
            assert pos.m_bar + neg.m_bar == pytest.approx(1.0, abs=1e-9)

    def test_asymmetric_scenario_refused(self, figure2):
        import dataclasses

        lopsided = dataclasses.replace(
            figure2,
            electorate=type(figure2.electorate)(((-0.2, 0.7), (0.2, 0.3))),
        )
        with pytest.raises(SymmetryError):
            aggregate_and_rationalize(lopsided, assignment_for(lopsided, (0.01, 0.4)))

    def test_off_path_rule(self, figure2):
        # perfect observation: strict preference decides
        assert perfect_observation_winner(figure2, -0.4, 0.01) == 1.0
        assert perfect_observation_winner(figure2, -0.01, 0.4) == 0.0

    def test_median_group_alone_is_downsian(self, figure2):
        # one tie rule: an indifferent group splits its vote as the median does
        median = replace(figure2, electorate=Electorate(((0.0, 1.0),)))
        g = np.array(figure2.beta_axis.values)
        w = perfect_observation_winner(median, -g[:, None], g[None, :])
        assert w.tobytes() == downsian_matrix(figure2.utility, g).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(["absolute", "quadratic"]),
        grid=st.lists(st.integers(1, 100), min_size=1, max_size=6, unique=True),
        pairs=st.lists(st.tuples(st.integers(1, 100), st.floats(0.05, 1.0)),
                       max_size=4, unique_by=lambda p: p[0]),
        median_weight=st.floats(0.05, 1.0),
    )
    def test_symmetric_electorate_with_a_median_group_is_downsian(
            self, family, grid, pairs, median_weight):
        # single crossing: the median group decides every strict preference,
        # and the mirrored groups cancel on the diagonal
        total = median_weight + 2 * sum(w for _, w in pairs)
        groups = [(0.0, median_weight / total)]
        groups += [(s * k / 100, w / total) for k, w in pairs for s in (-1, 1)]
        doc = figure2_scenario()
        doc["policies"]["beta"] = sorted(k / 100 for k in grid)
        doc["utility"]["family"] = family
        doc["electorate"]["groups"] = [list(g) for g in groups]
        scenario = scenario_from_dict(doc)
        g = np.array(scenario.beta_axis.values)
        w = perfect_observation_winner(scenario, -g[:, None], g[None, :])
        assert w.tobytes() == downsian_matrix(scenario.utility, g).tobytes()

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_complementary_on_shipped_grids(self, path):
        scenario = load_scenario(path)
        g = np.array(scenario.beta_axis.values)
        w = perfect_observation_winner(scenario, -g[:, None], g[None, :])
        np.testing.assert_array_equal(w + w.T, 1.0)

    @staticmethod
    def many_groups(n_groups=301, n_policies=60):
        doc = figure2_scenario()
        doc["policies"]["beta"] = [k / (n_policies + 1) for k in range(1, n_policies + 1)]
        half = n_groups // 2
        doc["electorate"]["groups"] = [[0.3 * k / half, 1 / n_groups]
                                       for k in range(-half, half + 1)]
        scenario = scenario_from_dict(doc)
        g = np.array(scenario.beta_axis.values)
        return scenario, -g[:, None], g[None, :]

    def test_many_groups_build_in_chunks(self):
        # one chunk of groups' votes at a time, not groups x grid^2 floats
        import tracemalloc

        args = self.many_groups()
        perfect_observation_winner(*args)
        tracemalloc.start()
        try:
            perfect_observation_winner(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("chunk", [1, 3600, 3601, 7 * 3600])
    def test_group_chunks_do_not_change_w(self, monkeypatch, chunk):
        # the votes are summed in group order whatever the chunk
        args = self.many_groups(31)
        want = perfect_observation_winner(*args)
        monkeypatch.setattr(rivote.core, "CHUNK_FLOATS", chunk)
        assert perfect_observation_winner(*args).tobytes() == want.tobytes()


class TestIncentiveCompatibility:
    def test_benchmark_moderate_assignment(self, figure2):
        ok, gaps = check_ic(figure2, assignment_for(figure2, (0.01, 0.2)))
        assert ok
        assert min(gaps.values()) >= 0

    def test_benchmark_extreme_assignment(self, figure2):
        ok, _ = check_ic(figure2, assignment_for(figure2, (0.01, 0.4)))
        assert ok

    def test_pooling_fails_with_stronger_winner_preference(self, figure2):
        ok, gaps = check_ic(figure2, assignment_for(figure2, (0.01, 0.01)))
        assert not ok
        assert min(gaps.values()) < 0

    def test_pure_office_motivation_converges(self):
        doc = figure2_scenario()
        doc["utility"].update({"win_weight": 0.0, "lose_weight": 0.0})
        scenario = scenario_from_dict(doc)
        assert check_ic(scenario, assignment_for(scenario, (0.01, 0.01)))[0]
        for policies in ((0.01, 0.2), (0.2, 0.2), (0.01, 0.4)):
            assert not check_ic(scenario, assignment_for(scenario, policies))[0]

    def test_equal_weights_converge(self):
        doc = figure2_scenario()
        doc["utility"].update({"win_weight": 6.0, "lose_weight": 6.0})
        scenario = scenario_from_dict(doc)
        records = enumerate_equilibria(scenario)
        assert [r.assignment.policies for r in records] == [(0.01, 0.01)]

    def test_huge_winner_weight_creates_profitable_centrist_deviation(self):
        doc = figure2_scenario()
        doc["utility"]["win_weight"] = 100.0
        scenario = scenario_from_dict(doc)
        ok, gaps = check_ic(scenario, assignment_for(scenario, (0.01, 0.4)))
        assert not ok
        assert gaps[("beta", 0.3)] < 0

    def test_rationalized_source_agrees_on_benchmark(self, figure2):
        for policies in ((0.01, 0.2), (0.01, 0.4)):
            a = assignment_for(figure2, policies)
            ok_d, gaps_d = check_ic(figure2, a)
            ok_r, gaps_r = check_ic(replace(figure2, mu=0.09), a, rationalized=True)
            assert ok_d == ok_r
            for key in gaps_d:
                assert gaps_d[key] == pytest.approx(gaps_r[key], abs=1e-9)


class TestEnumeration:
    def test_benchmark_set(self, figure2):
        records = enumerate_equilibria(figure2, verify_rationalizable=True)
        assert [r.assignment.policies for r in records] == [(0.01, 0.2), (0.01, 0.4)]

    @pytest.mark.parametrize("mu", [10.0, 0.01, 0.001])
    def test_electorate_without_a_median_group_is_rationalized(self, mu):
        # no group sits at t = 0, so a median voter's W would differ from the
        # groups' own in two cells and their attention could not rationalize it
        doc = figure2_scenario(mu=mu)
        doc["electorate"]["groups"] = [[-0.1, 0.5], [0.1, 0.5]]
        records = enumerate_equilibria(scenario_from_dict(doc), verify_rationalizable=True)
        assert [r.assignment.policies for r in records] == [(0.2, 0.2)]

    def test_invariant_to_attention_cost(self, figure2):
        baseline = {r.assignment.policies for r in enumerate_equilibria(figure2)}
        for mu in (0.1, 1.0, 10.0, 100.0):
            assert {
                r.assignment.policies for r in enumerate_equilibria(replace(figure2, mu=mu))
            } == baseline

    def test_cap_refusal(self, figure2):
        # the cap counts visited prefixes: 3 of the first type, then the 3
        # extensions of each of the 2 that the bound keeps
        assert len(enumerate_equilibria(figure2, max_assignments=9)) == 2
        with pytest.raises(ValidationError, match="^9 prefixes exceed the cap 8; "
                                                  "raise max_assignments explicitly"):
            enumerate_equilibria(figure2, max_assignments=8)

    def test_records_sorted_and_diagnosed(self, figure2):
        records = enumerate_equilibria(figure2)
        policies = [r.assignment.policies for r in records]
        assert policies == sorted(policies)
        for r in records:
            assert r.min_gap >= -1e-9
            assert dict(r.attentive)[0.0]  # the median group always attends

    def test_corner_one_group_is_attentive(self):
        # a group that always votes beta attends: only corner_zero is inattention
        scenario = scenario_from_dict(figure2_scenario(mu=10.0))
        (record,) = [r for r in enumerate_equilibria(scenario)
                     if r.assignment.policies == (0.01, 0.2)]
        assert dict(record.attention)[0.001].regime == "corner_one"
        assert dict(record.attentive)[0.001]
        assert attention_membership(game_belief(scenario, record.assignment, 0.001), 10.0)
        assert not dict(record.attentive)[-0.001]  # corner_zero


class TestAttentionSet:
    def test_cheap_attention_admits_everything(self, abs_spec):
        sigma = np.full((2, 2), 0.25)
        assert attention_membership(profile_belief(abs_spec, (0.1, 0.4), sigma, -0.05), 1e-3)

    def test_costly_attention_empties_the_set(self, abs_spec):
        sigma = np.full((2, 2), 0.25)
        for a in ((0.1, 0.4), (0.01, 0.99)):
            assert not attention_membership(profile_belief(abs_spec, a, sigma, -0.05), 1e4)

    def test_membership_monotone_in_mu(self, abs_spec):
        sigma = np.full((2, 2), 0.25)
        mus = np.geomspace(0.01, 100, 25)
        belief = profile_belief(abs_spec, (0.05, 0.45), sigma, -0.01)
        flags = [attention_membership(belief, m) for m in mus]
        assert flags == sorted(flags, reverse=True)

    def test_frontier_dominates_closed_form(self, abs_spec):
        mu, tau = 10.0, 0.001
        bound = mu * math.acosh(2 * math.exp(2 * tau / mu) - 1)
        grid = np.arange(0.01, 0.7, 0.01)
        a2_grid = np.arange(0.01, 1.0 + 0.005, 0.01)
        frontier = attention_frontier(abs_spec, grid, a2_grid, -tau, mu)
        found = frontier[~np.isnan(frontier[:, 1])]
        assert len(found) > 10
        gaps = found[:, 1] - found[:, 0]
        assert np.all(gaps >= bound - 1e-12)
        # the scan only overshoots by grid resolution
        assert np.all(gaps <= bound + 0.01 + 1e-12)

    def test_frontier_matches_threshold_delta(self, abs_spec):
        # same boundary through the closed form with the effective constants
        mu, tau = 10.0, 0.001
        delta = attention_threshold_delta(mu, tau, 2.0, 0.5)
        assert delta == pytest.approx(mu * math.acosh(2 * math.exp(2 * tau / mu) - 1), abs=1e-12)


class TestTruncation:
    def test_cheap_attention_keeps_both(self, figure2):
        records = enumerate_equilibria(figure2)
        kept, diff = truncation_statistic(replace(figure2, mu=0.1), records, -0.001)
        assert len(kept) == 2
        spread = utility(figure2.utility, 0.01, 0.0) - utility(figure2.utility, 0.2, 0.0)
        assert diff == pytest.approx(spread)

    def test_intermediate_cost_truncates(self, figure2):
        records = enumerate_equilibria(figure2)
        kept, diff = truncation_statistic(replace(figure2, mu=10.0), records, -0.001)
        assert [r.assignment.policies for r in kept] == [(0.01, 0.4)]
        assert diff == pytest.approx(0.39)

    def test_prohibitive_cost_empties(self, figure2):
        records = enumerate_equilibria(figure2)
        kept, diff = truncation_statistic(replace(figure2, mu=1e4), records, -0.001)
        assert kept == () and diff is None

    def test_nested_and_monotone_in_mu(self, figure2):
        records = enumerate_equilibria(figure2)
        mus = np.geomspace(0.05, 200.0, 30)
        prev = None
        prev_diff = -math.inf
        for mu in mus:
            kept, diff = truncation_statistic(replace(figure2, mu=mu), records, -0.001)
            keys = {r.assignment.policies for r in kept}
            if prev is not None:
                assert keys <= prev
            if diff is not None:
                assert diff >= prev_diff - 1e-12
                prev_diff = diff
            prev = keys


def test_median_moment_strict_on_random_symmetric_matrices(abs_spec):
    # non-degenerate symmetric distributions always leave the median strictly
    # willing to pay attention
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        a = tuple(0.01 + np.cumsum(rng.uniform(0.02, 0.2, n)))  # stays inside (0, 1)
        s = rng.uniform(0.05, 1.0, (n, n))
        sigma = s + s.T
        sigma /= sigma.sum()
        mu = float(rng.uniform(0.05, 5.0))
        belief = profile_belief(abs_spec, a, sigma, 0.0)
        assert float(log_mean_exp(belief.values, belief.probs, mu)) > 0.0


def pairwise_frontier(spec, a1_grid, a2_grid, t, mu, level_probs=(0.5, 0.5)):
    """First attentive a2 per a1 from one profile belief per pair."""
    out = []
    for a1 in a1_grid:
        hit = next((a2 for a2 in a2_grid if a2 > a1 + 1e-12 and attention_membership(
            two_level_belief(spec, a1, a2, t, level_probs), mu)), math.nan)
        out.append((a1, hit))
    return np.array(out, dtype=float).reshape(len(a1_grid), 2)


class TestFrontierScan:
    A1 = np.arange(0.01, 0.7, 0.03)
    A2 = np.arange(0.01, 1.0, 0.02)

    @pytest.mark.parametrize("family", ["absolute", "quadratic"])
    @pytest.mark.parametrize("t, mu, level_probs", [
        (-0.001, 10.0, (0.5, 0.5)), (-0.05, 0.1, (0.3, 0.7)), (0.2, 1.0, (0.5, 0.5))])
    def test_equals_one_belief_per_pair(self, family, t, mu, level_probs):
        spec = UtilitySpec(family=family)
        got = attention_frontier(spec, self.A1, self.A2, t, mu, level_probs)
        want = pairwise_frontier(spec, self.A1, self.A2, t, mu, level_probs)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 64, 2 ** 15])
    def test_row_chunks_do_not_change_the_frontier(self, monkeypatch, abs_spec, chunk):
        a1, a2 = np.arange(0.005, 0.7 + 0.0025, 0.005), np.arange(0.005, 1.0 + 0.0025, 0.005)
        want = attention_frontier(abs_spec, a1, a2, -0.001, 10.0)
        monkeypatch.setattr(rivote.core, "CHUNK_FLOATS", chunk)
        assert attention_frontier(abs_spec, a1, a2, -0.001, 10.0).tobytes() == want.tobytes()

    def test_empty_grids(self, abs_spec):
        assert attention_frontier(abs_spec, self.A1, [], -0.001, 10.0).shape == (len(self.A1), 2)
        assert np.all(np.isnan(attention_frontier(abs_spec, self.A1, [], -0.001, 10.0)[:, 1]))
        assert attention_frontier(abs_spec, [], self.A2, -0.001, 10.0).shape == (0, 2)

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_nonpositive_mu_refused(self, abs_spec, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # mu = 0 used to divide by zero first
            with pytest.raises(ValidationError, match="mu must be positive"):
                attention_frontier(abs_spec, self.A1, self.A2, -0.001, mu)

    @pytest.mark.parametrize("level_probs", [(1.0, 0.0), (0.6, 0.6), (0.2, 0.3, 0.5)])
    def test_bad_level_probabilities_refused(self, abs_spec, level_probs):
        with pytest.raises(ValidationError, match="level probabilities"):
            attention_frontier(abs_spec, self.A1, self.A2, -0.001, 10.0, level_probs)
