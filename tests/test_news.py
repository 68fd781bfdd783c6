import json
import math
import pickle
import warnings
from copy import deepcopy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rivote.core
import rivote.election
from rivote.cli import main
from rivote.core import UtilitySpec, ValidationError
from rivote.election import (
    assignment_for,
    attention_frontier_noisy,
    enumerate_equilibria,
    profile_belief,
    truncation_statistic,
    value_matrix,
)
from rivote.news import (
    MarkovKernel,
    NewsTechnology,
    audit_news,
    expected_winning_matrix,
    posterior_value_matrix,
    signal_belief,
)
from rivote.presets import figure2_scenario, figure3_scenario
from rivote.scenario_io import load_scenario, scenario_from_dict
from rivote.solver import attention_membership, log_mean_exp, solve_attention
from tests import oracles
from tests.oracles import (
    bayes_posterior_differential,
    random_kernel,
    random_symmetric_sigma,
    random_tp2_technology,
    voter_utility,
)


def solve_noisy(tech, spec, levels, sigma, t, mu):
    """Optimal attention over the news profiles of the policy matrix."""
    return solve_attention(signal_belief(tech, spec, levels, sigma, t), mu)


def noisy_member(tech, spec, levels, sigma, t, mu):
    """Whether voter t attends to news about the policy matrix."""
    return attention_membership(signal_belief(tech, spec, levels, sigma, t), mu)


class TestTechnology:
    def test_slant_rows(self):
        tech = NewsTechnology.slant(0.5)
        np.testing.assert_allclose(tech.pmf(0.2), [0.4, 0.6], atol=1e-15)
        assert audit_news(tech, (0.1, 0.5, 0.9)) == []

    def test_signals_must_increase(self):
        with pytest.raises(ValidationError):
            NewsTechnology.slant(0.5, signals=(0.75, 0.25))

    @pytest.mark.parametrize("rows, reason", [
        ([[0.6, 0.6], [0.4, 0.6]], "rows must sum to 1"),
        ([[1.1, -0.1], [0.4, 0.6]], "entries must be nonnegative"),
        ([[np.nan, np.nan], [0.4, 0.6]], "entries must be finite"),
    ])
    def test_table_must_be_a_pmf(self, rows, reason):
        with pytest.raises(ValidationError, match=f"technology table {reason}"):
            NewsTechnology.from_table((0.3, 0.7), (0.2, 0.8), rows)

    def test_table_rows_broadcast_and_refuse_off_grid_policies(self):
        tech = NewsTechnology.from_table((0.3, 0.7), (0.2, 0.8), [[0.6, 0.4], [0.4, 0.6]])
        np.testing.assert_array_equal(tech.pmf([[0.8], [0.2 + 1e-13]]),
                                      [[[0.4, 0.6]], [[0.6, 0.4]]])
        with pytest.raises(ValidationError, match="policy 0.5 is not on"):
            tech.pmf([0.2, 0.5, 0.6])

    @pytest.mark.parametrize("policies", [(0.8, 0.2), (0.2, np.nan), (0.2, 0.2)],
                             ids=["decreasing", "nan", "duplicate"])
    def test_table_policy_axis_is_a_grid(self, policies):
        # a duplicate policy with conflicting rows would read the first row alone
        with pytest.raises(ValidationError, match="^technology policy grid must be finite "
                                                  "and strictly increasing$"):
            NewsTechnology.from_table((0.3, 0.7), policies, [[0.6, 0.4], [0.4, 0.6]])

    def test_revealing_detection(self):
        # a monotone revealing technology is admissible, and its zero cells do
        # not warn; out of order, the same rows are audited as any others
        grid = (0.1, 0.4, 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert audit_news(NewsTechnology.revealing(grid), grid) == []
        with pytest.warns(UserWarning, match="lacks full support at 3 policies"):
            assert audit_news(NewsTechnology.revealing(grid), grid[::-1]) == [
                "indeterminate: zero probability at policy 0.7, signal 0.1"]

    @pytest.mark.parametrize("make, grid", [
        (lambda: NewsTechnology.slant(0.75), np.linspace(0.02, 0.98, 13)),
        (lambda: NewsTechnology.from_table((0.3, 0.7), (0.2, 0.8), [[0.6, 0.4], [0.4, 0.6]]),
         np.array([[0.8], [0.2 + 1e-13]])),
        (lambda: NewsTechnology.revealing((0.1, 0.4, 0.7)), np.array([0.7, 0.1, 0.4])),
        (lambda: NewsTechnology.slant(0.3).garbled(MarkovKernel.slant_shift(0.4)),
         np.linspace(0.05, 0.95, 19)),
    ], ids=["slant", "table", "revealing", "garbled"])
    def test_technology_pickles_with_its_rows(self, make, grid):
        tech = make()
        copy = pickle.loads(pickle.dumps(tech))
        assert (copy.signals, copy.label) == (tech.signals, tech.label)
        assert copy.pmf(grid).tobytes() == tech.pmf(grid).tobytes()

    def test_figure3_scenario_pickles_and_enumerates_alike(self):
        scenario = scenario_from_dict(figure3_scenario(0.75))
        copy = pickle.loads(pickle.dumps(scenario))
        records, again = enumerate_equilibria(scenario), enumerate_equilibria(copy)
        assert [r.assignment.policies for r in again] == [r.assignment.policies for r in records]
        assert [r.gaps for r in again] == [r.gaps for r in records]
        assert len(records) > 0

    def test_equal_scenarios_with_news_compare_and_hash_equal(self):
        # a copy of a scenario and two loads of one file are equal, as without news
        scenario = scenario_from_dict(figure3_scenario(0.75))
        path = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "slanted_news.json"
        for a, b in ((deepcopy(scenario), scenario), (load_scenario(path), load_scenario(path))):
            assert a == b and hash(a) == hash(b)

    def test_technologies_compare_by_signals_label_and_rule(self):
        # a partial rule by its function and arguments (arrays by value), any other by itself
        assert NewsTechnology.slant(0.75) != NewsTechnology.slant(0.6)
        assert NewsTechnology.slant(0.75) != NewsTechnology.slant(0.75, signals=(0.2, 0.75))
        shift = MarkovKernel.slant_shift(0.4)
        garbled = NewsTechnology.slant(0.3).garbled(shift)
        again = NewsTechnology.slant(0.3).garbled(MarkovKernel(shift.matrix.copy()))
        assert garbled == again and hash(garbled) == hash(again)
        assert garbled != NewsTechnology.slant(0.3).garbled(MarkovKernel.slant_shift(0.5))
        assert garbled != NewsTechnology.slant(0.4).garbled(shift)
        table = [[0.6, 0.4], [0.4, 0.6]]
        tech = NewsTechnology.from_table((0.3, 0.7), (0.2, 0.8), table)
        assert tech == NewsTechnology.from_table((0.3, 0.7), (0.2, 0.8), np.array(table))
        assert tech != NewsTechnology.from_table((0.3, 0.7), (0.2, 0.8), table[::-1])
        assert tech != NewsTechnology.from_table((0.3, 0.7), (0.2, 0.9), table)

        def rule(a):
            return NewsTechnology.slant(0.5).pmf(a)

        custom = NewsTechnology((0.25, 0.75), rule)
        assert custom == NewsTechnology((0.25, 0.75), rule)
        assert custom != NewsTechnology((0.25, 0.75), lambda a: rule(a))
        assert custom != NewsTechnology.slant(0.5) and custom != 0.5


class TestGarble:
    def test_identity_kernel_is_noop(self):
        tech = NewsTechnology.slant(0.3)
        same = tech.garbled(MarkovKernel.identity(2))
        for a in (0.1, 0.55, 0.9):
            np.testing.assert_array_equal(same.pmf(a), tech.pmf(a))

    def test_uniform_kernel_destroys_all_information(self):
        tech = NewsTechnology.slant(0.3)
        flat = tech.garbled(MarkovKernel.uniform(2))
        for a in (0.1, 0.55, 0.9):
            np.testing.assert_allclose(flat.pmf(a), [0.5, 0.5], atol=1e-15)

    def test_slant_family_closed_under_shift(self):
        xi, xi2 = 0.3, 0.55
        lam = (xi2 - xi) / (1 - xi)
        garbled = NewsTechnology.slant(xi).garbled(MarkovKernel.slant_shift(lam))
        target = NewsTechnology.slant(xi2)
        grid = np.linspace(0.05, 0.95, 19)
        assert np.max(np.abs(garbled.pmf(grid) - target.pmf(grid))) <= 1e-14

    def test_non_stochastic_kernel_rejected(self):
        with pytest.raises(ValidationError):
            MarkovKernel(np.array([[0.5, 0.4], [0.0, 1.0]]))
        with pytest.raises(ValidationError):
            MarkovKernel(np.array([[1.1, -0.1], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="finite"):
            MarkovKernel(np.array([[np.nan, np.nan], [0.0, 1.0]]))


class TestLogSupermodularity:
    def test_slant_family_passes(self):
        assert audit_news(NewsTechnology.slant(0.4), np.linspace(0.05, 0.95, 15)) == []

    def test_identical_rows_fail_weakly(self):
        tech = NewsTechnology.from_table((0.3, 0.7), (0.2, 0.8), [[0.4, 0.6], [0.4, 0.6]])
        assert audit_news(tech, (0.2, 0.8)) == [
            "ratio ordering fails for policies (0.2, 0.8) and signals (0.3, 0.7)"]

    def test_swapped_entries_reported(self):
        tech = NewsTechnology.from_table((0.3, 0.7), (0.2, 0.8), [[0.4, 0.6], [0.6, 0.4]])
        [problem] = audit_news(tech, (0.2, 0.8))
        assert problem.startswith("ratio ordering fails")

    def test_zero_cells_indeterminate(self):
        tech = NewsTechnology.from_table((0.3, 0.7), (0.2, 0.8), [[1.0, 0.0], [0.5, 0.5]])
        with pytest.warns(UserWarning, match="lacks full support at 1 policies"):
            assert audit_news(tech, (0.2, 0.8)) == [
                "indeterminate: zero probability at policy 0.2, signal 0.7"]


def _audit_cases() -> dict:
    """Name -> (technology, policy grid) for the audit and pmf oracle tests."""
    rng = np.random.default_rng(17)
    grid = (0.2, 0.8)
    tables = {
        "swapped": [[0.4, 0.6], [0.6, 0.4]],
        "identical": [[0.4, 0.6], [0.4, 0.6]],
        "zero_cells": [[1.0, 0.0], [0.5, 0.5]],
    }
    cases = {name: (NewsTechnology.from_table((0.3, 0.7), grid, rows), grid)
             for name, rows in tables.items()}
    reveal = (0.1, 0.3, 0.5, 0.7)
    cases["revealing"] = (NewsTechnology.revealing(reveal), reveal)
    cases["revealing_out_of_order"] = (NewsTechnology.revealing(reveal), reveal[::-1])
    cases["revealing_subgrid"] = (NewsTechnology.revealing(reveal), reveal[::2])
    slant_grid = tuple(np.linspace(0.05, 0.95, 19))
    flat = NewsTechnology((0.25, 0.75), lambda a: np.full(np.shape(a) + (2,), 0.5))
    cases["flat"] = (flat, slant_grid)
    not_a_pmf = NewsTechnology((0.25, 0.75), lambda a: np.stack([a - 0.3, 1.2 - a], axis=-1))
    cases["not_a_pmf"] = (not_a_pmf, slant_grid)
    cases["slant"] = (NewsTechnology.slant(0.6), slant_grid)
    cases["slant_garbled"] = (NewsTechnology.slant(0.6).garbled(MarkovKernel.slant_shift(0.4)),
                              slant_grid)
    cases["slant_garbled_to_one_signal"] = (
        NewsTechnology.slant(0.6).garbled(MarkovKernel.slant_shift(1.0)), slant_grid)
    policies = (0.1, 0.3, 0.5, 0.7, 0.9)
    for i in range(6):
        rows = rng.uniform(0.05, 1.0, (5, 4))
        cases[f"unordered_{i}"] = (NewsTechnology.from_table(
            (0.2, 0.4, 0.6, 0.8), policies, rows / rows.sum(axis=1, keepdims=True)), policies)
    for i in range(12):
        tech, policies = random_tp2_technology(rng, n_policies=int(rng.integers(2, 7)))
        cases[f"tp2_{i}"] = (tech, policies)
        cases[f"tp2_{i}_garbled"] = (tech.garbled(random_kernel(rng, tech.k)), policies)
    return cases


AUDIT_CASES = _audit_cases()


def _audited(audit, tech, grid):
    """(problems, warning messages) of one audit call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        problems = audit(tech, grid)
    return problems, [str(w.message) for w in caught]


class TestAuditAgainstOracle:
    """``audit_news`` says what the old per-policy and per-minor loops said,
    message for message and warning for warning."""

    @pytest.mark.parametrize("name", AUDIT_CASES)
    def test_matches_oracle(self, name):
        tech, grid = AUDIT_CASES[name]
        assert _audited(audit_news, tech, grid) == _audited(oracles.audit_news, tech, grid)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30), k=st.integers(2, 8))
    def test_row_checks_match_the_row_loop(self, data, n, k):
        # distributions, then some rows broken by a NaN, a negative entry or
        # a sum a few 1e-13 off 1, on either side of the 1e-12 tolerance
        rows = np.array(data.draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k),
                                           min_size=n, max_size=n)))
        rows /= rows.sum(axis=1, keepdims=True)
        for i in range(n):
            kind = data.draw(st.sampled_from(["ok", "nan", "negative", "off"]))
            j = data.draw(st.integers(0, k - 1))
            if kind == "nan":
                rows[i, j] = math.nan
            elif kind == "negative":
                rows[i, j] = -data.draw(st.floats(1e-15, 0.5))
            elif kind == "off":
                rows[i, j] += data.draw(st.integers(-20, 20)) * 1e-13
        grid = np.arange(1, n + 1) / (n + 1)
        tech = NewsTechnology(np.arange(1, k + 1) / k,
                              lambda a: rows[np.rint(a * (n + 1)).astype(int) - 1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            problems = audit_news(tech, grid)
        want = oracles.news_row_problems(tech, grid)
        assert problems[:len(want)] == want
        assert not any("signal probabilit" in p for p in problems[len(want):])

    def test_minors_at_the_threshold_match_oracle(self):
        # 2x2 tables [[p, 1-p], [q, 1-q]] whose log minor logit(p) - logit(q)
        # sits at the 1e-12 threshold, q stepped ulp by ulp across it.  Audited
        # are every 50th table and each one where np.log's verdict differs
        # from math.log's (a handful per 10^4 tables with a SIMD np.log)
        rng = np.random.default_rng(23)
        p = rng.uniform(0.05, 0.95, 4000)
        q = [p - 1e-12 * p * (1 - p)]
        for _ in range(6):
            q = [np.nextafter(q[0], 0.0), *q, np.nextafter(q[-1], 1.0)]
        p, q = np.tile(p, len(q)), np.concatenate(q)
        rows = np.stack([p, 1 - p, q, 1 - q])
        exact = np.vectorize(math.log)(rows)
        fast = np.log(rows)
        verdicts = [x[0] + x[3] - x[1] - x[2] <= 1e-12 for x in (exact, fast)]
        picked = np.flatnonzero((verdicts[0] != verdicts[1]) | (np.arange(len(p)) % 50 == 0))
        for j in picked:
            tech = NewsTechnology.from_table((0.3, 0.7), (0.2, 0.8),
                                             [[p[j], 1 - p[j]], [q[j], 1 - q[j]]])
            got = audit_news(tech, (0.2, 0.8))
            assert got == oracles.audit_news(tech, (0.2, 0.8))
            assert (got != []) == verdicts[0][j]
        assert 0 < np.count_nonzero(verdicts[0][picked]) < len(picked)

    def test_cases_cover_every_verdict(self):
        verdicts = {name: _audited(audit_news, *AUDIT_CASES[name])[0]
                    for name in ("swapped", "zero_cells", "revealing", "not_a_pmf")}
        assert verdicts["swapped"][0].startswith("ratio ordering fails")
        assert verdicts["zero_cells"][0].startswith("indeterminate")
        assert verdicts["revealing"] == []
        assert verdicts["not_a_pmf"][0] == "negative signal probability at policy 0.05"
        assert verdicts["not_a_pmf"][1] == "signal probabilities at policy 0.05 do not sum to 1"
        # unlike the old loops, a NaN row is not a signal distribution
        nan_rows = NewsTechnology((0.25, 0.75), lambda a: np.full(np.shape(a) + (2,), np.nan))
        assert audit_news(nan_rows, (0.2,)) == [
            "signal probabilities at policy 0.2 do not sum to 1"]

    @pytest.mark.parametrize("name", ["slant", "slant_garbled", "swapped", "revealing",
                                      "tp2_0", "tp2_0_garbled", "tp2_3_garbled"])
    def test_pmf_of_a_grid_is_its_rows_bitwise(self, name):
        tech, grid = AUDIT_CASES[name]
        rows = tech.pmf(grid)
        assert rows.shape == (len(grid), tech.k)
        assert rows.tobytes() == oracles.pmf_rows(tech, grid).tobytes()


class TestPosterior:
    def test_revealing_posterior_equals_raw_values(self, abs_spec):
        levels = (0.1, 0.4, 0.7)
        tech = NewsTechnology.revealing(levels)
        sigma = random_symmetric_sigma(np.random.default_rng(3), 3)
        marginal, nu = posterior_value_matrix(tech, abs_spec, levels, sigma, -0.15)
        np.testing.assert_array_equal(nu, value_matrix(abs_spec, levels, -0.15))
        np.testing.assert_array_equal(marginal, sigma)

    def test_median_diagonal_is_zero(self, abs_spec):
        tech = NewsTechnology.slant(0.35)
        sigma = np.full((2, 2), 0.25)
        _, nu = posterior_value_matrix(tech, abs_spec, (0.2, 0.6), sigma, 0.0)
        assert abs(nu[0, 0]) <= 1e-12 and abs(nu[1, 1]) <= 1e-12
        assert nu[1, 0] == pytest.approx(-nu[0, 1], abs=1e-12)

    def test_hand_bayes_update(self, abs_spec):
        # two equiprobable policies .2 and .6 under the xi=.5 slant family:
        # hearing the extreme report about beta weighs them 0.6 to 0.8
        tech = NewsTechnology.slant(0.5)
        rows = tech.pmf((0.2, 0.6))
        np.testing.assert_allclose(rows[:, 1], [0.6, 0.8], atol=1e-15)
        sigma = np.full((2, 2), 0.25)
        _, nu = posterior_value_matrix(tech, abs_spec, (0.2, 0.6), sigma, 0.0)
        for (m, n) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            expected = bayes_posterior_differential(
                (0.2, 0.6), (0.5, 0.5), rows, lambda a, t: voter_utility(abs_spec, a, t),
                m, n, 0.0,
            )
            assert nu[m, n] == pytest.approx(expected, abs=1e-14)

    def test_zero_probability_profile_rejected(self, abs_spec):
        levels = (0.1, 0.4)
        tech = NewsTechnology.revealing((0.1, 0.4, 0.7))
        sigma = np.full((2, 2), 0.25)
        # the profile (-0.7, 0.7) is never heard: zero marginal, undefined posterior
        marginal, nu = posterior_value_matrix(tech, abs_spec, levels, sigma, 0.0)
        assert marginal[2, 2] == 0.0 and np.isnan(nu[2, 2])


class TestNoisyAttention:
    @pytest.mark.filterwarnings("ignore:dropped")
    def test_revealing_reduces_to_baseline_bitwise(self, abs_spec):
        levels = (0.1, 0.5)
        tech = NewsTechnology.revealing(levels)
        sigma = np.full((2, 2), 0.25)
        for t in (-0.2, -0.03, 0.0):
            noisy = solve_noisy(tech, abs_spec, levels, sigma, t, 0.09)
            base = solve_attention(profile_belief(abs_spec, levels, sigma, t), 0.09)
            assert noisy.regime == base.regime
            assert noisy.m_bar == base.m_bar
            np.testing.assert_array_equal(noisy.m, base.m)
            assert noisy.info == base.info

    def test_uninformative_news_buys_nothing(self, abs_spec):
        tech = NewsTechnology.from_table((0.3, 0.7), (0.2, 0.6), [[0.5, 0.5], [0.5, 0.5]])
        sigma = np.full((2, 2), 0.25)
        sol = solve_noisy(tech, abs_spec, (0.2, 0.6), sigma, -0.1, 0.05)
        assert sol.info == 0.0
        sol0 = solve_noisy(tech, abs_spec, (0.2, 0.6), sigma, 0.0, 0.05)
        assert sol0.info == 0.0

    def test_benchmark_slant_interior(self, figure3_factory):
        scenario = figure3_factory(0.75)
        assignment = assignment_for(scenario, (0.23529411764705882, 0.7450980392156863))
        sol = solve_noisy(
            scenario.news, scenario.utility, assignment.levels, assignment.sigma,
            -0.001, scenario.mu,
        )
        assert sol.regime == "interior"
        assert sol.residual <= 1e-12


class TestNoisyEquilibria:
    def test_benchmark_has_strict_separating_equilibria(self, figure3_factory):
        records = enumerate_equilibria(figure3_factory(0.75))
        assert records
        for r in records:
            a1, a2 = r.assignment.policies
            assert 0 < a1 < a2
            assert r.min_gap > 0
            assert r.expected_w is not None
            assert np.all((0 <= r.expected_w) & (r.expected_w <= 1))

    def test_truncation_statistic_uses_signal_beliefs(self, figure3_factory, tmp_path):
        # under garbled news voter t attends to news profiles: judged on
        # policy profiles both equilibria would keep them, on signals neither
        scenario = figure3_factory(0.6)
        records = enumerate_equilibria(scenario)
        assert len(records) == 2
        for r in records:
            levels, sigma = r.assignment.levels, r.assignment.sigma
            belief = profile_belief(scenario.utility, levels, sigma, -0.001)
            assert attention_membership(belief, 1.0)
            assert not noisy_member(scenario.news, scenario.utility, levels, sigma, -0.001, 1.0)
        assert truncation_statistic(replace(scenario, mu=1.0), records, -0.001) == ((), None)
        # the CLI's sweep reports the same statistic
        path = tmp_path / "fig3.json"
        path.write_text(json.dumps(figure3_scenario(0.6)))
        out = tmp_path / "o"
        assert main(["sweep", "--scenario", str(path), "--param", "mu", "--values", "1",
                     "--t", "-0.001", "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[3:]]
        assert ["mu", "1.0", "ea_size", "t=-0.001", "0.0"] in rows
        assert not any(row[2] == "min_median_diff" for row in rows)

    def test_convergence_to_bliss_points(self, figure3_factory):
        dists = []
        for xi in (0.6, 0.75, 0.9):
            records = enumerate_equilibria(figure3_factory(xi))
            dists.append(
                max(
                    max(abs(r.assignment.policies[0] - 0.25),
                        abs(r.assignment.policies[1] - 0.75))
                    for r in records
                )
            )
        assert dists[0] > dists[1] > dists[2]

    @pytest.mark.filterwarnings("ignore:dropped")
    def test_revealing_news_reproduces_baseline_bitwise(self, figure2):
        doc = figure2_scenario()
        doc["news"] = {"family": "revealing", "policies": doc["policies"]["beta"]}
        noisy = enumerate_equilibria(scenario_from_dict(doc))
        base = enumerate_equilibria(figure2)
        assert [r.assignment.policies for r in base] == [r.assignment.policies for r in noisy]
        for b, n in zip(base, noisy):
            assert b.gaps == n.gaps
            for (t, bs), (t2, ns) in zip(b.attention, n.attention):
                assert t == t2 and bs.m_bar == ns.m_bar and bs.info == ns.info
                np.testing.assert_array_equal(bs.m, ns.m)

    def test_non_ratio_ordered_technology_refused(self, figure3_factory):
        scenario = figure3_factory(0.75)
        flat = NewsTechnology(
            scenario.news.signals, lambda a: np.full(np.shape(a) + (2,), 0.5), label="flat"
        )
        with pytest.raises(ValidationError, match="ratio ordering"):
            enumerate_equilibria(replace(scenario, news=flat))

    def test_expected_winning_matrix_structure(self):
        tech = NewsTechnology.slant(0.4)
        grid = np.linspace(0.1, 0.9, 9)
        g = expected_winning_matrix(tech, grid)
        # the symmetric profile splits; moving beta to the center raises its odds
        assert np.allclose(np.diag(g), 0.5, atol=1e-12)
        assert np.all(np.diff(g, axis=1) < 0)
        assert np.all(np.diff(g, axis=0) > 0)
        # revealing news is decided by the signal-wise rule itself
        w = expected_winning_matrix(NewsTechnology.revealing(grid[:3]), grid[:3])
        np.testing.assert_array_equal(w, [[0.5, 0, 0], [1, 0.5, 0], [1, 1, 0.5]])


class TestGarblingProperties:
    def test_posterior_mixture_and_mean_preservation(self, abs_spec):
        rng = np.random.default_rng(42)
        for _ in range(25):
            tech, policies = random_tp2_technology(rng)
            k = tech.k
            n = len(policies)
            levels = policies[: int(rng.integers(2, n + 1))]
            sigma = random_symmetric_sigma(rng, len(levels))
            kernel = random_kernel(rng, k)
            garbled = tech.garbled(kernel)
            t = float(rng.uniform(-0.5, 0.5))

            p, nu = posterior_value_matrix(tech, abs_spec, levels, sigma, t)
            p2, nu2 = posterior_value_matrix(garbled, abs_spec, levels, sigma, t)

            # means coincide with each other and with the prior expectation
            prior = float(np.sum(sigma * value_matrix(abs_spec, levels, t)))
            assert float(np.sum(p * nu)) == pytest.approx(prior, abs=1e-12)
            assert float(np.sum(p2 * nu2)) == pytest.approx(prior, abs=1e-12)

            # garbled posteriors are mixtures of the original ones
            rho = kernel.product()
            pi = p.ravel()[:, None] * rho / p2.ravel()[None, :]
            np.testing.assert_allclose(pi.sum(axis=0), 1.0, atol=1e-12)
            np.testing.assert_allclose(pi.T @ nu.ravel(), nu2.ravel(), atol=1e-10)

            # convexity: garbling cannot raise the exponential moment
            assert float(np.dot(p2.ravel(), np.exp(nu2.ravel()))) <= float(
                np.dot(p.ravel(), np.exp(nu.ravel()))
            ) + 1e-12

    def test_extreme_profile_value_falls_under_garbling(self, abs_spec):
        rng = np.random.default_rng(7)
        for _ in range(25):
            tech, policies = random_tp2_technology(rng)
            k = tech.k
            sigma = random_symmetric_sigma(rng, len(policies))
            garbled = tech.garbled(random_kernel(rng, k))
            _, nu = posterior_value_matrix(tech, abs_spec, policies, sigma, 0.0)
            _, nu2 = posterior_value_matrix(garbled, abs_spec, policies, sigma, 0.0)
            assert np.nanmax(nu) == pytest.approx(nu[k - 1, 0], abs=1e-12)
            assert nu2[k - 1, 0] <= nu[k - 1, 0] + 1e-12

    def test_attention_set_nests_under_garbling(self, abs_spec):
        rng = np.random.default_rng(11)
        for _ in range(10):
            tech, policies = random_tp2_technology(rng, n_policies=4)
            sigma = np.full((2, 2), 0.25)
            garbled = tech.garbled(random_kernel(rng, tech.k))
            t, mu = -0.05, float(rng.uniform(0.05, 0.5))
            for i in range(4):
                for j in range(i + 1, 4):
                    pair = (policies[i], policies[j])
                    if noisy_member(garbled, abs_spec, pair, sigma, t, mu):
                        assert noisy_member(tech, abs_spec, pair, sigma, t, mu)

    def test_monotone_posterior_expectations(self, abs_spec):
        # ratio-ordered news pushes posterior expectations of increasing
        # functions up in the report
        rng = np.random.default_rng(21)
        for _ in range(20):
            tech, policies = random_tp2_technology(rng)
            sigma = random_symmetric_sigma(rng, len(policies))
            marg = sigma.sum(axis=0)  # beta's policy marginal
            rows = tech.pmf(policies)
            for h in (lambda a: a, lambda a: voter_utility(abs_spec, a, 1.0)):
                values = np.array([h(a) for a in policies])
                post = []
                for w in range(tech.k):
                    weights = marg * rows[:, w]
                    post.append(float(weights @ values / weights.sum()))
                assert np.all(np.diff(post) > -1e-12)

    def test_posterior_ordering_in_profiles(self, abs_spec):
        # the profile with the more centrist beta report dominates its mirror
        rng = np.random.default_rng(33)
        for _ in range(20):
            tech, policies = random_tp2_technology(rng)
            sigma = random_symmetric_sigma(rng, len(policies))
            t = float(rng.uniform(-0.4, 0.4))
            _, nu = posterior_value_matrix(tech, abs_spec, policies, sigma, t)
            k = tech.k
            for m in range(k):
                for n_ in range(m):
                    assert nu[m, n_] >= nu[n_, m] - 1e-12

    def test_membership_nested_in_attention_cost(self, abs_spec):
        # at a fixed technology the attention set shrinks as the cost rises
        tech = NewsTechnology.slant(0.6)
        sigma = np.full((2, 2), 0.25)
        scan = np.arange(0.05, 1.0, 0.05)
        pairs = [(a1, a2) for a1 in scan for a2 in scan if a2 > a1 + 1e-9]
        previous = None
        for mu in np.geomspace(0.01, 50.0, 10):
            members = {
                p for p in pairs
                if noisy_member(tech, abs_spec, p, sigma, -0.01, mu)
            }
            if previous is not None:
                assert members <= previous
            previous = members

    def test_membership_implies_extreme_profile_bound(self, abs_spec):
        # a voter only pays attention if the widest news profile promises a
        # large enough posterior differential
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(120):
            tech, policies = random_tp2_technology(rng)
            k = tech.k
            sigma = random_symmetric_sigma(rng, len(policies))
            t = -float(rng.uniform(0.005, 0.05))
            mu = float(rng.uniform(0.02, 0.15))
            if not noisy_member(tech, abs_spec, policies, sigma, t, mu):
                continue
            checked += 1
            kappa = 2.0 * policies[0]
            bound = mu * math.acosh(
                (k * math.exp(kappa * abs(t) / mu) - 1.0) / (k - 1.0)
            )
            _, nu = posterior_value_matrix(tech, abs_spec, policies, sigma, 0.0)
            assert nu[k - 1, 0] >= bound - 1e-12
        assert checked >= 10

SCAN = np.arange(0.02, 1.0, 0.02)
# (t, mu): some rows without a hit, every row hitting, no row hitting, a steep cost
FRONTIER_CASES = [(-0.001, 1.0), (0.2, 0.05), (-0.3, 10.0), (-0.001, 0.01)]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestNoisyFrontierAgainstOracle:
    @pytest.mark.parametrize("xi", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("family", ["absolute", "quadratic"])
    @pytest.mark.parametrize("t, mu", FRONTIER_CASES)
    def test_exact_frontier(self, xi, family, t, mu):
        tech, spec = NewsTechnology.slant(xi), UtilitySpec(family=family)
        got = attention_frontier_noisy(tech, spec, SCAN, SCAN, t, mu)
        want = oracles.attention_frontier_noisy(tech, spec, SCAN, SCAN, t, mu)
        assert _bits(got) == _bits(want)  # NaN in the same rows, too

    def test_cases_cover_partial_full_and_empty_rows(self, abs_spec):
        tech = NewsTechnology.slant(0.75)
        hits = [np.count_nonzero(~np.isnan(attention_frontier_noisy(
            tech, abs_spec, SCAN, SCAN, t, mu)[:, 1])) for t, mu in FRONTIER_CASES[:3]]
        # the last a1 has no a2 above it, so at most 48 of 49 rows can hit
        assert 0 < hits[0] < 48 and hits[1] == 48 and hits[2] == 0

    def test_uneven_levels_and_empty_a2_grid(self, quad_spec):
        tech = NewsTechnology.slant(0.6)
        got = attention_frontier_noisy(tech, quad_spec, SCAN, SCAN, -0.001, 0.05, (0.3, 0.7))
        want = oracles.attention_frontier_noisy(tech, quad_spec, SCAN, SCAN, -0.001, 0.05,
                                                (0.3, 0.7))
        assert _bits(got) == _bits(want)
        empty = attention_frontier_noisy(tech, quad_spec, SCAN, [], -0.001, 0.05)
        assert _bits(empty) == _bits(oracles.attention_frontier_noisy(
            tech, quad_spec, SCAN, [], -0.001, 0.05))
        assert empty.shape == (len(SCAN), 2) and np.all(np.isnan(empty[:, 1]))

    @pytest.mark.parametrize("t, mu", FRONTIER_CASES)
    def test_revealing_technology_drops_profiles(self, abs_spec, t, mu):
        grid = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75)
        tech = NewsTechnology.revealing(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # masked cells divide nothing by 0
            with pytest.warns(UserWarning, match="zero-probability"):
                got = attention_frontier_noisy(tech, abs_spec, grid, grid, t, mu)
        want = oracles.attention_frontier_noisy(tech, abs_spec, grid, grid, t, mu)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("xi", [0.6, 0.9])
    @pytest.mark.parametrize("t, mu", FRONTIER_CASES[:2])
    def test_per_pair_log_moment_is_bitwise(self, monkeypatch, quad_spec, xi, t, mu):
        """Full support: every scanned pair's log E[exp(v/mu)] is the oracle's."""
        batches = []

        def recording(values, probs, mu_):
            batches.append(log_mean_exp(values, probs, mu_))
            return attentive(values, probs, mu_)

        attentive = rivote.election.attentive
        monkeypatch.setattr(rivote.election, "attentive", recording)
        tech = NewsTechnology.slant(xi)
        attention_frontier_noisy(tech, quad_spec, SCAN, SCAN, t, mu)
        got = np.concatenate(batches)
        sigma = np.full((2, 2), 0.25)
        # scanned pairs, row-major: chunks are consecutive blocks of a1 rows
        pairs = [(a1, a2) for a1 in SCAN for a2 in SCAN if a2 > a1 + 1e-12]
        want = [log_mean_exp(b.values, b.probs, mu) for b in (
            oracles.signal_belief(tech, quad_spec, pair, sigma, t)[0] for pair in pairs)]
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("chunk", [1, 50, 2 ** 15])
    def test_row_chunks_do_not_change_the_frontier(self, monkeypatch, abs_spec, chunk):
        tech = NewsTechnology.slant(0.75)
        want = oracles.attention_frontier_noisy(tech, abs_spec, SCAN, SCAN, -0.001, 1.0)
        monkeypatch.setattr(rivote.core, "CHUNK_FLOATS", chunk)
        assert _bits(attention_frontier_noisy(tech, abs_spec, SCAN, SCAN, -0.001, 1.0)) \
            == _bits(want)


class TestBatchedPosterior:
    @pytest.mark.parametrize("tech", [NewsTechnology.slant(0.75),
                                      NewsTechnology.revealing((0.1, 0.3, 0.5, 0.7))])
    def test_signal_belief_matches_per_profile_loop(self, quad_spec, tech):
        rng = np.random.default_rng(5)
        for levels in ((0.1, 0.3), (0.1, 0.5, 0.7), (0.1, 0.3, 0.5, 0.7)):
            sigma = random_symmetric_sigma(rng, len(levels))
            want, dropped = oracles.signal_belief(tech, quad_spec, levels, sigma, 0.05)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = signal_belief(tech, quad_spec, levels, sigma, 0.05)
            assert len(caught) == (1 if dropped else 0)
            assert got.support == want.support
            assert _bits(got.probs) == _bits(want.probs)
            assert _bits(got.values) == _bits(want.values)

    def test_leading_axes_equal_one_game_at_a_time(self, abs_spec):
        tech = NewsTechnology.slant(0.6)
        levels = np.array([[0.1, 0.4], [0.2, 0.9], [0.3, 0.3]])
        sigma = np.full((2, 2), 0.25)
        marginal, nu = posterior_value_matrix(tech, abs_spec, levels, sigma, -0.05)
        for i, lv in enumerate(levels):
            m1, nu1 = oracles.posterior_value_matrix(tech, abs_spec, lv, sigma, -0.05)
            assert _bits(marginal[i]) == _bits(m1) and _bits(nu[i]) == _bits(nu1)


class TestNoisyFrontierInputs:
    @pytest.mark.parametrize("chunk", [1, 2 ** 15])
    def test_one_warning_counts_every_dropped_profile(self, monkeypatch, abs_spec, chunk):
        monkeypatch.setattr(rivote.core, "CHUNK_FLOATS", chunk)
        grid = (0.2, 0.4, 0.6)
        tech = NewsTechnology.revealing(grid)
        sigma = np.full((2, 2), 0.25)
        expected = sum(oracles.signal_belief(tech, abs_spec, (a1, a2), sigma, -0.001)[1]
                       for a1 in grid for a2 in grid if a2 > a1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            attention_frontier_noisy(tech, abs_spec, grid, grid, -0.001, 1.0)
        assert [str(w.message).split()[:2] for w in caught] == [["dropped", str(expected)]]
        assert caught[0].filename == __file__  # the line that called the frontier

    @pytest.mark.parametrize("level_probs", [(1.0, 0.0), (0.6, 0.6), (0.2, 0.3, 0.5)])
    def test_bad_level_probabilities_refused(self, abs_spec, level_probs):
        with pytest.raises(ValidationError, match="level probabilities"):
            attention_frontier_noisy(NewsTechnology.slant(0.75), abs_spec, SCAN, SCAN,
                                     -0.001, 1.0, level_probs)

    @pytest.mark.parametrize("mu", [0.0, -1.0])
    def test_nonpositive_mu_refused(self, abs_spec, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="mu must be positive"):
                attention_frontier_noisy(NewsTechnology.slant(0.75), abs_spec, SCAN, SCAN,
                                         -0.001, mu)
