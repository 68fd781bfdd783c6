import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rivote import cli
from rivote.cli import main
from rivote.core import ValidationError
from rivote.election import (
    aggregate_and_rationalize,
    assignment_for,
    check_ic,
    enumerate_equilibria,
    game_of,
)
from rivote.presets import example3_scenario, figure2_scenario, figure3_scenario, table1_scenario
from rivote.scenario_io import load_scenario, scenario_from_dict, scenario_hash
from rivote.solver import attention_membership
from tests.conftest import two_level_belief


@pytest.fixture()
def fig2_path(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(figure2_scenario()))
    return str(path)


@pytest.fixture()
def fig3_path(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(figure3_scenario(0.75)))
    return str(path)


UTILITY = figure2_scenario()["utility"]
TABLE = {"a": [-0.4, 0.4], "t": [0.0]}


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# rivote ")
    assert "scenario_hash=" in lines[1] and "seed=" in lines[1]
    header = lines[2].split(",")
    return header, [line.split(",") for line in lines[3:]]


class TestValidate:
    def test_good_scenario(self, fig2_path, capsys):
        assert main(["validate", "--scenario", fig2_path]) == 0
        assert "scenario ok" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore:dropped")
    def test_revealing_news_passes_validate_and_enumerate(self, tmp_path, capsys):
        # one audit serves both: fully revealing news is the noiseless limit
        doc = figure2_scenario()
        doc["news"] = {"family": "revealing", "policies": doc["policies"]["beta"]}
        path = tmp_path / "revealing.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 0
        assert "scenario ok" in capsys.readouterr().out
        assert main(["enumerate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        _, rows = read_rows(tmp_path / "o/equilibria.csv")
        assert [r[3] for r in rows] == ["0.01|0.2", "0.01|0.4"]

    def test_each_audit_failure_reported_once(self, tmp_path, capsys):
        # one broken cell, u(0.4, 0.001): the type grid holds 0.001 and -0.0
        # twice over (a group type, and the negation of -0.001 and of 0.0)
        doc = figure2_scenario()
        a = sorted({x for v in (0.01, 0.2, 0.4) for x in (v, -v)})
        t = sorted({x for v in (0.001, 0.0, 0.3, 0.8) for x in (v, -v)})
        values = [[-abs(y - x) + (0.05 if (x, y) == (0.4, 0.001) else 0.0) for y in t]
                  for x in a]
        doc["utility"].update(family="table", table={"a": a, "t": t, "values": values})
        path = tmp_path / "broken_cell.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()[:-1]  # the last line counts them
        assert sum("u(0.4,0.001) != u(-0.4,-0.001)" in line for line in lines) == 1
        assert len(lines) == len(set(lines))

    def test_schema_violations_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema_version": 1,
            "policies": {"beta": [0.4, 0.1]},
            "utility": {"family": "nosuch"},
            "candidates": {"beta": [[0.3, 0.7]]},
            "electorate": {"groups": [[0.0, 1.0]]},
            "attention": {"mu": -1},
        }))
        assert main(["validate", "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "policies" in err or "attention.mu" in err or "utility" in err

    def test_missing_section_exit_2(self, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        assert main(["validate", "--scenario", str(bad)]) == 2

    def test_not_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad3.json"
        bad.write_text("not json {")
        assert main(["validate", "--scenario", str(bad)]) == 2


    @pytest.mark.parametrize("section, value, path", [
        ("attention", 5, "attention"),
        ("policies", [0.1], "policies"),
        ("utility", "abs", "utility"),
        ("electorate", [[0, 1]], "electorate"),
        ("candidates", 3, "candidates"),
        ("commitment", 0.5, "commitment"),
        ("dissemination", 0.1, "dissemination"),
        ("news", "slant", "news"),
        ("issues", 3, "issues"),
        ("news", {"family": "slant", "xi": "a"}, "news.xi"),
        ("issues", {"frontier": {"a": [-1, "x", 1], "b": [1, 0, -1]}}, "issues.frontier.a"),
        ("issues", {"utility2": 3}, "issues.utility2"),
        ("news", {"family": "slant", "xi": 0.75, "signals": 5}, "news.signals"),
        ("news", {"family": "table", "signals": [0.25, 0.75], "policies": "x",
                  "rows": [[0.5, 0.5]]}, "news.policies"),
        ("news", {"family": "table", "signals": [0.25, 0.75], "policies": [0.01],
                  "rows": 5}, "news.rows"),
        ("utility", {**UTILITY, "family": "table", "table": TABLE | {"values": [[1, "x"]]}},
         "utility.table.values"),
        ("utility", {**UTILITY, "family": "table", "table": TABLE | {"values": 5}},
         "utility.table.values"),
        ("utility", {**UTILITY, "kappa": "x"}, "utility.kappa"),
        ("utility", {**UTILITY, "office_rent": "x"}, "utility.office_rent"),
        ("issues", {"utility2": {"bliss": "x"}}, "issues.utility2.bliss"),
        ("issues", {"a_grid_size": "x"}, "issues.a_grid_size"),
        # JSON's NaN and Infinity parse, but are no numbers of a scenario
        ("policies", {"beta": [0.01, math.nan, 0.4]}, "policies.beta"),
        ("candidates", {"beta": [[0.3, math.nan], [0.8, 0.5]]}, "candidates.beta"),
        ("utility", {**UTILITY, "office_rent": math.nan}, "utility.office_rent"),
        ("utility", {**UTILITY, "office_rent": math.inf}, "utility.office_rent"),
        ("dissemination", {"cost": math.nan}, "dissemination.cost"),
        ("attention", {"mu": math.inf}, "attention.mu"),
        ("attention", {"mu": 10 ** 400}, "attention.mu"),
        ("news", {"family": "table", "signals": [0.25, 0.75], "policies": [0.01, 0.2, 0.4],
                  "rows": [[0.6, 0.6], [0.5, 0.5], [0.4, 0.6]]}, "news.rows"),
        ("news", {"family": "table", "signals": [0.25, 0.75], "policies": [0.01, 0.2, 0.4],
                  "rows": [[1.1, -0.1], [0.5, 0.5], [0.4, 0.6]]}, "news.rows"),
        ("policies", {"beta": []}, "policies.beta"),
        ("policies", {"beta": [], "alpha": []}, "policies.beta"),
    ])
    def test_malformed_section_names_its_path(self, section, value, path):
        doc = figure2_scenario()
        doc[section] = value
        with pytest.raises(ValidationError, match=f"invalid scenario: .*{path}: "):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section, alpha", [
        ("policies", [-0.9, -0.5, -0.3]),
        ("policies", [-0.01, -0.2, -0.4]),
        ("policies", [-0.4, -0.2]),
        ("candidates", [[-0.8, 0.5], [-0.3, 0.5 + 1e-9]]),
        ("candidates", [[-0.8, 0.5], [-0.2, 0.5]]),
        ("candidates", "x"),
    ])
    def test_non_mirror_alpha_section_refused(self, section, alpha, tmp_path, capsys):
        # candidate alpha is beta's mirror image; an alpha section may only restate it
        doc = figure2_scenario()
        doc[section]["alpha"] = alpha
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(doc))
        for command in (["validate"], ["solve-attention", "--policies", "0.01,0.4"],
                        ["attention-set", "--a1", "0.1:0.4:0.1"]):
            assert main([*command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
            assert f"{section}.alpha: must be the mirror image" in capsys.readouterr().err

    def test_mirror_alpha_section_accepted(self):
        doc = figure2_scenario()
        doc["policies"]["alpha"] = [-0.4, -0.2, -0.01]
        doc["candidates"]["alpha"] = [[-0.3, 0.5], [-0.8, 0.5 + 1e-13]]
        assert scenario_from_dict(doc) == scenario_from_dict(figure2_scenario())

    def test_convex_frontier_samples_refused(self):
        doc = figure2_scenario()
        doc["issues"] = {"frontier": {"a": [-1, -0.5, 0, 0.5, 1],
                                      "b": [1, 0, -0.5, -0.75, -0.875]}}
        with pytest.raises(ValidationError, match="issues.frontier: .*concave"):
            scenario_from_dict(doc)

    def test_empty_policy_grid_exit_2(self, tmp_path, capsys):
        doc = figure2_scenario()
        doc["policies"] = {"beta": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "enumerate"):
            assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == (
                "validation error: invalid scenario: policies.beta: expected at least one policy\n")

    def test_news_under_limited_commitment_refused(self, fig3_path, tmp_path, capsys):
        path = tmp_path / "news_eta.json"
        doc = figure3_scenario(0.75)
        doc["commitment"] = {"eta": 0.5}
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "eta < 1" in capsys.readouterr().err
        # an eta sweep over a news scenario is refused, not run without eta
        assert main(["sweep", "--scenario", fig3_path, "--param", "eta", "--values", "0.5",
                     "--out", str(tmp_path)]) == 2


SCENARIOS = Path(__file__).parents[1] / "demos" / "scenarios"
SHIPPED = sorted(SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_scenarios_load_and_validate(path, capsys):
    assert load_scenario(path).mu > 0
    assert main(["validate", "--scenario", str(path)]) == 0
    assert "scenario ok" in capsys.readouterr().out


BAD_LEAVES = (None, "x", [], {}, [1, "a"], -1, 0, 1e308, True, [[0.5]], math.nan)


def leaf_paths(node, path=()):
    """Key and index path of every leaf of a JSON document, list elements included."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield from leaf_paths(child, (*path, key))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("source", SHIPPED, ids=lambda p: p.stem)
def test_fuzzed_scenario_exits_0_or_2(source, tmp_path, capsys):
    # leaf i takes bad values 3i, 3i + 1 and 3i + 2 (mod 11), so every value
    # meets about a third of the leaves; a run passes or is refused, nothing else.
    # Even leaves also run solve-attention, odd ones attention-set.
    doc = json.loads(source.read_text())
    scenario = load_scenario(source)
    first = scenario.beta_axis.values[:len(scenario.beta_types.types)]
    sampled = (["solve-attention", "--policies", ",".join(map(repr, first))],
               ["attention-set", "--a1", "0.1:0.4:0.1"])
    path = tmp_path / "fuzzed.json"
    for i, (*parents, last) in enumerate(leaf_paths(doc)):
        for m in range(3):
            fuzzed = copy.deepcopy(doc)
            node = fuzzed
            for key in parents:
                node = node[key]
            node[last] = value = BAD_LEAVES[(3 * i + m) % len(BAD_LEAVES)]
            path.write_text(json.dumps(fuzzed))
            for command in (["validate"], ["enumerate"], sampled[i % 2]):
                code = main([*command, "--scenario", str(path), "--out", str(tmp_path / "o")])
                assert code in (0, 2), ((*parents, last), value, command, capsys.readouterr())


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_only_the_scenarios_own_pipeline_runs(path, tmp_path, capsys):
    # one enumerator and one check serve every game, and run the scenario's
    # own; the baseline-only options refuse the other games by name
    scenario = load_scenario(path)
    game = game_of(scenario)
    assert all(r.kind == game for r in enumerate_equilibria(scenario))
    n_types = len(scenario.beta_types.types)
    assignment = assignment_for(scenario, scenario.beta_axis.values[:n_types])
    check_ic(scenario, assignment)
    if game == "baseline":
        return
    refusal = f"models the baseline game only, not the scenario's {game} game$"
    with pytest.raises(ValidationError, match=refusal):
        check_ic(scenario, assignment, rationalized=True)
    with pytest.raises(ValidationError, match=refusal):
        enumerate_equilibria(scenario, verify_rationalizable=True)
    with pytest.raises(ValidationError, match=refusal):
        aggregate_and_rationalize(scenario, assignment)
    if game == "commitment":
        # attention-set would scan the baseline game's beliefs
        assert main(["attention-set", "--scenario", str(path), "--a1", "0.1:0.4:0.1",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "validation error: attention-set scans the baseline and noisy games, "
            "not the scenario's commitment game\n")


def _decreasing_ratio_news():
    doc = figure3_scenario(0.75, n_policies=4)
    doc["news"] = {"family": "table", "signals": [0.25, 0.75],
                   "policies": doc["policies"]["beta"],
                   "rows": [[0.2, 0.8], [0.4, 0.6], [0.6, 0.4], [0.8, 0.2]]}
    return doc, "news technology rejected: ratio ordering fails"


def _asymmetric_electorate():
    doc = figure2_scenario()
    doc["electorate"]["groups"] = [[-0.001, 0.5], [0.002, 0.5]]
    return doc, "refused an asymmetric scenario: electorate is not symmetric"


@pytest.mark.parametrize("make", [_decreasing_ratio_news, _asymmetric_electorate],
                         ids=lambda f: f.__name__[1:])
def test_every_command_refuses_what_enumerate_refuses(make, tmp_path, capsys):
    # every command learns its game from one admission, so all refuse alike
    doc, reason = make()
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    errors = set()
    for command in (["enumerate"], ["solve-attention", "--policies", "0.2,0.4"],
                    ["attention-set", "--a1", "0.1:0.4:0.1"],
                    ["sweep", "--param", "mu", "--values", "1"]):
        assert main([*command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        errors.add(capsys.readouterr().err)
    (err,) = errors
    assert err.startswith("validation error: ") and reason in err
    assert not (tmp_path / "o").exists()


def test_solve_attention_refuses_a_policy_off_the_grid(fig2_path, tmp_path, capsys):
    assert main(["solve-attention", "--scenario", fig2_path, "--policies", "0.01,0.9",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "validation error: policy 0.9 is not on candidate beta's grid\n")
    assert not (tmp_path / "o").exists()


def test_commitment_cap_counts_increasing_maps():
    # 3 policies and 2 types: the cap counts visited prefixes, 3 of the first
    # type and the 3 increasing extensions (0, 1), (0, 2) and (1, 2); a
    # decreasing map is never visited
    (path,) = [p for p in SHIPPED if p.stem == "partial_commitment"]
    scenario = replace(load_scenario(path), eta=0.9)
    records = enumerate_equilibria(scenario, max_assignments=6)
    assert [(r.kind, r.assignment.policies) for r in records] == [("commitment", (0.01, 0.2))]
    with pytest.raises(ValidationError, match="^6 prefixes exceed the cap 5; "
                                              "raise max_assignments explicitly"):
        enumerate_equilibria(scenario, max_assignments=5)


def _on(name, command, *flags):
    return [command, "--scenario", str(SCENARIOS / f"{name}.json"), *flags]


# sha256 of the CSV each command writes; a refactor of the games keeps every byte
PINNED_CSVS = {
    "attention_tables": (_on("attention_tables", "enumerate"), "equilibria.csv",
                         "c34b67e862ebc323822ddf6f36c55083557640831710437e99a54d96612847ba"),
    "partial_commitment": (_on("partial_commitment", "enumerate"), "equilibria.csv",
                           "3ffdbfdb18b38d85025f4f081cffedb4e56cca1c4b3008374d456d36af34a36e"),
    "slanted_news": (_on("slanted_news", "enumerate"), "equilibria.csv",
                     "e47c4645088d1776030bd1003458c2ab30c089c1b3df00eb818166fced8e1941"),
    "three_levels": (_on("three_levels", "enumerate"), "equilibria.csv",
                     "3c644cf41cc79a260f76920a25cd76e05f8dd36a12e019f267db2b899668c5cd"),
    "table1": (["reproduce", "table1"], "table1.csv",
               "ef23b3364379b0042ffd9baa10fe5150f1c7a9484ef02de4913c73f7e057f120"),
    "table2": (["reproduce", "table2"], "table2.csv",
               "ec318c07ce19eab8d9b6aec94bbcd72a202af8c91a14e8a38d9f0ee4d3b82604"),
    "figure2": (["reproduce", "figure2"], "figure2.csv",
                "79c0998238eb3152b60e55c0f5c7178112d6a4b522df91e391c88d9035ee11d1"),
    "figure3": (["reproduce", "figure3"], "figure3.csv",
                "457293395c2335b5599535bcea8389e6d7e8e2921069760cbf95c9bf81df26f2"),
    "sweep_xi": (_on("slanted_news", "sweep", "--param", "xi", "--values", "0.6,0.75,0.9"),
                 "sweep.csv", "8d6f9daab84cce43c8feea7371f80dd85d6cd33b9ac2dc170656680f892bcbfa"),
    "sweep_mu": (_on("three_levels", "sweep", "--param", "mu", "--values", "0.1,1,10,100",
                     "--t", "-0.001"),
                 "sweep.csv", "f1b37541eba1acdbe14dbff72d536e42fc187541bcc819d14b703b12fa0424b7"),
    "solve_attention_slanted_news": (
        _on("slanted_news", "solve-attention",
            "--policies", "0.23529411764705882,0.7450980392156863"), "solve_attention.csv",
        "169b8f9835aef445f2c6be55076c6c823fbeb13259a28e26cde377263fcae1c8"),
    "solve_attention_partial_commitment": (
        _on("partial_commitment", "solve-attention", "--policies", "0.01,0.4"),
        "solve_attention.csv", "d14a294ad7e91fc0dd6433731f41087676734fcdc6151b0d0cdaf880a78eb918"),
}


@pytest.mark.parametrize("name", PINNED_CSVS)
def test_csv_bytes_are_pinned(name, tmp_path):
    command, csv, digest = PINNED_CSVS[name]
    assert main(command + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest() == digest


@pytest.fixture()
def off_table_path(tmp_path):
    """Figure 2 with a tabulated utility whose policy grid omits +-0.4."""
    doc = figure2_scenario()
    a = sorted({x for v in (0.01, 0.2, 0.3, 0.8) for x in (v, -v)})
    t = sorted({x for v in (0.001, 0.0, 0.3, 0.8) for x in (v, -v)})
    doc["utility"]["family"] = "table"
    doc["utility"]["table"] = {"a": a, "t": t,
                               "values": [[-abs(y - x) for y in t] for x in a]}
    path = tmp_path / "off_table.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestOffTableLookups:
    def test_validate_exit_2(self, off_table_path, capsys):
        assert main(["validate", "--scenario", off_table_path]) == 2
        assert "is not on the utility table grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["enumerate"],
        ["solve-attention", "--policies", "0.01,0.4"],
        ["attention-set", "--a1", "0.1:0.4:0.1"],
    ], ids=lambda c: c[0])
    def test_untestable_symmetry_reported_once(self, command, off_table_path, tmp_path,
                                               capsys):
        # the admission's symmetry audit refuses the scenario before any lookup
        assert main([*command, "--scenario", off_table_path,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("mirror symmetry untestable") == 1
        assert "policy=-0.4 is not on the utility table grid" in err

    def test_news_off_its_grid_exit_2(self, tmp_path, capsys):
        doc = figure2_scenario()
        doc["news"] = {"family": "revealing", "policies": [0.01, 0.2]}
        path = tmp_path / "off_news.json"
        path.write_text(json.dumps(doc))
        assert main(["enumerate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "policy 0.4 is not on the technology's grid" in capsys.readouterr().err


class TestSolveAttention:
    def test_matches_library(self, fig2_path, tmp_path):
        out = tmp_path / "o"
        assert main([
            "solve-attention", "--scenario", fig2_path,
            "--policies", "0.01,0.4", "--out", str(out),
        ]) == 0
        header, rows = read_rows(out / "solve_attention.csv")
        assert header[:5] == ["t", "regime", "m_bar", "likelihood_ratio", "info"]

        from rivote.election import assignment_for, profile_belief
        from rivote.solver import solve_attention

        scenario = load_scenario(fig2_path)
        a = assignment_for(scenario, (0.01, 0.4))
        for row in rows:
            t = float(row[0])
            sol = solve_attention(
                profile_belief(scenario.utility, a.levels, a.sigma, t), scenario.mu
            )
            assert row[1] == sol.regime
            assert float(row[2]) == sol.m_bar
            np.testing.assert_array_equal([float(x) for x in row[5:]], sol.m)

    def test_commitment_scenario_uses_commitment_beliefs(self, tmp_path):
        from rivote.election import assignment_for, game_belief
        from rivote.solver import solve_attention

        path = tmp_path / "eta.json"
        path.write_text(json.dumps(example3_scenario(0.5)))
        out = tmp_path / "o"
        assert main(["solve-attention", "--scenario", str(path),
                     "--policies", "0.01,0.4", "--out", str(out)]) == 0
        _, rows = read_rows(out / "solve_attention.csv")
        scenario = load_scenario(path)
        a = assignment_for(scenario, (0.01, 0.4))
        for row in rows:
            sol = solve_attention(game_belief(scenario, a, float(row[0])), scenario.mu)
            assert row[1] == sol.regime
            assert float(row[2]) == sol.m_bar
            np.testing.assert_array_equal([float(x) for x in row[5:]], sol.m)
        assert rows[0][0] == "-0.001" and round(float(rows[0][2]), 4) == 0.2980

    def test_commitment_refuses_decreasing_policies(self, tmp_path, capsys):
        path = tmp_path / "eta.json"
        path.write_text(json.dumps(example3_scenario(0.5)))
        assert main(["solve-attention", "--scenario", str(path),
                     "--policies", "0.4,0.01", "--out", str(tmp_path / "o")]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_wrong_policy_count_exit_2(self, fig2_path, tmp_path):
        assert main([
            "solve-attention", "--scenario", fig2_path,
            "--policies", "0.01", "--out", str(tmp_path / "o"),
        ]) == 2


class TestEnumerate:
    def test_benchmark_rows(self, fig2_path, tmp_path):
        out = tmp_path / "o"
        assert main(["enumerate", "--scenario", fig2_path, "--out", str(out)]) == 0
        _, rows = read_rows(out / "equilibria.csv")
        assert [r[3] for r in rows] == ["0.01|0.2", "0.01|0.4"]
        assert all(r[1] == "baseline" for r in rows)

    def test_electorate_without_a_median_group(self, tmp_path):
        # the scenario's groups at -0.1 and 0.1 decide the winner, not a voter at t = 0
        doc = figure2_scenario()
        doc["electorate"]["groups"] = [[-0.1, 0.5], [0.1, 0.5]]
        path = tmp_path / "no_median.json"
        path.write_text(json.dumps(doc))
        assert main(["enumerate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
        _, rows = read_rows(tmp_path / "o" / "equilibria.csv")
        assert [r[3] for r in rows] == ["0.2|0.2"]

    def test_noisy_pipeline_used_with_news(self, fig3_path, tmp_path):
        out = tmp_path / "o"
        assert main(["enumerate", "--scenario", fig3_path, "--out", str(out)]) == 0
        _, rows = read_rows(out / "equilibria.csv")
        assert rows and all(r[1] == "noisy" for r in rows)


class TestAttentionSet:
    def test_frontier_csv(self, fig2_path, tmp_path):
        out = tmp_path / "o"
        assert main([
            "attention-set", "--scenario", fig2_path, "--t", "-0.001",
            "--a1", "0.05:0.3:0.05", "--a2", "0.05:1.0:0.05", "--out", str(out),
        ]) == 0
        header, rows = read_rows(out / "attention_set.csv")
        assert header == ["a1", "a2"]
        gaps = [float(a2) - float(a1) for a1, a2 in rows]
        assert all(g >= 0.28 for g in gaps)  # the mu=10 hurdle is ~.283

    @pytest.fixture()
    def uneven_path(self, tmp_path):
        """The three-level scenario with candidate type probabilities (.1, .9)."""
        doc = json.loads((SCENARIOS / "three_levels.json").read_text())
        doc["candidates"]["beta"] = [[0.3, 0.1], [0.8, 0.9]]
        path = tmp_path / "uneven.json"
        path.write_text(json.dumps(doc))
        return path

    def test_scans_at_the_scenarios_type_probabilities(self, uneven_path, tmp_path):
        # the frontier is one belief per pair at the levels' probabilities (.1, .9)
        scenario = load_scenario(uneven_path)
        assert main(["attention-set", "--scenario", str(uneven_path), "--a1", "0.01:0.5:0.01",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "attention_set.csv")
        got = np.array(rows, dtype=float)
        t, probs = scenario.electorate.groups[0][0], scenario.beta_types.type_probs
        want = [[a1, next((a2 for a2 in got[:, 0] if a2 > a1 + 1e-12 and attention_membership(
            two_level_belief(scenario.utility, a1, a2, t, probs), scenario.mu)), math.nan)]
            for a1 in got[:, 0]]
        assert got.tobytes() == np.array(want).tobytes()
        assert got[0].tolist() == [0.01, 0.49]

    def test_agrees_with_solve_attention(self, uneven_path, tmp_path):
        # each group is attentive at (.01, .4) in both commands, or in neither
        flags = ["--scenario", str(uneven_path), "--out", str(tmp_path)]
        assert main(["solve-attention", "--policies", "0.01,0.4", *flags]) == 0
        _, solved = read_rows(tmp_path / "solve_attention.csv")
        verdicts = {}
        for t, regime, *_ in solved:
            assert main(["attention-set", "--t", t, "--a1", "0.01:0.01:1", "--a2", "0.4:0.4:1",
                         *flags]) == 0
            (row,) = read_rows(tmp_path / "attention_set.csv")[1]
            verdicts[float(t)] = (row[1] == "0.4", regime != "corner_zero")
        assert all(scan == solve for scan, solve in verdicts.values())
        assert verdicts[-0.001] == (False, False)

    def test_needs_exactly_two_candidate_types(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "three_levels.json").read_text())
        doc["candidates"]["beta"] = [[0.3, 0.2], [0.5, 0.3], [0.8, 0.5]]
        path = tmp_path / "three_types.json"
        path.write_text(json.dumps(doc))
        assert main(["attention-set", "--scenario", str(path), "--a1", "0.1:0.4:0.1",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "validation error: attention-set scans two policy levels, one per candidate "
            "type, but the scenario has 3 candidate types\n")
        assert not (tmp_path / "o").exists()


class TestGarble:
    def test_slant_shift(self, fig3_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([
            "garble", "--scenario", fig3_path, "--lam", "0.4", "--out", str(out),
        ]) == 0
        assert "log-supermodular" in capsys.readouterr().out
        header, rows = read_rows(out / "garbled_news.csv")
        xi2 = 0.75 + 0.4 * 0.25  # shifting the slant family stays in family
        for row in rows:
            a = float(row[0])
            assert float(row[2]) == pytest.approx(a + xi2 * (1 - a), abs=1e-12)

    def test_needs_news_section(self, fig2_path, tmp_path):
        assert main([
            "garble", "--scenario", fig2_path, "--lam", "0.4",
            "--out", str(tmp_path / "o"),
        ]) == 2

    @pytest.mark.parametrize("rows, message", [
        ("[[NaN, NaN], [0, 1]]", "garbling kernel entries must be finite"),
        ("[[0.5, 0.6], [0, 1]]", "garbling kernel rows must sum to 1"),
    ], ids=["nan", "not_stochastic"])
    def test_numeric_kernel_reports_its_own_problem(self, rows, message, fig3_path, tmp_path,
                                                    capsys):
        # numeric rows that are no Markov kernel are not "expected numeric 'rows'"
        kernel = tmp_path / "kernel.json"
        kernel.write_text(f'{{"rows": {rows}}}')
        assert main(["garble", "--scenario", fig3_path, "--kernel", str(kernel),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"validation error: {message}\n"


class TestSweep:
    def test_mu_sweep_monotone_attention(self, fig2_path, tmp_path):
        out = tmp_path / "o"
        assert main([
            "sweep", "--scenario", fig2_path, "--param", "mu",
            "--values", "0.1,1,10,40", "--t", "-0.001", "--out", str(out),
        ]) == 0
        _, rows = read_rows(out / "sweep.csv")
        ea = [float(r[4]) for r in rows if r[2] == "ea_size"]
        assert len(ea) == 4
        assert ea == sorted(ea, reverse=True)
        n_eq = {float(r[4]) for r in rows if r[2] == "n_equilibria"}
        assert n_eq == {2.0}

    def test_eta_sweep_runs(self, fig2_path, tmp_path):
        out = tmp_path / "o"
        assert main([
            "sweep", "--scenario", fig2_path, "--param", "eta",
            "--values", "0.5,1.0", "--out", str(out),
        ]) == 0
        _, rows = read_rows(out / "sweep.csv")
        assert any(r[2] == "equilibrium" for r in rows)

    def test_threads_do_not_change_bytes(self, fig2_path, tmp_path):
        args = ["sweep", "--scenario", fig2_path, "--param", "mu",
                "--values", "0.5,5,50", "--t", "-0.001"]
        assert main(args + ["--out", str(tmp_path / "a"), "--threads", "1"]) == 0
        assert main(args + ["--out", str(tmp_path / "b"), "--threads", "3"]) == 0
        assert (tmp_path / "a/sweep.csv").read_bytes() == (tmp_path / "b/sweep.csv").read_bytes()


@pytest.mark.parametrize("command", [
    ["attention-set", "--a1", "0:1:0"],
    ["attention-set", "--a1", "abc"],
    ["attention-set", "--a1", "0.1:0.5"],
    ["attention-set", "--a1", "0.1:0.5:0.1", "--a2", "0.1:inf:0.1"],
    ["attention-set", "--a1", "0.1:0.5:1e-15"],
    ["solve-attention", "--policies", "x,y"],
    ["sweep", "--param", "mu", "--values", "a,b"],
    ["sweep", "--param", "mu", "--values", "1", "--threads", "0"],
    ["validate", "--scenario", "missing.json"],
    ["garble", "--kernel", "missing.json"],
    ["garble", "--kernel", "no_rows.json"],
    ["garble", "--kernel", "ragged_rows.json"],
    ["sweep", "--param", "mu", "--values", "inf"],
    ["sweep", "--param", "cost", "--values", "nan"],
    ["garble", "--kernel", "nan_rows.json"],
    ["attention-set", "--a1", "0.1:0.5:0.1", "--t", "nan"],
    ["attention-set", "--a1", "0.1:0.5:0.1", "--t", "7"],
    ["sweep", "--param", "mu", "--values", "1", "--t", "nan"],
], ids=lambda c: " ".join(c))
def test_malformed_flags_and_files_exit_2(command, fig3_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "no_rows.json").write_text(json.dumps({"matrix": [[1.0]]}))
    (tmp_path / "ragged_rows.json").write_text(json.dumps({"rows": [[1.0, 0.0], [1.0]]}))
    (tmp_path / "nan_rows.json").write_text('{"rows": [[NaN, NaN], [0, 1]]}')
    scenario = [] if "--scenario" in command else ["--scenario", fig3_path]
    assert main(command + scenario + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("validation error: ")


def test_t_is_a_voter_type_in_the_group_range(fig3_path, tmp_path, capsys):
    # --t is refused where the electorate refuses a group type, and names the flag
    for command in (["attention-set", "--a1", "0.1:0.5:0.1"],
                    ["sweep", "--param", "mu", "--values", "1"]):
        for t, code in (("-1", 0), ("1", 0), ("1.5", 2), ("nan", 2)):
            args = [*command, "--t", t, "--scenario", fig3_path, "--out", str(tmp_path / "o")]
            assert main(args) == code
            assert ("--t must lie in [-1, 1]" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("command", [
    ["reproduce", "table1", "--tolerance", "nan"],
    ["reproduce", "table1", "--scenario", "/nonexistent.json"],
    ["validate", "--scenario", "x.json", "--threads", "0"],
    ["enumerate"],
    ["sweep", "--param", "mu", "--values", "1"],
], ids=lambda c: " ".join(c))
def test_flags_a_subcommand_does_not_read_exit_2(command, tmp_path, capsys):
    # each subcommand takes only the flags it reads; --scenario is required where read
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


class TestReproduce:
    @pytest.mark.parametrize("target", ["table1", "table2"])
    def test_tables(self, target, tmp_path):
        assert main(["reproduce", target, "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"{target}.csv").exists()

    def test_figure2(self, tmp_path):
        assert main(["reproduce", "figure2", "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "figure2.csv")
        diamonds = {(float(r[1]), float(r[2])) for r in rows if r[0] == "equilibrium"}
        assert diamonds == {(0.01, 0.2), (0.01, 0.4)}

    def test_tight_tolerance_exits_4(self, tmp_path, monkeypatch, capsys):
        # one expected cell moved just past the fixed tolerance is a mismatch
        expected = dict(cli.TABLE1_EXPECTED)
        info, *cells = expected[-0.05]
        expected[-0.05] = (info + 1.5 * cli.TOLERANCE, *cells)
        monkeypatch.setattr(cli, "TABLE1_EXPECTED", expected)
        assert main(["reproduce", "table1", "--out", str(tmp_path)]) == 4
        assert "table1 t=-0.05" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        assert main(["reproduce", "table1", "--out", str(tmp_path / "a")]) == 0
        assert main(["reproduce", "table1", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/table1.csv").read_bytes() == (tmp_path / "b/table1.csv").read_bytes()


ROOT = Path(__file__).resolve().parents[1]


def readme_cli_examples() -> list[list[str]]:
    """The ``rivote ...`` commands of the README's CLI bash block, one per
    ``&&`` part, with backslash continuations joined."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        commands += [part.split() for part in line.split("&&") if part.strip()]
    return commands


@pytest.mark.parametrize("command", readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_runs(command, tmp_path, monkeypatch):
    assert command[0] == "rivote"
    monkeypatch.chdir(ROOT)
    assert main(command[1:] + ["--out", str(tmp_path)]) == 0


def test_scenario_hash_stable():
    assert scenario_hash(table1_scenario()) == scenario_hash(table1_scenario())
    assert scenario_hash(table1_scenario()) != scenario_hash(figure2_scenario())


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter shows it
    code = ("import sys, rivote, rivote.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
