import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rivote import cli
from rivote.cli import main
from rivote.core import ValidationError
from rivote.election import assignment_for, check_ic, enumerate_equilibria, game_of
from rivote.extensions import check_ic_commitment, enumerate_equilibria_commitment
from rivote.news import check_ic_noisy, enumerate_equilibria_noisy
from rivote.presets import example3_scenario, figure2_scenario, figure3_scenario, table1_scenario
from rivote.scenario_io import dump_scenario, load_scenario, scenario_from_dict, scenario_hash


@pytest.fixture()
def fig2_path(tmp_path):
    path = tmp_path / "fig2.json"
    dump_scenario(figure2_scenario(), path)
    return str(path)


@pytest.fixture()
def fig3_path(tmp_path):
    path = tmp_path / "fig3.json"
    dump_scenario(figure3_scenario(0.75), path)
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
        dump_scenario(doc, path)
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

    def test_news_under_limited_commitment_refused(self, fig3_path, tmp_path, capsys):
        path = tmp_path / "news_eta.json"
        doc = figure3_scenario(0.75)
        doc["commitment"] = {"eta": 0.5}
        dump_scenario(doc, path)
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "eta < 1" in capsys.readouterr().err
        # an eta sweep over a news scenario is refused, not run without eta
        assert main(["sweep", "--scenario", fig3_path, "--param", "eta", "--values", "0.5",
                     "--out", str(tmp_path)]) == 2


SHIPPED = sorted((Path(__file__).parents[1] / "demos" / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_scenarios_load_and_validate(path, capsys):
    assert load_scenario(path).mu > 0
    assert main(["validate", "--scenario", str(path)]) == 0
    assert "scenario ok" in capsys.readouterr().out


PIPELINES = {
    "baseline": (enumerate_equilibria, check_ic),
    "noisy": (enumerate_equilibria_noisy, check_ic_noisy),
    "commitment": (enumerate_equilibria_commitment, check_ic_commitment),
}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_only_the_scenarios_own_pipeline_runs(path):
    scenario = load_scenario(path)
    game = game_of(scenario)
    assert cli._pipeline(scenario)[0] is PIPELINES[game][0]
    n_types = len(scenario.beta_types.types)
    assignment = assignment_for(scenario, scenario.beta_axis.values[:n_types])
    own = PIPELINES[game][0](scenario)
    PIPELINES[game][1](scenario, assignment)
    for other, (enumerate_fn, check) in PIPELINES.items():
        if other == game:
            continue
        if (game, other) == ("baseline", "commitment"):
            # at eta = 1 limited commitment is the baseline game
            assert [r.assignment.policies for r in enumerate_fn(scenario)] == [
                r.assignment.policies for r in own]
            continue
        for run in (lambda: enumerate_fn(scenario), lambda: check(scenario, assignment)):
            with pytest.raises(ValidationError, match=f"use {PIPELINES[game][0].__name__}$"):
                run()


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
    dump_scenario(doc, path)
    return str(path)


class TestOffTableLookups:
    def test_validate_exit_2(self, off_table_path, capsys):
        assert main(["validate", "--scenario", off_table_path]) == 2
        assert "is not on the utility table grid" in capsys.readouterr().err

    def test_solve_attention_exit_2(self, off_table_path, tmp_path, capsys):
        assert main([
            "solve-attention", "--scenario", off_table_path,
            "--policies", "0.01,0.4", "--out", str(tmp_path / "o"),
        ]) == 2
        assert "policy=0.4 is not on the utility table grid" in capsys.readouterr().err

    def test_untestable_symmetry_reported_once(self, off_table_path, tmp_path, capsys):
        assert main(["enumerate", "--scenario", off_table_path,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("mirror symmetry untestable") == 1

    def test_news_off_its_grid_exit_2(self, tmp_path, capsys):
        doc = figure2_scenario()
        doc["news"] = {"family": "revealing", "policies": [0.01, 0.2]}
        path = tmp_path / "off_news.json"
        dump_scenario(doc, path)
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
                profile_belief(scenario.utility, a.levels, a.sigma(), t), scenario.mu
            )
            assert row[1] == sol.regime
            assert float(row[2]) == sol.m_bar
            np.testing.assert_array_equal([float(x) for x in row[5:]], sol.m)

    def test_commitment_scenario_uses_commitment_beliefs(self, tmp_path):
        from rivote.election import assignment_for
        from rivote.extensions import commitment_belief
        from rivote.solver import solve_attention

        path = tmp_path / "eta.json"
        dump_scenario(example3_scenario(0.5), path)
        out = tmp_path / "o"
        assert main(["solve-attention", "--scenario", str(path),
                     "--policies", "0.01,0.4", "--out", str(out)]) == 0
        _, rows = read_rows(out / "solve_attention.csv")
        scenario = load_scenario(path)
        a = assignment_for(scenario, (0.01, 0.4))
        for row in rows:
            sol = solve_attention(commitment_belief(scenario, a, float(row[0])), scenario.mu)
            assert row[1] == sol.regime
            assert float(row[2]) == sol.m_bar
            np.testing.assert_array_equal([float(x) for x in row[5:]], sol.m)
        assert rows[0][0] == "-0.001" and round(float(rows[0][2]), 4) == 0.2980

    def test_commitment_refuses_decreasing_policies(self, tmp_path, capsys):
        path = tmp_path / "eta.json"
        dump_scenario(example3_scenario(0.5), path)
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
    ["solve-attention", "--policies", "x,y"],
    ["sweep", "--param", "mu", "--values", "a,b"],
    ["sweep", "--param", "mu", "--values", "1", "--threads", "0"],
    ["validate", "--scenario", "missing.json"],
    ["garble", "--kernel", "missing.json"],
    ["garble", "--kernel", "no_rows.json"],
    ["garble", "--kernel", "ragged_rows.json"],
], ids=lambda c: " ".join(c))
def test_malformed_flags_and_files_exit_2(command, fig3_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "no_rows.json").write_text(json.dumps({"matrix": [[1.0]]}))
    (tmp_path / "ragged_rows.json").write_text(json.dumps({"rows": [[1.0, 0.0], [1.0]]}))
    scenario = [] if "--scenario" in command else ["--scenario", fig3_path]
    assert main(command + scenario + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("validation error: ")


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
