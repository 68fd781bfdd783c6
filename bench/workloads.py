"""The benchmark's three workloads: inputs, the tasks of one pass, and checks.

Each workload builds its inputs from the seed in ``setup`` and then exposes
``tasks``, a list of ``(label, group, fn)``.  One pass runs every task once,
in a seed-dependent order.  ``fn(rec)`` calls into the library inside spans of
the recorder ``rec``, checks what came back, and returns the work units it
completed (commands, assignments, beliefs, cells or voter groups).  A wrong
output raises ``CheckFailed``.

Outputs are checked against ``references.json``, recorded from the library by
``record_references.py``.  Inputs that depend on the seed (the attention
workload's belief stream) have references only for ``REFERENCE_SEED``; on
other seeds they are checked against invariants that need no reference.

Only public entry points are called: the three ``enumerate_equilibria*``
functions, ``solve_attention``, ``attention_membership``, ``profile_belief``,
``signal_belief``, ``attention_frontier``, ``attention_frontier_noisy``,
``aggregate_and_rationalize``, ``multi_issue_reduce``, ``scenario_from_dict``
and the CLI (``python -m rivote.cli``).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".bench_results"
REFERENCES = BENCH_DIR / "references.json"
REFERENCE_SEED = 0

RESIDUAL_BOUND = 1e-12   # fixed-point residual the solver's own tests demand
M_BAR_TOL = 1e-12
MULTI_ISSUE_TOL = 1e-12
CLI_TIMEOUT_S = 150


class CheckFailed(Exception):
    """An output disagrees with its reference or breaks an invariant."""


def child_env() -> dict:
    """Environment for child interpreters: ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_library() -> None:
    """Make ``import rivote`` load the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Workload:
    name = ""
    #: end-to-end throughput metrics: task group -> (metric name, unit)
    rates: dict[str, tuple[str, str]] = {}
    #: peak memory is the largest child process's, not this process's
    rss_of_children = False

    def __init__(self) -> None:
        self.refs: dict = {}
        self.recording: dict | None = None   # set to {} to record references
        self.tasks: list = []
        self.extra_tasks: list = []          # run once per traced run

    def setup(self, seed: int, rec) -> None:
        raise NotImplementedError

    def setup_command(self, seed: int, run_py: Path) -> list[str]:
        """Child process whose time until it is ready is one set-up sample."""
        return [sys.executable, str(run_py), "--setup-probe",
                "--workload", self.name, "--seed", str(seed)]

    def load_references(self) -> None:
        if self.recording is None:
            self.refs = json.loads(REFERENCES.read_text())[self.name]

    def expect(self, key: str, actual, same=None) -> None:
        """Compare ``actual`` (JSON-shaped) with the reference under ``key``."""
        if self.recording is not None:
            # a key checked twice (two thread counts, table vs closed form)
            # must record one value
            if self.recording.setdefault(key, actual) != actual:
                raise CheckFailed(f"{key}: two outputs that must agree differ")
            return
        if key not in self.refs:
            raise CheckFailed(f"{key}: no reference recorded")
        expected = self.refs[key]
        if not (same(actual, expected) if same else actual == expected):
            raise CheckFailed(f"{key}: output differs from the reference")

    def end_to_end(self, passes) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit, better, note)."""
        return {}

    def layer_metrics(self, rec, traced, extra) -> dict:
        """Workload-specific per-layer metrics: name -> value."""
        return {}


def _shuffled(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# paper: the CLI commands a reader of the paper runs, one process each
# ---------------------------------------------------------------------------

SCENARIOS = "bench/scenarios"
THREE_LEVELS = f"{SCENARIOS}/three_levels.json"

PAPER_COMMANDS = {
    "reproduce_table1": ["reproduce", "table1"],
    "reproduce_table2": ["reproduce", "table2"],
    "reproduce_figure2": ["reproduce", "figure2"],
    "reproduce_figure3": ["reproduce", "figure3"],
    "enumerate_slanted_news": ["enumerate", "--scenario", f"{SCENARIOS}/slanted_news.json"],
    "enumerate_partial_commitment": [
        "enumerate", "--scenario", f"{SCENARIOS}/partial_commitment.json"],
    "attention_set": ["attention-set", "--scenario", THREE_LEVELS, "--t", "-0.001",
                      "--a1", "0.005:0.7:0.005", "--a2", "0.005:1.0:0.005"],
    "solve_attention": ["solve-attention", "--scenario", THREE_LEVELS,
                        "--policies", "0.01,0.4"],
    "sweep_mu": ["sweep", "--scenario", THREE_LEVELS, "--param", "mu",
                 "--values", "0.1,1,10,100", "--t", "-0.001"],
}
SWEEP_XI = ["sweep", "--scenario", f"{SCENARIOS}/slanted_news.json", "--param", "xi",
            "--values", "0.6,0.75,0.9"]


def run_cli(args: list[str], out_dir: Path) -> dict[str, bytes]:
    """Run one CLI command in a fresh interpreter; return the CSVs it wrote."""
    shutil.rmtree(out_dir, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-m", "rivote.cli", *args, "--out", str(out_dir)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def csv_digest(csvs: dict[str, bytes]) -> dict[str, str]:
    """sha256 of each CSV body; the two ``#`` provenance lines are excluded,
    so a version bump does not count as a change."""
    out = {}
    for name, data in csvs.items():
        lines = data.split(b"\n", 2)
        if len(lines) < 3 or not (lines[0].startswith(b"#") and lines[1].startswith(b"#")):
            raise CheckFailed(f"{name}: missing the two '#' header lines")
        out[name] = hashlib.sha256(lines[2]).hexdigest()
    return out


class Paper(Workload):
    name = "paper"
    rss_of_children = True

    def setup_command(self, seed: int, run_py: Path) -> list[str]:
        return [sys.executable, "-m", "rivote.cli", "--version"]

    def setup(self, seed: int, rec) -> None:
        self.load_references()
        self.csv_bytes: dict[str, int] = {}
        self.tasks = [(label, "cli", partial(self._command, label))
                      for label in _shuffled(PAPER_COMMANDS, seed)]
        self.extra_tasks = [(f"sweep_xi_threads{n}", "threads", partial(self._sweep_xi, n))
                            for n in (1, 2)]

    def _command(self, label: str, rec) -> int:
        with rec.span(f"cli.{label}"):
            csvs = run_cli(PAPER_COMMANDS[label], OUT / "cli" / label)
        self.csv_bytes[label] = sum(len(b) for b in csvs.values())
        self.expect(label, csv_digest(csvs))
        return 1

    def _sweep_xi(self, threads: int, rec) -> int:
        label = f"sweep_xi_threads{threads}"
        with rec.span(f"cli.{label}"):
            csvs = run_cli(SWEEP_XI + ["--threads", str(threads)], OUT / "cli" / label)
        # both thread counts must write the same bytes
        self.expect("sweep_xi", csv_digest(csvs))
        return 1

    def end_to_end(self, passes) -> dict:
        times = [s.dt for p in passes for s in p.samples]
        tail, pct, n = tail_percentile(times)
        fig3 = [s.dt for p in passes for s in p.samples if s.label == "reproduce_figure3"]
        return {
            "paper.cmd_p50_s": (median(times), "s", "lower", f"{n} commands"),
            "paper.cmd_tail_s": (tail, "s", "lower", f"p{pct:.1f} of {n} commands"),
            "paper.figure3_s": (median(fig3), "s", "lower", f"{len(fig3)} runs"),
        }

    def layer_metrics(self, rec, traced, extra) -> dict:
        out = {}
        for label in PAPER_COMMANDS:
            out[f"cli.{label}.wall_s"] = median(
                [s.dt for p in traced for s in p.samples if s.label == label])
        out["cli.csv_bytes"] = sum(self.csv_bytes.values())
        by_label = {s.label: s for s in extra}
        one, two = by_label.get("sweep_xi_threads1"), by_label.get("sweep_xi_threads2")
        if one and two and one.ok and two.ok:
            out["cli.sweep.threads2_speedup"] = one.dt / two.dt
        return out


# ---------------------------------------------------------------------------
# ic_grid: game-side enumeration at larger grids, in-process
# ---------------------------------------------------------------------------

TWO_TYPES = ((0.25, 0.5), (0.75, 0.5))
THREE_TYPES = ((0.2, 1 / 3), (0.5, 1 / 3), (0.8, 1 / 3))
THIRDS = [[-0.001, 1 / 3], [0.0, 1 / 3], [0.001, 1 / 3]]


def game_doc(n: int, types=TWO_TYPES, family: str = "absolute",
             xi: float | None = None, eta: float | None = None, mu: float = 1.0) -> dict:
    """Scenario document on the interior grid k/(n+1), k = 1..n.

    ``family="table"`` tabulates -(t-a)^2 on every policy and type the game
    looks up, so it must give the same equilibria as ``"quadratic"``.
    """
    grid = [k / (n + 1) for k in range(1, n + 1)]
    utility = {"family": family, "office_rent": 8.0, "win_weight": 3.0,
               "lose_weight": 1.0, "loser_sign": -1}
    if family == "table":
        a_values = sorted({a for g in grid for a in (g, -g)})
        t_values = sorted({0.0, *(t for t, _ in THIRDS)} | {x for t, _ in types for x in (t, -t)})
        utility["table"] = {"a": a_values, "t": t_values,
                            "values": [[-(t - a) * (t - a) for t in t_values] for a in a_values]}
    doc = {"schema_version": 1, "policies": {"beta": grid}, "utility": utility,
           "candidates": {"beta": [list(t) for t in types]},
           "electorate": {"groups": THIRDS}, "attention": {"mu": mu}}
    if xi is not None:
        doc["news"] = {"family": "slant", "xi": xi, "signals": [0.25, 0.75]}
    if eta is not None:
        doc["commitment"] = {"eta": eta}
    return doc


# label: (task group, pipeline, scenario document arguments)
IC_TASKS = {
    "baseline_n20": ("baseline", "baseline", {"n": 20}),
    "baseline_n40": ("baseline", "baseline", {"n": 40}),
    "baseline_3types_n10": ("baseline", "baseline", {"n": 10, "types": THREE_TYPES}),
    "quadratic_n20": ("baseline", "baseline", {"n": 20, "family": "quadratic"}),
    "table_n20": ("table", "baseline", {"n": 20, "family": "table"}),
    "noisy_n30": ("noisy", "noisy", {"n": 30, "xi": 0.75}),
    "commitment_n40": ("commitment", "commitment", {"n": 40, "eta": 0.8}),
}


class ICGrid(Workload):
    name = "ic_grid"
    rates = {
        "baseline": ("ic.baseline.assign_per_s", "1/s"),
        "table": ("ic.table.assign_per_s", "1/s"),
        "noisy": ("ic.noisy.assign_per_s", "1/s"),
        "commitment": ("ic.commitment.assign_per_s", "1/s"),
    }

    def setup(self, seed: int, rec) -> None:
        import_library()
        from rivote import (enumerate_equilibria, enumerate_equilibria_commitment,
                            enumerate_equilibria_noisy, scenario_from_dict)

        self.load_references()
        self.pipelines = {
            "baseline": ("election.enumerate_equilibria", enumerate_equilibria),
            "noisy": ("news.enumerate_equilibria_noisy", enumerate_equilibria_noisy),
            "commitment": ("extensions.enumerate_equilibria_commitment",
                           enumerate_equilibria_commitment),
        }
        self.scenarios = {}
        self.assignments = {}
        for label, (_group, pipeline, kwargs) in IC_TASKS.items():
            doc = game_doc(**kwargs)
            with rec.span("scenario_io.scenario_from_dict"):
                self.scenarios[label] = scenario_from_dict(doc)
            n, k = kwargs["n"], len(kwargs.get("types", TWO_TYPES))
            # commitment searches strictly increasing maps only
            self.assignments[label] = math.comb(n, k) if pipeline == "commitment" else n ** k
        self.tasks = [(label, IC_TASKS[label][0], partial(self._enumerate, label))
                      for label in _shuffled(IC_TASKS, seed)]
        # warm every pipeline on a tiny grid
        for pipeline, kwargs in (("baseline", {"n": 3}), ("baseline", {"n": 3, "family": "table"}),
                                 ("noisy", {"n": 3, "xi": 0.75}),
                                 ("commitment", {"n": 3, "eta": 0.8})):
            self.pipelines[pipeline][1](scenario_from_dict(game_doc(**kwargs)))

    def _enumerate(self, label: str, rec) -> int:
        span_name, enumerate_fn = self.pipelines[IC_TASKS[label][1]]
        with rec.span(span_name) as span:
            records = enumerate_fn(self.scenarios[label])
        span.count(assignments=self.assignments[label], equilibria=len(records))
        found = sorted([list(r.assignment.policies) for r in records])
        self.expect(label, found)
        if label == "table_n20":
            # the tabulated -(t-a)^2 must reproduce the closed-form game
            self.expect("quadratic_n20", found)
        return self.assignments[label]

    def layer_metrics(self, rec, traced, extra) -> dict:
        busy = {"task.table_n20": 0.0, "task.quadratic_n20": 0.0}
        for span, own in zip(rec.spans, rec.self_times()):
            if span.parent >= 0 and rec.spans[span.parent].name in busy:
                busy[rec.spans[span.parent].name] += own
        closed = busy["task.quadratic_n20"]
        return {"core.table_over_closed_ratio":
                busy["task.table_n20"] / closed if closed else 0.0}


# ---------------------------------------------------------------------------
# attention: voter-side solves, frontiers and aggregation, in-process
# ---------------------------------------------------------------------------

N_BELIEFS = 600
NEWS_EVERY = 6                # every sixth belief is built from news signals
REVEAL_GRID = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75]
NOISY_XIS = (0.6, 0.75, 0.9)
GROUP_COUNTS = (3, 31, 301)
_DROPPED = re.compile(r"dropped (\d+) zero-probability")


def belief_stream(seed: int, n: int = N_BELIEFS) -> list[dict]:
    """Seeded belief parameters, with the mix of work fixed across seeds.

    Every sixth belief comes from news: the three slant technologies and the
    revealing one take turns.  The others cycle through 2-8 policy levels
    (support 4-64) and both utility families.  The seed draws the levels,
    their weights, the voter type in [-.3, .3] and the cost mu, log-uniform
    on [1e-3, 10^.5] so that corners and interiors both occur.  Type and
    cost are stratified: each of n equal slices of their ranges is used
    once, so the regime mix, and with it the work, hardly varies by seed.
    """
    rng = random.Random(seed)
    news_keys = [f"slant_{xi}" for xi in NOISY_XIS] + ["revealing"]
    t_slots = rng.sample(range(n), n)
    mu_slots = rng.sample(range(n), n)
    items = []
    n_news = n_profile = 0
    for i in range(n):
        if i % NEWS_EVERY == NEWS_EVERY - 1:
            news = news_keys[n_news % len(news_keys)]
            n_news += 1
            family = ("absolute", "quadratic")[n_news % 2]
            if news == "revealing":
                # levels on the technology's grid; unplayed signals are dropped
                levels = sorted(rng.sample(REVEAL_GRID, 2 + n_news % 3))
            else:
                levels = sorted(k / 100 for k in rng.sample(range(1, 100), 2 + n_news % 7))
        else:
            news = None
            family = ("absolute", "quadratic")[n_profile % 2]
            levels = sorted(k / 100 for k in rng.sample(range(1, 100), 2 + n_profile % 7))
            n_profile += 1
        weights = [rng.uniform(0.05, 1.0) for _ in levels]
        total = sum(weights)
        items.append({
            "news": news,
            "family": family,
            "levels": levels,
            "probs": [w / total for w in weights],
            "t": -0.3 + 0.6 * (t_slots[i] + rng.random()) / n,
            "mu": 10.0 ** (-3.0 + 3.5 * (mu_slots[i] + rng.random()) / n),
        })
    return items


def _frontier_json(frontier) -> list:
    return [[None if math.isnan(x) else x for x in row] for row in frontier.tolist()]


def _close(tol: float):
    def same(actual, expected) -> bool:
        if not isinstance(actual, list):
            return abs(actual - expected) <= tol
        return len(actual) == len(expected) and all(map(same, actual, expected))
    return same


class Attention(Workload):
    name = "attention"
    rates = {
        "beliefs": ("attn.beliefs_per_s", "1/s"),
        "groups": ("attn.groups_per_s", "1/s"),
        "frontier": ("attn.frontier_cells_per_s", "1/s"),
        "noisy": ("attn.noisy_cells_per_s", "1/s"),
    }

    def setup(self, seed: int, rec) -> None:
        import_library()
        import numpy as np
        import rivote
        from rivote import StrategyAssignment, UtilitySpec, scenario_from_dict
        from rivote.extensions import quarter_circle_frontier, weighted_bliss_utility

        self.np = np
        self.lib = rivote
        self.load_references()
        self.seed = seed

        def build(doc):
            with rec.span("scenario_io.scenario_from_dict"):
                return scenario_from_dict(doc)

        three_levels = json.loads((ROOT / THREE_LEVELS).read_text())
        figure2 = build(three_levels)
        self.frontier_args = (
            figure2.utility, np.arange(0.005, 0.7 + 0.0025, 0.005),
            np.arange(0.005, 1.0 + 0.0025, 0.005), -0.001, figure2.mu)
        scan = np.arange(0.02, 1.0, 0.02)
        self.noisy = {}
        for xi in NOISY_XIS:
            sc = build(game_doc(50, xi=xi))
            self.noisy[xi] = (sc.news, sc.utility, scan, scan, -0.001, sc.mu)

        self.groups = {}
        for count in GROUP_COUNTS:
            half = count // 2
            doc = dict(three_levels)
            doc["electorate"] = {"groups": [[0.3 * k / half, 1 / count]
                                            for k in range(-half, half + 1)]}
            sc = build(doc)
            types = sc.beta_types
            self.groups[count] = (sc, StrategyAssignment(
                types.type_values, types.type_probs, (0.01, 0.2)))
        self.multi_args = (weighted_bliss_utility(), quarter_circle_frontier())

        techs = {f"slant_{xi}": self.noisy[xi][0] for xi in NOISY_XIS}
        techs["revealing"] = build({
            **game_doc(len(REVEAL_GRID)), "policies": {"beta": REVEAL_GRID},
            "news": {"family": "revealing", "policies": REVEAL_GRID}}).news
        specs = {f: UtilitySpec(family=f) for f in ("absolute", "quadratic")}
        self.stream = []
        for item in belief_stream(seed):
            p = np.array(item["probs"])
            self.stream.append((techs.get(item["news"]), specs[item["family"]],
                                tuple(item["levels"]), np.outer(p, p), item["t"], item["mu"]))

        tasks = [(f"belief_{i}", "beliefs", partial(self._belief, i))
                 for i in range(len(self.stream))]
        tasks.append(("frontier", "frontier", self._frontier))
        tasks += [(f"noisy_frontier_{xi}", "noisy", partial(self._noisy_frontier, xi))
                  for xi in NOISY_XIS]
        tasks += [(f"aggregate_{count}", "groups", partial(self._aggregate, count))
                  for count in GROUP_COUNTS]
        tasks.append(("multi_issue_reduce", "multi", self._multi_issue))
        self.tasks = _shuffled(tasks, seed)
        self._warm()

    def _warm(self) -> None:
        """One call of each kind on small inputs, outside any check."""
        lib = self.lib
        for tech, spec, levels, sigma, t, mu in self.stream[:NEWS_EVERY]:
            if tech is None:
                belief = lib.profile_belief(spec, levels, sigma, t)
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    belief = lib.signal_belief(tech, spec, levels, sigma, t)
            lib.solve_attention(belief, mu)
            lib.attention_membership(belief, mu)
        small = self.np.array([0.2, 0.4, 0.6])
        lib.attention_frontier(self.frontier_args[0], small, small, -0.001, 1.0)
        news, utility, _a1, _a2, t, mu = self.noisy[NOISY_XIS[0]]
        lib.attention_frontier_noisy(news, utility, small, small, t, mu)
        lib.aggregate_and_rationalize(*self.groups[GROUP_COUNTS[0]])

    def _belief(self, i: int, rec) -> int:
        lib = self.lib
        tech, spec, levels, sigma, t, mu = self.stream[i]
        if tech is None:
            with rec.span("election.profile_belief"):
                belief = lib.profile_belief(spec, levels, sigma, t)
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with rec.span("news.signal_belief") as span:
                    belief = lib.signal_belief(tech, spec, levels, sigma, t)
            span.count(dropped_profiles=sum(
                int(m.group(1)) for w in caught if (m := _DROPPED.search(str(w.message)))))
        with rec.span("solver.solve_attention") as span:
            sol = lib.solve_attention(belief, mu)
        span.count(support_points=len(belief.support), max_residual=sol.residual,
                   **{sol.regime: 1})
        with rec.span("solver.attention_membership") as span:
            member = lib.attention_membership(belief, mu)
        # attentive exactly when E[exp(v/mu)] >= 1, i.e. unless corner_zero
        agree = member == (sol.regime != "corner_zero")
        span.count(agree=int(agree))
        if not agree:
            raise CheckFailed(f"belief {i}: regime {sol.regime} but membership {member}")
        if not (sol.residual <= RESIDUAL_BOUND and 0.0 <= sol.m_bar <= 1.0):
            raise CheckFailed(f"belief {i}: m_bar {sol.m_bar}, residual {sol.residual}")
        if self.seed == REFERENCE_SEED:
            self.expect(f"m_bar.{i}", sol.m_bar, _close(M_BAR_TOL))
        return 1

    def _scan(self, span_name: str, key: str, fn, args, a1, a2, rec) -> int:
        with rec.span(span_name) as span:
            frontier = fn(*args)
        cells = len(a1) * len(a2)
        span.count(cells=cells, hits=int(self.np.count_nonzero(~self.np.isnan(frontier[:, 1]))))
        # exact, with NaN (no attentive a2) in the same rows
        self.expect(key, _frontier_json(frontier))
        return cells

    def _frontier(self, rec) -> int:
        _spec, a1, a2, _t, _mu = args = self.frontier_args
        return self._scan("election.attention_frontier", "frontier",
                          self.lib.attention_frontier, args, a1, a2, rec)

    def _noisy_frontier(self, xi: float, rec) -> int:
        _news, _spec, a1, a2, _t, _mu = args = self.noisy[xi]
        return self._scan("news.attention_frontier_noisy", f"noisy_frontier_{xi}",
                          self.lib.attention_frontier_noisy, args, a1, a2, rec)

    def _aggregate(self, count: int, rec) -> int:
        scenario, assignment = self.groups[count]
        with rec.span("election.aggregate_and_rationalize") as span:
            w = self.lib.aggregate_and_rationalize(scenario, assignment)
        span.count(groups=count)
        self.expect(f"aggregate_{count}", w.tolist())
        return count

    def _multi_issue(self, rec) -> int:
        with rec.span("extensions.multi_issue_reduce"):
            red = self.lib.multi_issue_reduce(*self.multi_args)
        self.expect("multi_issue.problems", list(red.problems))
        self.expect("multi_issue.sid_ok", red.sid_ok)
        self.expect("multi_issue.tangency", list(red.tangency), _close(MULTI_ISSUE_TOL))
        self.expect("multi_issue.uhat_table", red.uhat_table.tolist(), _close(MULTI_ISSUE_TOL))
        return 1


WORKLOADS = {"paper": Paper, "ic_grid": ICGrid, "attention": Attention}


# ---------------------------------------------------------------------------
# statistics shared with run.py
# ---------------------------------------------------------------------------

def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def tail_percentile(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, sample count).  With ten samples or fewer, the maximum."""
    values = sorted(values)
    n = len(values)
    if n <= 10:
        return (values[-1] if values else 0.0), 100.0, n
    return values[n - 11], 100.0 * (n - 10) / n, n
