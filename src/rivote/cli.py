"""Experiment runner: scenario validation, solves, enumeration, sweeps and
the published-table reproduction suite.

Every CSV artifact carries a comment header with the tool version, scenario
hash and seed; outputs are byte-identical across runs of the same inputs.
The CLI adds no arithmetic of its own: every number it emits comes from one
library call.  Exit codes: 0 ok, 2 validation failure, 3 numeric failure,
4 reproduction mismatch.
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import NumericError, Scenario, UtilitySpec, ValidationError, audit_scenario
from .election import (
    assignment_for,
    attention_frontier,
    enumerate_equilibria,
    on_path_belief,
    profile_belief,
    truncation_statistic,
)
from .extensions import (
    commitment_belief,
    dissemination_filter,
    enumerate_equilibria_commitment,
)
from .news import (
    MarkovKernel,
    attention_frontier_noisy,
    check_log_supermodularity,
    enumerate_equilibria_noisy,
    news_belief,
)
from .presets import build, figure2_scenario, figure3_scenario, table1_scenario
from .scenario_io import load_scenario_dict, scenario_from_dict, scenario_hash
from .solver import solve_attention


class ReproductionMismatch(RuntimeError):
    pass


@dataclass(frozen=True)
class RunManifest:
    """One CLI invocation: inputs, output sink and provenance fields."""

    command: str
    scenario_path: str | None
    out_dir: Path
    seed: int
    threads: int
    tolerance: float

    @staticmethod
    def from_args(args) -> "RunManifest":
        if args.threads < 1:
            raise ValidationError("--threads must be at least 1")
        return RunManifest(
            command=args.command,
            scenario_path=args.scenario,
            out_dir=Path(args.out),
            seed=args.seed,
            threads=args.threads,
            tolerance=args.tolerance,
        )

    def load(self) -> tuple[dict, Scenario]:
        if not self.scenario_path:
            raise ValidationError(f"{self.command} needs --scenario")
        doc = load_scenario_dict(self.scenario_path)
        return doc, scenario_from_dict(doc)

    def write_csv(self, filename: str, shash: str, header: list[str], rows) -> Path:
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"output directory {self.out_dir} is not writable: {exc}")
        path = self.out_dir / filename
        lines = [
            f"# rivote {__version__}",
            f"# command={self.command} scenario_hash={shash} seed={self.seed}",
            ",".join(header),
        ]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path}")
        return path


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _pipeline(scenario: Scenario):
    """(enumerator, belief builder) of the game the scenario describes: noisy
    news, limited commitment or the baseline."""
    if scenario.news is not None:
        return enumerate_equilibria_noisy, news_belief
    if scenario.eta < 1.0:
        return enumerate_equilibria_commitment, commitment_belief
    return enumerate_equilibria, on_path_belief


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(manifest: RunManifest, args) -> int:
    doc, scenario = manifest.load()
    problems = audit_scenario(scenario)
    if scenario.news is not None:
        problems += scenario.news.audit_rows(scenario.beta_axis.values)
        report = check_log_supermodularity(scenario.news, scenario.beta_axis.values)
        if not report.ok:
            problems.append(report.describe())
    if problems:
        for p in problems:
            print(f"audit: {p}", file=sys.stderr)
        raise ValidationError(f"{len(problems)} audit failure(s)")
    print(f"scenario ok (hash={scenario_hash(doc)})")
    return 0


def _cmd_solve_attention(manifest: RunManifest, args) -> int:
    doc, scenario = manifest.load()
    policies = tuple(_floats(args.policies.split(","), "--policies"))
    if len(policies) != len(scenario.beta_types.types):
        raise ValidationError("--policies must assign one policy per beta type")
    assignment = assignment_for(scenario, policies)
    _, belief = _pipeline(scenario)
    beliefs = {t: belief(scenario, assignment, t) for t, _ in scenario.electorate.groups}
    support = beliefs[scenario.electorate.groups[0][0]].support
    header = ["t", "regime", "m_bar", "likelihood_ratio", "info"] + [
        f"m({a},{b})" for a, b in support
    ]
    rows = []
    for t, _ in scenario.electorate.groups:
        sol = solve_attention(beliefs[t], scenario.mu)
        rows.append([t, sol.regime, sol.m_bar, sol.likelihood_ratio, sol.info, *sol.m])
    manifest.write_csv("solve_attention.csv", scenario_hash(doc), header, rows)
    return 0


def _cmd_enumerate(manifest: RunManifest, args) -> int:
    doc, scenario = manifest.load()
    enumerate_fn, _ = _pipeline(scenario)
    records = enumerate_fn(scenario)
    if scenario.dissemination_cost is not None:
        records = list(dissemination_filter(records, scenario, scenario.dissemination_cost))
    weights = dict(scenario.electorate.groups)
    header = ["eq", "kind", "types", "policies", "levels", "min_gap",
              "attentive_groups", "total_info"]
    rows = []
    for i, r in enumerate(records):
        rows.append([
            i,
            r.kind,
            "|".join(repr(t) for t in r.assignment.types),
            "|".join(repr(a) for a in r.assignment.policies),
            "|".join(repr(a) for a in r.triple.a_values),
            r.min_gap,
            "|".join(repr(t) for t, flag in r.attentive if flag),
            r.total_information(weights),
        ])
    manifest.write_csv("equilibria.csv", scenario_hash(doc), header, rows)
    return 0


def _floats(parts: list[str], flag: str) -> list[float]:
    try:
        return [float(x) for x in parts]
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _parse_range(spec: str, flag: str) -> np.ndarray:
    bounds = _floats(spec.split(":"), flag)
    if len(bounds) != 3 or not np.all(np.isfinite(bounds)) or bounds[2] <= 0:
        raise ValidationError(f"{flag} expects lo:hi:step with a positive step, got {spec!r}")
    lo, hi, step = bounds
    return np.arange(lo, hi + step / 2, step)


def _cmd_attention_set(manifest: RunManifest, args) -> int:
    doc, scenario = manifest.load()
    t = args.t if args.t is not None else scenario.electorate.groups[0][0]
    a1 = _parse_range(args.a1, "--a1")
    a2 = _parse_range(args.a2, "--a2") if args.a2 else a1
    if scenario.news is not None:
        frontier = attention_frontier_noisy(
            scenario.news, scenario.utility, a1, a2, t, scenario.mu
        )
    else:
        frontier = attention_frontier(scenario.utility, a1, a2, t, scenario.mu)
    manifest.write_csv("attention_set.csv", scenario_hash(doc), ["a1", "a2"],
                       frontier.tolist())
    return 0


def _cmd_garble(manifest: RunManifest, args) -> int:
    doc, scenario = manifest.load()
    if scenario.news is None:
        raise ValidationError("garble needs a scenario with a news section")
    tech = scenario.news
    if args.kernel:
        try:
            kernel = MarkovKernel(np.array(load_scenario_dict(args.kernel)["rows"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{args.kernel}: expected numeric 'rows' ({exc!r})") from None
    elif args.lam is None:
        raise ValidationError("garble needs --kernel FILE or --lam WEIGHT")
    else:
        kernel = MarkovKernel.slant_shift(args.lam)
    garbled = tech.garbled(kernel)
    grid = scenario.beta_axis.values
    report = check_log_supermodularity(garbled, grid)
    print(f"garbled technology: {report.describe()}")
    header = ["policy"] + [f"f({w}|a)" for w in garbled.signals]
    rows = [[a, *garbled.pmf(a)] for a in grid]
    manifest.write_csv("garbled_news.csv", scenario_hash(doc), header, rows)
    return 0


def _sweep_point(doc: dict, param: str, value: float, t: float | None):
    patched = {k: (dict(v) if isinstance(v, dict) else v) for k, v in doc.items()}
    if param == "mu":
        patched["attention"]["mu"] = value
    elif param == "xi":
        if patched.get("news", {}).get("family") != "slant":
            raise ValidationError("xi sweeps need a slant news technology")
        patched["news"]["xi"] = value
    elif param == "eta":
        patched["commitment"] = {"eta": value}
    elif param == "cost":
        patched["dissemination"] = {"cost": value}
    else:
        raise ValidationError(f"unknown sweep parameter {param!r}")
    scenario = scenario_from_dict(patched)
    enumerate_fn, _ = _pipeline(scenario)
    records = enumerate_fn(scenario)
    if scenario.dissemination_cost is not None:
        records = list(dissemination_filter(records, scenario, scenario.dissemination_cost))
    t = scenario.electorate.groups[0][0] if t is None else t
    members, spread = truncation_statistic(scenario, records, t)
    rows = [
        (param, value, "n_equilibria", "", float(len(records))),
        (param, value, "ea_size", f"t={t}", float(len(members))),
    ]
    if spread is not None:
        rows.append((param, value, "min_median_diff", f"t={t}", spread))
    weights = dict(scenario.electorate.groups)
    for i, r in enumerate(records):
        rows.append((param, value, "equilibrium", f"eq{i}",
                     "|".join(repr(a) for a in r.assignment.policies)))
        rows.append((param, value, "total_info", f"eq{i}", r.total_information(weights)))
    return rows


def _cmd_sweep(manifest: RunManifest, args) -> int:
    doc, _scenario = manifest.load()
    values = _floats([v for v in args.values.split(",") if v.strip()], "--values")
    if not values:
        raise ValidationError("sweep needs at least one value")
    with ThreadPoolExecutor(max_workers=manifest.threads) as pool:
        chunks = list(pool.map(lambda v: _sweep_point(doc, args.param, v, args.t), values))
    rows = [row for chunk in chunks for row in chunk]  # input order, already sorted
    manifest.write_csv("sweep.csv", scenario_hash(doc),
                       ["param", "value", "statistic", "key", "result"], rows)
    return 0


# ---------------------------------------------------------------------------
# Reproduction suite
# ---------------------------------------------------------------------------

TABLE1_EXPECTED = {
    -0.2: (0.0, 0.0, 0.0, 0.0, 0.0),
    -0.05: (0.315, 0.296, 0.006, 0.930, 0.148),
    0.0: (0.312, 0.500, 0.012, 0.987, 0.500),
}

TABLE2_EXPECTED = {
    0.01: (0.261, 0.046, 0.000, 1.0, 0.000),
    0.10: (0.344, 0.300, 0.009, 0.905, 0.162),
    # The published m(-0.4,0.4) cell at mu=.2 (0.148) contradicts the row's own
    # average: m_bar=.283 and the other three cells force 0.193.  We assert the
    # self-consistent value; see README.
    0.20: (0.283, 0.263, 0.048, 0.627, 0.193),
}

FIGURE2_DIAMONDS = {(0.01, 0.2), (0.01, 0.4)}
FIGURE3_XIS = (0.6, 0.75, 0.9)


def _table_belief(t: float):
    spec = UtilitySpec(family="absolute")
    sigma = np.full((2, 2), 0.25)
    return profile_belief(spec, (0.01, 0.4), sigma, t)


def table1_rows(mu: float = 0.09):
    rows = []
    for t in sorted(TABLE1_EXPECTED):
        sol = solve_attention(_table_belief(t), mu)
        rows.append((t, sol.info, *sol.m))
    return rows


def table2_rows(t: float = -0.05):
    rows = []
    for mu in sorted(TABLE2_EXPECTED):
        sol = solve_attention(_table_belief(t), mu)
        rows.append((mu, sol.m_bar, *sol.m))
    return rows


def _check_close(actual, expected, tol, what):
    for a, e in zip(actual, expected):
        if abs(a - e) > tol:
            raise ReproductionMismatch(f"{what}: got {a:.5f}, expected {e} (tol {tol})")


def _cmd_reproduce(manifest: RunManifest, args) -> int:
    tol = manifest.tolerance
    target = args.target
    if target == "table1":
        rows = table1_rows()
        for row in rows:
            _check_close(row[1:], TABLE1_EXPECTED[row[0]], tol, f"table1 t={row[0]}")
        manifest.write_csv("table1.csv", scenario_hash(table1_scenario()),
                           ["t", "info", "m(-0.01,0.01)", "m(-0.01,0.4)",
                            "m(-0.4,0.01)", "m(-0.4,0.4)"], rows)
    elif target == "table2":
        rows = table2_rows()
        for row in rows:
            _check_close(row[1:], TABLE2_EXPECTED[row[0]], tol, f"table2 mu={row[0]}")
        manifest.write_csv("table2.csv", scenario_hash(table1_scenario()),
                           ["mu", "m_bar", "m(-0.01,0.01)", "m(-0.01,0.4)",
                            "m(-0.4,0.01)", "m(-0.4,0.4)"], rows)
    elif target == "figure2":
        doc = figure2_scenario()
        scenario = build(doc)
        records = enumerate_equilibria(scenario)
        diamonds = {r.assignment.policies for r in records}
        if diamonds != FIGURE2_DIAMONDS:
            raise ReproductionMismatch(f"figure2 equilibria {diamonds} != {FIGURE2_DIAMONDS}")
        frontier = attention_frontier(
            scenario.utility, np.arange(0.005, 0.7 + 0.0025, 0.005),
            np.arange(0.005, 1.0 + 0.0025, 0.005), -0.001, 10.0,
        )
        rows = [["equilibrium", a, b] for a, b in sorted(diamonds)]
        rows += [["frontier", a1, a2] for a1, a2 in frontier.tolist()]
        manifest.write_csv("figure2.csv", scenario_hash(doc), ["kind", "a1", "a2"], rows)
    elif target == "figure3":
        rows = []
        last_dist = None
        last_frontier = None
        shash = scenario_hash(figure3_scenario(FIGURE3_XIS[0]))
        for xi in FIGURE3_XIS:
            scenario = build(figure3_scenario(xi))
            records = enumerate_equilibria_noisy(scenario)
            if not records:
                raise ReproductionMismatch(f"figure3 xi={xi}: no equilibria")
            dist = max(
                max(abs(r.assignment.policies[0] - 0.25), abs(r.assignment.policies[1] - 0.75))
                for r in records
            )
            if last_dist is not None and dist > last_dist + 1e-12:
                raise ReproductionMismatch(
                    f"figure3 xi={xi}: equilibria moved away from the bliss points"
                )
            last_dist = dist
            a_scan = np.arange(0.02, 1.0, 0.02)
            frontier = attention_frontier_noisy(
                scenario.news, scenario.utility, a_scan, a_scan, -0.001, scenario.mu
            )
            if last_frontier is not None:
                both = ~np.isnan(frontier[:, 1]) & ~np.isnan(last_frontier[:, 1])
                if np.any(frontier[both, 1] < last_frontier[both, 1] - 1e-12):
                    raise ReproductionMismatch(f"figure3 xi={xi}: attention set grew")
                dropped = np.isnan(frontier[:, 1]) & ~np.isnan(last_frontier[:, 1])
                if not (np.any(dropped) or np.any(frontier[both, 1] > last_frontier[both, 1])):
                    raise ReproductionMismatch(f"figure3 xi={xi}: attention set did not shrink")
            last_frontier = frontier
            rows += [[xi, "equilibrium", *r.assignment.policies] for r in records]
            rows += [[xi, "frontier", a1, a2] for a1, a2 in frontier.tolist()]
        manifest.write_csv("figure3.csv", shash, ["xi", "kind", "a1", "a2"], rows)
    else:
        raise ValidationError(f"unknown reproduction target {target!r}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rivote", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rivote {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", help="scenario JSON file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in output headers")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--tolerance", type=float, default=0.002)

    common(sub.add_parser("validate", help="audit a scenario file"))
    p = sub.add_parser("solve-attention", help="per-group attention strategies")
    common(p)
    p.add_argument("--policies", required=True, help="comma-separated beta policy per type")
    common(sub.add_parser("enumerate", help="enumerate symmetric equilibria"))
    p = sub.add_parser("attention-set", help="scan an attention-set frontier")
    common(p)
    p.add_argument("--t", type=float, help="voter group (default: most pro-alpha group)")
    p.add_argument("--a1", required=True, help="lo:hi:step for the first level")
    p.add_argument("--a2", help="lo:hi:step for the second level (default: same)")
    p = sub.add_parser("garble", help="garble the scenario's news technology")
    common(p)
    p.add_argument("--lam", type=float, help="two-signal centrist-to-extreme shift weight")
    p.add_argument("--kernel", help="JSON file with row-stochastic 'rows'")
    p = sub.add_parser("sweep", help="sweep a parameter and tabulate statistics")
    common(p)
    p.add_argument("--param", required=True, choices=("mu", "xi", "eta", "cost"))
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    p.add_argument("--t", type=float, help="voter group for attention statistics")
    p = sub.add_parser("reproduce", help="reproduce a published table or figure")
    common(p)
    p.add_argument("target", choices=("table1", "table2", "figure2", "figure3"))
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "solve-attention": _cmd_solve_attention,
    "enumerate": _cmd_enumerate,
    "attention-set": _cmd_attention_set,
    "garble": _cmd_garble,
    "sweep": _cmd_sweep,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        manifest = RunManifest.from_args(args)
        return _COMMANDS[args.command](manifest, args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ReproductionMismatch as exc:
        print(f"reproduction mismatch: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
