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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import NumericError, Scenario, ValidationError, audit_scenario
from .election import (
    _game,
    assignment_for,
    attention_frontier,
    enumerate_equilibria,
    on_path_belief,
    truncation_statistic,
)
from .extensions import dissemination_filter
from .news import MarkovKernel, attention_frontier_noisy, audit_news
from .presets import build, figure2_scenario, figure3_scenario, table1_scenario
from .scenario_io import load_scenario_dict, scenario_from_dict, scenario_hash
from .solver import solve_attention


class ReproductionMismatch(RuntimeError):
    pass


def _load(args) -> tuple[dict, Scenario]:
    doc = load_scenario_dict(args.scenario)
    return doc, scenario_from_dict(doc)


def _write_csv(args, filename: str, shash: str, header: list[str], rows) -> Path:
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"output directory {out_dir} is not writable: {exc}")
    path = out_dir / filename
    lines = [
        f"# rivote {__version__}",
        f"# command={args.command} scenario_hash={shash} seed={args.seed}",
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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    doc, scenario = _load(args)
    problems = audit_scenario(scenario)
    if scenario.news is not None:
        problems += audit_news(scenario.news, scenario.beta_axis.values)
    if problems:
        for p in problems:
            print(f"audit: {p}", file=sys.stderr)
        raise ValidationError(f"{len(problems)} audit failure(s)")
    print(f"scenario ok (hash={scenario_hash(doc)})")
    return 0


def _cmd_solve_attention(args) -> int:
    doc, scenario = _load(args)
    policies = tuple(_floats(args.policies.split(","), "--policies"))
    if len(policies) != len(scenario.beta_types.types):
        raise ValidationError("--policies must assign one policy per beta type")
    assignment = assignment_for(scenario, policies)
    *_, belief = _game(scenario)
    beliefs = {t: belief(scenario, assignment, t) for t, _ in scenario.electorate.groups}
    support = beliefs[scenario.electorate.groups[0][0]].support
    header = ["t", "regime", "m_bar", "likelihood_ratio", "info"] + [
        f"m({a},{b})" for a, b in support
    ]
    rows = []
    for t, _ in scenario.electorate.groups:
        sol = solve_attention(beliefs[t], scenario.mu)
        rows.append([t, sol.regime, sol.m_bar, sol.likelihood_ratio, sol.info, *sol.m])
    _write_csv(args, "solve_attention.csv", scenario_hash(doc), header, rows)
    return 0


def _cmd_enumerate(args) -> int:
    doc, scenario = _load(args)
    records = dissemination_filter(enumerate_equilibria(scenario), scenario)
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
            "|".join(repr(a) for a in r.assignment.levels),
            r.min_gap,
            "|".join(repr(t) for t, flag in r.attentive if flag),
            r.total_information(weights),
        ])
    _write_csv(args, "equilibria.csv", scenario_hash(doc), header, rows)
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


def _cmd_attention_set(args) -> int:
    doc, scenario = _load(args)
    t = args.t if args.t is not None else scenario.electorate.groups[0][0]
    a1 = _parse_range(args.a1, "--a1")
    a2 = _parse_range(args.a2, "--a2") if args.a2 else a1
    if scenario.news is not None:
        frontier = attention_frontier_noisy(scenario.news, scenario.utility, a1, a2, t,
                                            scenario.mu)
    else:
        frontier = attention_frontier(scenario.utility, a1, a2, t, scenario.mu)
    _write_csv(args, "attention_set.csv", scenario_hash(doc), ["a1", "a2"], frontier.tolist())
    return 0


def _cmd_garble(args) -> int:
    doc, scenario = _load(args)
    if scenario.news is None:
        raise ValidationError("garble needs a scenario with a news section")
    if args.kernel:
        try:
            rows = np.array(load_scenario_dict(args.kernel)["rows"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{args.kernel}: expected numeric 'rows' ({exc!r})") from None
        kernel = MarkovKernel(rows)
    elif args.lam is None:
        raise ValidationError("garble needs --kernel FILE or --lam WEIGHT")
    else:
        kernel = MarkovKernel.slant_shift(args.lam)
    garbled = scenario.news.garbled(kernel)
    grid = scenario.beta_axis.values
    verdict = "; ".join(audit_news(garbled, grid)) or "log-supermodular on the audited grid"
    print(f"garbled technology: {verdict}")
    header = ["policy"] + [f"f({w}|a)" for w in garbled.signals]
    rows = [[a, *f] for a, f in zip(grid, garbled.pmf(grid))]
    _write_csv(args, "garbled_news.csv", scenario_hash(doc), header, rows)
    return 0


def _sweep_point(doc: dict, scenario: Scenario, param: str, value: float, t: float | None):
    if param == "xi":
        if doc.get("news", {}).get("family") != "slant":
            raise ValidationError("xi sweeps need a slant news technology")
        scenario = scenario_from_dict({**doc, "news": {**doc["news"], "xi": value}})
    else:  # mu, eta or cost
        field = "dissemination_cost" if param == "cost" else param
        scenario = replace(scenario, **{field: value})
    records = dissemination_filter(enumerate_equilibria(scenario), scenario)
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


def _cmd_sweep(args) -> int:
    if args.threads < 1:
        raise ValidationError("--threads must be at least 1")
    doc, scenario = _load(args)
    values = _floats([v for v in args.values.split(",") if v.strip()], "--values")
    if not values:
        raise ValidationError("sweep needs at least one value")
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        chunks = list(pool.map(lambda v: _sweep_point(doc, scenario, args.param, v, args.t),
                               values))
    rows = [row for chunk in chunks for row in chunk]  # input order, already sorted
    _write_csv(args, "sweep.csv", scenario_hash(doc),
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

# Largest deviation of a reproduced table cell from the published value.
TOLERANCE = 0.002

FIGURE2_DIAMONDS = {(0.01, 0.2), (0.01, 0.4)}
FIGURE3_XIS = (0.6, 0.75, 0.9)


def _table_solution(scenario: Scenario, t: float):
    """Voter t's attention when the two candidate types play .01 and .4."""
    belief = on_path_belief(scenario, assignment_for(scenario, (0.01, 0.4)), t)
    return solve_attention(belief, scenario.mu)


def table1_rows():
    scenario = build(table1_scenario())
    rows = []
    for t in sorted(TABLE1_EXPECTED):
        sol = _table_solution(scenario, t)
        rows.append((t, sol.info, *sol.m))
    return rows


def table2_rows(t: float = -0.05):
    scenario = build(table1_scenario())
    rows = []
    for mu in sorted(TABLE2_EXPECTED):
        sol = _table_solution(replace(scenario, mu=mu), t)
        rows.append((mu, sol.m_bar, *sol.m))
    return rows


def _check_close(actual, expected, what):
    for a, e in zip(actual, expected):
        if abs(a - e) > TOLERANCE:
            raise ReproductionMismatch(f"{what}: got {a:.5f}, expected {e} (tol {TOLERANCE})")


def _cmd_reproduce(args) -> int:
    target = args.target
    if target == "table1":
        rows = table1_rows()
        for row in rows:
            _check_close(row[1:], TABLE1_EXPECTED[row[0]], f"table1 t={row[0]}")
        _write_csv(args, "table1.csv", scenario_hash(table1_scenario()),
                   ["t", "info", "m(-0.01,0.01)", "m(-0.01,0.4)",
                    "m(-0.4,0.01)", "m(-0.4,0.4)"], rows)
    elif target == "table2":
        rows = table2_rows()
        for row in rows:
            _check_close(row[1:], TABLE2_EXPECTED[row[0]], f"table2 mu={row[0]}")
        _write_csv(args, "table2.csv", scenario_hash(table1_scenario()),
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
        _write_csv(args, "figure2.csv", scenario_hash(doc), ["kind", "a1", "a2"], rows)
    elif target == "figure3":
        rows = []
        last_dist = None
        last_frontier = None
        shash = scenario_hash(figure3_scenario(FIGURE3_XIS[0]))
        for xi in FIGURE3_XIS:
            scenario = build(figure3_scenario(xi))
            records = enumerate_equilibria(scenario)
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
        _write_csv(args, "figure3.csv", shash, ["xi", "kind", "a1", "a2"], rows)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rivote", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rivote {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, scenario=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in output headers")
        return p

    command("validate", _cmd_validate, "audit a scenario file")
    p = command("solve-attention", _cmd_solve_attention, "per-group attention strategies")
    p.add_argument("--policies", required=True, help="comma-separated beta policy per type")
    command("enumerate", _cmd_enumerate, "enumerate symmetric equilibria")
    p = command("attention-set", _cmd_attention_set, "scan an attention-set frontier")
    p.add_argument("--t", type=float, help="voter group (default: most pro-alpha group)")
    p.add_argument("--a1", required=True, help="lo:hi:step for the first level")
    p.add_argument("--a2", help="lo:hi:step for the second level (default: same)")
    p = command("garble", _cmd_garble, "garble the scenario's news technology")
    p.add_argument("--lam", type=float, help="two-signal centrist-to-extreme shift weight")
    p.add_argument("--kernel", help="JSON file with row-stochastic 'rows'")
    p = command("sweep", _cmd_sweep, "sweep a parameter and tabulate statistics")
    p.add_argument("--param", required=True, choices=("mu", "xi", "eta", "cost"))
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    p.add_argument("--t", type=float, help="voter group for attention statistics")
    p.add_argument("--threads", type=int, default=1, help="worker threads (default: 1)")
    p = command("reproduce", _cmd_reproduce, "reproduce a published table or figure",
                scenario=False)
    p.add_argument("target", choices=("table1", "table2", "figure2", "figure3"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
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
