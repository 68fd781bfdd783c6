"""rivote benchmark: three workloads, one closed-loop client, no concurrency.

Run from the repository root:

    python3 bench/run.py --workload paper|ic_grid|attention \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all     # every workload in turn

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics of a traced run.  Every metric of the run, with its
unit, is printed above that line and written, with provenance, to
``.bench_results/<workload>-seed<N>-trace<T>.json``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import NullRecorder, Recorder
from workloads import OUT, ROOT, SRC, WORKLOADS, child_env, median, tail_percentile

RUN_PY = Path(__file__).resolve()
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SETUP_TIMEOUT_S = 60
IMPORT_PROBES = {
    "rivote.import_numpy_s": ("", "import numpy"),
    # what rivote imports from scipy, after numpy is loaded
    "rivote.import_scipy_s": ("import numpy", "import scipy.special, scipy.interpolate"),
    "rivote.import_s": ("", "import rivote"),
}


@dataclass
class Sample:
    label: str
    group: str
    dt: float
    units: float
    ok: bool


@dataclass
class Pass:
    wall: float
    samples: list[Sample]


class Tally:
    """Tasks attempted and failed, with the first failures' messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)


def run_task(task, rec, tally: Tally) -> Sample:
    label, group, fn = task
    units = 0
    t0 = time.perf_counter()
    try:
        with rec.span("task." + label):
            units = fn(rec)
        ok, message = True, ""
    except Exception as exc:  # every failure is counted, the run goes on
        ok = False
        message = f"{label}: {type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}"
    dt = time.perf_counter() - t0
    tally.record(ok, message)
    return Sample(label, group, dt, units, ok)


def run_passes(workload, rec, budget: float, tally: Tally) -> list[Pass]:
    """Whole passes, as many as fit in ``budget`` seconds rounded to the
    nearest pass: stop once the next pass would end more than half a pass
    late.  At least one pass runs."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with rec.span("pass"):
            samples = [run_task(task, rec, tally) for task in workload.tasks]
        wall = time.perf_counter() - t0
        passes.append(Pass(wall, samples))
        if time.perf_counter() - start + wall / 2 >= budget:
            return passes


def time_setup(workload, seed: int) -> float:
    """Wall time from starting a set-up child until it is ready: until it
    prints ``ready <time>``, or else until it exits."""
    start = time.time()
    proc = subprocess.run(workload.setup_command(seed, RUN_PY), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    end = time.time()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-300:]}")
    words = proc.stdout.split()
    ready = float(words[1]) if words[:1] == ["ready"] else end
    return ready - start


def time_imports() -> dict[str, float]:
    """Cold import times, each in a fresh interpreter; median of repeats."""
    out = {}
    for name, (before, statement) in IMPORT_PROBES.items():
        code = (f"{before}\nimport time\nt = time.perf_counter()\n{statement}\n"
                "print(time.perf_counter() - t)")
        times = []
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                                  capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"{name}: {proc.stderr.strip()[-300:]}")
            times.append(float(proc.stdout.strip().splitlines()[-1]))
        out[name] = median(times)
    return out


def calibrate() -> float:
    """Time of a fixed pure-Python loop, to show slow phases of the host."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - t0


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pass_time(passes: list[Pass]) -> float:
    """Mean wall time of one pass: the measured time over the passes run.

    A mean, not a median: the host alternates between speeds up to 2x apart
    in phases of seconds to minutes, and a median over passes jumps to
    whichever speed held most of the run, while the mean moves with the
    share of the run spent at each.
    """
    return sum(p.wall for p in passes) / len(passes)


def group_rate(passes: list[Pass], group: str) -> float:
    """Work units per second spent in ``group``, over the whole run."""
    done = [s for p in passes for s in p.samples if s.group == group and s.ok]
    busy = sum(s.dt for s in done)
    return sum(s.units for s in done) / busy if busy > 0 else 0.0


def end_to_end(workload, passes, setup_samples) -> dict:
    """Every end-to-end metric of an untraced run: name -> (value, unit, better, note)."""
    times = [s.dt for p in passes for s in p.samples]
    tail, pct, n = tail_percentile(times)
    out = {
        "setup_s": (median(setup_samples), "s", "lower", f"median of {len(setup_samples)}"),
        "wall_s": (pass_time(passes), "s", "lower", f"mean of {len(passes)} passes"),
        "task_p50_s": (median(times), "s", "lower", f"{n} tasks"),
        "task_tail_s": (tail, "s", "lower", f"p{pct:.1f} of {n} tasks"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB", "lower", ""),
    }
    for group, (name, unit) in workload.rates.items():
        out[name] = (group_rate(passes, group), unit, "higher", "over the whole run")
    out.update(workload.end_to_end(passes))
    return out


def layer_metrics(workload, setup_rec, rec, traced, untraced, extra, imports) -> dict:
    """Per-layer metrics of a traced run: name -> value.

    Span metrics are per traced pass, except ``scenario_io`` spans, which are
    per in-process set-up.
    """
    out = dict(imports)
    per_pass = rec.summary()
    n = len(traced)
    for spans, scale in ((setup_rec.summary(), 1), (per_pass, n)):
        for name, row in spans.items():
            if name == "pass" or name.startswith(("task.", "cli.")):
                continue
            for key, value in row.items():
                out[f"{name}.{key}"] = value if key.startswith("max_") else value / scale
    for name in ("election.enumerate_equilibria", "news.enumerate_equilibria_noisy",
                 "extensions.enumerate_equilibria_commitment"):
        if out.get(f"{name}.assignments"):
            out[f"{name}.yield"] = out[f"{name}.equilibria"] / out[f"{name}.assignments"]
    member = per_pass.get("solver.attention_membership")
    if member:
        out["solver.attention_membership.agree_ratio"] = member.get("agree", 0) / member["calls"]
    out["trace.overhead_s"] = pass_time(traced) - pass_time(untraced)
    out.update(workload.layer_metrics(rec, traced, extra))
    return out


def provenance(seed: int) -> dict:
    def version(pkg):
        try:
            from importlib.metadata import version as v
            return v(pkg)
        except Exception:  # not installed: record as unknown
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rivote").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args) -> int:
    spec = benchmark_spec()
    workload = WORKLOADS[args.workload]()
    calibration = [calibrate()]
    setup_samples = [time_setup(workload, args.seed) for _ in range(SETUP_REPEATS)]
    tally = Tally()
    setup_rec = Recorder() if args.trace else NullRecorder()
    workload.setup(args.seed, setup_rec)
    result = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed), "setup_samples_s": setup_samples}

    if args.trace:
        imports = time_imports()
        untraced = run_passes(workload, NullRecorder(), args.seconds / 2, tally)
        rec = Recorder()
        traced = run_passes(workload, rec, args.seconds / 2, tally)
        extra = [run_task(task, rec, tally) for task in workload.extra_tasks]
        values = layer_metrics(workload, setup_rec, rec, traced, untraced, extra, imports)
        listed = spec["per_layer"]
        metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"], m["better"], "")
                   for m in listed}
        result["pass_walls_s"] = {"untraced": [p.wall for p in untraced],
                                  "traced": [p.wall for p in traced]}
        spans_file = OUT / f"{workload.name}-seed{args.seed}-spans.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps({"setup": setup_rec.dump(), "run": rec.dump()}))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        passes = run_passes(workload, NullRecorder(), args.seconds, tally)
        metrics = end_to_end(workload, passes, setup_samples)
        listed = spec["end_to_end"]
        result["pass_walls_s"] = [p.wall for p in passes]

    calibration.append(calibrate())
    result.update({
        "calibration_s": calibration,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "errors": tally.errors,
        "metrics": {k: {"value": v, "unit": u, "better": b, "note": note}
                    for k, (v, u, b, note) in metrics.items()},
    })
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(json.dumps(result, indent=1))

    for message in tally.errors:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"calibration {calibration[0]:.3f}/{calibration[1]:.3f} s")
    print(f"  {'fail_ratio':40s} {result['fail_ratio']:.6g}  ({tally.failed} of "
          f"{tally.attempted} tasks failed)")
    for name, (value, unit, better, note) in metrics.items():
        print(f"  {name:40s} {value:<14.6g} {unit:6s} {better + ' is better':16s} {note}")
    print(f"  results: {out_file.relative_to(ROOT)}")
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"metrics missing from this run: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; print their metrics side by side."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        summary["correct"] &= result["failed"] == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][f"{name}/fail_ratio"] = {"value": result["fail_ratio"], "unit": "1"}
        for metric, row in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = {"value": row["value"], "unit": row["unit"]}
    print("all workloads:")
    for metric, row in summary["metrics"].items():
        print(f"  {metric:50s} {row['value']:<14.6g} {row['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of the run; a traced run splits it "
                             "between an untraced and a traced half")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "rivote" / "__init__.py").is_file():
        print(f"no rivote sources under {SRC}: run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        WORKLOADS[args.workload]().setup(args.seed, NullRecorder())
        print("ready", time.time(), flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
