"""gammasort benchmark: one workload, measured for a fixed time from one process.

    python3 perfbench/run.py --workload isotope --seed 1 --seconds 35 --trace 0

Run from a source checkout; the benchmark imports gammasort from ``src/``.
Passes repeat in this process for about ``--seconds``.  Every pass of a run
uses the same seed, so their ``model.json`` and ``metrics.csv`` must be
byte-identical; a pass whose artifacts differ, whose output checks fail or
that raises counts as failed.

A pass is one or more public calls (steps).  Before and after every step the
run times a fixed reference kernel (``reference.py``); the bounded pass-time
metric ``wall_ref_s`` is the median over passes of the sum of each step's
time divided by the kernel time around it, in seconds at the kernel's
reference speed, so host-speed drift cancels.  The raw median ``wall_s``, the
summed step times, is printed and recorded beside it.  BLAS runs on one
thread unless the environment says otherwise: the workloads' matrices are
small, and a second thread on a two-core host only adds waiting.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, with the tracing overhead.  The last line of stdout is one JSON object;
the lines before it name every metric with its unit.  A full record (machine,
per-pass samples, failures) goes to ``.perfbench_work/results/`` and traced
spans to ``.perfbench_work/spans/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Before numpy is first imported (by reference); the setup probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 5
# Two passes at least, so every run compares artifacts between passes.
MIN_PASSES = 2
# Share of the last step's time spent on the reference kernel after it, and
# the fewest kernel runs between two steps.
REFERENCE_SHARE = 0.1
REFERENCE_MIN_RUNS = 3


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be positive")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: import gammasort, build the inputs and exit (timed by the parent).
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_gammasort() -> None:
    """Import gammasort from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "gammasort"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: error: no gammasort sources at {package}")
    sys.path.insert(0, str(SRC))
    import gammasort

    if Path(gammasort.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: error: imported gammasort from {gammasort.__file__}")


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that imports gammasort and builds the inputs.

    The probe prints the system-wide monotonic clock when it is done: waiting
    for its exit with a timeout polls in steps of up to 50 ms, which would
    round every sample up to that grid.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        cmd, check=True, timeout=120, stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    return float(done.stdout.split()[-1]) - start


def reference_runs(budget: float) -> list[float]:
    """Time the reference kernel for about ``budget`` seconds.

    Collects garbage before and after, so the next step starts from the same
    heap and collector counts however many kernel runs fitted the budget.
    """
    gc.collect()
    samples = []
    while len(samples) < REFERENCE_MIN_RUNS or sum(samples) < budget:
        samples.append(reference.kernel_seconds())
    gc.collect()
    return samples


def run_passes(workload: str, inputs: dict, work_dir: Path, seconds: float, trace: bool):
    """Repeat passes for about ``seconds``; return per-pass records and the tracer."""
    tracer = tracing.Tracer() if trace else None
    out = workloads.pass_dir(work_dir)
    records = []
    first_digest = None
    start = time.perf_counter()
    before = reference_runs(REFERENCE_SHARE)
    while True:
        traced = trace and len(records) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        # reference_s[i] and reference_s[i + 1] are the kernel runs around step i.
        record = {"traced": traced, "failures": [], "steps": [], "reference_s": [before]}
        steps = record["steps"]
        if traced:
            tracer.install()
            tracer.begin_pass(len(records))
        try:
            for step in workloads.pass_steps(workload, inputs, out):
                if steps:
                    record["reference_s"].append(
                        reference_runs(REFERENCE_SHARE * steps[-1]["wall_s"])
                    )
                t0, cpu0 = time.perf_counter(), time.process_time()
                try:
                    step()
                finally:
                    steps.append({
                        "wall_s": time.perf_counter() - t0,
                        "cpu_s": time.process_time() - cpu0,
                    })
        except Exception:  # a failed pass is counted and the run goes on
            record["failures"].append(traceback.format_exc(limit=3))
        finally:
            if traced:
                tracer.uninstall()
        record["wall_s"] = sum(s["wall_s"] for s in steps)
        record["cpu_s"] = sum(s["cpu_s"] for s in steps)
        before = reference_runs(REFERENCE_SHARE * (steps[-1]["wall_s"] if steps else 1.0))
        record["reference_s"].append(before)
        if not record["failures"]:
            try:
                checked = workloads.check_pass(workload, out)
            except (OSError, ValueError, KeyError, IndexError):
                record["failures"].append(traceback.format_exc(limit=3))
            else:
                record["failures"] += checked.failures
                record.update(
                    accuracy=checked.accuracy,
                    artifact_bytes=checked.artifact_bytes,
                    digest=checked.digest,
                )
                first_digest = first_digest or checked.digest
                if checked.digest != first_digest:
                    record["failures"].append(
                        "model.json/metrics.csv differ from an earlier pass with the same seed"
                    )
        for failure in record["failures"]:
            print(f"perfbench: pass {len(records)} failed: {failure}", file=sys.stderr)
        records.append(record)
        # Stop when the next pass would end more than half a pass late, so a
        # run's length stays near ``seconds`` whatever the pass time.
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in records)
        if len(records) >= MIN_PASSES and elapsed + typical / 2 > seconds:
            break
    shutil.rmtree(out, ignore_errors=True)
    return records, tracer


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    index = len(ordered) - 11
    if index < 0:
        return None
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def end_to_end_metrics(records, setup_samples) -> dict[str, float]:
    ok = [r for r in records if not r["failures"]]
    ratios = []
    for r in records:
        kernel = [statistics.median(runs) for runs in r["reference_s"]]
        ratios.append(sum(
            s["wall_s"] * 2 / (kernel[i] + kernel[i + 1]) for i, s in enumerate(r["steps"])
        ))
    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "wall_ref_s": statistics.median(ratios) * reference.REFERENCE_KERNEL_S,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "artifact_mb": statistics.median(r["artifact_bytes"] for r in ok) / 1e6 if ok else 0.0,
        "accuracy": statistics.median(r["accuracy"] for r in ok) if ok else 0.0,
    }


def per_layer_metrics(records, tracer) -> dict[str, float]:
    by_pass: dict[int, list] = {}
    for span in tracer.spans:
        by_pass.setdefault(span.pass_id, []).append(span)
    metrics = tracing.median_metrics([tracing.layer_metrics(s) for s in by_pass.values()])
    traced = statistics.median(r["wall_s"] for r in records if r["traced"])
    untraced = statistics.median(r["wall_s"] for r in records if not r["traced"])
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gammasort").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summary_lines(args, records, metrics, units) -> list[str]:
    failed = sum(1 for r in records if r["failures"])
    lines = [
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(records)} failed={failed}"
    ]
    if args.trace:
        groups = json.loads((BENCH_DIR / "layers.json").read_text())["groups"]
        for group in groups:
            flat = ",".join(group["flat"]) or "-"
            moves = ",".join(group["moves"]) or "-"
            on = ",".join(group["on"]) or "-"
            lines.append(f"  [{group['module']}] moves {moves} on {on}; flat on {flat}")
            for name in group["metrics"]:
                lines.append(f"    {name:36s} {metrics[name]:.6g} {units[name]}")
    else:
        walls = [r["wall_s"] for r in records]
        tail = tail_percentile(walls)
        tail_text = (
            f"p{tail[0]:.0f} {tail[1]:.4f} s, 10 samples beyond it"
            if tail else "no percentile has 10 samples beyond it"
        )
        notes = {
            "wall_s": f"median of {len(walls)} passes; {tail_text}",
            "wall_ref_s": f"median pass time, each step over the kernel time around "
                          f"it, at {reference.REFERENCE_KERNEL_S} s per kernel run",
        }
        for name, value in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            lines.append(f"  {name:12s} {value:.6g} {units[name]}{note}")
        lines.append(f"  {'error_rate':12s} {failed / len(records):.6g} fraction  ({failed} of {len(records)} passes failed)")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_gammasort()
    work_dir = WORK / args.workload
    if args.setup_probe:
        workloads.prepare(args.workload, args.seed, work_dir)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    shutil.rmtree(work_dir, ignore_errors=True)
    setup_samples = [time_setup(args) for _ in range(SETUP_PROBES)]
    inputs = workloads.prepare(args.workload, args.seed, work_dir)
    import gammasort.cli  # noqa: F401  (loaded before tracing so its bindings are wrapped)

    records, tracer = run_passes(
        args.workload, inputs, work_dir, args.seconds, bool(args.trace)
    )
    if args.trace:
        measured = per_layer_metrics(records, tracer)
    else:
        measured = end_to_end_metrics(records, setup_samples)
    units = _units(bool(args.trace))
    metrics = {name: measured[name] for name in units}
    failed = sum(1 for r in records if r["failures"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(args.seed),
        "metrics": measured,
        "setup_s_samples": setup_samples,
        "passes": records,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        with open(spans_dir / f"{stem}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")

    for line in summary_lines(args, records, measured, {"wall_s": "s", **units}):
        print(line)
    print("  machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
