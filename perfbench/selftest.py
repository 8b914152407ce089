"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps the format the benchmark promises, that
layers.json gives a prediction for every per-layer metric, that the benchmark
refuses to run without the program's sources, and that passes do not share
state: for each workload, two consecutive in-process passes with one seed and
a third, traced pass write byte-identical ``model.json`` and ``metrics.csv``.
Takes about a minute; exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
# Runs the driver makes per workload and in total, and its time limit.
RUNS_PER_WORKLOAD, EXTRA_RUNS, DRIVER_LIMIT_S = 22, 4, 3420
# Per-run time outside the measured seconds: setup probes, imports, results.
RUN_OVERHEAD_S = 10


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAIL: {message}")


def check_spec() -> dict:
    path = run.ROOT / "BENCHMARK.json"
    check(path.stat().st_size <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB")
    spec = json.loads(path.read_text())
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          f"unexpected top-level keys {sorted(spec)}")
    check(1 <= len(spec["paths"]) <= 16, "paths must list 1 to 16 directories")
    for p in spec["paths"]:
        check(PATH.fullmatch(p) is not None and not p.startswith("/") and ".." not in p.split("/"),
              f"bad path {p!r}")
    check(1 <= len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"]),
          "command must be 1 to 32 strings of at most 200 characters")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds must be a whole number from 1 to 60")
    check(2 <= len(spec["workloads"]) <= 8, "need 2 to 8 workloads")
    check(1 <= len(spec["end_to_end"]) <= 16, "need 1 to 16 end-to-end metrics")
    check(1 <= len(spec["per_layer"]) <= 128, "need 1 to 128 per-layer metrics")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"{w['name']}: why too long")
        check(w["name"] in workloads.WORKLOADS, f"{w['name']}: not a benchmark workload")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"end-to-end keys {sorted(m)}")
        check(0 < m["bound"] <= 0.25, f"{m['name']}: bound outside (0, 0.25]")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer keys {sorted(m)}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.fullmatch(m["unit"]) is not None, f"{m['name']}: bad unit {m['unit']!r}")
        check(m["better"] in ("lower", "higher"), f"{m['name']}: better must be lower or higher")
        names.append(m["name"])
    check(all(NAME.fullmatch(n) for n in names), "a name breaks the naming rule")
    check(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s (unit s, lower) is required")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must have the largest bound")
    runs = EXTRA_RUNS + RUNS_PER_WORKLOAD * len(spec["workloads"])
    budget = runs * (spec["run_seconds"] + RUN_OVERHEAD_S)
    check(budget <= DRIVER_LIMIT_S, f"{runs} runs need about {budget} s")
    return spec


def check_layers(spec: dict) -> None:
    groups = json.loads((run.BENCH_DIR / "layers.json").read_text())["groups"]
    listed = [name for g in groups for name in g["metrics"]]
    declared = [m["name"] for m in spec["per_layer"]]
    check(sorted(listed) == sorted(declared), "layers.json and BENCHMARK.json per_layer differ")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for g in groups:
        check(set(g["moves"]) <= end_to_end, f"{g['module']}: unknown end-to-end metric")
        check(set(g["on"] + g["flat"]) <= set(workloads.WORKLOADS), f"{g['module']}: unknown workload")
        check(not set(g["on"]) & set(g["flat"]), f"{g['module']}: a workload is both moved and flat")


def check_refuses_without_sources() -> None:
    bare = run.WORK / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "isotope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(done.returncode != 0 and not done.stdout.strip(),
          "the benchmark ran, or printed a result, without gammasort's sources")
    shutil.rmtree(bare)


def check_passes_repeat(workload: str, seed: int = 5) -> None:
    from gammasort import cli

    defaults = json.dumps(cli.DEFAULT_CONFIG, sort_keys=True)
    work = run.WORK / "selftest" / workload
    inputs = workloads.prepare(workload, seed, work)
    out = workloads.pass_dir(work)
    digests = []
    for traced in (False, False, True):
        shutil.rmtree(out, ignore_errors=True)
        tracer = tracing.Tracer()
        if traced:
            tracer.install()
        try:
            for step in workloads.pass_steps(workload, inputs, out):
                step()
        finally:
            tracer.uninstall()
        checked = workloads.check_pass(workload, out)
        check(not checked.failures, f"{workload}: {checked.failures}")
        digests.append(checked.digest)
    check(tracer.spans, f"{workload}: the traced pass recorded no spans")
    check(len(set(digests)) == 1, f"{workload}: passes with one seed wrote different artifacts")
    check(json.dumps(cli.DEFAULT_CONFIG, sort_keys=True) == defaults,
          f"{workload}: a pass changed cli.DEFAULT_CONFIG")
    check(cli.build_template is sys.modules["gammasort.forward_model"].build_template,
          "tracing left a wrapper installed")
    shutil.rmtree(work)
    print(f"selftest: {workload}: 2 untraced + 1 traced pass, identical artifacts")


def main() -> int:
    spec = check_spec()
    check_layers(spec)
    print("selftest: BENCHMARK.json and layers.json agree with the format")
    check_refuses_without_sources()
    print("selftest: refuses to run without gammasort sources")
    run.import_gammasort()
    import gammasort.cli  # noqa: F401

    for workload in workloads.WORKLOADS:
        check_passes_repeat(workload)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
