"""The benchmark's workloads: building their inputs, one pass, and its checks.

A pass drives gammasort's public API (``experiment.run_scenario`` or
``cli.main``) in the calling process and writes every artifact under one
output directory.  The checks read those artifacts back, so they hold the
program to what a user sees on disk.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("isotope", "gauge", "cli_1024")

# Defaults plus a 1024-channel dataset and a short schedule: the chain is
# dominated by template and dataset files, not by training.
CLI_CONFIG = {"rebin": 1024, "train": {"epochs": 10}}

DETERMINISM_FILES = ("model.json", "metrics.csv")

# Epochs at the end of the 300-epoch gauge schedule whose mean the gauge check judges.
GAUGE_WINDOW = 50


@dataclass
class PassResult:
    accuracy: float | None = None
    failures: list[str] = field(default_factory=list)
    artifact_bytes: int = 0
    digest: str = ""


def pass_dir(work_dir: Path) -> Path:
    """Where a pass writes its artifacts; emptied before every pass."""
    return work_dir / "pass"


def prepare(workload: str, seed: int, work_dir: Path) -> dict:
    """Build a pass's inputs: the scenario's grid and detector, or the CLI config file."""
    from gammasort import default_detector, standard_grid

    work_dir.mkdir(parents=True, exist_ok=True)
    if workload in ("isotope", "gauge"):
        # run_scenario derives these from its defaults; building them here
        # times what describing the same inputs costs a fresh process.
        return {
            "grid": standard_grid(),
            "detector": default_detector(1024),
            "seed": seed,
        }
    if workload != "cli_1024":
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # The config file names every directory, so no step falls back on the
    # process-global defaults that ``cli.load_config`` edits in place when it
    # is given no --config.
    out = pass_dir(work_dir)
    config = {
        **CLI_CONFIG,
        "paths": {
            "templates": str(out / "templates"),
            "train_dataset": str(out / "train"),
            "test_dataset": str(out / "test"),
        },
    }
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return {"config": config_path, "seed": seed}


def pass_steps(workload: str, inputs: dict, out: Path) -> list[Callable[[], None]]:
    """A pass as the public calls it makes, in order; their stdout chatter is discarded.

    The caller may time each step on its own and do untimed work between them.
    """
    if workload != "cli_1024":
        from gammasort import run_scenario

        return [_quiet(run_scenario, workload, out, seed=inputs["seed"])]
    config, seed = str(inputs["config"]), inputs["seed"]
    steps = [
        ["synth", "--config", config, "--out", str(out / "templates")],
        ["sample", "--config", config, "--seed", str(seed),
         "--templates", str(out / "templates"), "--out", str(out / "train")],
        ["sample", "--config", config, "--seed", str(seed + 1),
         "--templates", str(out / "templates"), "--out", str(out / "test")],
        ["train", "--config", config, "--out", str(out / "model")],
        ["eval", "--model", str(out / "model" / "model.json"),
         "--dataset", str(out / "test"), "--out", str(out / "eval")],
        ["report", "--run", str(out / "model"), "--out", str(out / "report")],
    ]
    return [_quiet(_cli_step, argv) for argv in steps]


def _quiet(fn, *args, **kwargs) -> Callable[[], None]:
    def step() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            fn(*args, **kwargs)

    return step


def _cli_step(argv: list[str]) -> None:
    from gammasort import cli

    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gammasort {argv[0]} exited {code}")


def _metrics_rows(path: Path) -> list[dict[str, float]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:] if line]


def check_pass(workload: str, out: Path) -> PassResult:
    """Output checks, accuracy, artifact size and determinism digest of a finished pass."""
    result = PassResult()
    fail = result.failures.append
    if workload == "isotope":
        rows = _metrics_rows(out / "metrics.csv")
        final = rows[-1]
        per_class = {k: v for k, v in final.items() if k.startswith("acc_")}
        low = {k: v for k, v in per_class.items() if not v > 0.2}
        if low:
            fail(f"per-class accuracy not above 0.2: {low}")
        by_epoch = {int(r["epoch"]): r["overall_acc"] for r in rows}
        if not by_epoch[100] > by_epoch[10]:
            fail(f"accuracy at epoch 100 ({by_epoch[100]}) not above epoch 10 ({by_epoch[10]})")
        result.accuracy = final["overall_acc"]
    elif workload == "gauge":
        lines = (out / "comparison.csv").read_text().splitlines()
        comparison = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        rows = {arch: _metrics_rows(out / arch / "metrics.csv") for arch in ("linear", "hidden_tanh")}
        final = [repr(rows[arch][-1]["acc_CesiumSteel"]) for arch in ("linear", "hidden_tanh")]
        if comparison["CesiumSteel"] != final:
            fail(f"comparison.csv CesiumSteel {comparison['CesiumSteel']} is not the "
                 f"final epoch of linear and hidden_tanh metrics.csv {final}")
        # Judged on the mean of the last epochs, not the last one alone: with
        # minibatch Adam at 1e-2 the per-epoch CesiumSteel accuracy swings by
        # up to 0.2, so one epoch's value measures where the seed's shuffle
        # leaves the swing, not the trained model.
        linear, hidden = (
            statistics.fmean(r["acc_CesiumSteel"] for r in rows[arch][-GAUGE_WINDOW:])
            for arch in ("linear", "hidden_tanh")
        )
        if not hidden >= 0.80:
            fail(f"hidden CesiumSteel accuracy {hidden} (last {GAUGE_WINDOW} epochs) below 0.80")
        if not hidden > linear:
            fail(f"hidden CesiumSteel accuracy {hidden} not above linear {linear} "
                 f"(last {GAUGE_WINDOW} epochs)")
        result.accuracy = rows["hidden_tanh"][-1]["overall_acc"]
    else:
        evaluated = json.loads((out / "eval" / "eval.json").read_text())["accuracy"]
        trained = _metrics_rows(out / "model" / "metrics.csv")[-1]["overall_acc"]
        if evaluated != trained:
            fail(f"eval accuracy {evaluated!r} differs from final training accuracy {trained!r}")
        result.accuracy = evaluated

    files = sorted(p for p in out.rglob("*") if p.is_file())
    result.artifact_bytes = sum(p.stat().st_size for p in files)
    digest = hashlib.sha256()
    for path in files:
        if path.name in DETERMINISM_FILES:
            digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    result.digest = digest.hexdigest()
    return result
