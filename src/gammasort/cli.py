"""Command-line surface: synthesize, sample, train, evaluate, report.

One JSON config document, merged over ``experiment.DEFAULT_CONFIG``, describes
a run; the resolved config is materialized into the output directory so every
artifact is self-describing.  All commands are deterministic given the config
and seed: reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .ensemble import (
    TaskKind,
    read_dataset,
    sample_dataset,
    stack_templates,
    template_dataset,
    write_dataset,
)
from .experiment import (
    DEFAULT_CONFIG,  # noqa: F401  (re-exported: the run description, as cli.DEFAULT_CONFIG)
    SCENARIO_NAMES,
    detector_from_config,
    evaluate,
    grid_from_config,
    read_metrics_csv,
    rebin_factor,
    run_config,
    run_scenario,
    train_and_write,
    weight_series,
    write_config,
    write_confusion_csv,
)
from .forward_model import (
    TEMPLATE_DWELL_S,
    build_template,  # noqa: F401  (bound: perfbench's selftest reads cli.build_template)
)
from .jsonfile import read_json, write_json
from .neuralnet import ARCHS, load_model
from .spectra import SpectrumKind, rebin_counts, write_csv_table


def _seed_flag(text: str) -> int:
    """``--seed``'s argparse type; argparse names the flag in the error."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def load_config(args) -> dict:
    """The run config: the ``--config`` document with the flags that name config keys over it.

    A key or value error names the config file, after the dotted key.
    """
    doc = read_json(args.config, {}) if getattr(args, "config", None) else {}
    flags = {key: getattr(args, key, None) for key in ("seed", "rebin", "scenario")}
    flags = {key: value for key, value in flags.items() if value is not None}
    if getattr(args, "templates", None) is not None:
        flags["paths"] = {"templates": args.templates}
    try:
        return run_config(doc, flags)
    except ValueError as err:  # the flags are typed by argparse: the file is at fault
        raise ValueError(f"{err} (in {args.config})") from err


def cmd_synth(args) -> int:
    config = load_config(args)
    out_dir = Path(args.out)
    # Built in full before the first write, so a failing synth writes nothing.
    templates = template_dataset(
        grid_from_config(config), TaskKind(config["task"]), detector_from_config(config),
        TEMPLATE_DWELL_S, background_cps=config["grid"]["background_cps"],
    )
    write_config(config, out_dir)
    write_dataset(templates, out_dir)
    print(f"wrote {len(templates)} templates to {out_dir}")
    return 0


def cmd_sample(args) -> int:
    config = load_config(args)
    templates_dir = config["paths"]["templates"]
    if templates_dir is None:
        raise ValueError("sample needs --templates or paths.templates in the config")
    task, factor = TaskKind(config["task"]), rebin_factor(config)
    calibration = detector_from_config(config).calibration
    manifest_path = Path(templates_dir) / "manifest.json"
    stored = read_dataset(manifest_path)
    if stored.kind is not SpectrumKind.EXPECTED_TEMPLATE:
        raise ValueError(f"{manifest_path}: kind={stored.kind.value}, templates need kind=template")
    if stored.calibration != calibration:
        raise ValueError(
            f"{manifest_path}: templates have calibration {stored.calibration}, "
            f"the config's detector has {calibration}"
        )

    out_dir = Path(args.out)
    samples, seed = config["samples_per_config"], config["seed"]
    counts, cal = rebin_counts(stored.counts, calibration, factor)
    templates = stack_templates(counts, cal, stored.dwell_s, list(stored.provenance), task)
    ds = sample_dataset(templates, samples, config["dwell_s"], seed)
    write_config(config, out_dir)
    write_dataset(ds, out_dir, extra={"seed": seed, "samples_per_config": samples})
    print(f"wrote {len(ds)} samples to {out_dir}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args)
    scenario = config["scenario"]
    if scenario:
        results = run_scenario(scenario, args.out, **config)
    else:
        paths = config["paths"]
        for key in ("train_dataset", "test_dataset"):
            if paths[key] is None:
                raise ValueError(f"config.paths.{key} is required for train (or use --scenario)")
        train_ds = read_dataset(paths["train_dataset"])
        test_ds = read_dataset(paths["test_dataset"])
        task = TaskKind(config["task"])
        if train_ds.task is not task or test_ds.task is not task:
            raise ValueError(
                f"task mismatch before training: config {task.value}, "
                f"train {train_ds.task.value}, test {test_ds.task.value}"
            )
        results = train_and_write(config, train_ds, test_ds, args.out)
    for arch in ARCHS:
        if arch in results:
            history = results[arch]["history"]
            print(
                f"{scenario or 'train'}/{arch}: accuracy {history.test_accuracy[-1]:.4f} "
                f"per-class {np.round(history.per_class_accuracy[-1], 4).tolist()}"
            )
    return 0


def cmd_eval(args) -> int:
    params, _ = load_model(args.model)
    ds = read_dataset(args.dataset)
    try:
        result = evaluate(params, ds)  # checks the model against the dataset first
    except ValueError as err:
        raise ValueError(f"{args.model} on {args.dataset}: {err}") from err
    summary = {
        "cross_entropy": result.cross_entropy,
        "accuracy": result.accuracy,
        "per_class_accuracy": {
            name: acc for name, acc in zip(ds.task.class_names, result.per_class_accuracy)
        },
        "n_items": len(ds),
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "eval.json", summary)
        write_confusion_csv(out_dir / "confusion.csv", result.confusion, ds.task.class_names)
    print(f"accuracy={result.accuracy!r} cross_entropy={result.cross_entropy!r} n={len(ds)}")
    return 0


def _report_one(out_dir: Path, columns: dict, series: list) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    epochs = columns["epoch"]
    svgplot.write_line_svg(
        out_dir / "loss.svg",
        [("train_loss", epochs, columns["train_loss"]), ("test_loss", epochs, columns["test_loss"])],
        title="cross entropy",
        x_label="epoch",
        y_label="loss",
    )
    acc_series = [("overall", epochs, columns["overall_acc"])]
    class_cols = [name for name in columns if name.startswith("acc_")]
    acc_series += [(name[4:], epochs, columns[name]) for name in class_cols]
    svgplot.write_line_svg(
        out_dir / "accuracy.svg",
        acc_series,
        title="test accuracy",
        x_label="epoch",
        y_label="accuracy",
    )
    final = [(name[4:], columns[name][-1]) for name in class_cols]
    write_csv_table(out_dir / "per_class_accuracy.csv", ("class", "accuracy"), final)
    svgplot.write_bar_svg(
        out_dir / "per_class_accuracy.svg",
        [name for name, _ in final],
        [acc for _, acc in final],
        title="final per-class accuracy",
        y_label="accuracy",
    )
    if series:
        svgplot.write_line_svg(
            out_dir / "weights.svg",
            series,
            title="weight features",
            x_label="channel",
            y_label="weight",
        )


def _model_series(path: Path) -> list:
    """The weight series of the model at ``path``, or none if there is no such file."""
    if not path.is_file():
        return []
    params, train_config = load_model(path)
    try:
        return weight_series(params, train_config)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise ValueError(f"run directory not found: {run_dir}")
    out_dir = Path(args.out) if args.out else run_dir
    targets = []
    if (run_dir / "metrics.csv").is_file():
        targets.append((run_dir, out_dir))
    else:
        for sub in sorted(run_dir.iterdir()):
            if sub.is_dir() and (sub / "metrics.csv").is_file():
                targets.append((sub, out_dir / sub.name if args.out else sub))
    if not targets:
        raise ValueError(f"no run artifacts to report; missing: {run_dir / 'metrics.csv'}")
    # Every input is read before the first write, so a bad file leaves no partial report.
    runs = [(dst, read_metrics_csv(src / "metrics.csv"), _model_series(src / "model.json"))
            for src, dst in targets]
    for dst, columns, series in runs:
        _report_one(dst, columns, series)
        print(f"report written to {dst}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammasort",
        description="Synthetic gamma-ray spectrum classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run config (merged over defaults)")
        p.add_argument("--seed", type=_seed_flag, help="master seed override")
        p.add_argument("--rebin", type=int, choices=(1024, 256),
                       help="channel count after rebinning")
        p.add_argument("--out", required=True, help="output directory")

    p_synth = sub.add_parser("synth", help="write template spectra for the config grid")
    add_common(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_sample = sub.add_parser("sample", help="Poisson-sample templates into a labeled dataset")
    add_common(p_sample)
    p_sample.add_argument("--templates", help="directory produced by synth")
    p_sample.set_defaults(func=cmd_sample)

    p_train = sub.add_parser("train", help="train a model on sampled or scenario data")
    add_common(p_train)
    p_train.add_argument("--scenario", choices=SCENARIO_NAMES, help="run a canned scenario")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p_eval.add_argument("--model", required=True, help="model.json path")
    p_eval.add_argument("--dataset", required=True, help="dataset directory or manifest")
    p_eval.add_argument("--out", help="optional directory for eval.json and confusion.csv")
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="emit plot-ready CSV and SVG charts for a run")
    p_report.add_argument("--run", required=True, help="run directory with metrics.csv")
    p_report.add_argument("--out", help="optional separate output directory")
    p_report.set_defaults(func=cmd_report)

    p_scen = sub.add_parser("scenario", help="run a canned scenario end to end")
    p_scen.add_argument("scenario", choices=SCENARIO_NAMES)
    add_common(p_scen)
    p_scen.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # the checks raise; a warning would add a stderr line
            return args.func(args)
    except (ValueError, OSError, MemoryError) as err:  # numpy's MemoryError names the array
        print(f"gammasort: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
