"""Command-line surface: synthesize, sample, train, evaluate, report.

One JSON config document, merged over ``experiment.DEFAULT_CONFIG``, describes
a run; the resolved config is materialized into the output directory so every
artifact is self-describing.  All commands are deterministic given the config
and seed: reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .ensemble import (
    _config_from_record,
    _config_record,
    read_dataset,
    sample_dataset,
    stack_templates,
    write_dataset,
)
from .experiment import (
    DEFAULT_CONFIG,  # noqa: F401  (re-exported: the run description, as cli.DEFAULT_CONFIG)
    SCENARIO_NAMES,
    detector_from_config,
    evaluate,
    grid_from_config,
    read_metrics_csv,
    read_weight_series,
    rebin_factor,
    run_config,
    run_scenario,
    task_from_config,
    train_and_write,
    write_config,
    write_confusion_csv,
)
from .forward_model import TEMPLATE_DWELL_S, SourceConfig, build_template
from .neuralnet import load_model
from .spectra import read_spectrum_csv, rebin, write_spectrum_csv


def _config_overrides(args) -> dict:
    """The ``--config`` document with the ``--seed`` and ``--rebin`` flags applied over it."""
    overrides: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ValueError(f"config file not found: {path}")
        try:
            overrides = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ValueError(f"config is not valid JSON: {path}: {err}") from err
        if not isinstance(overrides, dict):
            raise ValueError(f"config must be a JSON object: {path}")
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "rebin", None) is not None:
        overrides["rebin"] = args.rebin
    return overrides


def load_config(args) -> dict:
    return run_config(_config_overrides(args))


def _template_name(index: int, config: SourceConfig) -> str:
    return (
        f"template_{index:03d}_{config.isotope.name}_"
        f"{config.distance_m:g}m_{config.shielding.material.value}.csv"
    )


def cmd_synth(args) -> int:
    config = load_config(args)
    out_dir = Path(args.out)
    detector = detector_from_config(config)
    grid = grid_from_config(config)
    background_cps = config["grid"]["background_cps"]
    write_config(config, out_dir)

    names = []
    for index, source in enumerate(grid):
        template = build_template(source, detector, TEMPLATE_DWELL_S, background_cps)
        names.append(_template_name(index, source))
        write_spectrum_csv(template, out_dir / names[-1])
    manifest = {
        "dwell_s": TEMPLATE_DWELL_S,
        "n_templates": len(names),
        "templates": [
            {"path": name, **_config_record(cfg)} for name, cfg in zip(names, grid)
        ],
    }
    (out_dir / "templates_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(names)} templates to {out_dir}")
    return 0


def _read_templates_manifest(path: Path) -> tuple[list[str], list[SourceConfig]]:
    """Template file names and their source configs, as listed by ``synth``."""
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON: {err}") from err
    entries = manifest.get("templates") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: expected an object with a non-empty 'templates' list")
    names, sources, built = [], [], {}
    for i, entry in enumerate(entries):
        try:
            names.append(entry["path"])
            if not isinstance(names[-1], str):
                raise TypeError(f"'path' is not a string: {names[-1]!r}")
            sources.append(_config_from_record(entry, built))
        except (KeyError, TypeError, ValueError) as err:
            reason = f"missing key {err}" if isinstance(err, KeyError) else str(err)
            raise ValueError(f"{path}: templates[{i}]: {reason}") from err
    return names, sources


def cmd_sample(args) -> int:
    config = load_config(args)
    templates_dir = args.templates or config["paths"]["templates"]
    if templates_dir is None:
        raise ValueError("sample needs --templates or paths.templates in the config")
    manifest_path = Path(templates_dir) / "templates_manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"template manifest not found: {manifest_path} (run synth first)")
    names, sources = _read_templates_manifest(manifest_path)

    out_dir = Path(args.out)
    task = task_from_config(config)
    factor = rebin_factor(config)
    samples, seed = config["samples_per_config"], config["seed"]
    templates = stack_templates(
        [rebin(read_spectrum_csv(manifest_path.parent / name), factor) for name in names],
        sources,
        task,
    )
    ds = sample_dataset(templates, samples, config["dwell_s"], seed)
    write_config(config, out_dir)
    write_dataset(ds, out_dir, extra={"seed": seed, "samples_per_config": samples})
    print(f"wrote {len(ds)} samples to {out_dir}")
    return 0


def cmd_train(args) -> int:
    overrides = _config_overrides(args)
    config = run_config(overrides)
    scenario = args.scenario or config["scenario"]
    if scenario:
        results = run_scenario(scenario, args.out, **overrides)
    else:
        paths = config["paths"]
        for key in ("train_dataset", "test_dataset"):
            if paths[key] is None:
                raise ValueError(f"config.paths.{key} is required for train (or use --scenario)")
        train_ds = read_dataset(paths["train_dataset"])
        test_ds = read_dataset(paths["test_dataset"])
        task = task_from_config(config)
        if train_ds.task is not task or test_ds.task is not task:
            raise ValueError(
                f"task mismatch before training: config {task.value}, "
                f"train {train_ds.task.value}, test {test_ds.task.value}"
            )
        results = train_and_write(config, train_ds, test_ds, args.out)
    for arch in ("linear", "hidden_tanh"):
        if arch in results:
            history = results[arch]["history"]
            print(
                f"{scenario or 'train'}/{arch}: accuracy {history.test_accuracy[-1]:.4f} "
                f"per-class {np.round(history.per_class_accuracy[-1], 4).tolist()}"
            )
    return 0


def cmd_eval(args) -> int:
    model_path = Path(args.model)
    if not model_path.is_file():
        raise ValueError(f"model file not found: {model_path}")
    params, train_config = load_model(model_path)
    ds = read_dataset(args.dataset)
    result = evaluate(params, ds)  # checks the model against the dataset first
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
        (out_dir / "eval.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
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
    lines = ["class,accuracy"] + [f"{name},{repr(acc)}" for name, acc in final]
    (out_dir / "per_class_accuracy.csv").write_text("\n".join(lines) + "\n")
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
        missing = [str(run_dir / "metrics.csv")]
        raise ValueError(f"no run artifacts to report; missing: {', '.join(missing)}")
    # Every input is read before the first write, so a bad file leaves no partial report.
    runs = [(dst, read_metrics_csv(src / "metrics.csv"), read_weight_series(src))
            for src, dst in targets]
    for dst, columns, series in runs:
        _report_one(dst, columns, series)
        print(f"report written to {dst}")
    return 0


def cmd_scenario(args) -> int:
    args.scenario = args.name
    return cmd_train(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammasort",
        description="Synthetic gamma-ray spectrum classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_required=True):
        p.add_argument("--config", help="JSON run config (merged over defaults)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--rebin", type=int, choices=(1024, 256),
                       help="channel count after rebinning")
        p.add_argument("--out", required=out_required, help="output directory")

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
    p_scen.add_argument("name", choices=SCENARIO_NAMES)
    add_common(p_scen)
    p_scen.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"gammasort: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
