"""Command-line surface: synthesize, sample, train, evaluate, report.

One JSON config document describes a run; defaults are materialized into the
output directory so every artifact is self-describing.  All commands are
deterministic given the config and seed: reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .ensemble import (
    TaskKind,
    _config_from_record,
    _config_record,
    read_dataset,
    sample_dataset,
    stack_templates,
    standard_grid,
    write_dataset,
)
from .experiment import (
    SCENARIO_NAMES,
    TrainConfig,
    evaluate,
    run_scenario,
    train,
    write_confusion_csv,
    write_metrics_csv,
    write_weight_series,
    oversample_positives,
)
from .forward_model import (
    DEFAULT_ACTIVITY_BQ,
    DEFAULT_BACKGROUND_CPS,
    DEFAULT_COMPTON_FRACTION,
    DEFAULT_FACE_AREA_CM2,
    DEFAULT_INTRINSIC_EFFICIENCY,
    DEFAULT_RESOLUTION_FWHM_FRAC_662,
    TEMPLATE_DWELL_S,
    DetectorModel,
    SourceConfig,
    build_template,
    default_shielding,
    isotope_by_name,
)
from .neuralnet import AdamHyper, load_model, save_model
from .spectra import (
    EnergyCalibration,
    read_spectrum_csv,
    rebin,
    write_spectrum_csv,
)


class CliError(Exception):
    """Raised for user-facing failures; rendered as one line on stderr."""


DEFAULT_CONFIG: dict = {
    "detector": {
        "n_channels": 1024,
        "e_min": 0.0,
        "e_max": 3000.0,
        "face_area_cm2": DEFAULT_FACE_AREA_CM2,
        "intrinsic_efficiency": DEFAULT_INTRINSIC_EFFICIENCY,
        "resolution_fwhm_frac_662": DEFAULT_RESOLUTION_FWHM_FRAC_662,
        "compton_fraction": DEFAULT_COMPTON_FRACTION,
    },
    "grid": {
        "isotopes": ["Cesium", "Cobalt", "Barium", "Selenium", "Iridium"],
        "distances_m": [float(d) for d in range(10, 21)],
        "shieldings": ["Bare", "Concrete", "Steel", "DepletedUranium"],
        "activity_bq": DEFAULT_ACTIVITY_BQ,
        "include_background": False,
        "background_cps": DEFAULT_BACKGROUND_CPS,
    },
    "task": "IsotopeID",
    "arch": "linear",
    "rebin": 256,
    "dwell_s": 1.0,
    "samples_per_config": 20,
    "seed": 42,
    "train": {
        "epochs": 100,
        "batch_size": 32,
        "learning_rate": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-8,
        "width": 64,
        "oversample_ratio": 0.25,
        "train_dwell_s": 1.0,
    },
    "paths": {},
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_config(args) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"config file not found: {path}")
        try:
            config = _deep_merge(config, json.loads(path.read_text()))
        except json.JSONDecodeError as err:
            raise CliError(f"config is not valid JSON: {path}: {err}") from err
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "rebin", None) is not None:
        config["rebin"] = args.rebin
    return config


def materialize_config(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def _detector_from_config(config: dict) -> DetectorModel:
    d = config["detector"]
    cal = EnergyCalibration(d["e_min"], d["e_max"], d["n_channels"])
    return DetectorModel(
        calibration=cal,
        face_area_cm2=d["face_area_cm2"],
        intrinsic_efficiency=d["intrinsic_efficiency"],
        resolution_fwhm_frac_662=d["resolution_fwhm_frac_662"],
        compton_fraction=d["compton_fraction"],
    )


def _grid_from_config(config: dict) -> list[SourceConfig]:
    g = config["grid"]
    if not g["isotopes"] or not g["distances_m"] or not g["shieldings"]:
        raise CliError("grid is empty: need at least one isotope, distance, and shielding")
    for name in g["isotopes"]:
        try:
            isotope_by_name(name)
        except ValueError as err:
            raise CliError(f"grid.isotopes: {err}") from err
    for name in g["shieldings"]:
        try:
            default_shielding(name)
        except ValueError as err:
            raise CliError(f"grid.shieldings: unknown material {name!r}") from err
    return standard_grid(
        isotopes=tuple(g["isotopes"]),
        distances_m=tuple(g["distances_m"]),
        materials=tuple(g["shieldings"]),
        activity_bq=g["activity_bq"],
        include_background=g["include_background"],
    )


def _rebin_factor(config: dict) -> int:
    n = config["detector"]["n_channels"]
    target = config["rebin"]
    if type(target) is not int or target < 1:
        raise CliError(f"rebin must be a positive integer channel count, got {target!r}")
    if target > n or n % target != 0:
        raise CliError(f"rebin target {target} does not divide {n} channels")
    return n // target


def _task_from_config(config: dict) -> TaskKind:
    try:
        return TaskKind(config["task"])
    except ValueError as err:
        raise CliError(
            f"unknown task {config['task']!r}; choose from "
            f"{[t.value for t in TaskKind]}"
        ) from err


def _template_name(index: int, config: SourceConfig) -> str:
    return (
        f"template_{index:03d}_{config.isotope.name}_"
        f"{config.distance_m:g}m_{config.shielding.material.value}.csv"
    )


def cmd_synth(args) -> int:
    config = load_config(args)
    out_dir = Path(args.out)
    detector = _detector_from_config(config)
    grid = _grid_from_config(config)
    background_cps = config["grid"]["background_cps"]
    materialize_config(config, out_dir)

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


def cmd_sample(args) -> int:
    config = load_config(args)
    templates_dir = Path(args.templates) if args.templates else Path(config["paths"].get("templates", ""))
    manifest_path = templates_dir / "templates_manifest.json"
    if not manifest_path.is_file():
        raise CliError(f"template manifest not found: {manifest_path} (run synth first)")
    manifest = json.loads(manifest_path.read_text())

    out_dir = Path(args.out)
    task = _task_from_config(config)
    factor = _rebin_factor(config)
    dwell = config["dwell_s"]
    samples = config["samples_per_config"]
    seed = config["seed"]
    if samples < 1:
        raise CliError("samples_per_config must be at least 1")
    materialize_config(config, out_dir)

    entries = manifest["templates"]
    templates = stack_templates(
        [rebin(read_spectrum_csv(templates_dir / entry["path"]), factor) for entry in entries],
        [_config_from_record(entry) for entry in entries],
        task,
    )
    ds = sample_dataset(templates, samples, dwell, seed)
    write_dataset(ds, out_dir, extra={"seed": seed, "samples_per_config": samples})
    print(f"wrote {len(ds)} samples to {out_dir}")
    return 0


def _train_config(config: dict, task: TaskKind) -> TrainConfig:
    t = config["train"]
    return TrainConfig(
        task=task,
        arch=config["arch"],
        epochs=t["epochs"],
        batch_size=t["batch_size"],
        seed=config["seed"],
        dwell_s=t["train_dwell_s"],
        hyper=AdamHyper(t["learning_rate"], t["beta1"], t["beta2"], t["epsilon"]),
        width=t["width"],
    )


def cmd_train(args) -> int:
    config = load_config(args)
    out_dir = Path(args.out)

    scenario = args.scenario or config.get("scenario")
    if scenario:
        if scenario not in SCENARIO_NAMES:
            raise CliError(f"unknown scenario {scenario!r}; choose from {SCENARIO_NAMES}")
        overrides = config.get("scenario_overrides", {})
        if args.seed is not None:
            overrides["seed"] = args.seed
        results = run_scenario(scenario, out_dir, **overrides)
        for arch in ("linear", "hidden_tanh"):
            if arch in results:
                history = results[arch]["history"]
                print(
                    f"{scenario}/{arch}: accuracy {history.test_accuracy[-1]:.4f} "
                    f"per-class {np.round(results[arch]['history'].per_class_accuracy[-1], 4).tolist()}"
                )
        return 0

    paths = config["paths"]
    for key in ("train_dataset", "test_dataset"):
        if key not in paths:
            raise CliError(f"config.paths.{key} is required for train (or use --scenario)")
    train_ds = read_dataset(paths["train_dataset"])
    test_ds = read_dataset(paths["test_dataset"])
    task = _task_from_config(config)
    if train_ds.task is not task or test_ds.task is not task:
        raise CliError(
            f"task mismatch before training: config {task.value}, "
            f"train {train_ds.task.value}, test {test_ds.task.value}"
        )
    if train_ds.n_channels != test_ds.n_channels:
        raise CliError(
            f"channel mismatch before training: train {train_ds.n_channels}, "
            f"test {test_ds.n_channels}"
        )
    if task is TaskKind.GAUGE_BINARY:
        train_ds = oversample_positives(train_ds, 0, config["train"]["oversample_ratio"])

    cfg = _train_config(config, task)
    materialize_config(config, out_dir)
    params, history = train(train_ds, test_ds, cfg)
    class_names = task.class_names
    save_model(out_dir / "model.json", params, {"task": task.value, **config["train"], "arch": cfg.arch, "seed": cfg.seed})
    write_metrics_csv(out_dir / "metrics.csv", history, class_names)
    write_confusion_csv(out_dir / "confusion.csv", history.confusion, class_names)
    write_weight_series(out_dir, params, class_names)
    print(f"trained {cfg.arch}: accuracy {history.test_accuracy[-1]:.4f}")
    return 0


def cmd_eval(args) -> int:
    model_path = Path(args.model)
    if not model_path.is_file():
        raise CliError(f"model file not found: {model_path}")
    params, train_config = load_model(model_path)
    ds = read_dataset(args.dataset)
    if params.n_channels != ds.n_channels:
        raise CliError(
            f"shape mismatch before evaluation: model {params.n_channels} channels, "
            f"dataset {ds.n_channels}"
        )
    if params.n_classes != ds.task.n_classes:
        raise CliError(
            f"task mismatch before evaluation: model emits {params.n_classes} classes, "
            f"dataset task {ds.task.value} has {ds.task.n_classes}"
        )
    result = evaluate(params, ds)
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


def _read_metrics_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            columns[name].append(float(cell))
    return header, columns


def _report_one(run_dir: Path, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    header, columns = _read_metrics_csv(run_dir / "metrics.csv")
    epochs = columns["epoch"]
    svgplot.write_line_svg(
        out_dir / "loss.svg",
        [("train_loss", epochs, columns["train_loss"]), ("test_loss", epochs, columns["test_loss"])],
        title="cross entropy",
        x_label="epoch",
        y_label="loss",
    )
    acc_series = [("overall", epochs, columns["overall_acc"])]
    class_cols = [name for name in header if name.startswith("acc_")]
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
    weight_files = sorted(run_dir.glob("weights_*.csv"))
    series = []
    for path in weight_files:
        rows = path.read_text().splitlines()
        name = rows[0].split("=", 1)[1] if rows[0].startswith("# series=") else path.stem
        channels, weights = [], []
        for row in rows:
            if row.startswith("#") or row == "channel,weight" or not row:
                continue
            ch, w = row.split(",")
            channels.append(float(ch))
            weights.append(float(w))
        series.append((name, channels, weights))
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
        raise CliError(f"run directory not found: {run_dir}")
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
        raise CliError(f"no run artifacts to report; missing: {', '.join(missing)}")
    for src, dst in targets:
        _report_one(src, dst)
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
    except CliError as err:
        print(f"gammasort: error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"gammasort: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
