"""Run description, training loop, evaluation metrics, weight exports, and canned scenarios.

One nested run config, ``DEFAULT_CONFIG``, describes every run.  The three
canned scenarios are presets merged over it: isotope identification and
shielding identification with one model (linear by default; template-trained,
tested on a Poisson-sampled ensemble), and the surrogate industrial-gauge task
with the linear and hidden-layer architectures side by side.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import seeding
from .ensemble import (
    LabeledDataset,
    TaskKind,
    rescale,
    sample_dataset,
    standard_grid,
    template_dataset,
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
)
from .neuralnet import (
    ARCH_HIDDEN_TANH,
    ARCH_LINEAR,
    AdamHyper,
    LinearParams,
    NetworkParams,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_adam,
    init_params,
    save_model,
    softmax,
)
from .spectra import EnergyCalibration, _format_float, read_csv_table

# The one run description.  Every key a run config may set is here, and each
# leaf's value fixes the type it takes; a ``None`` leaf takes a string.
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
    "paths": {"templates": None, "train_dataset": None, "test_dataset": None},
    "scenario": None,
}

# Leaves that also take null; ``None`` means full-batch training.
_NULLABLE = {"train.batch_size"}

# Canned scenarios, each merged over DEFAULT_CONFIG.  The gauge window
# structure converges slowly; it gets a longer schedule and a hotter step size
# than the single-peak-feature tasks.
SCENARIO_PRESETS = {
    "isotope": {"task": "IsotopeID"},
    "shielding": {"task": "ShieldingID"},
    "gauge": {"task": "GaugeBinary", "train": {"epochs": 300, "learning_rate": 1e-2}},
}
SCENARIO_NAMES = tuple(SCENARIO_PRESETS)


def _checked_leaf(path: str, default, value):
    """``value`` if it has the type of ``default`` (ints pass as floats), else ``ValueError``."""
    if value is None and (default is None or path in _NULLABLE):
        return None
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path}: expected list, got {value!r}")
        return [_checked_leaf(f"{path}[{i}]", default[0], v) for i, v in enumerate(value)]
    expected = str if default is None else type(default)
    if expected is float and type(value) is int:
        return float(value)
    if (type(value) is bool and expected is not bool) or not isinstance(value, expected):
        raise ValueError(f"{path}: expected {expected.__name__}, got {value!r}")
    return value


def _deep_merge(base: dict, override, defaults: dict = DEFAULT_CONFIG, path: str = "") -> dict:
    """``override`` merged over ``base``, key by key, checked against ``defaults``.

    A key ``defaults`` lacks, or a value of the wrong type, raises
    ``ValueError`` naming its dotted path.
    """
    if not isinstance(override, dict):
        raise ValueError(f"{path or 'config'}: expected object, got {override!r}")
    merged = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in defaults:
            raise ValueError(f"{where}: unknown key; expected one of {sorted(defaults)}")
        if isinstance(defaults[key], dict):
            merged[key] = _deep_merge(base[key], value, defaults[key], where)
        else:
            merged[key] = _checked_leaf(where, defaults[key], value)
    return merged


def run_config(*overrides: dict) -> dict:
    """A fresh copy of DEFAULT_CONFIG with each override deep-merged over it in turn."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    for override in overrides:
        config = _deep_merge(config, override)
    return config


def write_config(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def detector_from_config(config: dict) -> DetectorModel:
    d = config["detector"]
    cal = EnergyCalibration(d["e_min"], d["e_max"], d["n_channels"])
    return DetectorModel(
        calibration=cal,
        face_area_cm2=d["face_area_cm2"],
        intrinsic_efficiency=d["intrinsic_efficiency"],
        resolution_fwhm_frac_662=d["resolution_fwhm_frac_662"],
        compton_fraction=d["compton_fraction"],
    )


def grid_from_config(config: dict) -> list[SourceConfig]:
    g = config["grid"]
    if not g["isotopes"] or not g["distances_m"] or not g["shieldings"]:
        raise ValueError("grid is empty: need at least one isotope, distance, and shielding")
    try:
        return standard_grid(
            isotopes=tuple(g["isotopes"]),
            distances_m=tuple(g["distances_m"]),
            materials=tuple(g["shieldings"]),
            activity_bq=g["activity_bq"],
            include_background=g["include_background"],
        )
    except ValueError as err:
        raise ValueError(f"grid: {err}") from err


def rebin_factor(config: dict) -> int:
    n = config["detector"]["n_channels"]
    target = config["rebin"]
    if target < 1:
        raise ValueError(f"rebin must be a positive integer channel count, got {target!r}")
    if target > n or n % target != 0:
        raise ValueError(f"rebin target {target} does not divide {n} channels")
    return n // target


def task_from_config(config: dict) -> TaskKind:
    try:
        return TaskKind(config["task"])
    except ValueError as err:
        raise ValueError(
            f"unknown task {config['task']!r}; choose from "
            f"{[t.value for t in TaskKind]}"
        ) from err


@dataclass
class TrainConfig:
    """Everything one training run depends on."""

    arch: str = ARCH_LINEAR
    epochs: int = 100
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    hyper: AdamHyper = field(default_factory=AdamHyper)
    width: int = 64

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"minibatch size must be at least 1, got {self.batch_size}")


@dataclass
class EvalResult:
    """Metrics of one model on one dataset."""

    cross_entropy: float
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray


@dataclass
class MetricsHistory:
    """Per-epoch training curves plus the final confusion matrix."""

    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    per_class_accuracy: list[np.ndarray] = field(default_factory=list)
    confusion: np.ndarray | None = None

    def append(self, epoch: int, train_loss: float, test: EvalResult) -> None:
        self.epochs.append(epoch)
        self.train_loss.append(train_loss)
        self.test_loss.append(test.cross_entropy)
        self.test_accuracy.append(test.accuracy)
        self.per_class_accuracy.append(test.per_class_accuracy)
        self.confusion = test.confusion

    def at_epoch(self, epoch: int) -> dict:
        i = self.epochs.index(epoch)
        return {
            "epoch": epoch,
            "train_loss": self.train_loss[i],
            "test_loss": self.test_loss[i],
            "test_accuracy": self.test_accuracy[i],
            "per_class_accuracy": self.per_class_accuracy[i],
        }


def _metrics_from_predictions(logits, labels, n_classes: int) -> EvalResult:
    probs = softmax(logits)
    loss = cross_entropy(probs, labels)
    predicted = np.argmax(logits, axis=-1)
    true = np.argmax(labels, axis=-1)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (true, predicted), 1)
    row_totals = confusion.sum(axis=1)
    diag = np.diag(confusion).astype(np.float64)
    per_class = np.where(row_totals > 0, diag / np.maximum(row_totals, 1), 0.0)
    accuracy = float(np.trace(confusion)) / float(confusion.sum())
    return EvalResult(loss, accuracy, per_class, confusion)


def evaluate(params: NetworkParams, ds: LabeledDataset) -> EvalResult:
    """Argmax predictions over a dataset: loss, accuracies, confusion matrix."""
    if ds.n_channels != params.n_channels:
        raise ValueError(
            f"shape mismatch: model {params.n_channels} channels, dataset {ds.n_channels}"
        )
    if ds.task.n_classes != params.n_classes:
        raise ValueError(
            f"task mismatch: model emits {params.n_classes} classes, "
            f"dataset task {ds.task.value} has {ds.task.n_classes}"
        )
    logits = forward(params, ds.as_matrix())
    return _metrics_from_predictions(logits, ds.labels, params.n_classes)


def train(
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    cfg: TrainConfig,
    initial: NetworkParams | None = None,
) -> tuple[NetworkParams, MetricsHistory]:
    """Adam training with per-epoch shuffling and per-epoch metrics.

    Deterministic per cfg.seed: initialization, every epoch's shuffle, and
    therefore the whole trajectory reproduce bit for bit.  ``initial`` supplies
    the starting parameters; they are copied, because Adam updates in place.
    A step that leaves non-finite parameters, or logits that overflow, raises
    ``ValueError`` naming the architecture and the epoch.
    """
    if train_ds.task is not test_ds.task:
        raise ValueError(
            f"task mismatch: train {train_ds.task.value} vs test {test_ds.task.value}"
        )
    if train_ds.n_channels != test_ds.n_channels:
        raise ValueError("train and test datasets must share the input length")

    x_train = train_ds.as_matrix()
    y_train = np.asarray(train_ds.labels)
    x_test = test_ds.as_matrix()
    y_test = np.asarray(test_ds.labels)
    n = x_train.shape[0]

    if initial is None:
        params = init_params(
            cfg.arch, train_ds.n_channels, train_ds.task.n_classes, cfg.seed, cfg.width
        )
    else:
        params = replace(initial)  # the constructor copies into a new buffer
    state = init_adam(params, cfg.hyper)

    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    history = MetricsHistory()
    for epoch in range(1, cfg.epochs + 1):
        order = seeding.rng(cfg.seed, 1, epoch).permutation(n)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, n, batch):
                    idx = order[start : start + batch]
                    _, grads = backward(params, x_train[idx], y_train[idx])
                    params, state = adam_step(params, grads, state)
                    if not np.isfinite(params.flat).all():
                        raise ValueError("non-finite parameters")
                train_loss = cross_entropy(softmax(forward(params, x_train)), y_train)
                test_logits = forward(params, x_test)
                result = _metrics_from_predictions(test_logits, y_test, params.n_classes)
        except ValueError as err:  # the inputs were checked above: the trajectory failed
            raise ValueError(f"{params.arch}: training diverged at epoch {epoch}: {err}") from err
        history.append(epoch, train_loss, result)
    return params, history


def export_weight_features(
    params: NetworkParams,
    class_names: tuple[str, ...] | None = None,
) -> list[tuple[str, np.ndarray]]:
    """Per-class channel series from the weights, for plotting.

    Linear models yield one series per output class.  Hidden-layer models
    have no per-class input weights, so the first-layer rows are exported
    instead, flagged by a ``hidden_unit_`` name prefix.
    """
    if isinstance(params, LinearParams):
        if class_names is None:
            class_names = tuple(f"class_{k}" for k in range(params.n_classes))
        return [(class_names[k], params.weights[k].copy()) for k in range(params.n_classes)]
    return [
        (f"hidden_unit_{j:02d}", params.w1[j].copy()) for j in range(params.width)
    ]


def oversample_positives(
    ds: LabeledDataset,
    positive_class: int = 0,
    ratio: float = 0.25,
) -> LabeledDataset:
    """Replicate positive-class items until they reach ``ratio`` of the negatives.

    The gauge task has 11 positive grid cells against 209 negatives; with no
    balancing the linear model collapses onto the majority class, which would
    mask the architecture comparison.  Replication counts are deterministic.
    """
    indices = ds.label_indices()
    positives = [i for i, k in enumerate(indices) if k == positive_class]
    negatives = len(ds) - len(positives)
    if not positives or negatives == 0:
        return ds
    copies = max(1, round(ratio * negatives / len(positives)))
    expanded = list(range(len(ds))) + positives * (copies - 1)
    return ds.subset(expanded)


METRICS_COLUMNS = ("epoch", "train_loss", "test_loss", "overall_acc")


def write_metrics_csv(path: Path, history: MetricsHistory, class_names) -> None:
    header = list(METRICS_COLUMNS) + [f"acc_{name}" for name in class_names]
    lines = [",".join(header)]
    for i, epoch in enumerate(history.epochs):
        row = [
            str(epoch),
            _format_float(history.train_loss[i]),
            _format_float(history.test_loss[i]),
            _format_float(history.test_accuracy[i]),
        ]
        row += [_format_float(a) for a in history.per_class_accuracy[i]]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def read_metrics_csv(path: Path) -> dict[str, list[float]]:
    """The columns of a ``metrics.csv`` by name, in header order."""
    _, header, rows, _ = read_csv_table(path, header=True)
    missing = [name for name in METRICS_COLUMNS if name not in header]
    if missing:
        raise ValueError(f"{path}: header lacks the columns {missing}")
    if not any(name.startswith("acc_") for name in header):
        raise ValueError(f"{path}: header has no per-class 'acc_<class>' column")
    if len(rows) == 0:
        raise ValueError(f"{path}: no epoch rows")
    return dict(zip(header, rows.T.tolist()))


def write_confusion_csv(path: Path, confusion: np.ndarray, class_names) -> None:
    lines = [",".join(["true\\predicted"] + list(class_names))]
    for k, name in enumerate(class_names):
        lines.append(",".join([name] + [str(int(c)) for c in confusion[k]]))
    path.write_text("\n".join(lines) + "\n")


def write_weight_series(out_dir: Path, params: NetworkParams, class_names) -> list[Path]:
    series = export_weight_features(params, tuple(class_names))
    paths = []
    for k, (name, weights) in enumerate(series):
        tag = f"class_{k}" if isinstance(params, LinearParams) else name
        path = out_dir / f"weights_{tag}.csv"
        lines = [f"# series={name}", "channel,weight"]
        lines += [f"{ch},{_format_float(w)}" for ch, w in enumerate(weights)]
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def read_weight_series(run_dir: Path) -> list[tuple[str, list[float], list[float]]]:
    """(series name, channels, weights) of each ``weights_*.csv`` in ``run_dir``."""
    series = []
    for path in sorted(run_dir.glob("weights_*.csv")):
        comments, _, rows, _ = read_csv_table(path, 2, header=True)
        if len(rows) == 0:
            raise ValueError(f"{path}: no weight rows")
        head = comments[0] if comments else ""
        name = head.split("=", 1)[1] if head.startswith("# series=") else path.stem
        series.append((name, rows[:, 0].tolist(), rows[:, 1].tolist()))
    return series


def train_and_write(
    config: dict,
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    out_dir: str | Path,
    archs: tuple[str, ...] | None = None,
    seed: int | None = None,
) -> dict:
    """Train each architecture on one dataset pair and write the run directory.

    ``config.json`` goes in ``out_dir``; each architecture's model, metrics,
    confusion and weight files go there too, or in ``out_dir/<arch>`` when
    there are several.  Gauge positives are oversampled first.  ``archs`` and
    ``seed`` default to the config's ``arch`` and ``seed``.
    """
    out_dir = Path(out_dir)
    archs = (config["arch"],) if archs is None else archs
    seed = config["seed"] if seed is None else seed
    t = config["train"]
    hyper = AdamHyper(t["learning_rate"], t["beta1"], t["beta2"], t["epsilon"])
    cfgs = [
        TrainConfig(arch, t["epochs"], t["batch_size"], seed, hyper, t["width"]) for arch in archs
    ]
    if train_ds.task is TaskKind.GAUGE_BINARY:
        train_ds = oversample_positives(train_ds, 0, t["oversample_ratio"])
    write_config(config, out_dir)

    class_names = train_ds.task.class_names
    results: dict = {"train_ds": train_ds, "test_ds": test_ds, "config": config}
    for arch, cfg in zip(archs, cfgs):
        arch_dir = out_dir / arch if len(archs) > 1 else out_dir
        arch_dir.mkdir(parents=True, exist_ok=True)
        initial = init_params(arch, train_ds.n_channels, train_ds.task.n_classes, seed, t["width"])
        params, history = train(train_ds, test_ds, cfg, initial=initial)
        train_doc = {"task": train_ds.task.value, **t, "arch": arch, "seed": seed}
        save_model(arch_dir / "model.json", params, train_doc)
        write_metrics_csv(arch_dir / "metrics.csv", history, class_names)
        write_confusion_csv(arch_dir / "confusion.csv", history.confusion, class_names)
        write_weight_series(arch_dir, params, class_names)
        results[arch] = {"params": params, "initial": initial, "history": history, "dir": arch_dir}
    return results


def run_scenario(name: str, out_dir: str | Path, **overrides) -> dict:
    """Run one canned scenario end to end, writing artifacts under ``out_dir``.

    The run config is DEFAULT_CONFIG with the scenario's preset and then
    ``overrides`` (top-level run-config keys, nested sections as dicts)
    merged over it.  isotope / shielding: a model of the config's ``arch``
    trained on rescaled templates, tested on a Poisson-sampled ensemble.
    gauge: linear and hidden models trained on the same data for comparison.
    Returns what :func:`train_and_write` returns.
    """
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    config = run_config(SCENARIO_PRESETS[name], overrides, {"scenario": name})
    task = task_from_config(config)
    templates = template_dataset(
        grid_from_config(config),
        task,
        detector_from_config(config),
        dwell_s=TEMPLATE_DWELL_S,
        rebin_factor=rebin_factor(config),
        background_cps=config["grid"]["background_cps"],
    )
    train_ds = rescale(templates, config["train"]["train_dwell_s"])
    test_ds = sample_dataset(
        templates,
        samples_per_config=config["samples_per_config"],
        dwell_s=config["dwell_s"],
        seed=seeding.derive_seed(config["seed"], 7001),
    )

    gauge = task is TaskKind.GAUGE_BINARY
    archs = (ARCH_LINEAR, ARCH_HIDDEN_TANH) if gauge else (config["arch"],)
    out_dir = Path(out_dir)
    results = train_and_write(
        config, train_ds, test_ds, out_dir, archs, seeding.derive_seed(config["seed"], 7002)
    )

    if gauge:
        lines = ["class,linear_acc,hidden_acc"]
        linear_acc = results[ARCH_LINEAR]["history"].per_class_accuracy[-1]
        hidden_acc = results[ARCH_HIDDEN_TANH]["history"].per_class_accuracy[-1]
        for k, cname in enumerate(task.class_names):
            lines.append(f"{cname},{_format_float(linear_acc[k])},{_format_float(hidden_acc[k])}")
        (out_dir / "comparison.csv").write_text("\n".join(lines) + "\n")

    return results
