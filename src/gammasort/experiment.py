"""Training loop, evaluation metrics, weight exports, and canned scenarios.

Three canned scenarios: isotope identification and shielding identification
with the linear model (template-trained, tested on a Poisson-sampled
ensemble), and the surrogate industrial-gauge task with the linear and
hidden-layer architectures side by side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import seeding
from .ensemble import (
    DEFAULT_DISTANCES_M,
    LabeledDataset,
    TaskKind,
    rescale,
    sample_dataset,
    standard_grid,
    template_dataset,
)
from .forward_model import DEFAULT_ACTIVITY_BQ, TEMPLATE_DWELL_S, default_detector
from .neuralnet import (
    ARCH_HIDDEN_TANH,
    ARCH_LINEAR,
    AdamHyper,
    LinearParams,
    NetworkParams,
    adam_step,
    backward,
    copy_params,
    cross_entropy,
    forward,
    init_adam,
    init_params,
    save_model,
    softmax,
)

SCENARIO_NAMES = ("isotope", "shielding", "gauge")

SCENARIO_TASKS = {
    "isotope": TaskKind.ISOTOPE_ID,
    "shielding": TaskKind.SHIELDING_ID,
    "gauge": TaskKind.GAUGE_BINARY,
}

# The gauge window structure converges slowly; it gets a longer schedule and
# a hotter step size than the single-peak-feature tasks.
SCENARIO_DEFAULT_OVERRIDES = {
    "isotope": {},
    "shielding": {},
    "gauge": {"epochs": 300, "learning_rate": 1e-2},
}


@dataclass
class TrainConfig:
    """Everything one training run depends on."""

    task: TaskKind
    arch: str = ARCH_LINEAR
    epochs: int = 100
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    dwell_s: float = 1.0
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
            f"dataset has {ds.n_channels} channels, model expects {params.n_channels}"
        )
    if ds.task.n_classes != params.n_classes:
        raise ValueError(
            f"task {ds.task.value} has {ds.task.n_classes} classes, "
            f"model emits {params.n_classes}"
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
    therefore the whole trajectory reproduce bit for bit.  ``initial`` lets a
    caller supply (and keep a copy of) the starting parameters.
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
        params = copy_params(initial)
    state = init_adam(params, cfg.hyper)

    batch = n if cfg.batch_size is None else min(cfg.batch_size, n)
    history = MetricsHistory()
    for epoch in range(1, cfg.epochs + 1):
        order = seeding.rng(cfg.seed, 1, epoch).permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            _, grads = backward(params, x_train[idx], y_train[idx])
            params, state = adam_step(params, grads, state)
        train_loss = cross_entropy(softmax(forward(params, x_train)), y_train)
        test_logits = forward(params, x_test)
        history.append(
            epoch, train_loss, _metrics_from_predictions(test_logits, y_test, params.n_classes)
        )
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


@dataclass
class ScenarioSettings:
    """Defaults shared by the canned scenarios; any field can be overridden."""

    seed: int = 42
    n_channels: int = 1024
    rebin_factor: int = 4
    samples_per_config: int = 20
    test_dwell_s: float = 1.0
    train_dwell_s: float = 1.0
    epochs: int = 100
    batch_size: int | None = 32
    learning_rate: float = 1e-3
    width: int = 64
    oversample_ratio: float = 0.25
    activity_bq: float = DEFAULT_ACTIVITY_BQ
    distances_m: tuple = DEFAULT_DISTANCES_M
    include_background: bool = False

    def as_dict(self) -> dict:
        doc = self.__dict__.copy()
        doc["distances_m"] = list(self.distances_m)
        return doc


def _format_float(x: float) -> str:
    return repr(float(x))


def write_metrics_csv(path: Path, history: MetricsHistory, class_names) -> None:
    header = ["epoch", "train_loss", "test_loss", "overall_acc"]
    header += [f"acc_{name}" for name in class_names]
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


def _run_one_arch(arch, train_ds, test_ds, settings, out_dir, scenario) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = TrainConfig(
        task=train_ds.task,
        arch=arch,
        epochs=settings.epochs,
        batch_size=settings.batch_size,
        seed=seeding.derive_seed(settings.seed, 7002),
        dwell_s=settings.train_dwell_s,
        hyper=AdamHyper(learning_rate=settings.learning_rate),
        width=settings.width,
    )
    initial = init_params(
        cfg.arch, train_ds.n_channels, train_ds.task.n_classes, cfg.seed, cfg.width
    )
    initial_copy = copy_params(initial)
    params, history = train(train_ds, test_ds, cfg, initial=initial)

    class_names = train_ds.task.class_names
    train_config_doc = {
        "scenario": scenario,
        "arch": arch,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
        "dwell_s": cfg.dwell_s,
        "learning_rate": cfg.hyper.learning_rate,
        "width": cfg.width,
        "task": train_ds.task.value,
    }
    save_model(out_dir / "model.json", params, train_config_doc)
    write_metrics_csv(out_dir / "metrics.csv", history, class_names)
    write_confusion_csv(out_dir / "confusion.csv", history.confusion, class_names)
    write_weight_series(out_dir, params, class_names)
    return {
        "params": params,
        "initial": initial_copy,
        "history": history,
        "dir": out_dir,
    }


def run_scenario(name: str, out_dir: str | Path, **overrides) -> dict:
    """Run one canned scenario end to end, writing artifacts under ``out_dir``.

    isotope / shielding: linear model trained on rescaled templates, tested
    on a Poisson-sampled ensemble.  gauge: linear and hidden models trained
    on the same data for comparison.  Returns per-architecture params,
    initial params, history, train/test datasets, and artifact paths.
    """
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    merged = {**SCENARIO_DEFAULT_OVERRIDES[name], **overrides}
    settings = ScenarioSettings(**merged)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    task = SCENARIO_TASKS[name]
    detector = default_detector(settings.n_channels)
    grid = standard_grid(
        distances_m=settings.distances_m,
        activity_bq=settings.activity_bq,
        include_background=settings.include_background,
    )

    templates = template_dataset(
        grid, task, detector, dwell_s=TEMPLATE_DWELL_S, rebin_factor=settings.rebin_factor
    )
    train_ds = rescale(templates, settings.train_dwell_s)
    if task is TaskKind.GAUGE_BINARY:
        train_ds = oversample_positives(train_ds, positive_class=0, ratio=settings.oversample_ratio)
    test_ds = sample_dataset(
        templates,
        samples_per_config=settings.samples_per_config,
        dwell_s=settings.test_dwell_s,
        seed=seeding.derive_seed(settings.seed, 7001),
    )

    config_doc = {"scenario": name, "task": task.value, **settings.as_dict()}
    (out_dir / "config.json").write_text(json.dumps(config_doc, indent=2, sort_keys=True) + "\n")

    archs = (ARCH_LINEAR, ARCH_HIDDEN_TANH) if task is TaskKind.GAUGE_BINARY else (ARCH_LINEAR,)
    results: dict = {"train_ds": train_ds, "test_ds": test_ds, "settings": settings}
    for arch in archs:
        arch_dir = out_dir / arch if len(archs) > 1 else out_dir
        results[arch] = _run_one_arch(arch, train_ds, test_ds, settings, arch_dir, name)

    if task is TaskKind.GAUGE_BINARY:
        lines = ["class,linear_acc,hidden_acc"]
        linear_acc = results[ARCH_LINEAR]["history"].per_class_accuracy[-1]
        hidden_acc = results[ARCH_HIDDEN_TANH]["history"].per_class_accuracy[-1]
        for k, cname in enumerate(task.class_names):
            lines.append(f"{cname},{_format_float(linear_acc[k])},{_format_float(hidden_acc[k])}")
        (out_dir / "comparison.csv").write_text("\n".join(lines) + "\n")

    return results
