"""Run description, training loop, evaluation metrics, weight exports, and canned scenarios.

One nested run config, ``DEFAULT_CONFIG``, describes every run.  The three
canned scenarios are presets merged over it: isotope identification and
shielding identification with one model (linear by default; template-trained,
tested on a Poisson-sampled ensemble), and the surrogate industrial-gauge task
with the linear and hidden-layer architectures side by side.
"""

from __future__ import annotations

import copy
import functools
import os
import pickle
import signal
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import ensemble, seeding, spectra
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
    sphere_area_cm2,
)
from .jsonfile import _deep_merge, checked, write_json
from .neuralnet import (
    ARCHS,
    AdamHyper,
    LinearParams,
    NetworkParams,
    _adam_update,
    _gradients_into,
    _row_argmax,
    _zeros_like,
    cross_entropy,
    forward,
    init_adam,
    init_params,
    save_model,
    softmax,
)
from .spectra import EnergyCalibration, read_csv_table, write_csv_table

# The one run description.  Every key a run config may set is here, and each
# leaf's value fixes the type it takes; a ``None`` leaf takes a string.
DEFAULT_CONFIG: dict = {
    "detector": {
        "n_channels": spectra.DEFAULT_N_CHANNELS,
        "e_min": spectra.DEFAULT_E_MIN_KEV,
        "e_max": spectra.DEFAULT_E_MAX_KEV,
        "face_area_cm2": DEFAULT_FACE_AREA_CM2,
        "intrinsic_efficiency": DEFAULT_INTRINSIC_EFFICIENCY,
        "resolution_fwhm_frac_662": DEFAULT_RESOLUTION_FWHM_FRAC_662,
        "compton_fraction": DEFAULT_COMPTON_FRACTION,
    },
    "grid": {
        "isotopes": list(ensemble.ISOTOPE_NAMES),
        "distances_m": list(ensemble.DEFAULT_DISTANCES_M),
        "shieldings": list(ensemble.SHIELDING_NAMES),
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

# Canned scenarios: a config that names one has its preset merged over
# DEFAULT_CONFIG, under every override.  The gauge window structure converges
# slowly; it gets a longer schedule and a hotter step size than the
# single-peak-feature tasks.
SCENARIO_PRESETS = {
    "isotope": {"task": "IsotopeID"},
    "shielding": {"task": "ShieldingID"},
    "gauge": {"task": "GaugeBinary", "train": {"epochs": 300, "learning_rate": 1e-2}},
}
SCENARIO_NAMES = tuple(SCENARIO_PRESETS)

# Leaves that also take null; ``None`` means full-batch training.
_NULLABLE = {"train.batch_size"}

# The value ranges run_config checks, by dotted key: what the range is and a test
# of the value and the whole config (a range may depend on another key).
_RANGES = {
    "task": (f"one of {[t.value for t in TaskKind]}",
             lambda v, _: v in [t.value for t in TaskKind]),
    "arch": (f"one of {list(ARCHS)}", lambda v, _: v in ARCHS),
    "scenario": (f"one of {list(SCENARIO_NAMES)}, or null",
                 lambda v, _: v is None or v in SCENARIO_NAMES),
    "seed": ("a non-negative integer", lambda v, _: v >= 0),
    "dwell_s": ("a positive dwell", lambda v, _: v > 0),
    "samples_per_config": ("an integer of at least 1", lambda v, _: v >= 1),
    "train.epochs": ("an integer of at least 1", lambda v, _: v >= 1),
    "train.batch_size": ("an integer of at least 1, or null", lambda v, _: v is None or v >= 1),
    "train.width": ("a positive integer", lambda v, _: v >= 1),
    "train.train_dwell_s": ("a positive dwell", lambda v, _: v > 0),
    "train.learning_rate": ("a positive value", lambda v, _: v > 0),
    "train.beta1": ("a value in [0, 1)", lambda v, _: 0 <= v < 1),
    "train.beta2": ("a value in [0, 1)", lambda v, _: 0 <= v < 1),
    "train.epsilon": ("a positive value", lambda v, _: v > 0),
    "train.oversample_ratio": ("a non-negative value", lambda v, _: v >= 0),
    "grid.background_cps": ("a non-negative value", lambda v, _: v >= 0),
    "grid.activity_bq": ("a positive value", lambda v, _: v > 0),
    "detector.n_channels": ("an integer of at least 1", lambda v, _: v >= 1),
    "detector.face_area_cm2": ("a positive value", lambda v, _: v > 0),
    # Checked after face_area_cm2: nearer, the face would catch more than the source emits.
    "grid.distances_m": (
        "positive distances with 4 pi (100 d)^2 >= detector.face_area_cm2",
        lambda v, c: all(d > 0 and sphere_area_cm2(d) >= c["detector"]["face_area_cm2"] for d in v),
    ),
    "detector.intrinsic_efficiency": ("a value in (0, 1]", lambda v, _: 0 < v <= 1),
    "detector.resolution_fwhm_frac_662": ("a value in (0, 1]", lambda v, _: 0 < v <= 1),
    "detector.compton_fraction": ("a value in (0, 1]", lambda v, _: 0 < v <= 1),
    "detector.e_min": ("a value in [0, detector.e_max)",
                       lambda v, c: 0 <= v < c["detector"]["e_max"]),
    "rebin": ("a positive divisor of detector.n_channels",  # checked after n_channels
              lambda v, c: v >= 1 and c["detector"]["n_channels"] % v == 0),
}


def run_config(*overrides: dict) -> dict:
    """A fresh copy of DEFAULT_CONFIG with each override deep-merged over it in turn.

    When the result names a ``scenario``, its preset is merged first, under
    every override, so a resolved config resolves to itself.  A value outside
    its range in ``_RANGES`` is an error naming its dotted key.
    """
    config = copy.deepcopy(DEFAULT_CONFIG)
    for override in overrides:
        config = checked(_deep_merge(config, override), DEFAULT_CONFIG, nullable=_NULLABLE)
    preset = SCENARIO_PRESETS.get(config["scenario"])
    if preset is not None and overrides[0] is not preset:  # merge it first, once
        return run_config(preset, *overrides)
    for key, (expected, ok) in _RANGES.items():
        value = functools.reduce(dict.__getitem__, key.split("."), config)
        if not ok(value, config):
            raise ValueError(f"{key}: expected {expected}, got {value}")
    return config


def write_config(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.json", config)


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
    """Channels summed into one: ``run_config`` checked that ``rebin`` divides them."""
    return config["detector"]["n_channels"] // config["rebin"]


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


def _metrics(logits: np.ndarray, true: np.ndarray, n_classes: int) -> EvalResult:
    """Loss, accuracies and confusion of ``logits`` against the true-class indices."""
    loss = cross_entropy(softmax(logits), true)
    predicted = _row_argmax(logits)
    confusion = np.bincount(true * n_classes + predicted, minlength=n_classes * n_classes)
    confusion = confusion.reshape(n_classes, n_classes)
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
    return _metrics(forward(params, ds.as_matrix()), ds.labels, params.n_classes)


def train(
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    initial: NetworkParams,
    section: dict,
    seed: int,
) -> tuple[NetworkParams, MetricsHistory]:
    """Adam training from ``initial`` with per-epoch shuffling and per-epoch metrics.

    ``section`` is the ``train`` section of a config that :func:`run_config`
    resolved: its ``epochs``, ``batch_size`` (``None`` is full batch) and Adam
    values drive the run; the architecture and width are ``initial``'s.
    Deterministic per ``seed``: every epoch's shuffle, and therefore the whole
    trajectory, reproduces bit for bit.  ``initial`` is copied, because Adam
    updates in place.  Each step writes its gradients into one buffer allocated
    here, through the kernel and the Adam update that ``backward`` and
    ``adam_step`` check and wrap.  A step that leaves non-finite parameters, or
    logits that overflow, raises ``ValueError`` naming the architecture and the epoch.
    """
    if train_ds.task is not test_ds.task:
        raise ValueError(
            f"task mismatch: train {train_ds.task.value} vs test {test_ds.task.value}"
        )
    if train_ds.n_channels != test_ds.n_channels:
        raise ValueError("train and test datasets must share the input length")
    if (initial.n_channels, initial.n_classes) != (train_ds.n_channels, train_ds.task.n_classes):
        raise ValueError(
            f"shape mismatch: initial model {initial.n_channels} channels and "
            f"{initial.n_classes} classes, dataset {train_ds.n_channels} and "
            f"{train_ds.task.n_classes}"
        )

    x_train, true_train = train_ds.as_matrix(), train_ds.labels
    x_test, true_test = test_ds.as_matrix(), test_ds.labels
    n = x_train.shape[0]

    params = replace(initial)  # the constructor copies into a new buffer
    hyper = AdamHyper(section["learning_rate"], section["beta1"], section["beta2"],
                      section["epsilon"])
    state = init_adam(params, hyper)
    grads = _zeros_like(params)  # every step writes its gradients here

    batch = n if section["batch_size"] is None else min(section["batch_size"], n)
    history = MetricsHistory()
    for epoch in range(1, section["epochs"] + 1):
        order = seeding.rng(seed, 1, epoch).permutation(n)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, n, batch):
                    idx = order[start : start + batch]
                    _gradients_into(grads, params, x_train[idx], true_train[idx])
                    _adam_update(params.flat, grads.flat, state)
                    if not np.isfinite(params.flat).all():
                        raise ValueError("non-finite parameters")
                train_loss = cross_entropy(softmax(forward(params, x_train)), true_train)
                result = _metrics(forward(params, x_test), true_test, params.n_classes)
        except ValueError as err:  # the inputs were checked above: the trajectory failed
            raise ValueError(f"{params.arch}: training diverged at epoch {epoch}: {err}") from err
        history.append(epoch, train_loss, result)
    return params, history


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
    positives = np.flatnonzero(ds.labels == positive_class).tolist()
    negatives = len(ds) - len(positives)
    if not positives or negatives == 0:
        return ds
    copies = max(1, round(ratio * negatives / len(positives)))
    expanded = list(range(len(ds))) + positives * (copies - 1)
    return ds.subset(expanded)


METRICS_COLUMNS = ("epoch", "train_loss", "test_loss", "overall_acc")


def write_metrics_csv(path: Path, history: MetricsHistory, class_names) -> None:
    header = list(METRICS_COLUMNS) + [f"acc_{name}" for name in class_names]
    values = np.column_stack([history.train_loss, history.test_loss, history.test_accuracy,
                              np.array(history.per_class_accuracy)])
    rows = ([str(epoch), *map(repr, row)] for epoch, row in zip(history.epochs, values.tolist()))
    write_csv_table(path, header, rows)


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
    rows = [[name, *confusion[k]] for k, name in enumerate(class_names)]
    write_csv_table(path, ["true\\predicted", *class_names], rows)


def write_weight_series(out_dir: Path, params: NetworkParams, class_names) -> None:
    """One ``weights_<tag>.csv`` per channel series of the weights, for plotting.

    Linear models write one series per output class (tag ``class_<k>``,
    series name the class name).  Hidden-layer models have no per-class input
    weights, so they write the first-layer rows instead, tagged and named
    ``hidden_unit_<j>``.
    """
    if isinstance(params, LinearParams):
        named = zip(class_names, params.weights, strict=True)
        series = [(f"class_{k}", name, w) for k, (name, w) in enumerate(named)]
    else:
        tags = [f"hidden_unit_{j:02d}" for j in range(params.width)]
        series = [(tag, tag, w) for tag, w in zip(tags, params.w1)]
    for tag, name, weights in series:
        rows = ([str(channel), repr(w)] for channel, w in enumerate(weights.tolist()))
        write_csv_table(out_dir / f"weights_{tag}.csv", ("channel", "weight"), rows,
                        [f"series={name}"])


def read_weight_series(run_dir: Path) -> list[tuple[str, list[float], list[float]]]:
    """(series name, channels, weights) of each ``weights_*.csv`` in ``run_dir``.

    The files come in the order of the number after the last ``_`` in their
    names, so ``hidden_unit_100`` follows ``hidden_unit_99``.
    """
    series = []
    for path in sorted(run_dir.glob("weights_*.csv"), key=_series_order):
        comments, _, rows, _ = read_csv_table(path, 2, header=True)
        if len(rows) == 0:
            raise ValueError(f"{path}: no weight rows")
        head = comments[0] if comments else ""
        name = head.split("=", 1)[1] if head.startswith("# series=") else path.stem
        series.append((name, rows[:, 0].tolist(), rows[:, 1].tolist()))
    return series


def _series_order(path: Path) -> tuple:
    prefix, _, number = path.stem.rpartition("_")
    return prefix, len(number), number  # digit strings of one length sort as integers


def _fork_train(
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    initial: NetworkParams,
    section: dict,
    seed: int,
) -> tuple[int, BinaryIO]:
    """Start ``train`` in a forked child: its pid, and the pipe it answers through.

    The child inherits every argument, so nothing is pickled on the way in.  It
    pickles back ``(params, history)``, or the exception ``train`` raised, and
    leaves through ``os._exit``: it runs no exit handler and never flushes a
    buffer it shares with the parent, such as stdout's unwritten text.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1  # a child that fails past here answers nothing
        try:
            os.close(read_fd)
            try:
                outcome = train(train_ds, test_ds, initial, section, seed)
            except Exception as err:
                outcome = err
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _child_outcome(arch: str, pid: int, pipe: BinaryIO):
    """What the child training ``arch`` sent back, once it has exited and been reaped."""
    with pipe:
        answer = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        return ValueError(f"{arch}: the training process {how} without a result")
    return pickle.loads(answer)


def _train_each(
    archs: tuple[str, ...],
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    section: dict,
    seed: int,
) -> list:
    """Each architecture's ``(initial, params, history)``, or the exception its run raised.

    Every architecture but the last trains in a forked child process while the
    last trains here, so two architectures take about the time of the slower
    one on two CPUs.  A child runs the same ``train`` on the same bytes, so its
    results equal those of training in turn bit for bit.  One architecture
    starts no process.  No child outlives the call: on an interrupt each child
    not yet reaped is killed and reaped.
    """
    outcomes: list = []
    children = []  # (index, initial, pid, pipe) of each child not yet reaped
    try:
        for k, arch in enumerate(archs):
            try:
                initial = init_params(arch, train_ds.n_channels, train_ds.task.n_classes, seed,
                                      section["width"])
                if k < len(archs) - 1:
                    children.append((k, initial, *_fork_train(train_ds, test_ds, initial,
                                                              section, seed)))
                    outcomes.append(None)  # filled in when the child is reaped
                else:
                    outcomes.append((initial, *train(train_ds, test_ds, initial, section, seed)))
            except Exception as err:
                outcomes.append(err)
        while children:
            k, initial, pid, pipe = children[0]
            answer = _child_outcome(archs[k], pid, pipe)
            del children[0]
            outcomes[k] = answer if isinstance(answer, Exception) else (initial, *answer)
    finally:
        for _, _, pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    return outcomes


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
    ``seed`` default to the config's ``arch`` and ``seed``.  Several
    architectures train side by side (:func:`_train_each`), but only this
    process writes files, in architecture order, as training them in turn
    would: the first architecture whose training failed raises its error,
    after the files of those before it and its own empty directory.
    """
    out_dir = Path(out_dir)
    archs = (config["arch"],) if archs is None else archs
    seed = config["seed"] if seed is None else seed
    t = config["train"]
    if train_ds.task is TaskKind.GAUGE_BINARY:
        train_ds = oversample_positives(train_ds, 0, t["oversample_ratio"])
    write_config(config, out_dir)

    class_names = train_ds.task.class_names
    results: dict = {"train_ds": train_ds, "test_ds": test_ds, "config": config}
    for arch, outcome in zip(archs, _train_each(archs, train_ds, test_ds, t, seed)):
        arch_dir = out_dir / arch if len(archs) > 1 else out_dir
        arch_dir.mkdir(parents=True, exist_ok=True)
        if isinstance(outcome, Exception):
            raise outcome
        initial, params, history = outcome
        train_doc = {"task": train_ds.task.value, **t, "arch": arch, "seed": seed}
        save_model(arch_dir / "model.json", params, train_doc)
        write_metrics_csv(arch_dir / "metrics.csv", history, class_names)
        write_confusion_csv(arch_dir / "confusion.csv", history.confusion, class_names)
        write_weight_series(arch_dir, params, class_names)
        results[arch] = {"params": params, "initial": initial, "history": history, "dir": arch_dir}
    return results


def run_scenario(name: str, out_dir: str | Path, **overrides) -> dict:
    """Run one canned scenario end to end, writing artifacts under ``out_dir``.

    The run config is :func:`run_config` of ``overrides`` (top-level
    run-config keys, nested sections as dicts) with ``scenario`` set to
    ``name``, so the scenario's preset lies under them.  isotope / shielding:
    a model of the config's ``arch`` trained on rescaled templates, tested on
    a Poisson-sampled ensemble.
    gauge: linear and hidden models trained on the same data for comparison.
    Returns what :func:`train_and_write` returns.
    """
    config = run_config(overrides, {"scenario": name})
    task = TaskKind(config["task"])
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
    archs = ARCHS if gauge else (config["arch"],)
    out_dir = Path(out_dir)
    results = train_and_write(
        config, train_ds, test_ds, out_dir, archs, seeding.derive_seed(config["seed"], 7002)
    )

    if gauge:
        final = (results[arch]["history"].per_class_accuracy[-1] for arch in archs)
        header = ("class", "linear_acc", "hidden_acc")  # archs is (linear, hidden_tanh)
        write_csv_table(out_dir / "comparison.csv", header, zip(task.class_names, *final))

    return results
