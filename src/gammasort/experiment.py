"""Run description, training loop, evaluation metrics, weight series, and canned scenarios.

One nested run config, ``DEFAULT_CONFIG``, describes every run.  The three
canned scenarios are presets merged over it: isotope identification and
shielding identification with one model (linear by default; template-trained,
tested on a Poisson-sampled ensemble), and the surrogate industrial-gauge task
with the linear and hidden-layer architectures side by side.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import os
import signal
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

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
from .spectra import EnergyCalibration, csv_columns, read_csv_table, write_csv_table

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
    # At 1 the positives equal the negatives; a higher ratio no longer balances
    # the classes, and the replicated set would grow without bound.
    "train.oversample_ratio": ("a value in [0, 1]", lambda v, _: 0 <= v <= 1),
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
    ``adam_step`` check and wrap.

    An epoch's metrics (the train loss and the test set's :class:`EvalResult`)
    feed nothing that trains, so an :class:`_Evaluator` computes them while the
    next epochs train, when :func:`_evaluator` starts one.  After each epoch's
    steps, the epoch goes to the evaluator unless it still holds
    ``_BACKLOG`` unfinished epochs; then it is evaluated here.  The history is
    the same bit for bit either way.  A step that leaves non-finite
    parameters, or logits that overflow, raises ``ValueError`` naming the
    architecture and the earliest epoch that failed.
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

    def metrics_of(params: NetworkParams) -> tuple[float, EvalResult] | ValueError:
        """The epoch's train loss and test metrics, or the error that computing them raised."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                train_loss = cross_entropy(softmax(forward(params, x_train)), true_train)
                return train_loss, _metrics(forward(params, x_test), true_test, params.n_classes)
        except ValueError as err:
            return err

    params = replace(initial)  # the constructor copies into a new buffer
    hyper = AdamHyper(section["learning_rate"], section["beta1"], section["beta2"],
                      section["epsilon"])
    state = init_adam(params, hyper)
    grads = _zeros_like(params)  # every step writes its gradients here

    batch = n if section["batch_size"] is None else min(section["batch_size"], n)
    outcomes: dict = {}  # by epoch: metrics_of's outcome, or the error of the epoch's steps
    with _evaluator(metrics_of, params) as evaluator:
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
            except ValueError as err:  # the inputs were checked above: the trajectory failed
                outcomes[epoch] = err
                break
            answered = {} if evaluator is None else evaluator.answers(block=False)
            if evaluator is not None and len(evaluator.sent) < _BACKLOG:
                evaluator.send(epoch, params)
            else:
                answered[epoch] = metrics_of(params)
            outcomes.update(answered)
            if any(isinstance(outcome, ValueError) for outcome in answered.values()):
                break
        if evaluator is not None:  # an earlier epoch still in the evaluator may have failed
            outcomes.update(evaluator.answers(block=True))

    history = MetricsHistory()
    for epoch in sorted(outcomes):
        outcome = outcomes[epoch]
        if isinstance(outcome, ValueError):
            raise ValueError(
                f"{params.arch}: training diverged at epoch {epoch}: {outcome}"
            ) from outcome
        history.append(epoch, *outcome)
    return params, history


# The most epochs the evaluator holds unfinished: the trainer evaluates the
# next one itself, so the split follows the ratio of step work to metric work.
_BACKLOG = 2

# The BLAS thread-count (getter, setter) names: numpy's bundled OpenBLAS
# (libscipy_openblas64_) exports the first pair, a plain OpenBLAS the second.
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_threads() -> tuple:
    """The BLAS thread count's ``(getter, setter)``; either is None when not found.

    They are looked up by name through numpy's compiled core module, whose symbol
    lookup also searches the libraries it links, so they are the ones numpy calls.
    """
    import ctypes  # here, not at import: only a training run needs it

    core = np.core if np.__version__.startswith("1.") else np._core  # 1.26's np._core: .py stubs
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)  # loaded already: opens the loaded one
    except OSError:  # not a library dlopen takes: evaluate inline
        return None, None
    for names in _BLAS_THREAD_FUNCTIONS:
        found = tuple(getattr(lib, name, None) for name in names)
        if any(found):
            return found
    return None, None


@contextlib.contextmanager
def _evaluator(metrics_of, params: NetworkParams):
    """An :class:`_Evaluator` for ``train``, or None to evaluate every epoch inline.

    It is forked only when this process may run on at least two CPUs, runs no
    other thread (a lock one held at the fork would stay held in the
    evaluator), and BLAS runs on one thread or its thread count can be set.
    While the evaluator lives, BLAS is capped at half its threads (at least
    one), so the trainer and the evaluator do not contend for the CPUs; the
    count is restored on exit.  On exit, also on an error or an interrupt, the
    evaluator is killed and reaped.
    """
    get, set_ = _blas_threads()
    threads = get() if get is not None else None
    capped = threads is not None and set_ is not None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2 or threading.active_count() > 1 or not (capped or threads == 1):
        yield None
        return
    evaluator = None
    try:
        if capped:
            set_(max(1, threads // 2))
        evaluator = _Evaluator(metrics_of, params)
        yield evaluator
    finally:
        if evaluator is not None:
            evaluator.close()
        if capped:
            set_(threads)


class _Evaluator:
    """A forked process that runs ``metrics_of`` on the epochs the trainer hands it.

    It inherits ``metrics_of``, with the datasets it reads, and a copy of
    ``params``.  Over one-way ``multiprocessing`` connections, the trainer sends
    ``params.flat``'s bytes, one message an epoch, and the evaluator reads them
    into its copy and answers with ``metrics_of(params)``.  The answers come in
    order, so the trainer keys each to the oldest epoch it ``sent``.  The
    evaluator leaves through ``os._exit``, so it never flushes a buffer it shares
    with the trainer: when its frame connection closes, or on any error.  An
    error from ``Pipe`` or ``os.fork`` raises before anything trains, with no
    descriptor left open.
    """

    def __init__(self, metrics_of, params: NetworkParams):
        from multiprocessing import Pipe  # here, not at import: only a training run needs it

        try:  # here, not at import: fcntl is POSIX only, F_SETPIPE_SZ Linux only
            from fcntl import F_SETPIPE_SZ, fcntl
        except ImportError:
            fcntl = None

        self.arch = params.arch
        self.sent: list[int] = []  # the epochs handed over and not yet answered, oldest first
        conns = []
        try:
            conns += Pipe(duplex=False)  # frames: trainer to evaluator
            conns += Pipe(duplex=False)  # answers: evaluator to trainer
            # A frame (a 4-byte length, then the bytes) that does not fit waits for the reader.
            if fcntl is not None:
                with contextlib.suppress(OSError):
                    fcntl(conns[1].fileno(), F_SETPIPE_SZ, 4 + params.flat.nbytes)
            pid = os.fork()
        except BaseException:
            for conn in conns:
                conn.close()
            raise
        frames_in, self._frames, self._answers, answers_out = conns
        if pid == 0:
            status = 1  # an evaluator that fails past here answers nothing more
            try:
                self._frames.close()
                self._answers.close()
                with contextlib.suppress(EOFError):  # the trainer closed its end
                    while True:
                        frames_in.recv_bytes_into(params.flat)
                        answers_out.send(metrics_of(params))
                status = 0
            finally:
                os._exit(status)
        frames_in.close()
        answers_out.close()
        self.pid: int | None = pid

    def send(self, epoch: int, params: NetworkParams) -> None:
        """Hand ``epoch``'s parameters to the evaluator."""
        try:
            self._frames.send_bytes(params.flat)
        except BrokenPipeError:
            raise self._died() from None
        self.sent.append(epoch)

    def answers(self, block: bool) -> dict:
        """The outcomes answered since the last call, by epoch.

        With ``block``, waits until every epoch handed over is answered.  An
        evaluator that died raises a one-line ``ValueError`` naming the
        architecture.
        """
        answered = {}
        try:
            while self.sent and (block or self._answers.poll()):
                answered[self.sent.pop(0)] = self._answers.recv()
        except (EOFError, OSError):  # an end of file between answers, or inside one
            raise self._died() from None
        return answered

    def _died(self) -> ValueError:
        """Reap the evaluator that closed its connection, and say how it ended."""
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        return ValueError(f"{self.arch}: the evaluation process {how} without a result")

    def close(self) -> None:
        """Kill the evaluator unless it is reaped, reap it, and close the connections."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self._frames.close()
        self._answers.close()


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
    comments, header, rows = read_csv_table(path)
    csv_columns(path, comments, header, METRICS_COLUMNS)
    if not any(name.startswith("acc_") for name in header):
        raise ValueError(f"{path}: header has no per-class 'acc_<class>' column")
    if len(rows) == 0:
        raise ValueError(f"{path}: no epoch rows")
    return dict(zip(header, rows.T.tolist()))


def write_confusion_csv(path: Path, confusion: np.ndarray, class_names) -> None:
    rows = [[name, *confusion[k]] for k, name in enumerate(class_names)]
    write_csv_table(path, ["true\\predicted", *class_names], rows)


def weight_series(params: NetworkParams, train_config: dict) -> list[tuple[str, list, list]]:
    """(series name, channels, weights) of each channel series of a model's weights, for plotting.

    A linear model gives one series per output class, named by the class names
    of ``train_config["task"]``, or ``class_<k>`` when it names no task.
    Hidden-layer models have no per-class input weights, so they give the
    first-layer rows instead, in unit order, named ``hidden_unit_<jj>``.
    """
    if isinstance(params, LinearParams):
        rows, task, tasks = params.weights, train_config.get("task"), [t.value for t in TaskKind]
        if task is None:
            names = [f"class_{k}" for k in range(params.n_classes)]
        elif task in tasks:
            names = TaskKind(task).class_names
        else:
            raise ValueError(f"train_config.task: expected one of {tasks}, got {task!r}")
        if len(names) != params.n_classes:
            raise ValueError(f"train_config.task: {task} has {len(names)} classes, "
                             f"the model emits {params.n_classes}")
    else:
        rows, names = params.w1, [f"hidden_unit_{j:02d}" for j in range(params.width)]
    channels = list(range(params.n_channels))
    return [(name, channels, w) for name, w in zip(names, rows.tolist())]


def train_and_write(
    config: dict,
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    out_dir: str | Path,
    archs: tuple[str, ...] | None = None,
    seed: int | None = None,
) -> dict:
    """Train each architecture on one dataset pair and write the run directory.

    ``config.json`` goes in ``out_dir``; each architecture's model, metrics
    and confusion files go there too, or in ``out_dir/<arch>`` when
    there are several.  Gauge positives are oversampled first.  ``archs`` and
    ``seed`` default to the config's ``arch`` and ``seed``.  The architectures
    train in turn: the first whose training fails raises its error, after the
    files of those before it and its own empty directory.
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
    for arch in archs:
        arch_dir = out_dir / arch if len(archs) > 1 else out_dir
        arch_dir.mkdir(parents=True, exist_ok=True)
        initial = init_params(arch, train_ds.n_channels, train_ds.task.n_classes, seed, t["width"])
        params, history = train(train_ds, test_ds, initial, t, seed)
        train_doc = {"task": train_ds.task.value, **t, "arch": arch, "seed": seed}
        save_model(arch_dir / "model.json", params, train_doc)
        write_metrics_csv(arch_dir / "metrics.csv", history, class_names)
        write_confusion_csv(arch_dir / "confusion.csv", history.confusion, class_names)
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
