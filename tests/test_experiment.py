import ctypes
import functools
import json
import os
import signal
import subprocess
import sys
import threading
import time
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammasort import cli, experiment, seeding
from gammasort.ensemble import (
    FORK_MIN_ITEMS,
    LabeledDataset,
    TaskKind,
    build_dataset,
    poisson_sample,
    read_dataset,
    sample_dataset,
    stack_templates,
    standard_grid,
    template_dataset,
    write_dataset,
)
from gammasort.experiment import (
    DEFAULT_CONFIG,
    SCENARIO_PRESETS,
    EvalResult,
    MetricsHistory,
    _metrics,
    evaluate,
    oversample_positives,
    read_metrics_csv,
    run_config,
    run_scenario,
    train,
    train_and_write,
    weight_series,
    write_confusion_csv,
    write_metrics_csv,
)
from gammasort.forward_model import default_detector
from gammasort.neuralnet import (
    ARCH_HIDDEN_TANH,
    ARCH_LINEAR,
    PROB_FLOOR,
    AdamHyper,
    LinearParams,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_adam,
    init_params,
    load_model,
    save_model,
    softmax,
)
from gammasort.spectra import EnergyCalibration, Spectrum, SpectrumKind

DETECTOR = default_detector()

SMALL_GRID = standard_grid(
    isotopes=("Cesium", "Cobalt", "Barium"),
    distances_m=(10.0, 14.0),
    materials=("Bare", "Steel"),
)


def small_datasets(task=TaskKind.ISOTOPE_ID, samples=4, seed=3):
    train_ds = template_dataset(SMALL_GRID, task, DETECTOR, rebin_factor=8)
    test_ds = build_dataset(
        SMALL_GRID, task, DETECTOR, samples, 1.0, seed=seed, rebin_factor=8
    )
    return train_ds, test_ds


def synthetic_dataset(task, labels_idx, n_channels=8):
    cal = EnergyCalibration(0.0, 3000.0, n_channels)
    grid = standard_grid(isotopes=("Cesium",), distances_m=(10.0,), materials=("Bare",))
    rng = np.random.default_rng(0)
    counts = np.stack([rng.uniform(0, 5, n_channels) for _ in labels_idx])
    return LabeledDataset(
        counts, labels_idx, task, tuple(grid * len(labels_idx)), cal, 1.0,
        SpectrumKind.EXPECTED_TEMPLATE,
    )


def reference_loss(logits, one_hot) -> float:
    """Mean cross-entropy by the plain formulas: last-axis softmax and a one-hot product."""
    expz = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    probs = expz / np.sum(expz, axis=-1, keepdims=True)
    picked = np.sum(probs * one_hot, axis=-1)
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def reference_metrics(logits, one_hot, n_classes) -> EvalResult:
    """Loss, accuracies and confusion by the plain formulas: softmax, one-hot product, add.at."""
    loss = reference_loss(logits, one_hot)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (np.argmax(one_hot, axis=-1), np.argmax(logits, axis=-1)), 1)
    row_totals = confusion.sum(axis=1)
    diag = np.diag(confusion).astype(np.float64)
    per_class = np.where(row_totals > 0, diag / np.maximum(row_totals, 1), 0.0)
    return EvalResult(loss, float(np.trace(confusion)) / float(confusion.sum()), per_class, confusion)


def train_section(**values) -> dict:
    """The resolved ``train`` section of DEFAULT_CONFIG with ``values`` merged over it."""
    return run_config({"train": values})["train"]


def initial_params(arch, ds, seed, width=64):
    return init_params(arch, ds.n_channels, ds.task.n_classes, seed, width)


def reference_train(train_ds, test_ds, initial, section, seed):
    """``train`` rebuilt from the public backward and adam_step, one step at a time."""
    x, labels = train_ds.as_matrix(), train_ds.labels
    y = np.eye(train_ds.task.n_classes)[labels]
    n = len(x)
    batch = n if section["batch_size"] is None else min(section["batch_size"], n)
    params = replace(initial)
    hyper = AdamHyper(section["learning_rate"], section["beta1"], section["beta2"],
                      section["epsilon"])
    state = init_adam(params, hyper)
    history = MetricsHistory()
    for epoch in range(1, section["epochs"] + 1):
        order = seeding.rng(seed, 1, epoch).permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            _, grads = backward(params, x[idx], labels[idx])
            params, state = adam_step(params, grads, state)
        train_loss = reference_loss(forward(params, x), y)
        test = reference_metrics(forward(params, test_ds.as_matrix()),
                                 np.eye(params.n_classes)[test_ds.labels], params.n_classes)
        history.append(epoch, train_loss, test)
    return params, history


# Logit cells with ties, signed zeros, and gaps wide enough to push a
# true-class probability below PROB_FLOOR (e^-40 < 1e-12).
LOGIT_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 40.0, -40.0, 700.0]),
    st.floats(min_value=-100.0, max_value=100.0),
)


@st.composite
def logits_and_labels(draw):
    """An (n, k) logit matrix over 1-7 classes and one class index per row."""
    k = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(LOGIT_CELLS, min_size=k, max_size=k), min_size=1, max_size=40))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=len(rows), max_size=len(rows)))
    return np.array(rows), np.array(labels)


class TestMetrics:
    @given(logits_and_labels())
    @example((np.array([[0.0, 40.0], [0.0, 40.0]]), np.array([0, 1])))  # below the floor
    @example((np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 1.0], [2.0, 2.0, 2.0]]), np.array([1, 2, 0])))
    @example((np.array([[3.0], [-0.0]]), np.array([0, 0])))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_the_plain_formulas(self, case):
        logits, labels = case
        n_classes = logits.shape[1]
        one_hot = np.eye(n_classes)[labels]
        for i in range(len(labels)):  # row by row, where a mean cannot hide a last bit
            row = slice(i, i + 1)
            got = cross_entropy(softmax(logits[row]), labels[row])
            assert got == reference_loss(logits[row], one_hot[row])
        assert cross_entropy(softmax(logits), labels) == reference_loss(logits, one_hot)
        got = _metrics(logits, labels, n_classes)
        want = reference_metrics(logits, one_hot, n_classes)
        assert got.cross_entropy == want.cross_entropy
        assert got.accuracy == want.accuracy
        assert np.array_equal(got.per_class_accuracy, want.per_class_accuracy)
        assert np.array_equal(got.confusion, want.confusion)
        assert got.confusion.dtype == want.confusion.dtype

    def test_overflowing_logits_are_refused(self):
        with pytest.raises(ValueError, match="^logits must be finite$"):
            _metrics(np.array([[np.inf, 0.0]]), np.array([0]), 2)

    def test_every_task_has_fewer_than_8_classes(self):
        # The column-at-a-time class reductions match numpy's only below 8 columns.
        assert max(t.n_classes for t in TaskKind) < 8


class TestEvaluate:
    def test_perfect_predictor_scores_one(self):
        # identity-like weights that pick the label channel
        task = TaskKind.ISOTOPE_ID
        cal = EnergyCalibration(0.0, 3000.0, 5)
        grid = standard_grid(isotopes=("Cesium",), distances_m=(10.0,), materials=("Bare",))
        ds = LabeledDataset(
            10.0 * np.eye(5), np.arange(5), task, tuple(grid * 5), cal, 1.0,
            SpectrumKind.EXPECTED_TEMPLATE,
        )
        params = LinearParams(np.eye(5), np.zeros(5))
        result = evaluate(params, ds)
        assert result.accuracy == 1.0
        assert np.array_equal(result.confusion, np.eye(5, dtype=np.int64))
        assert np.all(result.per_class_accuracy == 1.0)

    def test_constant_predictor_on_balanced_set_is_chance(self):
        task = TaskKind.ISOTOPE_ID
        ds = synthetic_dataset(task, [0, 1, 2, 3, 4] * 4)
        params = LinearParams(np.zeros((5, 8)), np.array([9.0, 0, 0, 0, 0]))
        result = evaluate(params, ds)
        assert result.accuracy == pytest.approx(0.2)

    def test_confusion_total_equals_dataset_size(self):
        train_ds, test_ds = small_datasets()
        params = init_params(ARCH_LINEAR, train_ds.n_channels, 5, seed=0)
        result = evaluate(params, test_ds)
        assert int(result.confusion.sum()) == len(test_ds)

    def test_metrics_identities(self):
        train_ds, test_ds = small_datasets()
        params = init_params(ARCH_LINEAR, train_ds.n_channels, 5, seed=1)
        result = evaluate(params, test_ds)
        row_sums = result.confusion.sum(axis=1)
        true_counts = np.bincount(test_ds.labels, minlength=5)
        assert np.array_equal(row_sums, true_counts)
        assert result.accuracy == pytest.approx(
            np.trace(result.confusion) / result.confusion.sum()
        )
        nonzero = row_sums > 0
        assert np.allclose(
            result.per_class_accuracy[nonzero],
            np.diag(result.confusion)[nonzero] / row_sums[nonzero],
        )

    def test_shape_mismatch_rejected(self):
        _, test_ds = small_datasets()
        params = init_params(ARCH_LINEAR, test_ds.n_channels + 1, 5, seed=0)
        with pytest.raises(ValueError):
            evaluate(params, test_ds)

    def test_accuracy_depends_only_on_argmax(self):
        _, test_ds = small_datasets()
        params = init_params(ARCH_LINEAR, test_ds.n_channels, 5, seed=2)
        scaled = LinearParams(3.0 * params.weights, 3.0 * params.bias)
        assert evaluate(params, test_ds).accuracy == evaluate(scaled, test_ds).accuracy


class TestTrain:
    def test_task_mismatch_rejected(self):
        train_ds, _ = small_datasets(TaskKind.ISOTOPE_ID)
        _, other_test = small_datasets(TaskKind.SHIELDING_ID)
        initial = initial_params(ARCH_LINEAR, train_ds, 0)
        with pytest.raises(ValueError):
            train(train_ds, other_test, initial, train_section(epochs=1), 0)

    def test_initial_shape_mismatch_rejected(self):
        train_ds, test_ds = small_datasets()
        for n_channels, n_classes in ((train_ds.n_channels + 1, 5), (train_ds.n_channels, 4)):
            initial = init_params(ARCH_LINEAR, n_channels, n_classes, 0)
            with pytest.raises(ValueError) as info:
                train(train_ds, test_ds, initial, train_section(epochs=1), 0)
            assert str(info.value).startswith("shape mismatch: initial model ")

    def test_single_item_memorization(self):
        # one template, trained on itself: loss collapses
        grid = standard_grid(isotopes=("Cesium",), distances_m=(10.0,), materials=("Bare",))
        ds = template_dataset(grid, TaskKind.ISOTOPE_ID, DETECTOR, rebin_factor=8)
        section = train_section(epochs=500, batch_size=None, learning_rate=1e-2)
        _, history = train(ds, ds, initial_params(ARCH_LINEAR, ds, 4), section, 4)
        assert history.train_loss[-1] < 1e-3

    def test_bit_reproducible_per_seed(self):
        train_ds, test_ds = small_datasets()
        section = train_section(epochs=5, batch_size=8)
        initial = initial_params(ARCH_LINEAR, train_ds, 11)
        p1, h1 = train(train_ds, test_ds, initial, section, 11)
        p2, h2 = train(train_ds, test_ds, initial, section, 11)
        assert np.array_equal(p1.weights, p2.weights)
        assert np.array_equal(p1.bias, p2.bias)
        assert h1.train_loss == h2.train_loss
        assert h1.test_accuracy == h2.test_accuracy

    def test_metrics_recorded_every_epoch(self):
        train_ds, test_ds = small_datasets()
        section = train_section(epochs=7, batch_size=None)
        _, history = train(train_ds, test_ds, initial_params(ARCH_LINEAR, train_ds, 0), section, 0)
        assert history.epochs == list(range(1, 8))
        assert len(history.train_loss) == 7
        assert history.confusion is not None

    def test_initial_params_respected(self):
        train_ds, test_ds = small_datasets()
        init = init_params(ARCH_LINEAR, train_ds.n_channels, 5, seed=55)
        frozen = init.weights.copy()
        params, _ = train(train_ds, test_ds, init, train_section(epochs=2, batch_size=None), 0)
        # caller's copy untouched, trained params differ
        assert np.array_equal(init.weights, frozen)
        assert not np.array_equal(params.weights, frozen)

    @pytest.mark.parametrize(
        "arch, learning_rate, cause",
        [
            (ARCH_LINEAR, 1e308, "non-finite parameters"),
            (ARCH_LINEAR, 1e306, "logits must be finite"),
            (ARCH_HIDDEN_TANH, 1e308, "logits must be finite"),
        ],
    )
    def test_divergence_names_arch_and_epoch(self, arch, learning_rate, cause):
        train_ds, test_ds = small_datasets()
        section = train_section(epochs=3, batch_size=None, learning_rate=learning_rate)
        initial = initial_params(arch, train_ds, 0, width=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                train(train_ds, test_ds, initial, section, 0)
        assert str(info.value) == f"{arch}: training diverged at epoch 1: {cause}"

    def test_hidden_arch_trains(self):
        train_ds, test_ds = small_datasets()
        section = train_section(epochs=10, batch_size=None, learning_rate=1e-2)
        initial = initial_params(ARCH_HIDDEN_TANH, train_ds, 1, width=16)
        _, history = train(train_ds, test_ds, initial, section, 1)
        assert history.train_loss[-1] < history.train_loss[0]


    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_HIDDEN_TANH])
    @pytest.mark.parametrize("batch_size", [None, 4, 5])  # 12 items: full, even, short last
    def test_steps_like_the_public_api(self, arch, batch_size):
        train_ds, test_ds = small_datasets()
        assert len(train_ds) == 12
        section = train_section(epochs=4, batch_size=batch_size, learning_rate=1e-2, width=6)
        initial = initial_params(arch, train_ds, 9, width=6)
        params, history = train(train_ds, test_ds, initial, section, 9)
        ref_params, ref_history = reference_train(train_ds, test_ds, initial, section, 9)
        assert np.array_equal(params.flat, ref_params.flat)
        assert history.epochs == ref_history.epochs
        assert history.train_loss == ref_history.train_loss
        assert history.test_loss == ref_history.test_loss
        assert history.test_accuracy == ref_history.test_accuracy
        for got, want in zip(history.per_class_accuracy, ref_history.per_class_accuracy,
                             strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(history.confusion, ref_history.confusion)


class TestWeightFeatures:
    def test_linear_series_shape(self):
        params = init_params(ARCH_LINEAR, 32, 5, seed=0)
        series = weight_series(params, {"task": "IsotopeID"})
        assert len(series) == 5
        assert all(channels == list(range(32)) and len(w) == 32 for _, channels, w in series)
        assert [name for name, _, _ in series] == list(TaskKind.ISOTOPE_ID.class_names)

    def test_untrained_series_equal_initialization(self):
        params = init_params(ARCH_LINEAR, 16, 3, seed=77)
        again = init_params(ARCH_LINEAR, 16, 3, seed=77)
        series = weight_series(params, {})
        assert [name for name, _, _ in series] == ["class_0", "class_1", "class_2"]
        for k, (_, _, w) in enumerate(series):
            assert np.array_equal(w, again.weights[k])

    def test_hidden_series_are_first_layer_rows(self):
        params = init_params(ARCH_HIDDEN_TANH, 16, 3, seed=0, width=4)
        series = weight_series(params, {"task": "IsotopeID"})
        assert [name for name, _, _ in series] == [f"hidden_unit_{j:02d}" for j in range(4)]
        for j, (_, _, w) in enumerate(series):
            assert np.array_equal(w, params.w1[j])

    def test_hidden_units_past_99_come_in_unit_order(self):
        params = init_params(ARCH_HIDDEN_TANH, 4, 2, seed=0, width=101)
        series = weight_series(params, {})
        assert [name for name, _, _ in series] == [f"hidden_unit_{j:02d}" for j in range(101)]
        for j, (_, _, w) in enumerate(series):
            assert np.array_equal(w, params.w1[j])

    @pytest.mark.parametrize("task, message", [
        ("GaugeBinary", "train_config.task: GaugeBinary has 2 classes, the model emits 3"),
        ("Gauge", "train_config.task: expected one of ['IsotopeID', 'ShieldingID', "
                  "'GaugeBinary'], got 'Gauge'"),
        ([1], "train_config.task: expected one of ['IsotopeID', 'ShieldingID', "
              "'GaugeBinary'], got [1]"),
    ], ids=["class_count", "unknown", "unhashable"])
    def test_class_names_must_match_the_classes(self, task, message):
        params = init_params(ARCH_LINEAR, 16, 3, seed=0)
        with pytest.raises(ValueError) as info:
            weight_series(params, {"task": task})
        assert str(info.value) == message

    def test_series_of_a_saved_model_equal_the_trained_ones(self, tmp_path):
        params = init_params(ARCH_HIDDEN_TANH, 8, 2, seed=3, width=5)
        save_model(tmp_path / "model.json", params, {"task": "GaugeBinary"})
        loaded, train_config = load_model(tmp_path / "model.json")
        assert weight_series(loaded, train_config) == weight_series(params, {"task": "GaugeBinary"})


class TestOversample:
    def test_ratio_one_to_four(self):
        grid = standard_grid()
        ds = template_dataset(grid, TaskKind.GAUGE_BINARY, DETECTOR, rebin_factor=8)
        balanced = oversample_positives(ds, positive_class=0, ratio=0.25)
        idx = balanced.labels
        n_pos = int((idx == 0).sum())
        n_neg = int((idx == 1).sum())
        assert n_neg == 209
        assert n_pos == 55  # 11 positives x round(0.25 * 209 / 11) copies
        assert n_pos / n_neg == pytest.approx(0.25, rel=0.1)

    def test_noop_when_balanced(self):
        ds = synthetic_dataset(TaskKind.GAUGE_BINARY, [0, 1, 0, 1])
        assert len(oversample_positives(ds, 0, 0.25)) == len(ds)  # copies = max(1, ...)


class TestCsvParsePath:
    """data.npy files are read without np.loadtxt.

    A fast path that silently fell back would keep every other test green.
    """

    class LoadtxtCalled(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_loadtxt(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise self.LoadtxtCalled

        monkeypatch.setattr(np, "loadtxt", refuse)

    @pytest.fixture()
    def templates(self):
        return template_dataset(SMALL_GRID, TaskKind.ISOTOPE_ID, DETECTOR, rebin_factor=4)

    def test_sampled_dataset_reads_without_loadtxt(self, tmp_path, templates):
        ds = sample_dataset(templates, 3, 1.0, seed=5)
        back = read_dataset(write_dataset(ds, tmp_path))
        assert back.counts.tobytes() == ds.counts.tobytes()
        assert np.array_equal(back.labels, ds.labels)

    def test_template_dataset_reads_without_loadtxt(self, tmp_path, templates):
        back = read_dataset(write_dataset(templates, tmp_path))
        assert back.counts.tobytes() == templates.counts.tobytes()


class TestCsvWriters:
    def test_metrics_csv_round_trip_columns(self, tmp_path):
        history = MetricsHistory()
        history.append(
            1,
            0.5,
            type(
                "E",
                (),
                {
                    "cross_entropy": 0.4,
                    "accuracy": 0.75,
                    "per_class_accuracy": np.array([0.5, 1.0]),
                    "confusion": np.array([[1, 1], [0, 2]]),
                },
            )(),
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, history, ("A", "B"))
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,test_loss,overall_acc,acc_A,acc_B"
        assert lines[1].split(",")[0] == "1"

    def test_confusion_csv_layout(self, tmp_path):
        path = tmp_path / "confusion.csv"
        write_confusion_csv(path, np.array([[3, 1], [0, 4]]), ("X", "Y"))
        lines = path.read_text().splitlines()
        assert lines[0] == "true\\predicted,X,Y"
        assert lines[1] == "X,3,1"
        assert lines[2] == "Y,0,4"


class TestRunScenario:
    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_scenario("fusion", tmp_path)

    def test_small_isotope_scenario_artifacts(self, tmp_path):
        results = run_scenario(
            "isotope",
            tmp_path,
            train={"epochs": 3},
            samples_per_config=2,
            grid={"distances_m": [10.0, 15.0]},
        )
        for name in ("config.json", "model.json", "metrics.csv", "confusion.csv"):
            assert (tmp_path / name).is_file(), name
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "confusion.csv", "metrics.csv", "model.json"
        ]
        config = json.loads((tmp_path / "config.json").read_text())
        assert config["scenario"] == "isotope"
        assert config["train"]["epochs"] == 3
        assert len(results["test_ds"]) == 5 * 2 * 4 * 2

    def test_diverging_scenario_names_arch_and_epoch(self, tmp_path):
        with pytest.raises(ValueError) as info:
            run_scenario("isotope", tmp_path, train={"epochs": 3, "learning_rate": 1e308})
        assert str(info.value) == "linear: training diverged at epoch 1: non-finite parameters"

    def test_small_gauge_scenario_emits_comparison(self, tmp_path):
        run_scenario(
            "gauge",
            tmp_path,
            train={"epochs": 3},
            samples_per_config=1,
            grid={"distances_m": [10.0, 15.0]},
        )
        assert (tmp_path / "comparison.csv").is_file()
        assert (tmp_path / "linear" / "model.json").is_file()
        assert (tmp_path / "hidden_tanh" / "model.json").is_file()
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        assert lines[0] == "class,linear_acc,hidden_acc"
        assert len(lines) == 3

    def test_line_shapes_built_once_per_distinct_energy(self, tmp_path, monkeypatch):
        import gammasort.forward_model as fm

        calls = []
        original = fm.line_response

        def counting(detector, energy, *args, **kwargs):
            calls.append(energy)
            return original(detector, energy, *args, **kwargs)

        monkeypatch.setattr(fm, "line_response", counting)
        results = run_scenario(
            "isotope", tmp_path, train={"epochs": 1}, samples_per_config=2,
            grid={"distances_m": [10.0]},
        )
        grid = results["train_ds"].provenance
        energies = {energy for config in grid for energy, _ in config.isotope.lines}
        energies |= {energy for energy, _ in fm.DU_EMISSION_LINES}
        assert sorted(calls) == sorted(energies)
        assert len(grid) == 20
        assert len(results["test_ds"]) == 40

    def test_shielding_scenario_label_space(self, tmp_path):
        results = run_scenario(
            "shielding",
            tmp_path,
            train={"epochs": 2},
            samples_per_config=1,
            grid={"distances_m": [10.0]},
        )
        assert results["test_ds"].task is TaskKind.SHIELDING_ID
        assert results["test_ds"].task.class_names == (
            "Bare",
            "Concrete",
            "Steel",
            "DepletedUranium",
        )


def assert_no_child_left():
    # Every child was reaped: none runs and none is a zombie.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_files(run_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


class TestSeveralArchitectures:
    """Several architectures train in turn on one dataset pair."""

    ARCHS = (ARCH_LINEAR, ARCH_HIDDEN_TANH)

    @pytest.fixture
    def gauge(self):
        config = run_config(SCENARIO_PRESETS["gauge"], {"train": {"epochs": 4, "width": 8}})
        return (config, *small_datasets(TaskKind.GAUGE_BINARY))

    @staticmethod
    def fail_for(monkeypatch, arch, fail):
        """Patch ``train`` to call ``fail()`` for ``arch`` and train the others unchanged."""
        original = experiment.train

        def patched(train_ds, test_ds, initial, section, seed):
            if initial.arch == arch:
                fail()
            return original(train_ds, test_ds, initial, section, seed)

        monkeypatch.setattr(experiment, "train", patched)

    def test_equals_training_each_alone(self, tmp_path, gauge):
        config, train_ds, test_ds = gauge
        results = train_and_write(config, train_ds, test_ds, tmp_path / "both", self.ARCHS, 11)
        for arch in self.ARCHS:
            initial = initial_params(arch, train_ds, 11, width=8)
            params, history = train(results["train_ds"], test_ds, initial, config["train"], 11)
            got = results[arch]
            assert got["initial"].flat.tobytes() == initial.flat.tobytes()
            assert got["params"].flat.tobytes() == params.flat.tobytes()
            assert_same_history(got["history"], history)
            assert got["dir"] == tmp_path / "both" / arch

            # One architecture writes the same files.
            train_and_write(config, train_ds, test_ds, tmp_path / arch, (arch,), 11)
            assert run_files(tmp_path / "both" / arch) == {
                name: data for name, data in run_files(tmp_path / arch).items()
                if name != "config.json"
            }
        assert_no_child_left()

    def test_first_failure_in_order_wins(self, tmp_path, gauge):
        # At 1e308 both architectures diverge; the linear one reports.
        config, train_ds, test_ds = gauge
        config["train"]["learning_rate"] = 1e308
        with pytest.raises(ValueError) as info:
            train_and_write(config, train_ds, test_ds, tmp_path, self.ARCHS, 11)
        assert str(info.value) == "linear: training diverged at epoch 1: non-finite parameters"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "linear"]
        assert not list((tmp_path / "linear").iterdir())
        assert_no_child_left()

    def test_failure_in_the_first_alone(self, tmp_path, gauge, monkeypatch):
        config, train_ds, test_ds = gauge

        def fail():
            raise ValueError("linear: no")

        self.fail_for(monkeypatch, ARCH_LINEAR, fail)
        with pytest.raises(ValueError, match="^linear: no$"):
            train_and_write(config, train_ds, test_ds, tmp_path, self.ARCHS, 11)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "linear"]
        assert not list((tmp_path / "linear").iterdir())

    def test_failure_in_the_second_alone(self, tmp_path, gauge, monkeypatch):
        # The first architecture's files are written, then the second gets its
        # empty directory and raises.
        config, train_ds, test_ds = gauge

        def fail():
            raise ValueError("hidden_tanh: no")

        self.fail_for(monkeypatch, ARCH_HIDDEN_TANH, fail)
        with pytest.raises(ValueError, match="^hidden_tanh: no$"):
            train_and_write(config, train_ds, test_ds, tmp_path, self.ARCHS, 11)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "hidden_tanh",
                                                               "linear"]
        assert (tmp_path / "linear" / "model.json").is_file()
        assert not list((tmp_path / "hidden_tanh").iterdir())


def assert_same_history(got: MetricsHistory, want: MetricsHistory):
    for name in ("epochs", "train_loss", "test_loss", "test_accuracy"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array(got.per_class_accuracy).tobytes() == np.array(want.per_class_accuracy).tobytes()
    assert got.confusion.tobytes() == want.confusion.tobytes()


def in_child(parent: int) -> bool:
    return os.getpid() != parent


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returned to this process, on two available CPUs."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return pids


@pytest.fixture
def blas(monkeypatch):
    """A BLAS thread count of 4 behind a fake getter and setter; ``set`` records each call."""
    threads = {"now": 4, "set": []}

    def set_threads(n):
        threads["now"] = n
        threads["set"].append(n)

    monkeypatch.setattr(experiment, "_blas_threads", lambda: (lambda: threads["now"], set_threads))
    return threads


def train_small(arch=ARCH_LINEAR, **section):
    """``train`` on the small isotope datasets: full batch and 6 epochs unless ``section`` says."""
    train_ds, test_ds = small_datasets()
    values = {"epochs": 6, "batch_size": None, "learning_rate": 1e-2, "width": 6, **section}
    initial = initial_params(arch, train_ds, 9, width=values["width"])
    return train(train_ds, test_ds, initial, train_section(**values), 9)


def patch_metrics(monkeypatch, patched):
    """Patch ``_metrics`` to call ``patched(n)`` first, ``n`` counting its calls in each process.

    Returns the counts by pid; this process sees only its own.
    """
    calls = {}
    original = experiment._metrics

    def counting(logits, true, n_classes):
        calls[os.getpid()] = calls.get(os.getpid(), 0) + 1
        patched(calls[os.getpid()])
        return original(logits, true, n_classes)

    monkeypatch.setattr(experiment, "_metrics", counting)
    return calls


class TestEvaluator:
    """Each epoch's metrics are computed in a forked evaluator while the next epochs train."""

    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_HIDDEN_TANH])
    @pytest.mark.parametrize("batch_size", [None, 5])
    def test_history_equals_inline_evaluation(self, arch, batch_size, forks, monkeypatch):
        params, history = train_small(arch, batch_size=batch_size)
        assert len(forks) == 1
        assert_no_child_left()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        inline_params, inline_history = train_small(arch, batch_size=batch_size)
        assert len(forks) == 1
        assert params.flat.tobytes() == inline_params.flat.tobytes()
        assert_same_history(history, inline_history)

    def test_the_evaluator_evaluates_while_the_next_epochs_train(self, forks, monkeypatch):
        # A slow evaluator holds epochs 1 and 2; the trainer evaluates the rest.
        parent = os.getpid()
        calls = patch_metrics(monkeypatch, lambda n: in_child(parent) and time.sleep(0.5))
        _, history = train_small()
        assert history.epochs == [1, 2, 3, 4, 5, 6]
        assert calls == {parent: 4}

    def test_one_available_cpu_starts_no_process(self, tmp_path, forks, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
        run_scenario("isotope", tmp_path, train={"epochs": 2}, samples_per_config=1,
                     grid={"distances_m": [10.0]})
        assert forks == []

    def test_a_worker_thread_trains_inline(self, forks):
        # A lock another thread held at a fork would stay held in the evaluator.
        trained = []
        worker = threading.Thread(target=lambda: trained.append(train_small()))
        worker.start()
        worker.join()
        assert forks == []
        params, history = train_small()
        assert len(forks) == 1
        assert trained[0][0].flat.tobytes() == params.flat.tobytes()
        assert_same_history(trained[0][1], history)
        assert_no_child_left()

    def test_a_metrics_failure_names_its_epoch_after_the_trainer_moved_on(self, forks,
                                                                         monkeypatch):
        # The evaluator always holds epochs 1 and 2; its second evaluation, of
        # epoch 2, fails only after the trainer has evaluated epochs 3 to 6.
        parent = os.getpid()

        def fail_the_second(n):
            if in_child(parent):
                time.sleep(0.5)
                if n == 2:
                    raise ValueError("no metrics")

        calls = patch_metrics(monkeypatch, fail_the_second)
        with pytest.raises(ValueError) as info:
            train_small()
        assert str(info.value) == "linear: training diverged at epoch 2: no metrics"
        assert calls == {parent: 4}
        assert_no_child_left()

    def test_the_earliest_failure_wins_over_a_later_step_failure(self, forks, monkeypatch):
        parent = os.getpid()
        steps = []
        gradients = experiment._gradients_into

        def failing_at_epoch_4(*args):
            steps.append(None)
            if len(steps) == 4:  # full batch: one step an epoch
                raise ValueError("no step")
            gradients(*args)

        monkeypatch.setattr(experiment, "_gradients_into", failing_at_epoch_4)

        def fail_the_second(n):
            if in_child(parent) and n == 2:
                time.sleep(0.5)
                raise ValueError("no metrics")

        patch_metrics(monkeypatch, fail_the_second)
        with pytest.raises(ValueError) as info:
            train_small()
        assert str(info.value) == "linear: training diverged at epoch 2: no metrics"
        assert len(steps) == 4
        assert_no_child_left()

    @pytest.mark.parametrize("die, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ])
    def test_a_dead_evaluator_is_a_one_line_error(self, tmp_path, forks, monkeypatch, die, how):
        config = run_config(SCENARIO_PRESETS["gauge"], {"train": {"epochs": 4, "width": 8}})
        train_ds, test_ds = small_datasets(TaskKind.GAUGE_BINARY)
        parent = os.getpid()  # evaluated here, the epoch must not end pytest
        patch_metrics(monkeypatch, lambda n: in_child(parent) and die())
        with pytest.raises(ValueError) as info:
            train_and_write(config, train_ds, test_ds, tmp_path, (ARCH_LINEAR, ARCH_HIDDEN_TANH),
                            11)
        assert str(info.value) == f"linear: the evaluation process {how} without a result"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "linear"]
        assert_no_child_left()

    @pytest.mark.parametrize("failing", ["os.pipe 1", "os.pipe 2", "os.fork 1"])
    def test_a_failed_pipe_or_fork_raises_before_anything_trains(self, failing, forks, blas,
                                                                   monkeypatch):
        name, at = failing.split()
        original = getattr(os, name.split(".")[1])
        calls = []

        def fails_at(*args):
            calls.append(None)
            if len(calls) == int(at):
                raise OSError(f"no {name}")
            return original(*args)

        steps = []
        gradients = experiment._gradients_into
        monkeypatch.setattr(experiment, "_gradients_into",
                            lambda *args: steps.append(None) or gradients(*args))
        monkeypatch.setattr(os, name.split(".")[1], fails_at)
        fds = os.listdir("/proc/self/fd")
        with pytest.raises(OSError, match=f"^no {name}$"):
            train_small()
        assert steps == []
        assert_no_child_left()
        assert os.listdir("/proc/self/fd") == fds
        assert blas["now"] == 4

    def test_an_interrupt_kills_and_reaps_the_evaluator(self, forks, blas, monkeypatch):
        parent = os.getpid()
        patch_metrics(monkeypatch, lambda n: in_child(parent) and time.sleep(60))
        steps = []
        gradients = experiment._gradients_into

        def interrupted_at_epoch_3(*args):
            steps.append(None)
            if len(steps) == 3:
                raise KeyboardInterrupt
            gradients(*args)

        monkeypatch.setattr(experiment, "_gradients_into", interrupted_at_epoch_3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            train_small()
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        assert_no_child_left()
        assert blas["now"] == 4

    def test_answers_larger_than_one_read_are_keyed_to_their_epochs(self):
        # Each answer (800 kB) spans many pipe reads; the epochs are not contiguous.
        params = LinearParams(np.zeros((2, 4)), np.zeros(2))
        evaluator = experiment._Evaluator(lambda p: np.full(100_000, p.flat[0]), params)
        try:
            for epoch in (1, 3, 4):
                params.flat[0] = epoch
                evaluator.send(epoch, params)
            answers = evaluator.answers(block=True)
        finally:
            evaluator.close()
        assert sorted(answers) == [1, 3, 4]
        for epoch, answer in answers.items():
            assert answer.tobytes() == np.full(100_000, float(epoch)).tobytes()
        assert_no_child_left()

    def test_the_evaluator_leaves_the_callers_buffers_alone(self, tmp_path):
        # Redirected to a file, stdout is block-buffered: text printed before the
        # fork is still in the buffer the evaluator inherits, and must be written once.
        script = (
            "import io, os, sys\n"
            "from gammasort.experiment import run_scenario\n"
            "assert isinstance(sys.stdout.buffer, io.BufferedWriter)\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            "print('before')\n"
            f"run_scenario('gauge', {str(tmp_path / 'run')!r}, train={{'epochs': 2}},\n"
            "             samples_per_config=1, grid={'distances_m': [10.0]})\n"
            "print('after', len(forks))\n"
        )
        src = str(Path(experiment.__file__).resolve().parents[1])
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env["OPENBLAS_NUM_THREADS"] = "1"  # one BLAS thread: the evaluator needs no cap
        out = tmp_path / "stdout.txt"
        with out.open("w") as stdout:
            proc = subprocess.run([sys.executable, "-W", "error", "-c", script], stdout=stdout,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert out.read_text() == "before\nafter 2\n"
        assert (tmp_path / "run" / "linear" / "model.json").is_file()

    def test_the_package_runs_without_fcntl(self, tmp_path):
        # fcntl is POSIX only; without it the evaluator keeps the default pipe size.
        script = (
            "import os, sys\n"
            "if sys.argv[2] == 'blocked':\n"
            "    sys.modules['fcntl'] = None\n"
            "import gammasort\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            "gammasort.run_scenario('isotope', sys.argv[1], train={'epochs': 3},\n"
            "                       samples_per_config=1,\n"
            "                       grid={'distances_m': [10.0], 'shieldings': ['Bare']})\n"
            "assert len(forks) == 1\n"
        )
        src = str(Path(experiment.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "1"}  # one BLAS thread: the evaluator needs no cap
        for how in ("blocked", "normal"):
            proc = subprocess.run([sys.executable, "-W", "error", "-c", script, str(tmp_path / how),
                                   how], capture_output=True, text=True, env=env, timeout=300)
            assert (proc.returncode, proc.stderr) == (0, "")
        for name in ("model.json", "metrics.csv"):
            blocked, normal = (tmp_path / how / name for how in ("blocked", "normal"))
            assert blocked.read_bytes() == normal.read_bytes()


class TestBlasThreads:
    """BLAS is capped at half its threads while an evaluator lives, and restored."""

    def test_capped_then_restored(self, forks, blas):
        train_small()
        assert len(forks) == 1
        assert blas["set"] == [2, 4]
        assert_no_child_left()

    def test_restored_after_an_error(self, forks, blas):
        with pytest.raises(ValueError, match="diverged at epoch 1"):
            train_small(learning_rate=1e308)
        assert blas["set"] == [2, 4]
        assert_no_child_left()

    @pytest.mark.parametrize("threads, cap", [(1, 1), (2, 1), (3, 1), (5, 2)])
    def test_at_least_one_thread_each(self, forks, blas, threads, cap):
        blas["now"] = threads
        train_small()
        assert blas["set"] == [cap, threads]

    @pytest.mark.parametrize("found, started", [
        ((lambda: 2, None), False),  # several threads and no setter: evaluate inline
        ((None, None), False),  # a count not known may be several threads
        ((lambda: 1, None), True),  # one thread needs no cap
    ])
    def test_no_setter_evaluates_inline_unless_one_thread(self, forks, monkeypatch, found,
                                                          started):
        monkeypatch.setattr(experiment, "_blas_threads", lambda: found)
        _, history = train_small()
        assert len(forks) == int(started)
        assert history.epochs == [1, 2, 3, 4, 5, 6]

    def test_numpys_openblas_is_found_and_restored(self, forks):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas.lower():
            pytest.skip(f"numpy uses {blas}")
        get, set_ = experiment._blas_threads()
        assert get is not None and set_ is not None
        before = get()
        train_small()
        assert len(forks) == 1
        assert get() == before

    def test_a_core_module_dlopen_refuses_evaluates_inline(self, forks, monkeypatch):
        _, expected = train_small()
        forks.clear()

        def refuse(path):
            raise OSError(f"{path}: invalid ELF header")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        experiment._blas_threads.cache_clear()
        try:
            assert experiment._blas_threads() == (None, None)
            _, history = train_small()
        finally:
            experiment._blas_threads.cache_clear()
        assert forks == []
        assert_same_history(history, expected)

    @pytest.mark.parametrize("version, package", [("2.4.0", "_core"), ("1.26.4", "core")])
    def test_the_core_module_follows_numpys_major_version(self, monkeypatch, version, package):
        # numpy 1.26 ships numpy._core as .py stubs, which dlopen cannot open.
        core = types.SimpleNamespace(
            _multiarray_umath=types.SimpleNamespace(__file__=f"{package}/core.so"))
        monkeypatch.setitem(vars(np), package, core)
        monkeypatch.setattr(np, "__version__", version)
        opened = []
        monkeypatch.setattr(ctypes, "CDLL", opened.append)
        experiment._blas_threads.cache_clear()
        try:
            assert experiment._blas_threads() == (None, None)
        finally:
            experiment._blas_threads.cache_clear()
        assert opened == [f"{package}/core.so"]


@functools.cache
def sampler_templates(n_items: int) -> LabeledDataset:
    """``n_items`` templates of 32 channels, some of zero rate, on the default grid's cells."""
    grid = standard_grid()
    rates = np.random.default_rng(8).gamma(0.5, 20.0, size=(n_items, 32))
    rates[:, 1::3] = 0.0
    rates[5] = 0.0
    cal = EnergyCalibration(0.0, 3000.0, 32)
    return stack_templates(rates, cal, 10.0, [grid[i % len(grid)] for i in range(n_items)],
                           TaskKind.ISOTOPE_ID)


def sample_templates(n_items=FORK_MIN_ITEMS) -> np.ndarray:
    """The counts of one 2.5 s realization of each of ``sampler_templates(n_items)``."""
    return sample_dataset(sampler_templates(n_items), 1, 2.5, seed=31).counts


def patch_keyed_rngs(monkeypatch, in_child_first):
    """Patch ``seeding.keyed_rngs`` to call ``in_child_first()`` first in a forked child."""
    parent, keyed_rngs = os.getpid(), seeding.keyed_rngs

    def patched(keys):
        if in_child(parent):
            in_child_first()
        return keyed_rngs(keys)

    monkeypatch.setattr(seeding, "keyed_rngs", patched)


class TestForkedSampler:
    """From FORK_MIN_ITEMS items on, a forked child draws the second half of a sampled dataset."""

    @pytest.mark.parametrize("n_items, n_forks", [(FORK_MIN_ITEMS - 1, 0), (FORK_MIN_ITEMS, 1)])
    def test_forks_once_from_the_threshold_on(self, forks, n_items, n_forks):
        sample_templates(n_items)
        assert len(forks) == n_forks
        assert_no_child_left()

    def test_the_same_bits_forked_on_one_cpu_and_from_a_thread(self, forks, monkeypatch):
        forked = sample_templates()
        assert len(forks) == 1
        assert_no_child_left()
        from_thread = []
        worker = threading.Thread(target=lambda: from_thread.append(sample_templates()))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_cpu = sample_templates()
        assert len(forks) == 1
        assert forked.tobytes() == one_cpu.tobytes() == from_thread[0].tobytes()

    def test_both_halves_keep_the_per_item_streams(self, forks):
        templates = sampler_templates(FORK_MIN_ITEMS)
        counts = sample_templates()
        assert len(forks) == 1
        half = FORK_MIN_ITEMS // 2
        for item in (0, 5, half - 1, half, FORK_MIN_ITEMS - 1):
            template = Spectrum(templates.counts[item], templates.calibration, 10.0,
                                SpectrumKind.EXPECTED_TEMPLATE)
            expected = poisson_sample(template, 2.5, seeding.derive_seed(31, item, 0))
            assert counts[item].tobytes() == expected.counts.tobytes()
        assert not counts[5].any() and counts[half:].any()

    @pytest.mark.parametrize("die, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ])
    def test_a_dead_sampler_is_a_one_line_error(self, forks, monkeypatch, die, how):
        patch_keyed_rngs(monkeypatch, die)
        with pytest.raises(ValueError) as info:
            sample_templates()
        assert str(info.value) == f"the sampling process {how} without a result"
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_dead_sampler_fails_the_sample_command(self, tmp_path, forks, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "grid": {"isotopes": ["Cesium", "Cobalt"], "distances_m": [10.0],
                     "shieldings": ["Bare", "Steel"]},
            "samples_per_config": FORK_MIN_ITEMS // 4, "rebin": 256,
        }))
        assert cli.main(["synth", "--config", str(config), "--out", str(tmp_path / "tpl")]) == 0
        capsys.readouterr()
        patch_keyed_rngs(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        out = tmp_path / "ds"
        assert cli.main(["sample", "--config", str(config), "--templates", str(tmp_path / "tpl"),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "gammasort: error: the sampling process was killed by signal 9 without a result\n")
        assert not out.exists()
        assert_no_child_left()

    def test_an_interrupt_kills_and_reaps_the_sampler(self, forks, monkeypatch):
        parent, keyed_rngs = os.getpid(), seeding.keyed_rngs

        def interrupted_at_item_10(keys):  # the child sleeps until it is killed
            if in_child(parent):
                time.sleep(60)
            for item, generator in enumerate(keyed_rngs(keys)):
                if item == 10:
                    raise KeyboardInterrupt
                yield generator

        monkeypatch.setattr(seeding, "keyed_rngs", interrupted_at_item_10)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sample_templates()
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        assert_no_child_left()

    def test_the_sampler_leaves_the_callers_buffers_alone(self, tmp_path):
        # As for the evaluator: text printed before the fork is written once.
        script = (
            "import io, os, sys\n"
            "from gammasort import ensemble\n"
            "from gammasort.forward_model import default_detector\n"
            "assert isinstance(sys.stdout.buffer, io.BufferedWriter)\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            "print('before')\n"
            "grid = ensemble.standard_grid()\n"
            "samples = -(-ensemble.FORK_MIN_ITEMS // len(grid))\n"
            "ds = ensemble.build_dataset(grid, ensemble.TaskKind.ISOTOPE_ID, default_detector(),\n"
            "                            samples, 1.0, 7, rebin_factor=16)\n"
            "print('after', len(forks), len(ds) >= ensemble.FORK_MIN_ITEMS)\n"
        )
        src = str(Path(experiment.__file__).resolve().parents[1])
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        out = tmp_path / "stdout.txt"
        with out.open("w") as stdout:
            proc = subprocess.run([sys.executable, "-W", "error", "-c", script], stdout=stdout,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert out.read_text() == "before\nafter 1 True\n"


class TestRunConfig:
    def test_no_overrides_is_a_copy_of_the_defaults(self):
        config = run_config()
        assert config == DEFAULT_CONFIG
        config["grid"]["isotopes"].append("Cesium")
        config["train"]["epochs"] = 1
        assert run_config() == DEFAULT_CONFIG != config

    def test_later_overrides_win_and_siblings_survive(self):
        config = run_config(SCENARIO_PRESETS["gauge"], {"train": {"epochs": 2}})
        assert config["task"] == "GaugeBinary"
        assert config["train"]["epochs"] == 2
        assert config["train"]["learning_rate"] == 1e-2
        assert config["train"]["width"] == DEFAULT_CONFIG["train"]["width"]

    @pytest.mark.parametrize("override, message", [
        ({"epochs": 3}, "epochs: unknown key"),
        ({"train": {"epoch": 3}}, "train.epoch: unknown key"),
        ({"scenario_overrides": {}}, "scenario_overrides: unknown key"),
        ({"train": {"epochs": "ten"}}, "train.epochs: expected int, got 'ten'"),
        ({"train": {"epochs": 3.0}}, "train.epochs: expected int, got 3.0"),
        ({"grid": {"include_background": 1}}, "grid.include_background: expected bool, got 1"),
        ({"train": {"learning_rate": None}}, "train.learning_rate: expected float, got None"),
        ({"grid": {"isotopes": "Cesium"}}, "grid.isotopes: expected list, got 'Cesium'"),
        ({"paths": {"templates": 3}}, "paths.templates: expected str, got 3"),
        ({"detector": []}, "detector: expected object, got []"),
    ])
    def test_rejects_with_dotted_path(self, override, message):
        with pytest.raises(ValueError, match="^" + message.replace("[", r"\[")):
            run_config(override)

    def test_nullable_and_optional_leaves(self):
        config = run_config(
            {"train": {"batch_size": None}, "scenario": "gauge", "paths": {"templates": "t"}},
            {"train": {"batch_size": 8}},
        )
        assert config["train"]["batch_size"] == 8
        assert (config["scenario"], config["paths"]["templates"]) == ("gauge", "t")

    def test_a_named_scenario_merges_its_preset_under_every_override(self):
        assert run_config({"scenario": "gauge"}) == run_config(SCENARIO_PRESETS["gauge"],
                                                               {"scenario": "gauge"})
        config = run_config({"scenario": "gauge", "train": {"epochs": 2}})
        assert (config["task"], config["train"]["epochs"]) == ("GaugeBinary", 2)
        assert run_config(config) == config

    def test_run_scenario_rejects_unknown_key(self, tmp_path):
        with pytest.raises(ValueError, match="epoch: unknown key"):
            run_scenario("isotope", tmp_path, epoch=3)
        assert not (tmp_path / "config.json").exists()

    def test_gauge_preset_and_overrides_in_config_json(self, tmp_path):
        run_scenario(
            "gauge", tmp_path, seed=7, train={"epochs": 2}, samples_per_config=1,
            grid={"distances_m": [10.0]},
        )
        config = json.loads((tmp_path / "config.json").read_text())
        assert (config["scenario"], config["task"], config["seed"]) == ("gauge", "GaugeBinary", 7)
        assert (config["train"]["epochs"], config["train"]["learning_rate"]) == (2, 1e-2)
        model = json.loads((tmp_path / "hidden_tanh" / "model.json").read_text())
        assert model["train_config"]["arch"] == "hidden_tanh"
        assert model["train_config"]["epochs"] == 2
