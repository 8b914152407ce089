"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).
"""

import dataclasses
import time

import numpy as np
import pytest

from gammasort.ensemble import TaskKind, standard_grid, template_dataset
from gammasort.experiment import run_scenario
from gammasort.forward_model import default_detector
from gammasort.neuralnet import (
    ARCH_HIDDEN_TANH,
    ARCH_LINEAR,
    backward,
    cross_entropy,
    forward,
    init_params,
    load_model,
    save_model,
    softmax,
)
from gammasort.spectra import (
    EnergyCalibration,
    Spectrum,
    SpectrumKind,
    read_spectrum_csv,
    rebin,
    total_counts,
    write_spectrum_csv,
)
from gammasort.ensemble import poisson_sample


def check(criterion, name, ok, detail):
    print(f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} ({name}): {detail}"


@pytest.fixture(scope="module")
def isotope_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("isotope")
    start = time.monotonic()
    results = run_scenario("isotope", out)
    results["elapsed_s"] = time.monotonic() - start
    results["out_dir"] = out
    return results


@pytest.fixture(scope="module")
def shielding_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("shielding")
    start = time.monotonic()
    results = run_scenario("shielding", out)
    results["elapsed_s"] = time.monotonic() - start
    return results


@pytest.fixture(scope="module")
def gauge_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gauge")
    start = time.monotonic()
    results = run_scenario("gauge", out)
    results["elapsed_s"] = time.monotonic() - start
    return results


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for arch in (ARCH_LINEAR, ARCH_HIDDEN_TANH):
        for trial in range(100):
            params = init_params(arch, 10, 3, seed=trial, width=4)
            x = rng.uniform(0.0, 5.0, size=10)
            y = int(rng.integers(3))
            _, analytic = backward(params, x, y)
            h = 1e-5
            for f in dataclasses.fields(params):
                numeric = np.zeros_like(getattr(params, f.name))
                for idx in np.ndindex(numeric.shape):
                    values = []
                    for sign in (+1.0, -1.0):
                        bumped = {
                            g.name: getattr(params, g.name).copy()
                            for g in dataclasses.fields(params)
                        }
                        bumped[f.name][idx] += sign * h
                        probe = type(params)(**bumped)
                        values.append(cross_entropy(softmax(forward(probe, x)), y))
                    numeric[idx] = (values[0] - values[1]) / (2.0 * h)
                ana = getattr(analytic, f.name)
                scale = np.maximum(np.maximum(np.abs(numeric), np.abs(ana)), 1e-3)
                worst = max(worst, float(np.max(np.abs(numeric - ana) / scale)))
    elapsed = time.monotonic() - start
    check(
        1,
        "gradient-fidelity",
        worst < 1e-5 and elapsed < 10.0,
        f"max rel err {worst:.2e} over 100 instances x 2 archs, {elapsed:.1f}s",
    )


def test_criterion_2_poisson_sampler_statistics():
    start = time.monotonic()
    n = 10_000
    cal = EnergyCalibration(0.0, 3000.0, n)
    failures = []
    for lam, seed in ((1.0, 21), (5.0, 22), (50.0, 23)):
        template = Spectrum(np.full(n, lam), cal, 1.0, SpectrumKind.EXPECTED_TEMPLATE)
        draws = poisson_sample(template, 1.0, seed).counts
        mean_err = abs(draws.mean() - lam)
        mean_tol = 3.0 * np.sqrt(lam / n)
        fano = draws.var() / draws.mean()
        if mean_err > mean_tol or not 0.9 <= fano <= 1.1:
            failures.append((lam, mean_err, fano))
    elapsed = time.monotonic() - start
    check(
        2,
        "poisson-sampler-statistics",
        not failures and elapsed < 10.0,
        f"lambda in (1, 5, 50), N=10000, failures={failures}, {elapsed:.1f}s",
    )


def test_criterion_3_isotope_scenario_convergence(isotope_run):
    history = isotope_run[ARCH_LINEAR]["history"]
    acc_10 = history.at_epoch(10)["test_accuracy"]
    acc_100 = history.at_epoch(100)["test_accuracy"]
    per_class = history.at_epoch(100)["per_class_accuracy"]
    ok = acc_100 > acc_10 and bool(np.all(per_class > 0.2)) and isotope_run["elapsed_s"] < 300.0
    check(
        3,
        "isotope-scenario-convergence",
        ok,
        f"acc@10={acc_10:.4f} < acc@100={acc_100:.4f}, "
        f"per-class min {per_class.min():.3f} > 0.2, {isotope_run['elapsed_s']:.0f}s",
    )


def test_criterion_4_shielding_scenario(shielding_run):
    per_class = shielding_run[ARCH_LINEAR]["history"].at_epoch(100)["per_class_accuracy"]
    ok = bool(np.all(per_class > 0.25)) and shielding_run["elapsed_s"] < 300.0
    names = TaskKind.SHIELDING_ID.class_names
    detail = ", ".join(f"{n}={a:.3f}" for n, a in zip(names, per_class))
    check(4, "shielding-scenario", ok, f"{detail}, {shielding_run['elapsed_s']:.0f}s")


def test_criterion_5_gauge_architecture_gap(gauge_run):
    linear_cs = gauge_run[ARCH_LINEAR]["history"].per_class_accuracy[-1][0]
    hidden_cs = gauge_run[ARCH_HIDDEN_TANH]["history"].per_class_accuracy[-1][0]
    gap = hidden_cs - linear_cs
    ok = gap >= 0.20 and hidden_cs >= 0.80 and gauge_run["elapsed_s"] < 600.0
    check(
        5,
        "gauge-architecture-gap",
        ok,
        f"CesiumSteel: linear={linear_cs:.4f}, hidden={hidden_cs:.4f}, "
        f"gap={gap:+.4f} >= 0.20, {gauge_run['elapsed_s']:.0f}s",
    )


def test_criterion_6_zero_column_invariance(isotope_run):
    params = isotope_run[ARCH_LINEAR]["params"]
    initial = isotope_run[ARCH_LINEAR]["initial"]
    x_train = isotope_run["train_ds"].as_matrix()
    zero_cols = np.where(np.all(x_train == 0.0, axis=0))[0]
    live_cols = np.where(~np.all(x_train == 0.0, axis=0))[0]
    frozen = bool(
        np.array_equal(params.weights[:, zero_cols], initial.weights[:, zero_cols])
    )
    trained = not np.array_equal(params.weights[:, live_cols], initial.weights[:, live_cols])
    check(
        6,
        "zero-column-invariance",
        frozen and trained and zero_cols.size > 0,
        f"{zero_cols.size} empty channels bit-identical to initialization, "
        f"{live_cols.size} live channels updated",
    )


def test_criterion_7_weight_feature_alignment(isotope_run):
    # oracle: argmax of the bare cesium template in the trained binning
    config = isotope_run["config"]
    n_channels = config["detector"]["n_channels"]
    detector = default_detector(n_channels)
    grid = standard_grid(
        isotopes=("Cesium",), distances_m=(10.0,), materials=("Bare",),
        activity_bq=config["grid"]["activity_bq"],
    )
    template = template_dataset(
        grid, TaskKind.ISOTOPE_ID, detector, dwell_s=config["train"]["train_dwell_s"],
        rebin_factor=n_channels // config["rebin"],
    )
    oracle = int(np.argmax(template.as_matrix()[0]))
    cesium_row = isotope_run[ARCH_LINEAR]["params"].weights[0]
    # the strongest learned pro-cesium feature: the row's maximum weight
    peak = int(np.argmax(cesium_row))
    check(
        7,
        "weight-feature-alignment",
        abs(peak - oracle) <= 5,
        f"cesium weight peak at channel {peak}, photopeak oracle {oracle} (+-5)",
    )


def test_criterion_8_reproducibility(tmp_path):
    overrides = {
        "train": {"epochs": 4},
        "samples_per_config": 2,
        "grid": {"distances_m": [10.0, 15.0]},
    }
    run_scenario("isotope", tmp_path / "a", **overrides)
    run_scenario("isotope", tmp_path / "b", **overrides)
    same_metrics = (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()
    same_model = (tmp_path / "a" / "model.json").read_bytes() == (
        tmp_path / "b" / "model.json"
    ).read_bytes()
    check(
        8,
        "reproducibility",
        same_metrics and same_model,
        "rerun with identical config and seed is byte-identical "
        f"(metrics={same_metrics}, model={same_model})",
    )


def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(909)

    # spectrum CSV: integer realization and real-valued template
    cal = EnergyCalibration(0.0, 3000.0, 256)
    sample = Spectrum(
        rng.poisson(30.0, size=256).astype(float), cal, 1.0, SpectrumKind.SAMPLED_REALIZATION
    )
    template = Spectrum(rng.uniform(0, 700, size=256), cal, 86400.0, SpectrumKind.EXPECTED_TEMPLATE)
    csv_ok = True
    for i, spec in enumerate((sample, template)):
        path = tmp_path / f"s{i}.csv"
        write_spectrum_csv(spec, path)
        back = read_spectrum_csv(path)
        csv_ok &= np.array_equal(back.counts, spec.counts) and back.dwell_s == spec.dwell_s

    # model JSON, both architectures
    model_ok = True
    for arch in (ARCH_LINEAR, ARCH_HIDDEN_TANH):
        params = init_params(arch, 23, 4, seed=7, width=6)
        path = tmp_path / f"{arch}.json"
        save_model(path, params, {"arch": arch})
        loaded, _ = load_model(path)
        for f in dataclasses.fields(params):
            model_ok &= np.array_equal(getattr(loaded, f.name), getattr(params, f.name))

    # rebin conserves totals exactly on 1,000 random count spectra
    rebin_ok = True
    factors = (2, 4, 8, 16)
    for i in range(1000):
        lam = rng.uniform(0.1, 400.0)
        counts = rng.poisson(lam, size=256).astype(float)
        spec = Spectrum(counts, cal, 1.0, SpectrumKind.SAMPLED_REALIZATION)
        factor = factors[i % len(factors)]
        rebin_ok &= total_counts(rebin(spec, factor)) == total_counts(spec)

    check(
        9,
        "format-round-trips",
        csv_ok and model_ok and rebin_ok,
        f"csv={csv_ok}, model_json={model_ok}, rebin_exact_1000={rebin_ok}",
    )
