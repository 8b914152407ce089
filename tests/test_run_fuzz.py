"""Every run config either runs the whole pipeline or exits 2 with one error line.

Drawn configs go through synth, sample, train, eval and report via ``cli.main``
in this process.  Leaves take their defaults, the edges of the ranges that
``run_config`` checks, or extreme floats; the leaves that size arrays are
drawn from small ranges, so that no draw allocates more than a few MB.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gammasort.cli import main
from gammasort.ensemble import ISOTOPE_NAMES, SHIELDING_NAMES, TaskKind, read_dataset
from gammasort.experiment import DEFAULT_CONFIG, SCENARIO_NAMES, read_metrics_csv
from gammasort.neuralnet import ARCHS, load_model

EXTREME_FLOATS = (5e-324, 1e-300, 1e300, 1e308)
# The bounds of the float ranges run_config checks ([0, 1), (0, 1], positive,
# non-negative), a step inside them and a value outside every one.
RANGE_EDGES = (0.0, math.nextafter(1.0, 0.0), 1.0, -1.0)


def _leaves(doc: dict, prefix: str = ""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


# Each float leaf of DEFAULT_CONFIG takes its default, a range edge or an extreme float.
DEFAULTS = dict(_leaves(DEFAULT_CONFIG))
FLOAT_LEAVES = sorted(key for key, value in DEFAULTS.items() if type(value) is float)
OTHER_LEAVES = {
    "task": st.sampled_from([t.value for t in TaskKind] + ["Isotope"]),
    "arch": st.sampled_from([*ARCHS, "conv"]),
    "scenario": st.sampled_from([None, *SCENARIO_NAMES]),
    "seed": st.sampled_from([0, 1, 2**32, 2**63, 2**64 - 1, 2**64, -1]),
    "grid.include_background": st.booleans(),
}
# grid.distances_m takes as many of these as the grid has distances.
DISTANCES = (10.0, 20.0, *RANGE_EDGES, *EXTREME_FLOATS)
DRAWN_LEAVES = FLOAT_LEAVES + sorted(OTHER_LEAVES) + ["grid.distances_m"]


def _set(config: dict, key: str, value) -> None:
    *sections, leaf = key.split(".")
    for section in sections:
        config = config.setdefault(section, {})
    config[leaf] = value


@st.composite
def run_configs(draw) -> dict:
    """A run config override: small sizes, a grid of 1-20 cells, and a few drawn leaves."""
    n_channels = draw(st.sampled_from((256, 1024)) | st.integers(1, 1024))
    isotopes = draw(st.lists(st.sampled_from(ISOTOPE_NAMES), min_size=1, max_size=5, unique=True))
    shieldings = draw(st.lists(st.sampled_from(SHIELDING_NAMES), min_size=1, max_size=4,
                               unique=True))
    cells = len(isotopes) * len(shieldings)
    n_distances = draw(st.integers(1, max(1, 20 // cells)))
    config = {
        "detector": {"n_channels": n_channels},
        "rebin": draw(st.sampled_from([d for d in range(1, n_channels + 1) if n_channels % d == 0])),
        "samples_per_config": draw(st.integers(0, 3)),  # 0 is below its range
        "grid": {"isotopes": isotopes, "shieldings": shieldings,
                 "distances_m": [10.0 + 2.0 * k for k in range(n_distances)]},
        "train": {"epochs": draw(st.integers(1, 2)), "width": draw(st.integers(0, 4)),
                  "batch_size": draw(st.none() | st.integers(0, 8))},
    }
    keys = draw(st.lists(st.sampled_from(DRAWN_LEAVES), max_size=3, unique=True))
    for key in keys:
        if key == "grid.distances_m":
            value = draw(st.lists(st.sampled_from(DISTANCES), min_size=n_distances,
                                  max_size=n_distances))
        elif key in OTHER_LEAVES:
            value = draw(OTHER_LEAVES[key])
        else:
            value = draw(st.sampled_from((DEFAULTS[key], *RANGE_EDGES, *EXTREME_FLOATS)))
        _set(config, key, value)
    return config


def cli(*argv) -> int:
    """``gammasort *argv``: exit 0, or exit 2 with exactly one error line on stderr."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([str(a) for a in argv])
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert re.fullmatch(r"gammasort: error: [^\n]*\n", err.getvalue()), err.getvalue()
    return code


def assert_finite_dataset(path: Path) -> None:
    ds = read_dataset(path)
    assert np.isfinite(ds.counts).all()
    assert math.isfinite(ds.dwell_s)


def run_pipeline(config: dict, root: Path) -> None:
    """Each command in turn, until one exits 2; what each writes reads back finite."""
    tpl, ds, run_dir = root / "tpl", root / "ds", root / "run"
    config = copy.deepcopy(config)
    config["paths"] = {"train_dataset": str(ds), "test_dataset": str(ds)}
    path = root / "config.json"
    path.write_text(json.dumps(config))
    if cli("synth", "--config", path, "--out", tpl) == 2:
        return
    assert_finite_dataset(tpl)
    if cli("sample", "--config", path, "--templates", tpl, "--out", ds) == 2:
        return
    assert_finite_dataset(ds)
    if cli("train", "--config", path, "--out", run_dir) == 2:
        return
    models = sorted(run_dir.rglob("model.json"))
    assert models
    for model in models:
        params, _ = load_model(model)
        assert np.isfinite(params.flat).all()
        columns = read_metrics_csv(model.parent / "metrics.csv")
        assert all(math.isfinite(v) for column in columns.values() for v in column)
        if cli("eval", "--model", model, "--dataset", ds, "--out", model.parent / "eval") == 0:
            summary = json.loads((model.parent / "eval" / "eval.json").read_text())
            assert math.isfinite(summary["cross_entropy"])
    cli("report", "--run", run_dir, "--out", root / "report")


@given(config=run_configs())
@example(config={"train": {"epochs": 1, "oversample_ratio": 1e300}, "scenario": "gauge",
                 "detector": {"n_channels": 16}, "rebin": 16,
                 "grid": {"isotopes": ["Cesium"], "distances_m": [10.0],
                          "shieldings": ["Steel"]}})
@example(config={"dwell_s": 1e300, "detector": {"n_channels": 8}, "rebin": 8,
                 "grid": {"isotopes": ["Cobalt"], "distances_m": [10.0], "shieldings": ["Bare"]},
                 "train": {"epochs": 1}})
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_run_config_runs_or_exits_2(config):
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(config, Path(tmp))
