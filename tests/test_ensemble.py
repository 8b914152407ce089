import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammasort import nucleardata, seeding
from gammasort.cli import _read_templates_manifest
from gammasort.ensemble import (
    _config_record,
    LabeledDataset,
    TaskKind,
    build_dataset,
    poisson_sample,
    read_dataset,
    rescale,
    sample_dataset,
    split,
    standard_grid,
    template_dataset,
    write_dataset,
)
from gammasort.forward_model import TEMPLATE_DWELL_S, default_detector
from gammasort.spectra import EnergyCalibration, Spectrum, SpectrumKind, total_counts

DETECTOR = default_detector()


def flat_template(lam, n_channels=64, dwell=1.0):
    cal = EnergyCalibration(0.0, 3000.0, n_channels)
    return Spectrum(np.full(n_channels, lam), cal, dwell, SpectrumKind.EXPECTED_TEMPLATE)


@pytest.fixture(scope="module")
def small_grid():
    return standard_grid(
        isotopes=("Cesium", "Cobalt"),
        distances_m=(10.0, 14.0, 20.0),
        materials=("Bare", "Steel"),
    )


@pytest.fixture(scope="module")
def full_grid():
    return standard_grid()


class TestTaskKind:
    def test_class_counts(self):
        assert TaskKind.ISOTOPE_ID.n_classes == 5
        assert TaskKind.SHIELDING_ID.n_classes == 4
        assert TaskKind.GAUGE_BINARY.n_classes == 2

    def test_gauge_positive_is_cesium_and_steel(self, full_grid):
        positives = [c for c in full_grid if TaskKind.GAUGE_BINARY.class_index(c) == 0]
        assert len(positives) == 11
        assert all(
            c.isotope.name == "Cesium" and c.shielding.material.value == "Steel"
            for c in positives
        )

    def test_cesium_in_other_shieldings_is_a_confuser(self, full_grid):
        confusers = [
            c
            for c in full_grid
            if c.isotope.name == "Cesium" and TaskKind.GAUGE_BINARY.class_index(c) == 1
        ]
        assert len(confusers) == 33  # 11 distances x 3 other shieldings

    def test_one_hot_layout(self, full_grid):
        label = TaskKind.ISOTOPE_ID.one_hot(full_grid[0])
        assert label.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


class TestPoissonSample:
    def test_zero_template_gives_zero_realization(self):
        for seed in (0, 1, 99):
            out = poisson_sample(flat_template(0.0), 1.0, seed)
            assert total_counts(out) == 0.0

    def test_same_seed_is_bit_identical(self):
        template = flat_template(7.5)
        a = poisson_sample(template, 1.0, 1234)
        b = poisson_sample(template, 1.0, 1234)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        template = flat_template(7.5)
        a = poisson_sample(template, 1.0, 1)
        b = poisson_sample(template, 1.0, 2)
        assert not np.array_equal(a.counts, b.counts)

    def test_kind_and_dwell_of_output(self):
        out = poisson_sample(flat_template(3.0, dwell=86400.0), 2.0, 5)
        assert out.kind is SpectrumKind.SAMPLED_REALIZATION
        assert out.dwell_s == 2.0

    def test_rejects_non_template_input(self):
        realization = poisson_sample(flat_template(3.0), 1.0, 5)
        with pytest.raises(ValueError):
            poisson_sample(realization, 1.0, 5)

    def test_monte_carlo_mean_of_lambda_five(self):
        # 10,000 independent channels at lambda = 5
        draws = poisson_sample(flat_template(5.0, n_channels=10_000), 1.0, 777).counts
        assert abs(draws.mean() - 5.0) <= 3.0 * np.sqrt(5.0 / 10_000)

    def test_fano_factor_near_one(self):
        for lam in (5.0, 50.0):
            draws = poisson_sample(flat_template(lam, n_channels=10_000), 1.0, 88).counts
            fano = draws.var() / draws.mean()
            assert 0.9 <= fano <= 1.1

    def test_dwell_rescaling_matches_equivalent_physics(self):
        # same source described at different template dwells: identical moments
        short = flat_template(6.0, n_channels=20_000, dwell=1.0)
        long = flat_template(6.0 * 24.0, n_channels=20_000, dwell=24.0)
        a = poisson_sample(short, 1.0, 31).counts
        b = poisson_sample(long, 1.0, 32).counts
        assert abs(a.mean() - b.mean()) <= 3.0 * np.sqrt(2 * 6.0 / 20_000)
        assert abs(a.var() / a.mean() - b.var() / b.mean()) < 0.1


class TestBuildDataset:
    def test_full_grid_item_count(self, full_grid):
        ds = build_dataset(full_grid, TaskKind.ISOTOPE_ID, DETECTOR, 10, 1.0, seed=1, rebin_factor=4)
        assert len(ds) == 2200

    def test_zero_samples_rejected(self, small_grid):
        with pytest.raises(ValueError):
            build_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, 0, 1.0, seed=1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            build_dataset([], TaskKind.ISOTOPE_ID, DETECTOR, 1, 1.0, seed=1)

    def test_gauge_label_fraction(self, full_grid):
        ds = build_dataset(full_grid, TaskKind.GAUGE_BINARY, DETECTOR, 1, 1.0, seed=1, rebin_factor=4)
        positives = int((ds.label_indices() == 0).sum())
        assert positives == 11
        assert len(ds) == 220

    def test_every_label_is_one_hot(self, small_grid):
        ds = build_dataset(small_grid, TaskKind.SHIELDING_ID, DETECTOR, 3, 1.0, seed=2, rebin_factor=4)
        assert np.all(ds.labels.sum(axis=1) == 1.0)
        assert np.all((ds.labels == 0.0) | (ds.labels == 1.0))

    def test_deterministic_per_seed(self, small_grid):
        a = build_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, 2, 1.0, seed=9, rebin_factor=4)
        b = build_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, 2, 1.0, seed=9, rebin_factor=4)
        assert np.array_equal(a.as_matrix(), b.as_matrix())

    def test_items_are_integer_realizations(self, small_grid):
        ds = build_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, 2, 1.0, seed=3, rebin_factor=4)
        m = ds.as_matrix()
        assert np.all(m == np.floor(m))
        assert ds.kind is SpectrumKind.SAMPLED_REALIZATION


class TestSampleDataset:
    def test_rows_follow_the_per_item_seed_contract(self, small_grid):
        templates = template_dataset(
            small_grid, TaskKind.ISOTOPE_ID, DETECTOR, TEMPLATE_DWELL_S, rebin_factor=4
        )
        ds = sample_dataset(templates, 3, 2.0, seed=17)
        assert len(ds) == 3 * len(small_grid)
        for ci in range(len(small_grid)):
            template = Spectrum(
                templates.counts[ci], templates.calibration, templates.dwell_s,
                SpectrumKind.EXPECTED_TEMPLATE,
            )
            for si in range(3):
                expected = poisson_sample(template, 2.0, seeding.derive_seed(17, ci, si))
                assert np.array_equal(ds.counts[3 * ci + si], expected.counts)
                assert ds.provenance[3 * ci + si] is small_grid[ci]
        assert ds.dwell_s == 2.0

    def test_build_dataset_samples_the_reference_templates(self, small_grid):
        templates = template_dataset(
            small_grid, TaskKind.GAUGE_BINARY, DETECTOR, TEMPLATE_DWELL_S, rebin_factor=4
        )
        direct = build_dataset(small_grid, TaskKind.GAUGE_BINARY, DETECTOR, 2, 1.0, seed=4, rebin_factor=4)
        via = sample_dataset(templates, 2, 1.0, seed=4)
        assert np.array_equal(direct.as_matrix(), via.as_matrix())
        assert np.array_equal(direct.labels, via.labels)

    def test_rejects_realizations_as_templates(self, small_grid):
        ds = build_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, 1, 1.0, seed=1, rebin_factor=4)
        with pytest.raises(ValueError):
            sample_dataset(ds, 1, 1.0, seed=1)

    def test_rescale_matches_template_dataset_at_that_dwell(self, small_grid):
        reference = template_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, TEMPLATE_DWELL_S)
        one = template_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, dwell_s=1.0)
        assert np.array_equal(rescale(reference, 1.0).as_matrix(), one.as_matrix())


class TestLabeledDataset:
    def make(self, counts, kind=SpectrumKind.SAMPLED_REALIZATION, n_channels=4):
        counts = np.asarray(counts, dtype=float)
        grid = standard_grid(isotopes=("Cesium",), distances_m=(10.0,), materials=("Bare",))
        labels = np.tile([1.0, 0.0, 0.0, 0.0, 0.0], (len(counts), 1))
        cal = EnergyCalibration(0.0, 3000.0, n_channels)
        return LabeledDataset(counts, labels, TaskKind.ISOTOPE_ID, tuple(grid * len(counts)), cal, 1.0, kind)

    def test_matrix_is_a_read_only_copy(self):
        source = np.ones((2, 4))
        ds = self.make(source)
        source[0, 0] = 5.0
        assert ds.as_matrix()[0, 0] == 1.0
        with pytest.raises(ValueError):
            ds.as_matrix()[0, 0] = 2.0

    @pytest.mark.parametrize(
        "counts",
        [
            [[1.0, 2.0, 3.0, 4.5]],  # a sampled realization must be integer-valued
            [[1.0, -1.0, 0.0, 0.0]],
            [[1.0, np.nan, 0.0, 0.0]],
            [[1.0, 2.0, 3.0]],  # three columns for four channels
            np.zeros((0, 4)),
        ],
    )
    def test_whole_matrix_validation(self, counts):
        with pytest.raises(ValueError):
            self.make(counts)

    def test_templates_may_hold_fractional_counts(self):
        assert len(self.make([[0.5, 1.5, 0.0, 2.0]], kind=SpectrumKind.EXPECTED_TEMPLATE)) == 1


class TestTemplateDataset:
    def test_one_item_per_config(self, full_grid):
        ds = template_dataset(full_grid, TaskKind.ISOTOPE_ID, DETECTOR, rebin_factor=4)
        assert len(ds) == 220

    def test_every_item_is_a_template(self, small_grid):
        ds = template_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, rebin_factor=4)
        assert ds.kind is SpectrumKind.EXPECTED_TEMPLATE

    def test_isotope_labels_are_balanced(self, full_grid):
        ds = template_dataset(full_grid, TaskKind.ISOTOPE_ID, DETECTOR, rebin_factor=4)
        counts = np.bincount(ds.label_indices(), minlength=5)
        assert counts.tolist() == [44, 44, 44, 44, 44]

    def test_rescaled_to_training_dwell(self, small_grid):
        one = template_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, dwell_s=1.0)
        five = template_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, dwell_s=5.0)
        assert np.allclose(five.as_matrix(), 5.0 * one.as_matrix(), rtol=1e-12)
        assert one.dwell_s == 1.0


class TestSplit:
    def make_dataset(self, n):
        cal = EnergyCalibration(0.0, 3000.0, 8)
        grid = standard_grid(isotopes=("Cesium",), distances_m=(10.0,), materials=("Bare",))
        counts = np.repeat(np.arange(n, dtype=float)[:, None], 8, axis=1)
        labels = np.tile([1.0, 0.0, 0.0, 0.0, 0.0], (n, 1))
        return LabeledDataset(
            counts, labels, TaskKind.ISOTOPE_ID, tuple(grid * n), cal, 1.0,
            SpectrumKind.EXPECTED_TEMPLATE,
        )

    def test_eighty_twenty(self):
        train, test = split(self.make_dataset(100), 0.8, seed=1)
        assert (len(train), len(test)) == (80, 20)

    def test_partition_preserves_multiset(self):
        ds = self.make_dataset(30)
        train, test = split(ds, 0.7, seed=5)
        combined = sorted(
            np.concatenate([train.as_matrix()[:, 0], test.as_matrix()[:, 0]]).tolist()
        )
        assert combined == [float(i) for i in range(30)]

    def test_same_seed_same_partition(self):
        ds = self.make_dataset(25)
        a_train, _ = split(ds, 0.6, seed=3)
        b_train, _ = split(ds, 0.6, seed=3)
        assert np.array_equal(a_train.as_matrix(), b_train.as_matrix())

    def test_empty_side_rejected(self):
        # floor sizing can only empty the train side; fractions at or beyond
        # the endpoints are rejected outright
        ds = self.make_dataset(3)
        with pytest.raises(ValueError):
            split(ds, 0.01, seed=1)
        with pytest.raises(ValueError):
            split(ds, 1.0, seed=1)
        with pytest.raises(ValueError):
            split(ds, 0.0, seed=1)


class TestDatasetRoundTrip:
    def test_packed_csv_round_trip(self, tmp_path, small_grid):
        ds = build_dataset(small_grid, TaskKind.GAUGE_BINARY, DETECTOR, 2, 1.0, seed=11, rebin_factor=4)
        write_dataset(ds, tmp_path / "ds", extra={"seed": 11})
        back = read_dataset(tmp_path / "ds")
        assert np.array_equal(back.as_matrix(), ds.as_matrix())
        assert np.array_equal(back.labels, ds.labels)
        assert back.task is ds.task
        assert back.calibration == ds.calibration
        assert back.dwell_s == ds.dwell_s
        assert [c.isotope.name for c in back.provenance] == [
            c.isotope.name for c in ds.provenance
        ]

    def test_manifest_records_seed(self, tmp_path, small_grid):
        import json

        ds = build_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, 1, 1.0, seed=42, rebin_factor=4)
        manifest_path = write_dataset(ds, tmp_path / "ds", extra={"seed": 42})
        manifest = json.loads(manifest_path.read_text())
        assert manifest["seed"] == 42
        assert manifest["n_items"] == len(ds)

    def test_manifest_lists_each_source_once(self, tmp_path, small_grid):
        import json

        ds = build_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, 3, 1.0, seed=8, rebin_factor=4)
        manifest = json.loads(write_dataset(ds, tmp_path / "ds").read_text())
        assert len(manifest["sources"]) == len(small_grid)
        assert manifest["source_index"] == [ci for ci in range(len(small_grid)) for _ in range(3)]
        back = read_dataset(tmp_path / "ds")
        assert back.provenance[0] is back.provenance[2]
        def cells(d):
            return [
                (c.isotope.name, c.distance_m, c.shielding.material, c.shielding.thickness_cm)
                for c in d.provenance
            ]

        assert cells(back) == cells(ds)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_dataset(tmp_path / "nope")


def tiny_dataset(counts, grid):
    """An IsotopeID template dataset of ``counts``; item ``i`` comes from ``grid[i % len(grid)]``."""
    counts = np.asarray(counts, dtype=float)
    provenance = [grid[i % len(grid)] for i in range(len(counts))]
    task = TaskKind.ISOTOPE_ID
    labels = np.stack([task.one_hot(config) for config in provenance])
    cal = EnergyCalibration(0.0, 3000.0, counts.shape[1])
    return LabeledDataset(
        counts, labels, task, tuple(provenance), cal, 1.0, SpectrumKind.EXPECTED_TEMPLATE
    )


COUNTS = st.floats(min_value=0.0, max_value=sys.float_info.max, allow_subnormal=True)


@given(st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(COUNTS, min_size=width, max_size=width), min_size=1, max_size=6)
))
@example([[5e-324, 1.7976931348623157e308, 0.1]])
@settings(max_examples=60, deadline=None)
def test_dataset_round_trip_is_value_exact(small_grid, rows):
    ds = tiny_dataset(rows, small_grid)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(ds, tmp)
        back = read_dataset(tmp)
    assert back.counts.tobytes() == ds.counts.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert [_config_record(c) for c in back.provenance] == [_config_record(c) for c in ds.provenance]


# No text starts with "#": that would turn the first row into a comment line.
NOT_A_NUMBER = st.sampled_from(["x", "", "1.0.0", "1_0", "0x1f", "--1", "1e", "1#"])


@st.composite
def corruptions(draw):
    """(row, edit) for one data.csv line: a cell that is not a number, a dropped
    cell, an extra cell, or a label that is not a class index."""
    row = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["not_a_number", "drop", "extra", "label"]))
    if kind == "not_a_number":
        column, text = draw(st.integers(0, 4)), draw(NOT_A_NUMBER)
        return row, lambda cells: cells[:column] + [text] + cells[column + 1 :]
    if kind == "drop":
        column = draw(st.integers(0, 4))
        return row, lambda cells: cells[:column] + cells[column + 1 :]
    if kind == "extra":
        column, text = draw(st.integers(0, 5)), draw(st.sampled_from(["0", "1.5", "x"]))
        return row, lambda cells: cells[:column] + [text] + cells[column:]
    label = draw(st.one_of(st.integers(5, 10**6), st.integers(-(10**6), -1),
                           st.sampled_from([0.5, 2.25, float("nan"), float("inf")])))
    return row, lambda cells: [repr(label) if isinstance(label, float) else str(label)] + cells[1:]


@given(corruptions())
@settings(max_examples=80, deadline=None)
def test_corrupt_data_row_names_its_line(small_grid, corruption):
    row, edit = corruption
    ds = tiny_dataset(np.arange(24.0).reshape(6, 4), small_grid)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(ds, tmp)
        data = Path(tmp) / "data.csv"
        lines = data.read_text().splitlines()
        lines[row] = ",".join(edit(lines[row].split(",")))
        data.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_dataset(tmp)
    assert str(info.value).startswith(f"{data}:{row + 1}: ")


class TestTableLoads:
    """Reading a manifest builds each distinct isotope and shielding once."""

    @pytest.fixture()
    def loads(self, monkeypatch):
        calls = []
        for name in ("load_nuclide_lines", "load_attenuation_table"):
            original = getattr(nucleardata, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(nucleardata, name, counted)
        return calls

    def test_reading_a_220_source_dataset(self, tmp_path, full_grid, loads):
        ds = tiny_dataset(np.ones((len(full_grid), 2)), full_grid)
        write_dataset(ds, tmp_path)
        back = read_dataset(tmp_path)
        assert len(loads) <= 8
        assert [_config_record(c) for c in back.provenance] == [
            _config_record(c) for c in full_grid
        ]

    def test_reading_a_220_source_templates_manifest(self, tmp_path, full_grid, loads):
        entries = [{"path": f"t{i}.csv", **_config_record(c)} for i, c in enumerate(full_grid)]
        manifest = tmp_path / "templates_manifest.json"
        manifest.write_text(json.dumps({"templates": entries}))
        _, sources = _read_templates_manifest(manifest)
        assert len(loads) <= 8
        assert [_config_record(c) for c in sources] == [_config_record(c) for c in full_grid]


class TestSeeding:
    def test_derive_seed_is_stable(self):
        assert seeding.derive_seed(1, 2, 3) == seeding.derive_seed(1, 2, 3)
        assert seeding.derive_seed(1, 2, 3) != seeding.derive_seed(1, 3, 2)

    def test_rng_streams_are_independent_per_key(self):
        a = seeding.rng(5, 0).uniform(size=4)
        b = seeding.rng(5, 1).uniform(size=4)
        assert not np.array_equal(a, b)
