import json
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammasort import ensemble, nucleardata, seeding
from gammasort.ensemble import (
    _config_record,
    LabeledDataset,
    TaskKind,
    build_dataset,
    poisson_sample,
    read_dataset,
    rescale,
    sample_dataset,
    stack_templates,
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

    def test_class_index_layout(self, full_grid):
        assert TaskKind.ISOTOPE_ID.class_index(full_grid[0]) == 0
        assert TaskKind.ISOTOPE_ID.n_classes == 5


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
        positives = int((ds.labels == 0).sum())
        assert positives == 11
        assert len(ds) == 220

    def test_every_label_is_a_class_index(self, small_grid):
        ds = build_dataset(small_grid, TaskKind.SHIELDING_ID, DETECTOR, 3, 1.0, seed=2, rebin_factor=4)
        assert ds.labels.shape == (len(ds),) and ds.labels.dtype == np.intp
        assert np.all((ds.labels >= 0) & (ds.labels < TaskKind.SHIELDING_ID.n_classes))

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
    @pytest.mark.parametrize(
        "seed", [17, 2**128 - 1, 2**200 + 3], ids=["17", "2**128-1", "2**200+3"]
    )
    @pytest.mark.parametrize("n_channels", [256, 1024])
    def test_rows_follow_the_per_item_seed_contract(self, small_grid, seed, n_channels):
        factor = DETECTOR.calibration.n_channels // n_channels
        templates = template_dataset(
            small_grid, TaskKind.ISOTOPE_ID, DETECTOR, TEMPLATE_DWELL_S, rebin_factor=factor
        )
        ds = sample_dataset(templates, 3, 2.0, seed=seed)
        assert len(ds) == 3 * len(small_grid)
        for ci in range(len(small_grid)):
            template = Spectrum(
                templates.counts[ci], templates.calibration, templates.dwell_s,
                SpectrumKind.EXPECTED_TEMPLATE,
            )
            for si in range(3):
                expected = poisson_sample(template, 2.0, seeding.derive_seed(seed, ci, si))
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

    @pytest.mark.parametrize("seed, dwell, match", [
        (-1, 1.0, "seed must be a non-negative integer"),
        (1, 0.0, "target dwell 0.0 must be positive"),
        (1, -2.0, "target dwell -2.0 must be positive"),
    ])
    def test_rejects_a_negative_seed_and_a_dwell_that_is_not_positive(
        self, small_grid, seed, dwell, match
    ):
        templates = template_dataset(
            small_grid, TaskKind.ISOTOPE_ID, DETECTOR, TEMPLATE_DWELL_S, rebin_factor=4
        )
        with pytest.raises(ValueError, match=match):
            sample_dataset(templates, 2, dwell, seed=seed)

    def test_the_largest_expected_count_numpy_samples_is_the_bound(self, small_grid):
        # At POISSON_LAM_MAX numpy draws; one step above, it would raise "lam value
        # too large", and sample_dataset names dwell_s instead.
        templates = tiny_dataset([[0.0, ensemble.POISSON_LAM_MAX]], small_grid)
        assert sample_dataset(templates, 1, 1.0, seed=1).counts[0, 0] == 0.0
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(1).poisson(np.nextafter(ensemble.POISSON_LAM_MAX, np.inf))
        with pytest.raises(ValueError, match=r"^dwell_s: at 1.0000000000000002 s the expected "
                                             r"counts reach 9.223e\+18, above the Poisson "
                                             r"sampler's limit of 9.223e\+18$"):
            sample_dataset(templates, 1, np.nextafter(1.0, 2.0), seed=1)

    def test_rejects_realizations_as_templates(self, small_grid):
        ds = build_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, 1, 1.0, seed=1, rebin_factor=4)
        with pytest.raises(ValueError):
            sample_dataset(ds, 1, 1.0, seed=1)

    def test_rescale_matches_template_dataset_at_that_dwell(self, small_grid):
        reference = template_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, TEMPLATE_DWELL_S)
        one = template_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, dwell_s=1.0)
        assert np.array_equal(rescale(reference, 1.0).as_matrix(), one.as_matrix())


class TestLabeledDataset:
    def make(self, counts, kind=SpectrumKind.SAMPLED_REALIZATION, n_channels=4, labels=None):
        counts = np.asarray(counts, dtype=float)
        grid = standard_grid(isotopes=("Cesium",), distances_m=(10.0,), materials=("Bare",))
        labels = np.zeros(len(counts), dtype=int) if labels is None else labels
        cal = EnergyCalibration(0.0, 3000.0, n_channels)
        return LabeledDataset(counts, labels, TaskKind.ISOTOPE_ID, tuple(grid * len(counts)), cal, 1.0, kind)

    def test_matrix_is_a_read_only_copy(self):
        source = np.ones((2, 4))
        ds = self.make(source)
        source[0, 0] = 5.0
        assert ds.as_matrix()[0, 0] == 1.0
        with pytest.raises(ValueError):
            ds.as_matrix()[0, 0] = 2.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

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

    @pytest.mark.parametrize(
        "labels",
        [
            np.tile([1, 0, 0, 0, 0], (2, 1)),  # one-hot rows are not class indices
            [0.0, 1.0],  # a float array
            [0, 5],  # five classes: 5 is out of range
            [-1, 0],
            [0],  # one label for two items
        ],
    )
    def test_labels_must_be_class_indices(self, labels):
        with pytest.raises(ValueError, match="^labels must be "):
            self.make(np.ones((2, 4)), labels=labels)

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
        counts = np.bincount(ds.labels, minlength=5)
        assert counts.tolist() == [44, 44, 44, 44, 44]

    def test_rescaled_to_training_dwell(self, small_grid):
        one = template_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, dwell_s=1.0)
        five = template_dataset(small_grid, TaskKind.ISOTOPE_ID, DETECTOR, dwell_s=5.0)
        assert np.allclose(five.as_matrix(), 5.0 * one.as_matrix(), rtol=1e-12)
        assert one.dwell_s == 1.0


class TestDatasetRoundTrip:
    def test_packed_rows_round_trip(self, tmp_path, small_grid):
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


def tiny_dataset(counts, grid, kind=SpectrumKind.EXPECTED_TEMPLATE):
    """An IsotopeID dataset of ``counts``; item ``i`` comes from ``grid[i % len(grid)]``."""
    counts = np.asarray(counts, dtype=float)
    provenance = [grid[i % len(grid)] for i in range(len(counts))]
    task = TaskKind.ISOTOPE_ID
    labels = [task.class_index(config) for config in provenance]
    cal = EnergyCalibration(0.0, 3000.0, counts.shape[1])
    return LabeledDataset(counts, labels, task, tuple(provenance), cal, 1.0, kind)


SAMPLED = SpectrumKind.SAMPLED_REALIZATION


def assert_round_trip(ds, dtype):
    """``ds`` is written as data.npy of ``dtype``, the same bytes twice, and reads back exactly."""
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        write_dataset(ds, a)
        write_dataset(ds, b)
        assert (a / "data.npy").read_bytes() == (b / "data.npy").read_bytes()
        assert np.load(a / "data.npy").dtype.str == dtype
        back = read_dataset(a)
    assert back.counts.tobytes() == ds.counts.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert [_config_record(c) for c in back.provenance] == [_config_record(c) for c in ds.provenance]


# The largest count of a sampled matrix, and the dtype data.npy stores it in:
# the smallest unsigned type that holds it, else float64.
STORED_DTYPES = [(0, "|u1"), (255, "|u1"), (256, "<u2"), (65535, "<u2"), (65536, "<u4"),
                 (2**32 - 1, "<u4"), (2**32, "<f8"), (2**53, "<f8")]


@given(top_dtype=st.sampled_from(STORED_DTYPES), data=st.data())
@settings(max_examples=60, deadline=None)
def test_sampled_rows_are_stored_in_the_smallest_dtype(small_grid, top_dtype, data):
    top, dtype = top_dtype
    n_items, width = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(st.integers(0, top), min_size=n_items * width,
                               max_size=n_items * width))
    cells[data.draw(st.integers(0, len(cells) - 1))] = top
    assert_round_trip(tiny_dataset(np.reshape(cells, (n_items, width)), small_grid, SAMPLED), dtype)


@pytest.mark.parametrize("counts", [[[-0.0, 1.0, 2.0], [3.0, 0.0, 1.0]], [[0.0], [-0.0]]])
def test_sampled_negative_zero_is_stored_as_float64(small_grid, counts):
    # An unsigned type would store -0.0 as 0, which reads back as +0.0.
    assert_round_trip(tiny_dataset(counts, small_grid, SAMPLED), "<f8")


COUNTS = st.floats(min_value=0.0, max_value=sys.float_info.max, allow_subnormal=True)


@given(st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(COUNTS, min_size=width, max_size=width), min_size=1, max_size=6)
))
@example([[5e-324, 1.7976931348623157e308, 0.1]])
@example([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])  # integer-valued, yet templates stay float64
@settings(max_examples=60, deadline=None)
def test_template_round_trip_is_value_exact(small_grid, rows):
    assert_round_trip(tiny_dataset(rows, small_grid), "<f8")


@st.composite
def npy_corruptions(draw):
    """An edit of data.npy's bytes: cut them short, append bytes, or overwrite one byte."""
    kind = draw(st.sampled_from(["truncate", "append", "overwrite"]))
    if kind == "truncate":
        at = draw(st.integers(0, 10**4))
        return lambda data: data[: at % len(data)]
    if kind == "append":
        extra = draw(st.binary(min_size=1, max_size=16))
        return lambda data: data + extra
    at, value = draw(st.integers(0, 10**4)), draw(st.integers(0, 255))
    return lambda data: data[: at % len(data)] + bytes([value]) + data[at % len(data) + 1 :]


@given(corrupt=npy_corruptions(), kind=st.sampled_from(list(SpectrumKind)))
@example(corrupt=lambda data: data.replace(b"}", b" "), kind=SAMPLED)  # tokenize's TokenError
@example(corrupt=lambda data: data.replace(b"'|u1'", b"'|O1'"), kind=SAMPLED)
@settings(max_examples=120, deadline=None)
def test_corrupt_data_npy_reads_or_names_the_file(small_grid, corrupt, kind):
    """Any edit of data.npy either reads as a well-formed dataset or raises
    ``ValueError`` naming data.npy; never another error, nor a warning."""
    ds = tiny_dataset(np.arange(24.0).reshape(6, 4) % 5, small_grid, kind)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(ds, tmp)
        data = Path(tmp) / "data.npy"
        data.write_bytes(corrupt(data.read_bytes()))
        try:
            back = read_dataset(tmp)
        except ValueError as err:
            assert str(err).startswith(f"{data}: ")
        else:
            assert back.counts.shape == ds.counts.shape


class TestDataRows:
    """A manifest gives a positive n_items, one source index per item, and a data_npy."""

    @pytest.fixture()
    def written(self, tmp_path, small_grid):
        ds = tiny_dataset(np.arange(24.0).reshape(6, 4), small_grid)
        write_dataset(ds, tmp_path)
        return tmp_path, ds

    @pytest.mark.parametrize("entries", [5, 7])
    def test_source_index_length_must_be_n_items(self, written, entries):
        ds_dir, _ = written
        manifest = ds_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["source_index"] = (doc["source_index"] * 2)[:entries]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))}: malformed manifest: "
                           rf"source_index has {entries} entries, n_items is 6$"):
            read_dataset(ds_dir)

    @pytest.mark.parametrize("n_items", [0, -1, "6", 6.0, True])
    def test_n_items_must_be_a_positive_integer(self, written, n_items):
        ds_dir, _ = written
        manifest = ds_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["n_items"] = n_items
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest))}: malformed manifest: .*n_items"):
            read_dataset(ds_dir)

    def test_negative_thickness_keeps_the_manifest_message(self, written):
        ds_dir, _ = written
        manifest = ds_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        steel = next(s for s in doc["sources"] if s["material"] == "Steel")
        steel["thickness_cm"] = -1.0
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            read_dataset(ds_dir)
        assert str(info.value) == (f"{manifest}: malformed manifest: "
                                   "thickness -1.0 cm must be non-negative")

    def test_manifest_without_a_rows_file_names_data_npy(self, written):
        ds_dir, _ = written
        manifest = ds_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["data_npy"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"malformed manifest: missing key 'data_npy'$"):
            read_dataset(ds_dir)

    @pytest.mark.parametrize("at", ["directory", "manifest"])
    def test_dataset_written_before_data_npy_is_refused(self, written, at):
        ds_dir, _ = written
        manifest = ds_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["data_csv"] = doc.pop("data_npy").replace(".npy", ".csv")
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            read_dataset(ds_dir if at == "directory" else manifest)
        assert str(info.value) == (f"{manifest}: a data.csv dataset, written before data.npy; "
                                   "run synth or sample again to rewrite it")

    def test_manifest_naming_both_rows_files_reads_data_npy(self, written):
        ds_dir, ds = written
        manifest = ds_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["data_csv"] = "data.csv"  # no such file: only data.npy is read
        manifest.write_text(json.dumps(doc))
        back = read_dataset(ds_dir)
        assert back.counts.tobytes() == ds.counts.tobytes()
        assert np.array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("n_rows", [5, 7, 506])
    def test_rows_must_number_n_items(self, written, n_rows):
        ds_dir, _ = written
        data = ds_dir / "data.npy"
        rows = np.load(data)
        np.save(data, np.resize(rows, (n_rows, rows.shape[1])))
        message = f": shape ({n_rows}, 5), expected (n_items, 1 + n_channels) = (6, 5)"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(data) + message)}$"):
            read_dataset(ds_dir)

    def test_format_2_0_header_is_refused(self, written):
        # write_dataset writes format 1.0 only; np.save writes 2.0 for headers
        # over 64 KiB, which a data.npy header never is.
        ds_dir, _ = written
        data = ds_dir / "data.npy"
        rows = np.load(data)
        with open(data, "wb") as fh:
            np.lib.format.write_array_header_2_0(fh, np.lib.format.header_data_from_array_1_0(rows))
            fh.write(rows.tobytes())
        assert np.array_equal(np.load(data), rows)  # a valid 2.0 file of the same rows
        with pytest.raises(ValueError) as info:
            read_dataset(ds_dir)
        assert str(info.value) == f"{data}: unsupported .npy format version (2, 0)"

    @pytest.mark.parametrize("label", [5.0, -1.0, 0.5, np.nan, np.inf, -np.inf])
    def test_label_outside_the_classes_names_its_item(self, written, label):
        ds_dir, ds = written
        data = ds_dir / "data.npy"
        rows = np.load(data)
        rows[3, 0] = label
        np.save(data, rows)
        message = f": item 3: label {label:g} outside [0, 5) for task {ds.task.value}"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(data) + message)}$"):
            read_dataset(ds_dir)


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


class TestSeeding:
    def test_derive_seed_is_stable(self):
        assert seeding.derive_seed(1, 2, 3) == seeding.derive_seed(1, 2, 3)
        assert seeding.derive_seed(1, 2, 3) != seeding.derive_seed(1, 3, 2)

    def test_rng_streams_are_independent_per_key(self):
        a = seeding.rng(5, 0).uniform(size=4)
        b = seeding.rng(5, 1).uniform(size=4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [
        0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, seeding.derive_seed(42, 7001), 2**200 + 3,
    ], ids=["0", "1", "2**32-1", "2**32", "2**64", "2**128-1", "derive_seed(42,7001)", "2**200+3"])
    def test_philox_keys_are_the_per_item_stream_keys(self, seed):
        pairs = [(0, 0), (219, 19), (5000, 0), (3, 2**32 - 1), (2**32 - 1, 7)]
        keys = seeding.philox_keys(seed, [ci for ci, _ in pairs], [si for _, si in pairs])
        assert keys.dtype == np.uint64 and keys.shape == (len(pairs), 2)
        for key, (ci, si) in zip(keys, pairs):
            expected = seeding.rng(seeding.derive_seed(seed, ci, si)).bit_generator.state
            assert np.array_equal(key, expected["state"]["key"]), (ci, si)

    def test_keyed_rngs_draw_the_per_item_streams(self):
        keys = seeding.philox_keys(7, [0, 1, 0], [0, 0, 1])
        draws = [g.uniform(size=5) for g in seeding.keyed_rngs(keys)]
        for got, (ci, si) in zip(draws, [(0, 0), (1, 0), (0, 1)]):
            assert np.array_equal(got, seeding.rng(seeding.derive_seed(7, ci, si)).uniform(size=5))

    @pytest.mark.parametrize("seed, ci, si, match", [
        (-3, [0], [0], "seed must be a non-negative integer, got -3"),
        (1, [2**32], [0], "subkeys must be below 2..32"),
        (1, [0, 1], [0], "not one length"),
    ])
    def test_philox_keys_refuses_what_has_no_per_item_stream(self, seed, ci, si, match):
        with pytest.raises(ValueError, match=match):
            seeding.philox_keys(seed, ci, si)


class TestZeroRateChannels:
    def test_items_are_the_poisson_sample_of_the_item_stream(self, small_grid):
        # Zero-rate channels between nonzero ones, and a template with no counts at all.
        rates = np.random.default_rng(5).gamma(0.5, 20.0, size=(len(small_grid), 64))
        rates[:, 1::3] = 0.0
        rates[:, 40:50] = 0.0
        rates[3] = 0.0
        cal = EnergyCalibration(0.0, 3000.0, 64)
        templates = stack_templates(rates, cal, 10.0, small_grid, TaskKind.ISOTOPE_ID)
        ds = sample_dataset(templates, 4, 2.5, seed=31)
        for item, (ci, si) in enumerate((ci, si) for ci in range(len(small_grid)) for si in range(4)):
            template = Spectrum(rates[ci], cal, 10.0, SpectrumKind.EXPECTED_TEMPLATE)
            expected = poisson_sample(template, 2.5, seeding.derive_seed(31, ci, si))
            assert ds.counts[item].tobytes() == expected.counts.tobytes()
        assert not ds.counts[12:16].any() and ds.counts.any()

    def test_the_drawn_matrix_is_kept_read_only(self, small_grid):
        rates = np.full((len(small_grid), 8), 3.0)
        cal = EnergyCalibration(0.0, 3000.0, 8)
        templates = stack_templates(rates, cal, 1.0, small_grid, TaskKind.ISOTOPE_ID)
        ds = sample_dataset(templates, 2, 1.0, seed=2)
        assert ds.counts.base is None and not ds.counts.flags.writeable


# cli_1024's dataset size: 220 templates, 20 items each, over 1024 channels.
LARGE_SAMPLES = 20


@pytest.fixture(scope="module")
def large_templates(full_grid):
    rates = np.random.default_rng(11).gamma(0.2, 2.0, size=(len(full_grid), 1024))
    rates[:, ::2] = 0.0
    cal = EnergyCalibration(0.0, 3000.0, 1024)
    return stack_templates(rates, cal, 1.0, full_grid, TaskKind.ISOTOPE_ID)


@pytest.fixture(scope="module")
def large_written(large_templates, tmp_path_factory):
    ds = sample_dataset(large_templates, LARGE_SAMPLES, 1.0, seed=12)
    return ds, write_dataset(ds, tmp_path_factory.mktemp("large"))


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneCopyOfTheCounts:
    """A producer's matrix becomes the dataset's: the counts exist once, not twice."""

    def test_sampling_allocates_the_counts_once(self, large_templates):
        ds, peak = traced_peak(sample_dataset, large_templates, LARGE_SAMPLES, 1.0, 12)
        assert ds.counts.shape == (4400, 1024)
        assert peak <= 1.25 * ds.counts.nbytes

    def test_reading_allocates_the_counts_once(self, large_written):
        _, manifest = large_written
        ds, peak = traced_peak(read_dataset, manifest)
        assert ds.counts.shape == (4400, 1024)
        assert peak <= 1.25 * ds.counts.nbytes

    def test_subset_allocates_the_counts_once(self, large_written):
        ds = large_written[0]
        part, peak = traced_peak(ds.subset, np.arange(len(ds)))
        assert part.counts.tobytes() == ds.counts.tobytes()
        assert peak <= 1.25 * part.counts.nbytes

    def test_rescale_allocates_the_counts_once(self, large_templates):
        ds, peak = traced_peak(rescale, large_templates, 2.0)
        assert ds.counts.tobytes() == (large_templates.counts * 2.0).tobytes()
        assert peak <= 1.25 * ds.counts.nbytes

    def test_rescale_to_the_same_dwell_returns_the_templates(self, large_templates):
        assert rescale(large_templates, large_templates.dwell_s) is large_templates

    def test_read_counts_are_a_read_only_view_of_the_parsed_rows(self, large_written):
        ds = read_dataset(large_written[1])
        assert ds.counts.base.shape == (4400, 1025) and not ds.counts.base.flags.writeable

    def test_round_trip_is_bit_for_bit(self, large_written):
        ds, manifest = large_written
        back = read_dataset(manifest)
        assert back.counts.tobytes() == ds.counts.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
        records = [list(map(_config_record, d.provenance)) for d in (back, ds)]
        assert records[0] == records[1]
        assert (back.calibration, back.dwell_s, back.kind) == (ds.calibration, ds.dwell_s, ds.kind)
