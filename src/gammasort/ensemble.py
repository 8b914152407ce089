"""Poisson ensembles and labeled datasets for the three classification tasks.

Templates carry expected counts at a long reference dwell; short-dwell test
spectra are per-channel Poisson draws scaled to the target dwell.  Every item
seed derives from (master seed, config index, sample index), so dataset
construction is reproducible and order-independent.
"""

from __future__ import annotations

import tokenize
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import seeding
from .forward_model import (
    DEFAULT_ACTIVITY_BQ,
    DEFAULT_BACKGROUND_CPS,
    TEMPLATE_DWELL_S,
    DetectorModel,
    ShieldMaterial,
    SourceConfig,
    default_shielding,
    isotope_by_name,
    template_matrix,
)
from .jsonfile import checked, read_json, write_json
from .neuralnet import checked_labels
from .spectra import (
    EnergyCalibration,
    Spectrum,
    SpectrumKind,
    checked_counts,
    rebin_counts,
)

ISOTOPE_NAMES = ("Cesium", "Cobalt", "Barium", "Selenium", "Iridium")
SHIELDING_NAMES = tuple(m.value for m in ShieldMaterial)
DEFAULT_DISTANCES_M = tuple(float(d) for d in range(10, 21))


class TaskKind(Enum):
    """Which label a spectrum carries: source isotope, shield material, or
    the surrogate industrial-gauge flag (Cesium behind steel vs anything else)."""

    ISOTOPE_ID = "IsotopeID"
    SHIELDING_ID = "ShieldingID"
    GAUGE_BINARY = "GaugeBinary"

    @property
    def class_names(self) -> tuple[str, ...]:
        if self is TaskKind.ISOTOPE_ID:
            return ISOTOPE_NAMES
        if self is TaskKind.SHIELDING_ID:
            return SHIELDING_NAMES
        return ("CesiumSteel", "NotCesiumSteel")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_index(self, config: SourceConfig) -> int:
        """Class of one source configuration under this task."""
        if self is TaskKind.ISOTOPE_ID:
            name = config.isotope.name
            if name not in ISOTOPE_NAMES:
                raise ValueError(f"isotope {name!r} is not an IsotopeID class")
            return ISOTOPE_NAMES.index(name)
        if self is TaskKind.SHIELDING_ID:
            return SHIELDING_NAMES.index(config.shielding.material.value)
        is_gauge = (
            config.isotope.name == "Cesium"
            and config.shielding.material is ShieldMaterial.STEEL
        )
        return 0 if is_gauge else 1


@dataclass(frozen=True)
class LabeledDataset:
    """An (n_items, n_channels) counts matrix and each item's class index under ``task``.

    Calibration, dwell and spectrum kind are shared by every item; each item
    keeps the source configuration it was drawn from as provenance.  Counts
    (checked by :func:`spectra.checked_counts`) and labels (checked by
    :func:`neuralnet.checked_labels`) are read-only.  Labels are copied;
    counts are copied unless frozen, so a producer that freezes the matrix
    it built (``setflags(write=False)``) hands that matrix over and the
    dataset keeps the only copy.
    """

    counts: np.ndarray
    labels: np.ndarray
    task: TaskKind
    provenance: tuple[SourceConfig, ...]
    calibration: EnergyCalibration
    dwell_s: float
    kind: SpectrumKind

    def __post_init__(self):
        counts = checked_counts(self.counts, 2, self.n_channels, self.kind, self.dwell_s)
        labels = checked_labels(self.labels, counts.shape[0], self.task.n_classes)
        if len(self.provenance) != len(labels):
            raise ValueError("provenance must align with the counts rows")
        labels.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def n_channels(self) -> int:
        return self.calibration.n_channels

    def as_matrix(self) -> np.ndarray:
        """(n_items, n_channels) float64 matrix of counts (read-only)."""
        return self.counts

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=np.intp)
        counts = self.counts[indices]
        counts.setflags(write=False)  # handed to the new dataset, not copied
        return replace(
            self,
            counts=counts,
            labels=self.labels[indices],
            provenance=tuple(self.provenance[i] for i in indices),
        )


def standard_grid(
    isotopes=ISOTOPE_NAMES,
    distances_m=DEFAULT_DISTANCES_M,
    materials=SHIELDING_NAMES,
    activity_bq: float = DEFAULT_ACTIVITY_BQ,
    include_background: bool = False,
) -> list[SourceConfig]:
    """The full source/distance/shielding variation grid (default 5 x 11 x 4)."""
    shieldings = {name: default_shielding(name) for name in materials}
    grid = []
    for name in isotopes:
        isotope = isotope_by_name(name)
        for distance in distances_m:
            for material in materials:
                grid.append(
                    SourceConfig(
                        isotope=isotope,
                        activity_bq=activity_bq,
                        distance_m=float(distance),
                        shielding=shieldings[material],
                        include_background=include_background,
                    )
                )
    return grid


# The largest mean numpy's Poisson sampler draws from; above it, it raises
# "lam value too large".
POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def poisson_sample(template: Spectrum, target_dwell_s: float, seed: int) -> Spectrum:
    """One finite-dwell realization of a template.

    Each channel draws independently from Poisson(counts * target/template
    dwell) on a Philox stream keyed by ``seed``; identical seeds reproduce
    the realization bit for bit.
    """
    if template.kind is not SpectrumKind.EXPECTED_TEMPLATE:
        raise ValueError("can only Poisson-sample an expected-count template")
    if not target_dwell_s > 0:
        raise ValueError(f"target dwell {target_dwell_s} must be positive")
    lam = template.counts * (target_dwell_s / template.dwell_s)
    draws = seeding.rng(seed).poisson(lam).astype(np.float64)
    return Spectrum(draws, template.calibration, target_dwell_s, SpectrumKind.SAMPLED_REALIZATION)


def stack_templates(
    counts: np.ndarray,
    calibration: EnergyCalibration,
    dwell_s: float,
    grid: list[SourceConfig],
    task: TaskKind,
) -> LabeledDataset:
    """Template dataset from the expected-count matrix of ``grid``, one row per cell."""
    if not grid:
        raise ValueError("source grid is empty")
    labels = [task.class_index(config) for config in grid]
    return LabeledDataset(
        counts, labels, task, tuple(grid), calibration, dwell_s, SpectrumKind.EXPECTED_TEMPLATE
    )


def rescale(templates: LabeledDataset, dwell_s: float) -> LabeledDataset:
    """The same expected-count templates at another dwell (counts scale linearly).

    At the templates' own dwell the templates themselves are returned:
    scaling by 1.0 would give the same bits.
    """
    if dwell_s == templates.dwell_s:
        return templates
    counts = templates.counts * (dwell_s / templates.dwell_s)
    counts.setflags(write=False)  # handed to the new dataset, not copied
    return replace(templates, counts=counts, dwell_s=dwell_s)


def sample_dataset(
    templates: LabeledDataset, samples_per_config: int, dwell_s: float, seed: int
) -> LabeledDataset:
    """Poisson-sampled ensemble: ``samples_per_config`` realizations per template.

    Item ``si`` of template ``ci`` draws on the stream of
    ``derive_seed(seed, ci, si)``, exactly as :func:`poisson_sample` would,
    so every item is independent of the others and of the build order.  The
    stream keys of all items are computed at once by :func:`seeding.philox_keys`.
    Only channels of nonzero rate are drawn: a rate of 0 draws 0 without
    taking from the stream, so the items are the same bits.  The matrix
    drawn into is frozen and handed to the dataset, not copied.  A dwell that
    takes an expected count above ``POISSON_LAM_MAX`` raises ``ValueError``
    naming ``dwell_s``.
    """
    if templates.kind is not SpectrumKind.EXPECTED_TEMPLATE:
        raise ValueError("can only Poisson-sample expected-count templates")
    if samples_per_config < 1:
        raise ValueError("samples_per_config must be at least 1 (empty dataset rejected)")
    if not dwell_s > 0:
        raise ValueError(f"target dwell {dwell_s} must be positive")
    lam = templates.counts * (dwell_s / templates.dwell_s)
    if not np.max(lam, initial=0.0) <= POISSON_LAM_MAX:
        raise ValueError(
            f"dwell_s: at {dwell_s} s the expected counts reach {np.max(lam):.4g}, above "
            f"the Poisson sampler's limit of {POISSON_LAM_MAX:.4g}"
        )
    rows = np.repeat(np.arange(len(templates)), samples_per_config)
    sample_index = np.tile(np.arange(samples_per_config), len(templates))
    keys = seeding.philox_keys(seed, rows, sample_index)
    live = [np.flatnonzero(rates) for rates in lam]
    live_lam = [rates[channels] for rates, channels in zip(lam, live)]
    counts = np.zeros((rows.size, templates.n_channels))
    for item, (ci, generator) in enumerate(zip(rows, seeding.keyed_rngs(keys))):
        counts[item, live[ci]] = generator.poisson(live_lam[ci])
    counts.setflags(write=False)
    return LabeledDataset(
        counts,
        templates.labels[rows],
        templates.task,
        tuple(templates.provenance[ci] for ci in rows),
        templates.calibration,
        dwell_s,
        SpectrumKind.SAMPLED_REALIZATION,
    )


def build_dataset(
    grid: list[SourceConfig],
    task: TaskKind,
    detector: DetectorModel,
    samples_per_config: int,
    dwell_s: float,
    seed: int,
    rebin_factor: int = 1,
    background_cps: float = DEFAULT_BACKGROUND_CPS,
) -> LabeledDataset:
    """Poisson-sampled ensemble: ``samples_per_config`` realizations per grid cell."""
    templates = template_dataset(
        grid, task, detector, TEMPLATE_DWELL_S, rebin_factor, background_cps
    )
    return sample_dataset(templates, samples_per_config, dwell_s, seed)


def template_dataset(
    grid: list[SourceConfig],
    task: TaskKind,
    detector: DetectorModel,
    dwell_s: float = 1.0,
    rebin_factor: int = 1,
    background_cps: float = DEFAULT_BACKGROUND_CPS,
) -> LabeledDataset:
    """Noise-free dataset: one rescaled expected-count template per grid cell."""
    counts, cal = rebin_counts(
        template_matrix(grid, detector, TEMPLATE_DWELL_S, background_cps),
        detector.calibration,
        rebin_factor,
    )
    counts.setflags(write=False)  # handed to the dataset, not copied
    return rescale(stack_templates(counts, cal, TEMPLATE_DWELL_S, grid, task), dwell_s)


# The keys :func:`read_dataset` reads from a dataset manifest.
DATASET_MANIFEST = {
    "task": "", "kind": "", "n_items": 0, "dwell_s": 0.0,
    "calibration": {"e_min": 0.0, "e_max": 0.0, "n_channels": 0},
    "sources": [{"isotope": "", "activity_bq": 0.0, "distance_m": 0.0, "material": "",
                 "thickness_cm": 0.0, "include_background": False}],
    "source_index": [0],
    "data_npy": "",
}


# The dtypes of data.npy: the smallest unsigned type that holds a sampled
# matrix, or float64.
_NPY_DTYPES = tuple(np.dtype(d) for d in ("<u1", "<u2", "<u4", "<f8"))
# Values per block of data.npy rows written or read: the block's temporaries
# stay small beside the counts matrix.
_NPY_BLOCK_VALUES = 65536


def _config_record(config: SourceConfig) -> dict:
    return {
        "isotope": config.isotope.name,
        "activity_bq": config.activity_bq,
        "distance_m": config.distance_m,
        "material": config.shielding.material.value,
        "thickness_cm": config.shielding.thickness_cm,
        "include_background": config.include_background,
    }


def _config_from_record(record: dict, built: dict) -> SourceConfig:
    # ``built`` keeps one manifest's isotopes and shieldings: each table is read once.
    name, material = record["isotope"], record["material"]
    thickness = None if material == "Bare" else record["thickness_cm"]
    if name not in built:
        built[name] = isotope_by_name(name)
    if (material, thickness) not in built:
        built[material, thickness] = default_shielding(material, thickness)
    return SourceConfig(
        isotope=built[name],
        activity_bq=record["activity_bq"],
        distance_m=record["distance_m"],
        shielding=built[material, thickness],
        include_background=record["include_background"],
    )


def write_dataset(ds: LabeledDataset, out_dir: str | Path, extra: dict | None = None) -> Path:
    """Persist a dataset as a compact manifest.json plus data.npy, one row per item.

    Each row of data.npy is the label index followed by the channel counts,
    in the dtype :func:`_stored_dtype` picks, written a block of rows at a
    time; reading back is value-exact.
    The manifest lists each distinct source configuration once under
    ``sources``; ``source_index`` gives each item's entry in that list.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cal = ds.calibration
    records = [tuple(_config_record(config).items()) for config in ds.provenance]
    positions: dict[tuple, int] = {}
    for record in records:
        positions.setdefault(record, len(positions))
    manifest = {
        "task": ds.task.value,
        "class_names": list(ds.task.class_names),
        "n_items": len(ds),
        "calibration": {"e_min": cal.e_min, "e_max": cal.e_max, "n_channels": cal.n_channels},
        "dwell_s": ds.dwell_s,
        "kind": ds.kind.value,
        "data_npy": "data.npy",
        "sources": [dict(record) for record in positions],
        "source_index": [positions[record] for record in records],
    }
    if extra:
        manifest.update(extra)
    write_json(out_dir / "manifest.json", manifest, indent=None)

    dtype, width = _stored_dtype(ds), ds.n_channels + 1
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False,
              "shape": (len(ds), width)}
    step = max(1, _NPY_BLOCK_VALUES // width)
    with open(out_dir / "data.npy", "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for start in range(0, len(ds), step):
            rows = slice(start, start + step)
            block = np.column_stack((ds.labels[rows], ds.counts[rows]))
            fh.write(block.astype(dtype).tobytes())
    return out_dir / "manifest.json"


def _stored_dtype(ds: LabeledDataset) -> np.dtype:
    """The dtype of ``ds``'s data.npy rows, the first of :data:`_NPY_DTYPES` that holds them.

    A sampled matrix takes the smallest unsigned type that holds its largest
    label or count, unless it has a ``-0.0`` cell, which such a type would
    store as ``0``.  Any other matrix, templates included, is float64.
    """
    counts = ds.counts
    # A float's sign bit is the sign of its bits read as an int64, so this
    # finds a -0.0 without a boolean temporary the size of the matrix.
    if ds.kind is SpectrumKind.SAMPLED_REALIZATION and counts.view(np.int64).min() >= 0:
        top = max(counts.max(), ds.labels.max())
        for dtype in _NPY_DTYPES[:-1]:
            if top <= np.iinfo(dtype).max:
                return dtype
    return _NPY_DTYPES[-1]


def read_dataset(path: str | Path) -> LabeledDataset:
    """Load a dataset directory (or manifest path) written by :func:`write_dataset`.

    Malformed input raises ``ValueError`` naming the file: a missing or
    ill-typed manifest field, a source index outside the source list, a
    ``source_index`` whose length is not ``n_items``, a rows file that
    :func:`_read_npy_rows` refuses, or a label outside the task's classes,
    which names its item.  A manifest written before data.npy is refused with
    a hint to write the dataset again.
    """
    path = Path(path)
    manifest_path = path / "manifest.json" if path.is_dir() else path
    manifest = read_json(manifest_path, {})
    if "data_csv" in manifest and "data_npy" not in manifest:
        raise ValueError(f"{manifest_path}: a data.csv dataset, written before data.npy; "
                         "run synth or sample again to rewrite it")
    try:
        manifest = checked(manifest, DATASET_MANIFEST)
        task = TaskKind(manifest["task"])
        c = manifest["calibration"]
        cal = EnergyCalibration(c["e_min"], c["e_max"], c["n_channels"])
        kind = SpectrumKind(manifest["kind"])
        built: dict = {}
        configs = [_config_from_record(record, built) for record in manifest["sources"]]
        source_index = manifest["source_index"]
        if not all(0 <= i < len(configs) for i in source_index):
            raise ValueError("source_index entry outside the source list")
        n_items, dwell = manifest["n_items"], manifest["dwell_s"]
        if n_items < 1:
            raise ValueError("n_items must be a positive integer")
        if len(source_index) != n_items:
            raise ValueError(f"source_index has {len(source_index)} entries, n_items is {n_items}")
    except ValueError as err:
        raise ValueError(f"{manifest_path}: malformed manifest: {err}") from err

    data_path = manifest_path.parent / manifest["data_npy"]
    rows = _read_npy_rows(data_path, n_items, cal.n_channels + 1)
    rows.setflags(write=False)  # the dataset keeps the counts columns, not a copy
    labels = rows[:, 0]
    ok = (labels == np.floor(labels)) & (labels >= 0) & (labels < task.n_classes)
    if not ok.all():
        item = int(np.argmin(ok))
        raise ValueError(
            f"{data_path}: item {item}: label {labels[item]:g} "
            f"outside [0, {task.n_classes}) for task {task.value}"
        )
    try:
        return LabeledDataset(
            rows[:, 1:],
            labels.astype(np.intp),
            task,
            tuple(configs[i] for i in source_index),
            cal,
            dwell,
            kind,
        )
    except ValueError as err:
        raise ValueError(f"{data_path}: {err}") from err


def _read_npy_rows(path: Path, n_items: int, width: int) -> np.ndarray:
    """The ``(n_items, width)`` rows of a data.npy file as one float64 matrix.

    Only the header is parsed before the checks: the file must hold a
    C-ordered array of that shape in one of :data:`_NPY_DTYPES`, so object or
    pickled data is never loaded, and end where its rows do.  The rows are
    then read a block at a time into the matrix, so no second copy of them is
    ever whole in memory.
    """
    fmt = np.lib.format
    with open(path, "rb") as fh:
        try:
            # numpy parses the header with ast.literal_eval and, failing that,
            # tokenize, and warns where it had to repair the text: each of
            # these is a header it cannot read as written.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                version = fmt.read_magic(fh)
                if version != (1, 0):  # the format write_dataset writes
                    raise ValueError(f"unsupported .npy format version {version}")
                shape, fortran_order, dtype = fmt.read_array_header_1_0(fh)
        except (ValueError, TypeError, tokenize.TokenError, UserWarning) as err:
            raise ValueError(f"{path}: {err}") from err
        if dtype not in _NPY_DTYPES:
            expected = [d.str for d in _NPY_DTYPES]
            raise ValueError(f"{path}: dtype {dtype.str}, expected one of {expected}")
        if fortran_order:
            raise ValueError(f"{path}: rows in Fortran order, expected C order")
        if shape != (n_items, width):
            raise ValueError(f"{path}: shape {shape}, expected (n_items, 1 + n_channels) = "
                             f"{(n_items, width)}")
        size = fh.tell() + n_items * width * dtype.itemsize
        if path.stat().st_size != size:
            raise ValueError(f"{path}: {path.stat().st_size} bytes, expected {size} for the header "
                             f"and {n_items} rows of {width} {dtype.str} values")
        rows = np.empty((n_items, width))
        step = max(1, _NPY_BLOCK_VALUES // width)
        for start in range(0, n_items, step):
            block = rows[start : start + step]
            block[:] = np.fromfile(fh, dtype, count=block.size).reshape(block.shape)
    return rows
