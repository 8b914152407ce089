"""Poisson ensembles and labeled datasets for the three classification tasks.

Templates carry expected counts at a long reference dwell; short-dwell test
spectra are per-channel Poisson draws scaled to the target dwell.  Every item
seed derives from (master seed, config index, sample index), so dataset
construction is reproducible and order-independent.
"""

from __future__ import annotations

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
    csv_rows,
    read_csv_table,
    rebin_counts,
    write_csv_table,
)

ISOTOPE_NAMES = ("Cesium", "Cobalt", "Barium", "Selenium", "Iridium")
SHIELDING_NAMES = ("Bare", "Concrete", "Steel", "DepletedUranium")
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
    drawn into is frozen and handed to the dataset, not copied.
    """
    if templates.kind is not SpectrumKind.EXPECTED_TEMPLATE:
        raise ValueError("can only Poisson-sample expected-count templates")
    if samples_per_config < 1:
        raise ValueError("samples_per_config must be at least 1 (empty dataset rejected)")
    if not dwell_s > 0:
        raise ValueError(f"target dwell {dwell_s} must be positive")
    lam = templates.counts * (dwell_s / templates.dwell_s)
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
    "task": "", "kind": "", "data_csv": "", "n_items": 0, "dwell_s": 0.0,
    "calibration": {"e_min": 0.0, "e_max": 0.0, "n_channels": 0},
    "sources": [{"isotope": "", "activity_bq": 0.0, "distance_m": 0.0, "material": "",
                 "thickness_cm": 0.0, "include_background": False}],
    "source_index": [0],
}


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
    """Persist a dataset as manifest.json plus one packed CSV row per item.

    Each row is the label index followed by the channel counts.  The counts
    of a sampled dataset are integers and are written as integer text
    (``3``); any other matrix, templates included, as the shortest ``repr``
    of each float (``3.0``, ``0.125``).  Either way reading back is
    value-exact, and an older file that holds sampled counts as ``repr``
    still reads the same.  See :func:`_row_format`.
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
        "data_csv": "data.csv",
        "sources": [dict(record) for record in positions],
        "source_index": [positions[record] for record in records],
    }
    if extra:
        manifest.update(extra)
    write_json(out_dir / "manifest.json", manifest)

    format_row = _row_format(ds)
    rows = ([str(k), format_row(c)] for k, c in zip(ds.labels.tolist(), ds.counts))
    write_csv_table(out_dir / "data.csv", (), rows)
    return out_dir / "manifest.json"


def _row_format(ds: LabeledDataset):
    """Formatter of one counts row: its cells joined by commas.

    Integer counts (sampled realizations) are written as integer text: they
    index a fixed-width byte table of the strings ``"0,"``, ``"1,"``, ... up
    to the matrix maximum with the whole row at once; the row's bytes,
    without the table's NUL padding and the last comma, are the line.  Integer
    text is half the bytes of ``repr`` (``"0"`` for ``"0.0"``) and
    :func:`~gammasort.spectra.read_csv_table` parses both forms to the same
    floats.  The table is used only where each cell's text is its ``repr``
    less the ``.0``: no ``-0.0`` cell (integer text has no negative zero), a
    maximum below 1e16 (``repr`` switches to exponent form there, so the two
    forms would no longer share their digits), and no more entries than the
    matrix has cells.  Any other matrix, templates included, is formatted by
    :func:`_repr_row`, ``repr`` of each float.
    """
    counts = ds.counts
    # A float's sign bit is the sign of its bits read as an int64, so this
    # finds a -0.0 without a boolean temporary the size of the matrix.
    if ds.kind is SpectrumKind.SAMPLED_REALIZATION and counts.view(np.int64).min() >= 0:
        top = counts.max()
        if top < 1e16 and top < counts.size:
            table = np.array([f"{i}," for i in range(int(top) + 1)], dtype=np.bytes_)
            return lambda row: (
                table[row.astype(np.intp)].tobytes().translate(None, b"\0")[:-1].decode()
            )
    return _repr_row


def _repr_row(row: np.ndarray) -> str:
    return ",".join(map(repr, row.tolist()))


def read_dataset(path: str | Path) -> LabeledDataset:
    """Load a dataset directory (or manifest path) written by :func:`write_dataset`.

    Malformed input raises ``ValueError`` naming the file, and the line for
    data rows: a missing or ill-typed manifest field, a source index outside
    the source list, a ``source_index`` whose length is not ``n_items``, a
    ``#`` comment line, a row count other than ``n_items``, a row whose width
    is not the channel count, or a label outside the task's classes.
    """
    path = Path(path)
    manifest_path = path / "manifest.json" if path.is_dir() else path
    manifest = read_json(manifest_path, {})
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
    data_path = manifest_path.parent / manifest["data_csv"]

    # One row past n_items keeps an over-long file detectable.
    comments, _, rows, first_line = read_csv_table(
        data_path, cal.n_channels + 1, max_rows=n_items + 1
    )
    if comments:
        raise ValueError(f"{data_path}:1: comment line {comments[0]!r}; data rows take none")
    if len(rows) > n_items:
        line = csv_rows(data_path, first_line)[n_items][0]
        raise ValueError(f"{data_path}:{line}: more rows than the manifest's n_items of {n_items}")
    if len(rows) < n_items:
        raise ValueError(f"{data_path}: {len(rows)} rows, manifest n_items is {n_items}")
    rows.setflags(write=False)  # the dataset keeps the counts columns, not a copy
    labels = rows[:, 0]
    ok = (labels == np.floor(labels)) & (labels >= 0) & (labels < task.n_classes)
    if not ok.all():
        row = int(np.argmin(ok))
        raise ValueError(
            f"{data_path}:{csv_rows(data_path, first_line)[row][0]}: label {labels[row]:g} "
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
