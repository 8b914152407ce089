"""Poisson ensembles and labeled datasets for the three classification tasks.

Templates carry expected counts at a long reference dwell; short-dwell test
spectra are per-channel Poisson draws scaled to the target dwell.  Every item
seed derives from (master seed, config index, sample index), so dataset
construction is reproducible and order-independent.
"""

from __future__ import annotations

import json
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
    build_template,
    default_shielding,
    isotope_by_name,
)
from .spectra import EnergyCalibration, Spectrum, SpectrumKind, csv_rows, read_csv_table, rebin

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

    def one_hot(self, config: SourceConfig) -> np.ndarray:
        label = np.zeros(self.n_classes)
        label[self.class_index(config)] = 1.0
        return label


@dataclass(frozen=True)
class LabeledDataset:
    """An (n_items, n_channels) counts matrix with one-hot task labels.

    Calibration, dwell and spectrum kind are shared by every item; each item
    keeps the source configuration it was drawn from as provenance.  The
    matrix is validated once as a whole (finite, non-negative, and
    integer-valued for sampled realizations), copied, and made read-only.
    """

    counts: np.ndarray
    labels: np.ndarray
    task: TaskKind
    provenance: tuple[SourceConfig, ...]
    calibration: EnergyCalibration
    dwell_s: float
    kind: SpectrumKind

    def __post_init__(self):
        # Validate the caller's matrix, then copy it: the checks' temporaries
        # and the copy are never alive at the same time.
        counts = np.asarray(self.counts, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.float64, copy=True)
        n_channels = self.calibration.n_channels
        if counts.ndim != 2 or counts.shape[0] == 0 or counts.shape[1] != n_channels:
            raise ValueError(f"counts shape {counts.shape} is not (n_items >= 1, {n_channels})")
        n = counts.shape[0]
        if not (np.all(np.isfinite(counts)) and np.all(counts >= 0)):
            raise ValueError("counts must be finite and non-negative")
        if self.kind is SpectrumKind.SAMPLED_REALIZATION and np.any(counts != np.floor(counts)):
            raise ValueError("sampled realizations must have integer-valued counts")
        if not self.dwell_s > 0:
            raise ValueError(f"dwell must be positive, got {self.dwell_s}")
        if labels.shape != (n, self.task.n_classes):
            raise ValueError(
                f"labels shape {labels.shape} does not match "
                f"{n} items x {self.task.n_classes} classes"
            )
        one_hot_ok = np.all((labels == 0.0) | (labels == 1.0)) and np.all(labels.sum(axis=1) == 1.0)
        if not one_hot_ok:
            raise ValueError("labels must be one-hot rows")
        if len(self.provenance) != n:
            raise ValueError("provenance must align with the counts rows")
        counts = counts.copy()
        counts.setflags(write=False)
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

    def label_indices(self) -> np.ndarray:
        return np.argmax(self.labels, axis=1)

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=np.intp)
        return replace(
            self,
            counts=self.counts[indices],
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
    templates: list[Spectrum], grid: list[SourceConfig], task: TaskKind
) -> LabeledDataset:
    """Template dataset from one expected-count spectrum per grid cell."""
    if not grid:
        raise ValueError("source grid is empty")
    first = templates[0]
    if any((t.calibration, t.dwell_s, t.kind) != (first.calibration, first.dwell_s, first.kind)
           for t in templates):
        raise ValueError("all templates must share one calibration, dwell and kind")
    labels = np.stack([task.one_hot(config) for config in grid])
    counts = np.stack([t.counts for t in templates])
    return LabeledDataset(
        counts, labels, task, tuple(grid), first.calibration, first.dwell_s, first.kind
    )


def rescale(templates: LabeledDataset, dwell_s: float) -> LabeledDataset:
    """The same expected-count templates at another dwell (counts scale linearly)."""
    return replace(
        templates, counts=templates.counts * (dwell_s / templates.dwell_s), dwell_s=dwell_s
    )


def sample_dataset(
    templates: LabeledDataset, samples_per_config: int, dwell_s: float, seed: int
) -> LabeledDataset:
    """Poisson-sampled ensemble: ``samples_per_config`` realizations per template.

    Item ``si`` of template ``ci`` draws on the stream of
    ``derive_seed(seed, ci, si)``, exactly as :func:`poisson_sample` would,
    so every item is independent of the others and of the build order.
    """
    if templates.kind is not SpectrumKind.EXPECTED_TEMPLATE:
        raise ValueError("can only Poisson-sample expected-count templates")
    if samples_per_config < 1:
        raise ValueError("samples_per_config must be at least 1 (empty dataset rejected)")
    lam = templates.counts * (dwell_s / templates.dwell_s)
    rows = np.repeat(np.arange(len(templates)), samples_per_config)
    counts = np.empty((rows.size, templates.n_channels))
    for item, ci in enumerate(rows):
        si = item % samples_per_config
        counts[item] = seeding.rng(seeding.derive_seed(seed, int(ci), si)).poisson(lam[ci])
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
    templates = [
        rebin(build_template(config, detector, TEMPLATE_DWELL_S, background_cps), rebin_factor)
        for config in grid
    ]
    return rescale(stack_templates(templates, grid, task), dwell_s)


def split(ds: LabeledDataset, train_fraction: float, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint shuffled partition with floor(n * fraction) items on the train side."""
    if not 0 < train_fraction < 1:
        raise ValueError(f"train fraction {train_fraction} outside (0, 1)")
    n = len(ds)
    n_train = int(np.floor(n * train_fraction + 1e-9))
    if n_train == 0 or n_train == n:
        raise ValueError(f"fraction {train_fraction} leaves an empty side for {n} items")
    perm = seeding.rng(seed, 0).permutation(n)
    return ds.subset(perm[:n_train]), ds.subset(perm[n_train:])


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

    Each row is the label index followed by the channel counts; floats are
    written in shortest round-trip form, so reading back is value-exact.
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
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    lines = [
        ",".join([str(int(idx))] + [repr(c) for c in row.tolist()])
        for idx, row in zip(ds.label_indices(), ds.counts)
    ]
    (out_dir / "data.csv").write_text("\n".join(lines) + "\n")
    return out_dir / "manifest.json"


def read_dataset(path: str | Path) -> LabeledDataset:
    """Load a dataset directory (or manifest path) written by :func:`write_dataset`.

    Malformed input raises ``ValueError`` naming the file, and the line for
    data rows: a missing or ill-typed manifest field, a source index outside
    the source list, a row count other than ``n_items``, a row whose width is
    not the channel count, or a label outside the task's classes.
    """
    path = Path(path)
    manifest_path = path / "manifest.json" if path.is_dir() else path
    if not manifest_path.is_file():
        raise FileNotFoundError(f"dataset manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        task = TaskKind(manifest["task"])
        cal = EnergyCalibration(**manifest["calibration"])
        kind = SpectrumKind(manifest["kind"])
        built: dict = {}
        configs = [_config_from_record(record, built) for record in manifest["sources"]]
        source_index = manifest["source_index"]
        if not all(type(i) is int and 0 <= i < len(configs) for i in source_index):
            raise ValueError("source_index entry outside the source list")
        if type(cal.n_channels) is not int:
            raise ValueError("calibration.n_channels must be an integer")
        n_items, dwell = manifest["n_items"], manifest["dwell_s"]
        data_path = manifest_path.parent / manifest["data_csv"]
    except (KeyError, TypeError, ValueError) as err:
        reason = f"{type(err).__name__}: {err}"
        raise ValueError(f"{manifest_path}: malformed manifest: {reason}") from err

    _, _, rows, first_line = read_csv_table(data_path, cal.n_channels + 1)
    if len(rows) != n_items:
        raise ValueError(f"{data_path}: {len(rows)} rows, manifest n_items is {n_items}")
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
            np.eye(task.n_classes)[labels.astype(np.intp)],
            task,
            tuple(configs[i] for i in source_index),
            cal,
            dwell,
            kind,
        )
    except (TypeError, ValueError) as err:
        raise ValueError(f"{data_path}: {err}") from err
