"""Channel-space spectrum container, energy calibration, and rebinning.

A spectrum is a histogram of counts over equal-width energy bins.  Templates
hold real-valued expected counts; sampled realizations hold integer counts.
Both share one immutable container type, distinguished by a ``kind`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

DEFAULT_E_MIN_KEV = 0.0
DEFAULT_E_MAX_KEV = 3000.0
DEFAULT_N_CHANNELS = 1024


class SpectrumKind(Enum):
    """Expected-count template vs. finite-dwell Poisson realization."""

    EXPECTED_TEMPLATE = "template"
    SAMPLED_REALIZATION = "sample"


@dataclass(frozen=True)
class EnergyCalibration:
    """Linear calibration: ``n_channels`` equal bins spanning [e_min, e_max] keV."""

    e_min: float
    e_max: float
    n_channels: int

    def __post_init__(self):
        if not self.e_min < self.e_max:
            raise ValueError(f"e_min must be below e_max, got [{self.e_min}, {self.e_max}]")
        if self.n_channels < 1:
            raise ValueError(f"n_channels must be positive, got {self.n_channels}")

    @property
    def channel_width(self) -> float:
        """Bin width in keV (constant across the range)."""
        return (self.e_max - self.e_min) / self.n_channels

    def bin_edges(self) -> np.ndarray:
        return self.e_min + self.channel_width * np.arange(self.n_channels + 1)

    def bin_centers(self) -> np.ndarray:
        return self.e_min + self.channel_width * (np.arange(self.n_channels) + 0.5)


def default_calibration() -> EnergyCalibration:
    """0-3000 keV over 1024 channels (~2.93 keV/channel)."""
    return EnergyCalibration(DEFAULT_E_MIN_KEV, DEFAULT_E_MAX_KEV, DEFAULT_N_CHANNELS)


@dataclass(frozen=True)
class Spectrum:
    """Immutable channel-count histogram with calibration and dwell time.

    Counts are stored as float64 even for realizations so both kinds share
    one type; realizations are validated to be integer-valued.  The counts
    are kept read-only, copied unless frozen (see :func:`checked_counts`).
    """

    counts: np.ndarray
    calibration: EnergyCalibration
    dwell_s: float
    kind: SpectrumKind

    def __post_init__(self):
        counts = checked_counts(self.counts, 1, self.n_channels, self.kind, self.dwell_s)
        object.__setattr__(self, "counts", counts)

    @property
    def n_channels(self) -> int:
        return self.calibration.n_channels


def checked_counts(counts, ndim: int, n_channels: int, kind: SpectrumKind, dwell_s: float):
    """``counts`` as a read-only float64 array, checked as counts of ``kind`` at ``dwell_s``.

    ``counts`` must be non-empty with ``ndim`` axes, the last of ``n_channels``;
    finite and non-negative; integer-valued for a sampled realization.  The
    dwell must be positive.  A frozen float64 array (read-only, as is every
    array it views, down to the one that owns the data) is checked in place
    and returned itself: its producer hands it over and must not make it
    writeable again.  Any other input is checked in place, then copied once
    into a C-ordered array.  Either way the checks run a block of rows at a
    time, so their temporaries are block-sized.  If a block fails,
    whole-array checks name the defect, the first of non-finite, negative
    and non-integer that any value has.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != ndim or counts.size == 0 or counts.shape[-1] != n_channels:
        raise ValueError(
            f"counts shape {counts.shape} is not {ndim}-D, non-empty, over {n_channels} channels"
        )
    if not _checked_blocks(counts, kind is SpectrumKind.SAMPLED_REALIZATION):
        if not np.isfinite(counts).all():
            raise ValueError("counts must be finite")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        raise ValueError("sampled realizations must have integer-valued counts")
    if not dwell_s > 0:
        raise ValueError(f"dwell must be positive, got {dwell_s}")
    if not _frozen(counts):
        counts = np.array(counts, order="C")
        counts.setflags(write=False)
    return counts


def _frozen(array: np.ndarray) -> bool:
    """Whether ``array`` and every array in its ``.base`` chain are read-only.

    The chain must end at an array that owns its data; an array over a
    buffer of another type (bytes, a map) counts as not frozen.
    """
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None


# Values per block of checked_counts' checks: a block and its temporaries
# stay in the CPU cache.  Whole-array checks, with a temporary of the whole
# matrix, took about twice as long on a 4,400 x 1,024 sampled matrix.
_CHECK_BLOCK_VALUES = 32768


def _checked_blocks(counts: np.ndarray, integral: bool) -> bool:
    """Whether every value is finite and non-negative, and integer-valued if ``integral``."""
    width = counts.shape[-1]
    rows = counts.reshape(-1, width)  # a view: ndim is 1 or 2
    step = max(1, _CHECK_BLOCK_VALUES // width)
    floor = np.empty((min(step, len(rows)), width)) if integral else None
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        if not (block.min() >= 0 and block.max() < math.inf):  # NaN fails both
            return False
        if integral and (np.floor(block, out=floor[: len(block)]) != block).any():
            return False
    return True


def total_counts(spectrum: Spectrum) -> float:
    """Sum of all channel counts (error-free accumulation, rounded once)."""
    return math.fsum(spectrum.counts.tolist())


def rebin(spectrum: Spectrum, factor: int) -> Spectrum:
    """Merge every ``factor`` adjacent channels by summation (see :func:`rebin_counts`)."""
    counts, cal = rebin_counts(spectrum.counts, spectrum.calibration, factor)
    return Spectrum(counts, cal, spectrum.dwell_s, spectrum.kind)


# Values per chunk of rebin_counts' sums: one list of a whole template
# matrix raised peak memory by 13 MB; a chunk's list stays small.
_FSUM_VALUES = 16384


def rebin_counts(
    counts: np.ndarray, calibration: EnergyCalibration, factor: int
) -> tuple[np.ndarray, EnergyCalibration]:
    """Merge every ``factor`` adjacent channels along the last axis of ``counts``.

    ``counts`` is one spectrum or a matrix with one spectrum per row, over
    ``calibration``; returns the merged counts and their calibration.  The
    energy range is unchanged; the channel count divides by ``factor``.
    Block sums are accumulated error-free and rounded once, so totals are
    conserved exactly whenever counts are integer-valued (realizations) and
    to within one rounding of the true sum otherwise.
    """
    if factor < 1:
        raise ValueError(f"rebin factor must be positive, got {factor}")
    n = calibration.n_channels
    if n % factor != 0:
        raise ValueError(f"factor {factor} does not divide {n} channels")
    if factor == 1:
        return counts, calibration
    counts = np.asarray(counts)
    blocks = counts.reshape(-1, factor)
    out = np.empty(counts.shape[:-1] + (n // factor,))
    merged = out.reshape(-1)  # a view: the returned array owns its data
    step = max(1, _FSUM_VALUES // factor)
    for start in range(0, len(blocks), step):
        # math.fsum reads Python floats fastest; zip groups them back into blocks.
        chunk = blocks[start : start + step]
        merged[start : start + step] = list(
            map(math.fsum, zip(*[iter(chunk.ravel().tolist())] * factor))
        )
    cal = EnergyCalibration(calibration.e_min, calibration.e_max, n // factor)
    return out, cal


def write_spectrum_csv(spectrum: Spectrum, path: str | Path) -> None:
    """Write the on-disk CSV form: one comment header line, then channel rows."""
    cal = spectrum.calibration
    meta = (
        f"e_min={float(cal.e_min)!r} e_max={float(cal.e_max)!r} "
        f"dwell={float(spectrum.dwell_s)!r} kind={spectrum.kind.value}"
    )
    write_csv_table(path, ("channel", "counts"), enumerate(spectrum.counts), comments=(meta,))


def read_spectrum_csv(path: str | Path) -> Spectrum:
    """Parse a spectrum CSV written by :func:`write_spectrum_csv` (value-exact)."""
    comments, names, rows = read_csv_table(path)
    if not comments:
        raise ValueError(f"{path}: missing '# e_min=... e_max=... dwell=... kind=...' header")
    try:
        fields = dict(tok.split("=", 1) for tok in comments[0].lstrip("# ").split())
        e_min, e_max, dwell = (float(fields[key]) for key in ("e_min", "e_max", "dwell"))
        kind = SpectrumKind(fields["kind"])
    except KeyError as err:
        raise ValueError(f"{path}:1: header missing field {err}") from err
    except ValueError as err:
        raise ValueError(f"{path}:1: bad header: {err}") from err
    if names != ["channel", "counts"]:
        raise ValueError(f"{path}:{len(comments) + 1}: columns {names}, not channel and counts")
    rows = rows[np.argsort(rows[:, 0])]
    if not np.array_equal(rows[:, 0], np.arange(len(rows))):
        raise ValueError(f"{path}: channel indices are not contiguous from 0")
    try:
        return Spectrum(rows[:, 1], EnergyCalibration(e_min, e_max, len(rows)), dwell, kind)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def write_csv_table(path: str | Path, header, rows, comments=()) -> None:
    """Write a ``# `` line per comment, the ``header`` line, then a line per row.

    Each row is a list or tuple of cells.  A cell is written as itself if a
    string, as ``str(int(x))`` if an integer, else as ``repr(float(x))``, so
    :func:`read_csv_table` reads it back exactly.
    """
    with open(path, "w") as fh:
        fh.writelines(f"# {text}\n" for text in comments)
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def _csv_cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    return str(int(cell)) if isinstance(cell, (int, np.integer)) else repr(float(cell))


def read_csv_table(path: str | Path) -> tuple:
    """``(comments, names, rows)`` of a CSV file whose rows hold one number per name.

    Lines are split by :func:`read_csv_cells` and rows read by :func:`csv_numbers`,
    into a float64 ``rows``; the first bad line raises ``ValueError("<path>:<line>: ...")``.
    """
    comments, names, text_rows = read_csv_cells(path)
    rows = [csv_numbers(cells, len(names), where, range(len(names))) for where, cells in text_rows]
    return comments, names, np.array(rows, dtype=np.float64).reshape(len(rows), len(names))


def read_csv_cells(path: str | Path) -> tuple:
    """Leading ``#`` comment lines, column names and ``(<path>:<line>, cells)`` rows of a CSV;
    empty rows are skipped, and a line holding a byte that does not decode is refused."""
    with open(path, errors="surrogateescape") as fh:  # a bad byte reads as U+DC80-U+DCFF
        lines = [line.rstrip("\n") for line in fh]
    for lineno, line in enumerate(lines, 1):
        if not line.isascii() and any("\udc80" <= char <= "\udcff" for char in line):
            raise ValueError(f"{path}:{lineno}: a byte does not decode")
    start = next((n for n, line in enumerate(lines) if not line.startswith("#")), len(lines))
    names = lines[start].split(",") if start < len(lines) else []
    rows = [(f"{path}:{lineno}", line.split(","))
            for lineno, line in enumerate(lines[start + 1:], start + 2) if line]
    return lines[:start], names, rows


def csv_columns(path: str | Path, comments: list, names: list, wanted) -> list[int]:
    """The index in ``names`` of each ``wanted`` column; others may come in any order."""
    missing = [name for name in wanted if name not in names]
    if missing:
        raise ValueError(f"{path}:{len(comments) + 1}: header lacks the columns {missing}")
    return [names.index(name) for name in wanted]


def csv_numbers(cells: list, width: int, where: str, columns) -> list:
    """The ``columns`` (indexes) of a row of ``width`` cells read at ``where``, each by ``float``
    and refused unless ASCII, with no ``_`` digit separator, and finite."""
    if len(cells) != width:
        raise ValueError(f"{where}: {len(cells)} cells, expected {width}")
    values = []
    for column in columns:
        cell = cells[column]
        try:
            if not cell.isascii() or "_" in cell:  # float reads other digits and "_" too
                raise ValueError
            value = float(cell)
        except ValueError:
            raise ValueError(f"{where}: cell {column + 1} is not a number: {cell!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{where}: cell {column + 1} is not a finite number: {cell!r}")
        values.append(value)
    return values
