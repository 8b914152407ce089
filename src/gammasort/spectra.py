"""Channel-space spectrum container, energy calibration, and rebinning.

A spectrum is a histogram of counts over equal-width energy bins.  Templates
hold real-valued expected counts; sampled realizations hold integer counts.
Both share one immutable container type, distinguished by a ``kind`` flag.
"""

from __future__ import annotations

import math
import warnings
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

    def energy_of_channel(self, channel: int) -> float:
        """Bin-center energy in keV of an in-range channel index."""
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} outside [0, {self.n_channels})")
        return self.e_min + (channel + 0.5) * self.channel_width

    def channel_of_energy(self, energy_kev: float) -> int:
        """Index of the bin containing ``energy_kev``."""
        if not self.e_min <= energy_kev < self.e_max:
            raise ValueError(f"energy {energy_kev} keV outside [{self.e_min}, {self.e_max})")
        return int((energy_kev - self.e_min) // self.channel_width)

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
    array is copied and marked read-only, so instances are safe to share
    between concurrent workers.
    """

    counts: np.ndarray
    calibration: EnergyCalibration
    dwell_s: float
    kind: SpectrumKind

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.float64, copy=True)
        if counts.ndim != 1 or counts.shape[0] != self.calibration.n_channels:
            raise ValueError(
                f"counts length {counts.shape} does not match "
                f"{self.calibration.n_channels} channels"
            )
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if self.kind is SpectrumKind.SAMPLED_REALIZATION and np.any(counts != np.floor(counts)):
            raise ValueError("sampled realizations must have integer-valued counts")
        if not self.dwell_s > 0:
            raise ValueError(f"dwell must be positive, got {self.dwell_s}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_channels(self) -> int:
        return self.calibration.n_channels


def total_counts(spectrum: Spectrum) -> float:
    """Sum of all channel counts (error-free accumulation, rounded once)."""
    return math.fsum(spectrum.counts)


def rebin(spectrum: Spectrum, factor: int) -> Spectrum:
    """Merge every ``factor`` adjacent channels by summation.

    The energy range is unchanged; the channel count divides by ``factor``.
    Block sums are accumulated error-free and rounded once, so totals are
    conserved exactly whenever counts are integer-valued (realizations) and
    to within one rounding of the true sum otherwise.
    """
    if factor < 1:
        raise ValueError(f"rebin factor must be positive, got {factor}")
    n = spectrum.calibration.n_channels
    if n % factor != 0:
        raise ValueError(f"factor {factor} does not divide {n} channels")
    if factor == 1:
        return spectrum
    blocks = np.asarray(spectrum.counts).reshape(n // factor, factor)
    merged = np.array([math.fsum(block) for block in blocks])
    cal = EnergyCalibration(spectrum.calibration.e_min, spectrum.calibration.e_max, n // factor)
    return Spectrum(merged, cal, spectrum.dwell_s, spectrum.kind)


def _format_float(x: float) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(x))


def write_spectrum_csv(spectrum: Spectrum, path: str | Path) -> None:
    """Write the on-disk CSV form: one comment header line, then channel rows."""
    cal = spectrum.calibration
    lines = [
        f"# e_min={_format_float(cal.e_min)} e_max={_format_float(cal.e_max)} "
        f"dwell={_format_float(spectrum.dwell_s)} kind={spectrum.kind.value}",
        "channel,counts",
    ]
    for ch, c in enumerate(spectrum.counts):
        lines.append(f"{ch},{_format_float(c)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_spectrum_csv(path: str | Path) -> Spectrum:
    """Parse a spectrum CSV written by :func:`write_spectrum_csv` (value-exact)."""
    comments, _, rows, _ = read_csv_table(path, 2, header=True)
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
    rows = rows[np.argsort(rows[:, 0])]
    if not np.array_equal(rows[:, 0], np.arange(len(rows))):
        raise ValueError(f"{path}: channel indices are not contiguous from 0")
    try:
        return Spectrum(rows[:, 1], EnergyCalibration(e_min, e_max, len(rows)), dwell, kind)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def read_csv_table(path: str | Path, width: int | None = None, header: bool = False) -> tuple:
    """Leading ``#`` comment lines, column names and float64 rows of a CSV file.

    A line of column names follows the comments if ``header``; each row holds
    ``width`` numbers (default: one per name), and empty lines are skipped.
    Returns ``(comments, names, rows, first_line)``, the last being the file
    line of the first row.  A malformed row raises ``ValueError("<path>:<line>: <cause>")``.
    """
    with open(path) as fh:
        head = [fh.readline()]
        while head[-1].startswith("#"):
            head.append(fh.readline())
    comments = [line.rstrip("\n") for line in head[:-1]]
    names = head[-1].rstrip("\n").split(",") if header and head[-1] else []
    width = len(names) if width is None else width
    first_line = len(comments) + 1 + header
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=first_line - 1)
    except ValueError as err:
        raise _bad_row_error(path, first_line, width, err) from err
    if rows.size == 0:
        rows = np.empty((0, width))
    if rows.shape[1] != width:
        raise _bad_row_error(path, first_line, width)
    return comments, names, rows, first_line


def csv_rows(path: str | Path, first_line: int) -> list[tuple[int, str]]:
    """(file line, text) of each row of a table that :func:`read_csv_table` read."""
    lines = Path(path).read_text().split("\n")[first_line - 1 :]
    return [(lineno, line) for lineno, line in enumerate(lines, first_line) if line]


def _bad_row_error(path: str | Path, first_line: int, width: int, err=None) -> ValueError:
    # np.loadtxt numbers rows inconsistently in its messages, so walk the rows
    # again to name the first bad one; this runs only on malformed files.
    for lineno, line in csv_rows(path, first_line):
        cells = line.split(",")
        if len(cells) != width:
            return ValueError(f"{path}:{lineno}: {len(cells)} cells, expected {width}")
        for column, cell in enumerate(cells, 1):
            try:
                float(cell.replace("_", "x"))  # np.loadtxt takes no digit separators
            except ValueError:
                return ValueError(f"{path}:{lineno}: cell {column} is not a number: {cell!r}")
    return ValueError(f"{path}: {err}")
