"""Loaders for the bundled nuclide-line and attenuation tables.

Tables live in ``gammasort/data/`` as plain CSV; the ``GAMMASORT_DATA_DIR``
environment variable points the loaders somewhere else (e.g. user-supplied
tables with more isotopes or materials).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .spectra import csv_columns, csv_numbers, read_csv_cells

DATA_DIR_ENV_VAR = "GAMMASORT_DATA_DIR"

_BUNDLED_DIR = Path(__file__).parent / "data"


def table_path(name: str) -> Path:
    """The table file ``name`` in ``GAMMASORT_DATA_DIR`` if that is set, else the bundled one."""
    return Path(os.environ.get(DATA_DIR_ENV_VAR) or _BUNDLED_DIR) / name


def _read_table(name: str, wanted: tuple) -> tuple:
    """A table file's ``(where, cells)`` rows, width and index of each ``wanted`` column."""
    path = table_path(name)
    if not path.is_file():
        raise FileNotFoundError(f"bundled data file not found: {path}")
    comments, names, rows = read_csv_cells(path)
    return rows, len(names), csv_columns(path, comments, names, wanted)


def load_nuclide_lines() -> dict[str, tuple[tuple[float, float], ...]]:
    """Gamma lines per isotope name: {name: ((energy_keV, intensity), ...)}."""
    wanted = ("isotope", "energy_keV", "intensity")
    rows, width, (isotope, *numbers) = _read_table("nuclide_lines.csv", wanted)
    table: dict[str, list[tuple[float, float]]] = {}
    for where, cells in rows:
        energy, intensity = csv_numbers(cells, width, where, numbers)
        table.setdefault(cells[isotope], []).append((energy, intensity))
    return {name: tuple(lines) for name, lines in table.items()}


def load_attenuation_table(material_slug: str) -> tuple[np.ndarray, np.ndarray]:
    """(energies_keV, mu_per_cm) arrays for one material table file."""
    wanted = ("energy_keV", "mu_per_cm")
    rows, width, columns = _read_table(f"attenuation_{material_slug}.csv", wanted)
    table = np.array([csv_numbers(cells, width, where, columns) for where, cells in rows])
    table = table.reshape(-1, 2)  # also with no rows
    order = np.argsort(table[:, 0])
    return table[order, 0], table[order, 1]
