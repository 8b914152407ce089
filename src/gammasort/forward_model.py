"""Simplified detector forward model producing expected-count template spectra.

Replaces a full transport code with: isotropic point source, inverse-square
geometry, exponential shielding attenuation at each line energy, and a
detector response of Gaussian photopeak plus flat Compton continuum.
Templates are expected values; Poisson sampling to finite dwells lives in
:mod:`gammasort.ensemble`.

Every template comes from :func:`template_matrix`, one matrix per grid, so a
grid that cannot be synthesised fails before ``gammasort synth`` writes a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import nucleardata
from .spectra import (
    EnergyCalibration,
    Spectrum,
    SpectrumKind,
    default_calibration,
)

ELECTRON_REST_KEV = 511.0

# 24-hour reference dwell for template synthesis.
TEMPLATE_DWELL_S = 86400.0

# 2" x 4" front face of the reference NaI detector, in cm^2.
DEFAULT_FACE_AREA_CM2 = 5.08 * 10.16
DEFAULT_INTRINSIC_EFFICIENCY = 0.5
DEFAULT_RESOLUTION_FWHM_FRAC_662 = 0.075
DEFAULT_COMPTON_FRACTION = 0.4

# Sized so a bare Cesium source at 10 m yields ~200 detected counts/s.
DEFAULT_ACTIVITY_BQ = 1.15e8

FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
GAUSSIAN_TRUNCATION_SIGMA = 6.0
# Largest share of a line's counts that truncating its photopeak may lose.
PHOTOPEAK_LOSS_LIMIT = 1e-3

# Ambient background shape: exponential low-energy slope plus a flat shelf
# that both cut off at the Tl-208 line energy.
BACKGROUND_SLOPE_KEV = 150.0
BACKGROUND_MAX_KEV = 2614.0
BACKGROUND_FLAT_LEVEL = 0.02
DEFAULT_BACKGROUND_CPS = 300.0

# Depleted uranium shielding is itself a gamma emitter (Pa-234m daughter
# lines); modeled as a co-located source scaling with shield thickness.
DU_EMISSION_LINES = ((766.4, 0.00294), (1001.0, 0.00835))
DU_EMISSION_BQ_PER_CM = 6.0e8


class ShieldMaterial(Enum):
    BARE = "Bare"
    CONCRETE = "Concrete"
    STEEL = "Steel"
    DEPLETED_URANIUM = "DepletedUranium"


# Each shield material's attenuation table, attenuation_<slug>.csv, and default thickness in cm.
_SHIELD_TABLES = {
    ShieldMaterial.CONCRETE: ("concrete", 5.0),
    ShieldMaterial.STEEL: ("steel", 1.0),
    ShieldMaterial.DEPLETED_URANIUM: ("depleted_uranium", 0.5),
}


@dataclass(frozen=True)
class Isotope:
    """A named source with its gamma lines as (energy_keV, intensity) pairs."""

    name: str
    lines: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.lines:
            raise ValueError(f"{self.name}: isotope needs at least one line")
        for energy, intensity in self.lines:
            if not energy > 0:
                raise ValueError(f"{self.name}: line energy {energy} must be positive")
            if not 0 < intensity <= 1:
                raise ValueError(f"{self.name}: intensity {intensity} outside (0, 1]")


@dataclass(frozen=True)
class Shielding:
    """Material slab between source and detector.

    The attenuation table holds (energy_keV, mu_per_cm) samples; lookups
    interpolate log-log between rows.  Bare carries no table.
    """

    material: ShieldMaterial
    thickness_cm: float
    energies_kev: np.ndarray | None = None
    mu_per_cm: np.ndarray | None = None

    def __post_init__(self):
        if self.material is ShieldMaterial.BARE:
            if self.thickness_cm != 0:
                raise ValueError("Bare shielding must have zero thickness")
            return
        if self.thickness_cm < 0:
            raise ValueError(f"thickness {self.thickness_cm} cm must be non-negative")
        if self.energies_kev is None or self.mu_per_cm is None:
            raise ValueError(f"{self.material.value}: attenuation table required")
        energies = np.array(self.energies_kev, dtype=np.float64, copy=True)
        mu = np.array(self.mu_per_cm, dtype=np.float64, copy=True)
        if energies.shape != mu.shape or energies.ndim != 1 or energies.size < 2:
            raise ValueError("attenuation table needs matching 1-D energy/mu arrays")
        if np.any(mu <= 0):
            raise ValueError("attenuation coefficients must be positive")
        if np.any(np.diff(energies) <= 0):
            raise ValueError("attenuation energies must be strictly increasing")
        energies.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "energies_kev", energies)
        object.__setattr__(self, "mu_per_cm", mu)


@dataclass(frozen=True)
class SourceConfig:
    """One cell of the source/distance/shielding variation grid."""

    isotope: Isotope
    activity_bq: float
    distance_m: float
    shielding: Shielding
    include_background: bool = False

    def __post_init__(self):
        if not self.activity_bq > 0:
            raise ValueError(f"activity {self.activity_bq} must be positive")
        if not self.distance_m > 0:
            raise ValueError(f"distance {self.distance_m} must be positive")


@dataclass(frozen=True)
class DetectorModel:
    """Abstract NaI-like detector: geometry, efficiency, resolution, continuum split."""

    calibration: EnergyCalibration
    face_area_cm2: float = DEFAULT_FACE_AREA_CM2
    intrinsic_efficiency: float = DEFAULT_INTRINSIC_EFFICIENCY
    resolution_fwhm_frac_662: float = DEFAULT_RESOLUTION_FWHM_FRAC_662
    compton_fraction: float = DEFAULT_COMPTON_FRACTION

    def __post_init__(self):
        if not self.face_area_cm2 > 0:
            raise ValueError("face area must be positive")
        for name in ("intrinsic_efficiency", "resolution_fwhm_frac_662", "compton_fraction"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name}={value} outside (0, 1]")

    def fwhm_kev(self, energy_kev: float) -> float:
        """Resolution FWHM at ``energy_kev``, sqrt-energy scaling from 662 keV."""
        return self.resolution_fwhm_frac_662 * 662.0 * math.sqrt(energy_kev / 662.0)


def default_detector(n_channels: int = 1024) -> DetectorModel:
    cal = default_calibration()
    if n_channels != cal.n_channels:
        cal = EnergyCalibration(cal.e_min, cal.e_max, n_channels)
    return DetectorModel(calibration=cal)


def bare_shielding() -> Shielding:
    return Shielding(ShieldMaterial.BARE, 0.0)


def default_shielding(material: ShieldMaterial | str, thickness_cm: float | None = None) -> Shielding:
    """Shielding with the bundled attenuation table and default thickness; a
    table that :class:`Shielding` refuses raises ``ValueError`` naming its file."""
    if isinstance(material, str):
        material = ShieldMaterial(material)
    if material is ShieldMaterial.BARE:
        return bare_shielding()
    slug, default_cm = _SHIELD_TABLES[material]
    energies, mu = nucleardata.load_attenuation_table(slug)
    try:
        shielding = Shielding(material, default_cm, energies, mu)
    except ValueError as err:
        raise ValueError(f"{nucleardata.table_path(f'attenuation_{slug}.csv')}: {err}") from err
    return shielding if thickness_cm is None else replace(shielding, thickness_cm=thickness_cm)


def isotope_by_name(name: str) -> Isotope:
    """Isotope built from the nuclide line table; a name the table lacks, or
    lines that :class:`Isotope` refuses, raise ``ValueError`` naming the file."""
    lines = nucleardata.load_nuclide_lines()
    path = nucleardata.table_path("nuclide_lines.csv")
    if name not in lines:
        raise ValueError(f"{path}: unknown isotope {name!r}; the file lists {sorted(lines)}")
    try:
        return Isotope(name, lines[name])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def attenuation_factor(shielding: Shielding, energy_kev: float) -> float:
    """Transmitted fraction exp(-mu(E) * thickness), mu log-log interpolated."""
    if shielding.material is ShieldMaterial.BARE or shielding.thickness_cm == 0:
        return 1.0
    energies = shielding.energies_kev
    if not energies[0] <= energy_kev <= energies[-1]:
        raise ValueError(
            f"{shielding.material.value}: energy {energy_kev} keV outside attenuation table "
            f"[{energies[0]}, {energies[-1]}]"
        )
    log_mu = np.interp(math.log(energy_kev), np.log(energies), np.log(shielding.mu_per_cm))
    return math.exp(-math.exp(log_mu) * shielding.thickness_cm)


def compton_edge(energy_kev: float) -> float:
    """Maximum single-scatter energy transfer for a photon of ``energy_kev``."""
    if not energy_kev > 0:
        raise ValueError(f"energy {energy_kev} must be positive")
    ratio = 2.0 * energy_kev / ELECTRON_REST_KEV
    return energy_kev * ratio / (1.0 + ratio)


def sphere_area_cm2(distance_m: float) -> float:
    """Area of the sphere of radius ``distance_m`` around the source, in cm^2."""
    radius_cm = 100.0 * distance_m
    return 4.0 * math.pi * radius_cm * radius_cm


def geometric_fraction(distance_m: float, face_area_cm2: float) -> float:
    """Solid-angle fraction of an isotropic source subtended by the detector face."""
    return face_area_cm2 / sphere_area_cm2(distance_m)


# Cephes ``ndtr.c`` (S. Moshier), ported to give its erf bit for bit:
# x T(x^2)/U(x^2) for |x| <= 1, else 1 - erfc(|x|) with the sign of x, where
# erfc = exp(-x^2) P(|x|)/Q(|x|) below 8.  From 8 on, cephes' erfc (its R/S
# branch and its exp underflow guard) is below 1.2e-29, far under half an ulp
# of 1, so erf rounds to +-1 there and those branches are left out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x: np.ndarray, coef: tuple[float, ...], leading_one: bool = False) -> np.ndarray:
    """Horner's rule in cephes' order; ``leading_one`` prepends an implicit 1."""
    y = x + coef[0] if leading_one else np.full_like(x, coef[0])
    for c in coef[1:]:
        y = y * x + c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` of each element of a float64 array, bit for bit.

    ``math.erf`` rounds differently, and ``np.exp`` rounds differently from
    the libm ``exp`` that cephes calls, so exp(-x^2) comes from ``math.exp``,
    one value at a time.  nan gives nan, and no input raises a floating-point
    warning: x^2 is only formed where |x| < 8.
    """
    a = np.abs(x)
    out = np.where(np.isnan(x), np.nan, np.copysign(1.0, x))
    inner = a <= 1.0
    z = x[inner]
    out[inner] = z * _polevl(z * z, _ERF_T) / _polevl(z * z, _ERF_U, leading_one=True)
    outer = (a > 1.0) & (a < 8.0)
    z = a[outer]
    exp_z2 = np.fromiter(map(math.exp, (-(z * z)).tolist()), np.float64, z.size)
    erfc = exp_z2 * _polevl(z, _ERFC_P) / _polevl(z, _ERFC_Q, leading_one=True)
    out[outer] = np.copysign(1.0 - erfc, x[outer])
    return out


def line_response(
    detector: DetectorModel,
    line_energy_kev: float,
    expected_detections: float,
) -> np.ndarray:
    """Expected counts per channel of one gamma line carrying ``expected_detections``.

    (1 - compton_fraction) of the counts form a Gaussian photopeak at the line
    energy (FWHM scaling as sqrt(E), truncated at +-6 sigma); the rest spread
    uniformly from zero up to the Compton edge.  Total counts are conserved to
    well under 0.1% (only the truncated Gaussian tails are lost).  The
    truncation zeroes whole channels by their centre, so a photopeak narrower
    than a channel can lose more; when it loses over 0.1% of the line's counts
    inside the calibration, ``ValueError`` names the line.
    """
    cal = detector.calibration
    if not cal.e_min <= line_energy_kev < cal.e_max:
        raise ValueError(
            f"line at {line_energy_kev} keV is outside calibration range "
            f"[{cal.e_min}, {cal.e_max}] keV"
        )
    if expected_detections < 0:
        raise ValueError("expected detections must be non-negative")

    sigma = detector.fwhm_kev(line_energy_kev) * FWHM_TO_SIGMA
    edges = cal.bin_edges()
    with np.errstate(over="ignore"):  # a peak far narrower than a channel: edges at +-inf
        z = (edges - line_energy_kev) / (sigma * math.sqrt(2.0))
    erf_z = _erf(z)
    peak = 0.5 * np.diff(erf_z)
    centers = cal.bin_centers()
    peak[np.abs(centers - line_energy_kev) > GAUSSIAN_TRUNCATION_SIGMA * sigma] = 0.0
    lost = (1.0 - detector.compton_fraction) * (0.5 * (erf_z[-1] - erf_z[0]) - peak.sum())
    if not lost <= PHOTOPEAK_LOSS_LIMIT:
        raise ValueError(
            f"line at {line_energy_kev} keV: its photopeak (sigma {sigma:.3g} keV) is "
            f"narrower than a {cal.channel_width:.3g} keV channel, and {lost:.2%} of "
            f"its counts would be lost"
        )

    edge_kev = compton_edge(line_energy_kev)
    overlap = np.clip(np.minimum(edges[1:], edge_kev) - np.maximum(edges[:-1], 0.0), 0.0, None)
    continuum = overlap / edge_kev

    shape = (1.0 - detector.compton_fraction) * peak + detector.compton_fraction * continuum
    return expected_detections * shape


def background_template(
    detector: DetectorModel,
    dwell_s: float,
    rate_cps: float = DEFAULT_BACKGROUND_CPS,
) -> np.ndarray:
    """Deterministic ambient-background expected counts per channel, scaled to ``rate_cps``."""
    if not dwell_s > 0:
        raise ValueError(f"dwell {dwell_s} must be positive")
    centers = detector.calibration.bin_centers()
    shape = np.exp(-centers / BACKGROUND_SLOPE_KEV) + BACKGROUND_FLAT_LEVEL
    shape[centers > BACKGROUND_MAX_KEV] = 0.0
    shape /= math.fsum(shape.tolist())
    return rate_cps * dwell_s * shape


def build_template(
    config: SourceConfig,
    detector: DetectorModel,
    dwell_s: float,
    background_cps: float = DEFAULT_BACKGROUND_CPS,
) -> Spectrum:
    """Expected-count spectrum for one source configuration at ``dwell_s``.

    The one-row case of :func:`template_matrix`.
    """
    counts = template_matrix([config], detector, dwell_s, background_cps)[0]
    return Spectrum(counts, detector.calibration, dwell_s, SpectrumKind.EXPECTED_TEMPLATE)


def template_matrix(
    grid: list[SourceConfig],
    detector: DetectorModel,
    dwell_s: float,
    background_cps: float = DEFAULT_BACKGROUND_CPS,
) -> np.ndarray:
    """(n_cells, n_channels) expected counts of each grid cell at ``dwell_s``.

    Per line: activity * dwell * intensity * shield transmission * geometric
    fraction * intrinsic efficiency, times the line's :func:`line_response`
    shape.  Depleted-uranium shielding adds its own emission lines, which pass
    no shielding; background is added only to the cells that ask for it.  A
    line's shape depends only on the detector and the line energy, so each
    distinct energy's shape is computed once per call.  A line outside the
    calibration range, or outside its shield's attenuation table, raises
    ``ValueError`` naming its isotope (or the DU shield) and the range; so
    does a cell whose distance puts the sphere inside the detector face
    (4 pi (100 d)^2 below ``face_area_cm2``), naming its isotope and distance.
    Expected counts that overflow raise ``ValueError`` naming the run-config
    key they come from: ``grid.background_cps``, or ``grid.activity_bq`` and
    the cell.
    """
    if not dwell_s > 0:
        raise ValueError(f"dwell {dwell_s} must be positive")
    shapes: dict[float, np.ndarray] = {}
    background = None
    if any(config.include_background for config in grid):
        background = background_template(detector, dwell_s, background_cps)
        if not np.isfinite(background).all():
            raise ValueError(f"grid.background_cps: {background_cps} cps over {dwell_s} s "
                             "overflows the expected counts")
    matrix = np.empty((len(grid), detector.calibration.n_channels))
    for row, config in enumerate(grid):
        if sphere_area_cm2(config.distance_m) < detector.face_area_cm2:
            raise ValueError(f"{config.isotope.name}: at {config.distance_m} m the detector face "
                             f"({detector.face_area_cm2} cm^2) exceeds the whole sphere")
        geom = geometric_fraction(config.distance_m, detector.face_area_cm2)
        counts = np.zeros(detector.calibration.n_channels)
        # (source, activity, shielding its lines pass, lines): a DU shield emits
        # from where it sits, so its own lines pass no shielding.
        emitters = [(config.isotope.name, config.activity_bq, config.shielding, config.isotope.lines)]
        if config.shielding.material is ShieldMaterial.DEPLETED_URANIUM:
            emitters.append((ShieldMaterial.DEPLETED_URANIUM.value,
                             DU_EMISSION_BQ_PER_CM * config.shielding.thickness_cm,
                             bare_shielding(), DU_EMISSION_LINES))
        for source, activity, shielding, lines in emitters:
            try:
                for energy, intensity in lines:
                    expected = (activity * dwell_s * intensity * attenuation_factor(shielding, energy)
                                * geom * detector.intrinsic_efficiency)
                    if energy not in shapes:
                        shapes[energy] = line_response(detector, energy, 1.0)
                    counts = counts + expected * shapes[energy]
            except ValueError as err:
                raise ValueError(f"{source}: {err}") from err
        if not np.isfinite(counts).all():
            raise ValueError(f"grid.activity_bq: {config.activity_bq} Bq of "
                             f"{config.isotope.name} at {config.distance_m} m over {dwell_s} s "
                             "overflows the expected counts")
        if config.include_background:
            counts = counts + background
        matrix[row] = counts
    return matrix
