"""Synthetic gamma-ray spectrum classification toolkit.

Builds expected-count spectra for sources behind shielding at range, Poisson
samples them to short dwells, and trains shallow softmax classifiers (linear
and single-hidden-layer tanh) for isotope, shielding, and industrial-gauge
identification.
"""

from .spectra import (
    EnergyCalibration,
    Spectrum,
    SpectrumKind,
    default_calibration,
    read_spectrum_csv,
    rebin,
    rebin_counts,
    total_counts,
    write_spectrum_csv,
)
from .forward_model import (
    DetectorModel,
    Isotope,
    ShieldMaterial,
    Shielding,
    SourceConfig,
    attenuation_factor,
    background_template,
    build_template,
    compton_edge,
    default_detector,
    default_shielding,
    isotope_by_name,
    line_response,
    template_matrix,
)
from .ensemble import (
    LabeledDataset,
    TaskKind,
    build_dataset,
    poisson_sample,
    read_dataset,
    standard_grid,
    template_dataset,
    write_dataset,
)
from .neuralnet import (
    AdamHyper,
    AdamState,
    HiddenTanhParams,
    LinearParams,
    adam_step,
    backward,
    cross_entropy,
    forward,
    forward_hidden,
    forward_linear,
    init_adam,
    init_params,
    load_model,
    save_model,
    softmax,
)
from .experiment import (
    EvalResult,
    MetricsHistory,
    evaluate,
    oversample_positives,
    run_scenario,
    train,
)

__version__ = "0.1.0"
