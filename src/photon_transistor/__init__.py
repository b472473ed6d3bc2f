"""Microwave single-photon transistor: simulator and analysis toolkit."""

from .analysis import (
    CalibrationInputs,
    CalibrationResult,
    TransistorReport,
    extinction_db,
    fit_eta,
    gain_db,
    predict_single_photon,
    solve_calibration,
    switching_probability,
)
from .cavity import (
    CavityParams,
    PulseShape,
    gating_efficiency,
    reflection_coeff,
    shifted_frequency,
    spectrum,
    transmission_coeff,
)
from .device import DeviceParams, load, paper_defaults, save
from .hilbert import (
    QuantumState,
    coherent_state,
    fock_state,
    mean_photon,
    partial_trace,
    tensor,
)
from .measurement import DetectionModel, detect, histogram, kmeans_1d, wigner
from .protocol import (
    ProtocolConfig,
    Shots,
    coherent_flip_probability,
    conditional_gate_field,
    gate_interaction,
    run_experiment,
)
from .qubit import QubitRates, apply_rotation, evolve_lindblad, sample_jump_time
from .semiclassical import (
    SaturableCavityModel,
    SemiclassicalSettings,
    gain_sweep,
    steady_state_photons,
    transmitted_photons,
)

__version__ = "0.2.0"

__all__ = [
    "CalibrationInputs",
    "CalibrationResult",
    "CavityParams",
    "DetectionModel",
    "DeviceParams",
    "ProtocolConfig",
    "PulseShape",
    "QuantumState",
    "QubitRates",
    "SaturableCavityModel",
    "SemiclassicalSettings",
    "Shots",
    "TransistorReport",
    "apply_rotation",
    "coherent_flip_probability",
    "coherent_state",
    "conditional_gate_field",
    "detect",
    "evolve_lindblad",
    "extinction_db",
    "fit_eta",
    "fock_state",
    "gain_db",
    "gain_sweep",
    "gate_interaction",
    "gating_efficiency",
    "histogram",
    "kmeans_1d",
    "load",
    "mean_photon",
    "paper_defaults",
    "partial_trace",
    "predict_single_photon",
    "reflection_coeff",
    "run_experiment",
    "sample_jump_time",
    "save",
    "shifted_frequency",
    "solve_calibration",
    "spectrum",
    "steady_state_photons",
    "switching_probability",
    "tensor",
    "transmission_coeff",
    "transmitted_photons",
    "wigner",
]
