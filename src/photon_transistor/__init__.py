"""Microwave single-photon transistor: simulator and analysis toolkit."""

from .analysis import (
    CalibrationInputs,
    CalibrationResult,
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
from .hilbert import QuantumState, coherent_state, fock_state, mean_photon
from .measurement import DetectionModel, detect, histogram, kmeans_1d, wigner
from .protocol import (
    ProtocolConfig,
    Shots,
    coherent_flip_probability,
    conditional_gate_field,
    run_experiment,
)
from .qubit import QubitRates, evolve_lindblad
from .semiclassical import SaturableCavityModel, SemiclassicalSettings, gain_sweep

__version__ = "0.11.0"

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
    "gating_efficiency",
    "histogram",
    "kmeans_1d",
    "load",
    "mean_photon",
    "paper_defaults",
    "predict_single_photon",
    "reflection_coeff",
    "run_experiment",
    "save",
    "shifted_frequency",
    "solve_calibration",
    "spectrum",
    "switching_probability",
    "transmission_coeff",
    "wigner",
]
