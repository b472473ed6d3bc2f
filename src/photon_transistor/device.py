"""Single source of truth for device parameters and their serialization.

Every leaf value carries a provenance tag: "paper" for quantities quoted in
the experiment, "derived" for values pinned down by a stated calculation
(e.g. the cavity-I internal loss that reproduces the measured single-photon
gating efficiency), "default" for placeholders the experiment never
published, and "user" for anything loaded from a hand-edited file without an
explicit tag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cavity import CavityParams
from .errors import check, fields, file_keys, leaf_paths, read_json, record, spec, to_file
from .measurement import DetectionModel
from .qubit import QubitRates
from .semiclassical import SemiclassicalSettings

PROVENANCE_TAGS = ("paper", "derived", "default", "user")

#: cavity-I internal loss (MHz) at which the 960 ns Gaussian gate pulse gives
#: a single-photon flip probability of exactly 0.80, eta being averaged over the
#: pulse's full intensity spectrum; found by root-finding gating_efficiency over
#: kappa_int (see tests/test_device.py, which re-derives it)
KAPPA_I_INT_FOR_ETA_080 = 0.15871527810


@dataclass(frozen=True)
class DeviceParams:
    f_q: float = spec("mhz", "> 0")  # qubit frequency
    E_c: float = spec("mhz", "> 0")  # anharmonicity
    cavity_I: CavityParams
    cavity_II: CavityParams
    qubit_rates: QubitRates
    detection: DetectionModel
    semiclassical: SemiclassicalSettings
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        check(self)
        if not self.cavity_I.single_sided:
            raise ValueError("cavity_I must be single-sided (kappa_ext_out = 0)")
        if not self.cavity_II.two_sided:
            raise ValueError("cavity_II must be two-sided")
        bad = [t for t in self.provenance.values() if t not in PROVENANCE_TAGS]
        if bad:
            raise ValueError(f"unknown provenance tags: {bad}")


#: every leaf's path in the file, "<section>.<key>" within a section: the keys of the provenance map
_LEAF_PATHS = [path for path in leaf_paths(DeviceParams) if path != "provenance"]


def paper_defaults() -> DeviceParams:
    """Device parameters at the published operating point.

    Every leaf is tagged "default", as the quantities the experiment never quotes
    are (absolute cavity frequencies, coherence times, the detection chain, the
    mean-field saturation scales), but for the ten the paper quotes and three
    "derived" ones: the cavity-II and cavity-I internal losses (linewidth
    bookkeeping and the eta = 0.80 root-find) and the photon-flux conversion.
    """
    cavity_i = CavityParams(
        f0=7000.0,
        kappa_ext_in=1.81,
        kappa_ext_out=0.0,
        kappa_int=KAPPA_I_INT_FOR_ETA_080,
        chi_ge=-0.865,
        chi_gf=-1.73,
    )
    cavity_ii = CavityParams(
        f0=9000.0,
        kappa_ext_in=0.13,
        kappa_ext_out=0.13,
        kappa_int=0.04,
        chi_ge=-0.947,
        chi_gf=-1.759,
    )
    rates = QubitRates(T1_ge=30.0, T1_ef=15.0, T2_ge=20.0, T2_gf=12.0)
    detection = DetectionModel(efficiency=0.5, added_noise_photons=2.0, baseline_sigma=1.0)
    semi = SemiclassicalSettings()
    provenance = (
        dict.fromkeys(_LEAF_PATHS, "default")
        | dict.fromkeys(["f_q_mhz", "e_c_mhz",
                         "cavity_i.kappa_ext_in_mhz", "cavity_i.kappa_ext_out_mhz", "cavity_i.chi_ge_mhz",
                         "cavity_ii.kappa_ext_in_mhz", "cavity_ii.kappa_ext_out_mhz", "cavity_ii.chi_ge_mhz",
                         "cavity_ii.chi_gf_mhz", "semiclassical.signal_window_us"], "paper")
        | dict.fromkeys(["cavity_i.kappa_int_mhz", "cavity_ii.kappa_int_mhz",
                         "semiclassical.photon_flux_conversion"], "derived")
    )
    return DeviceParams(
        f_q=5350.0,
        E_c=249.0,
        cavity_I=cavity_i,
        cavity_II=cavity_ii,
        qubit_rates=rates,
        detection=detection,
        semiclassical=semi,
        provenance=provenance,
    )


def to_dict(d: DeviceParams) -> dict:
    return to_file(d) | {"provenance": dict(sorted(d.provenance.items()))}


def from_dict(data: dict) -> DeviceParams:
    """The device file's parameters: every leaf is required, and a leaf the file leaves untagged is "user"."""
    fields("device file", data, file_keys(DeviceParams))
    tags = fields("provenance", data.get("provenance", {}), _LEAF_PATHS)
    provenance = {path: tags.get(path, "user") for path in _LEAF_PATHS}
    return record(DeviceParams, data | {"provenance": provenance}, "device file", every=True)


def save(d: DeviceParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(d), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_and_hash(path) -> tuple[DeviceParams, str]:
    """The device file's parameters and the SHA-256 of the bytes they were parsed from, from one read."""
    raw, digest = read_json(path, "device")
    return from_dict(raw), digest


def load(path) -> DeviceParams:
    return load_and_hash(path)[0]
