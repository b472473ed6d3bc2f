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
import typing
from dataclasses import dataclass, field, is_dataclass

from .cavity import CavityParams
from .errors import Breach, check, fields, file_keys, read_json, spec
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


_TYPES = typing.get_type_hints(DeviceParams)
#: top-level file key -> DeviceParams field, for the numbers at the top of the file
_SCALARS = {k: name for k, name in file_keys(DeviceParams).items() if _TYPES[name] is float}
#: file section -> (DeviceParams field, record type)
_SECTIONS = {k: (name, _TYPES[name]) for k, name in file_keys(DeviceParams).items()
             if is_dataclass(_TYPES[name])}
#: every leaf's path in the file, the keys of the provenance map
_LEAF_PATHS = [*_SCALARS] + [f"{section}.{k}" for section, (_, cls) in _SECTIONS.items() for k in file_keys(cls)]


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


def _unpack_section(section: str, raw, cls):
    """The ``cls`` record of a section; a field's breach names its path, ``cavity_i.kappa_int_mhz``."""
    keymap = file_keys(cls)
    fields(section, raw, keymap, keymap)
    try:
        return cls(**{attr: raw[k] for k, attr in keymap.items()})
    except Breach as exc:
        raise Breach(f"{section}.{exc.key}", exc.bound, exc.value) from exc
    except ValueError as exc:
        raise ValueError(f"invalid value in {section!r}: {exc}") from exc


def to_dict(d: DeviceParams) -> dict:
    out = {k: getattr(d, attr) for k, attr in _SCALARS.items()}
    for section, (attr, cls) in _SECTIONS.items():
        record = getattr(d, attr)
        out[section] = {k: getattr(record, a) for k, a in file_keys(cls).items()}
    out["provenance"] = dict(sorted(d.provenance.items()))
    return out


def from_dict(data: dict) -> DeviceParams:
    top = {*_SCALARS, *_SECTIONS}
    fields("device file", data, {*top, "provenance"}, top)
    provenance = fields("provenance", data.get("provenance", {}), _LEAF_PATHS)
    kwargs = {attr: data[k] for k, attr in _SCALARS.items()}
    for section, (attr, cls) in _SECTIONS.items():
        kwargs[attr] = _unpack_section(section, data[section], cls)
    # fields present in the file but untagged are treated as user-supplied
    return DeviceParams(**kwargs, provenance={p: provenance.get(p, "user") for p in _LEAF_PATHS})


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
