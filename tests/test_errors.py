"""The one record schema: each bound, integer rule and file key, read from the records' own field specs."""

import dataclasses
import math

import pytest

from photon_transistor.analysis import CalibrationInputs
from photon_transistor.cavity import CavityParams, PulseShape
from photon_transistor.device import DeviceParams, paper_defaults
from photon_transistor.errors import file_keys, spec
from photon_transistor.measurement import DetectionModel
from photon_transistor.protocol import ProtocolConfig
from photon_transistor.qubit import QubitRates
from photon_transistor.semiclassical import SemiclassicalSettings

#: a valid instance of each record that states its fields' rules
RECORDS = {
    CavityParams: lambda: paper_defaults().cavity_I,
    PulseShape: lambda: PulseShape("gaussian", 960.0),
    DeviceParams: paper_defaults,
    ProtocolConfig: ProtocolConfig,
    QubitRates: lambda: paper_defaults().qubit_rates,
    DetectionModel: DetectionModel,
    SemiclassicalSettings: SemiclassicalSettings,
    CalibrationInputs: lambda: CalibrationInputs(26.65, 23.14, 2.35, 5.86, 0.13),
}

TINY = 5e-324  # the least positive double
#: per bound and field kind: the values just outside it, and its closed edges, which it accepts
EDGES = {
    ("float", ">= 0"): ([-TINY], [0.0]),
    ("float", "> 0"): ([0.0, -TINY], []),
    ("float", "in [0, 1]"): ([-TINY, math.nextafter(1.0, 2.0)], [0.0, 1.0]),
    ("float", "in (0, 1]"): ([0.0, math.nextafter(1.0, 2.0)], [1.0]),
    ("int", ">= 0"): ([-1], [0]),
    ("int", ">= 1"): ([0], [1]),
    ("int", ">= 2"): ([1], [2]),
}


def _specified(predicate):
    """(record type, field, file key) of every field of the records that satisfies ``predicate``."""
    return [pytest.param(cls, f, key, id=f"{cls.__name__}.{f.name}")
            for cls in RECORDS for f, key in zip(dataclasses.fields(cls), file_keys(cls)) if predicate(f)]


def test_file_key_is_the_lower_case_name_and_the_unit():
    assert file_keys(QubitRates) == {"t1_ge_us": "T1_ge", "t1_ef_us": "T1_ef", "t2_ge_us": "T2_ge",
                                     "t2_gf_us": "T2_gf", "thermal_excitation_rate_per_us": "thermal_excitation_rate"}
    assert file_keys(PulseShape) == {"kind": "kind", "duration_ns": "duration", "sigma_ns": "sigma",
                                     "carrier_detuning_mhz": "carrier_detuning"}


@pytest.mark.parametrize("cls, f, key", _specified(lambda f: f.metadata.get("bound")))
def test_bound_rejects_a_value_just_outside_it_and_accepts_a_closed_edge(cls, f, key):
    bound = f.metadata["bound"]
    outside, edges = EDGES[str(f.type).removesuffix(" | None"), bound]
    for value in outside:
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(RECORDS[cls](), **{f.name: value})
        assert str(raised.value) == f"{key} must be {bound}, got {value!r}"
    for value in edges:
        assert getattr(dataclasses.replace(RECORDS[cls](), **{f.name: value}), f.name) == value


@pytest.mark.parametrize("cls, f, key", _specified(lambda f: f.type == "int"))
@pytest.mark.parametrize("value", [True, 8.0])
def test_int_field_rejects_a_bool_and_an_integral_float(cls, f, key, value):
    with pytest.raises(ValueError) as raised:
        dataclasses.replace(RECORDS[cls](), **{f.name: value})
    assert str(raised.value) == f"{key} must be an integer, got {value!r}"


@pytest.mark.parametrize("cls, f, key", _specified(lambda f: f.metadata.get("choices")))
def test_choice_field_rejects_a_value_outside_its_choices(cls, f, key):
    with pytest.raises(ValueError) as raised:
        dataclasses.replace(RECORDS[cls](), **{f.name: "other"})
    assert str(raised.value) == f"{key} must be one of {f.metadata['choices']}, got 'other'"


def test_only_a_none_default_admits_none():
    assert ProtocolConfig(eta_override=None).eta_override is None
    assert PulseShape("square", 100.0, sigma=None).sigma is None
    with pytest.raises(ValueError, match=r"^dark_flip must be a finite number, got None$"):
        ProtocolConfig(dark_flip=None)


def test_unknown_bound_is_refused_where_it_is_stated():
    with pytest.raises(ValueError, match="unknown bound '< 0'"):
        spec(bound="< 0")
