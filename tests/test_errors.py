"""The one value rule: each record's bounds, integer rules and file keys, read from its own field specs, and the
same rule and message for the CLI flags, the library's scalar arguments and every device-section leaf."""

import dataclasses
import json
import math
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_transistor.analysis import (
    CalibrationInputs,
    CalibrationResult,
    predict_single_photon,
    switching_probability,
)
from photon_transistor.cavity import CavityParams, PulseShape
from photon_transistor.cli import load_protocol, main
from photon_transistor.device import DeviceParams, from_dict, paper_defaults, to_dict
from photon_transistor.errors import Breach, check, file_keys, record, spec, to_file
from photon_transistor.hilbert import pure_state
from photon_transistor.measurement import DetectionModel, histogram
from photon_transistor.protocol import GATE_SOURCES, SIGNAL_TARGETS, ProtocolConfig, coherent_flip_probability
from photon_transistor.qubit import QubitRates, evolve_lindblad
from photon_transistor.semiclassical import SemiclassicalSettings

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    ("int", "in [1, 4194304]"): ([0, 2**22 + 1], [1, 2**22]),
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


@dataclasses.dataclass(frozen=True)
class _OptionalBounded:
    """A record whose optional field is annotated ``typing.Optional``, not ``float | None``."""

    x: typing.Optional[float] = spec(bound=">= 0", default=None)

    def __post_init__(self):
        check(self)


def test_optional_field_is_checked_whatever_its_annotation_spells():
    assert _OptionalBounded().x is None and _OptionalBounded(2).x == 2.0
    with pytest.raises(Breach, match=r"^x must be >= 0, got -1\.0$"):
        _OptionalBounded(-1.0)
    with pytest.raises(Breach, match=r"^x must be >= 0, got -1\.0$"):
        record(_OptionalBounded, {"x": -1.0}, "test file")
    with pytest.raises(Breach, match=r"^x must be a finite number, got 'big'$"):
        _OptionalBounded("big")


def test_unknown_bound_is_refused_where_it_is_stated():
    with pytest.raises(ValueError, match="unknown bound '< 0'"):
        spec(bound="< 0")


# ---------------------------------------------------------------------------
# the same rule, and the same message, for CLI flags, library arguments and device sections


def _cli_error(argv, tmp_path, capsys) -> str:
    """The one line a command prints for ``argv``, which must exit 2 before reading the input files
    (the device and protocol paths given do not exist) or making ``--out``."""
    missing, out = str(tmp_path / "missing.json"), tmp_path / "out"
    files = {"spectra": ["--cavity", "I"], "gain-sweep": [],
             "switch": ["--protocol", missing], "wigner": ["--protocol", missing, "--condition", "on"]}
    assert main([argv[0], "--device", missing, "--out", str(out), *files[argv[0]], *argv[1:]]) == 2
    assert not out.exists()
    (line,) = capsys.readouterr().err.splitlines()
    return line.removeprefix("config error: ")


@pytest.mark.parametrize("argv, message", [
    (["spectra", "--points", "0"], "--points must be >= 1, got 0"),
    (["spectra", "--f-min", "nan"], "--f-min must be a finite number, got nan"),
    (["spectra", "--f-max", "inf"], "--f-max must be a finite number, got inf"),
    (["switch", "--bins", "0"], "--bins must be >= 1, got 0"),
    (["gain-sweep", "--points", "-2"], "--points must be >= 1, got -2"),
    (["gain-sweep", "--n-min", "0"], "--n-min must be > 0, got 0.0"),
    (["gain-sweep", "--n-min=-inf"], "--n-min must be a finite number, got -inf"),
    (["gain-sweep", "--n-max", "inf"], "--n-max must be a finite number, got inf"),
    (["gain-sweep", "--eta", "1.5"], "--eta must be in [0, 1], got 1.5"),
    (["gain-sweep", "--eta", "nan"], "--eta must be a finite number, got nan"),
    (["gain-sweep", "--p-s", "-0.5"], "--p-s must be in [0, 1], got -0.5"),
    (["wigner", "--extent", "0"], "--extent must be > 0, got 0.0"),
    (["wigner", "--extent", "nan"], "--extent must be a finite number, got nan"),
    (["wigner", "--points", "0"], "--points must be >= 1, got 0"),
    (["switch", "--shots", "0"], "--shots must be in [1, 4194304], got 0"),
    (["wigner", "--shots", "4194305"], "--shots must be in [1, 4194304], got 4194305"),
    (["switch", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["wigner", "--seed", "-3"], "--seed must be >= 0, got -3"),
])
def test_flag_breach_reads_the_template_before_any_file_is_read(tmp_path, capsys, argv, message):
    assert _cli_error(argv, tmp_path, capsys) == message


def _evolve(dt):
    return evolve_lindblad(pure_state([1.0, 1.0, 0.0], (3,)), dt, paper_defaults().qubit_rates)


@pytest.mark.parametrize("call, message", [
    (lambda: coherent_flip_probability(0.1, 1.2, 0.0), "eta must be in [0, 1], got 1.2"),
    (lambda: coherent_flip_probability(0.1, 0.8, -0.1), "dark_flip must be in [0, 1], got -0.1"),
    (lambda: coherent_flip_probability(-0.1, 0.8, 0.0), "n_g must be >= 0, got -0.1"),
    (lambda: coherent_flip_probability(0.1, math.nan, 0.0), "eta must be a finite number, got nan"),
    (lambda: predict_single_photon(CalibrationResult(0.5, 0.5, 1.0, 0.0, 0.0), 1.5), "eta must be in [0, 1], got 1.5"),
    (lambda: predict_single_photon(CalibrationResult(0.5, 0.5, 1.0, 0.0, 0.0), math.inf),
     "eta must be a finite number, got inf"),
    (lambda: switching_probability(1.2, 0.5), "eta must be in [0, 1], got 1.2"),
    (lambda: switching_probability(0.5, -0.1), "p_s must be in [0, 1], got -0.1"),
    (lambda: switching_probability(0.5, True), "p_s must be a finite number, got True"),
    (lambda: histogram([1.0, 2.0], 0), "bins must be >= 1, got 0"),
    (lambda: _evolve(-1.0), "dt must be >= 0, got -1.0"),
    (lambda: _evolve(math.nan), "dt must be a finite number, got nan"),
    (lambda: _evolve(math.inf), "dt must be a finite number, got inf"),
])
def test_library_argument_breach_reads_the_template(call, message):
    with pytest.raises(Breach) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("value, message", [
    (-1.0, "cavity_i.kappa_int_mhz must be >= 0, got -1.0"),
    ("tiny", "cavity_i.kappa_int_mhz must be a finite number, got 'tiny'"),
    (math.inf, "cavity_i.kappa_int_mhz must be a finite number, got inf"),
])
def test_device_section_breach_names_the_leaf_by_its_path(value, message):
    data = to_dict(paper_defaults())
    data["cavity_i"]["kappa_int_mhz"] = value
    with pytest.raises(Breach) as raised:
        from_dict(data)
    assert str(raised.value) == message
    assert (raised.value.key, raised.value.value) == ("cavity_i.kappa_int_mhz", value)


def test_device_section_cross_field_error_keeps_its_section_wrapper():
    data = to_dict(paper_defaults())
    data["cavity_i"].update(kappa_ext_in_mhz=0.0, kappa_int_mhz=0.0)
    with pytest.raises(ValueError) as raised:
        from_dict(data)
    assert not isinstance(raised.value, Breach)
    assert str(raised.value) == "invalid value in 'cavity_i': total linewidth must be positive"


def test_gate_pulse_breach_names_the_leaf_by_its_path(tmp_path):
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps({"gate_pulse": {"kind": "gaussian", "duration_ns": -1.0}}))
    with pytest.raises(Breach) as raised:
        load_protocol(path)
    assert str(raised.value) == "gate_pulse.duration_ns must be > 0, got -1.0"
    assert (raised.value.key, raised.value.value) == ("gate_pulse.duration_ns", -1.0)


# ---------------------------------------------------------------------------
# the one reader of record files, and its inverse


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def protocols(draw):
    """A ProtocolConfig with every field drawn, the gate pulse's sigma and detuning each given or omitted."""
    pulse = {"kind": draw(st.sampled_from(("gaussian", "square"))), "duration": draw(_floats(1.0, 1e4))}
    if draw(st.booleans()):
        pulse["sigma"] = draw(_floats(1.0, 1e3))
    if draw(st.booleans()):
        pulse["carrier_detuning"] = draw(_floats(-10.0, 10.0))
    unit = _floats(0.0, 1.0)
    return ProtocolConfig(
        theta=draw(_floats(-10.0, 10.0)), subspace=draw(st.sampled_from(("ge", "gf"))), n_g=draw(unit),
        gate_pulse=PulseShape(**pulse), n_s=draw(_floats(0.0, 1e6)), signal_duration=draw(_floats(1e-3, 1e3)),
        signal_detuning_target=draw(st.sampled_from(SIGNAL_TARGETS)), eta_override=draw(st.none() | unit),
        dark_flip=draw(unit), n_shots=draw(st.integers(1, 2**22)), seed=draw(st.integers(0, 2**63)),
        gate_source=draw(st.sampled_from(GATE_SOURCES)), signal_flip_rate_per_photon=draw(_floats(0.0, 1.0)),
    )


@settings(max_examples=100, deadline=None)
@given(cfg=protocols())
def test_record_reads_back_what_to_file_writes(cfg):
    assert record(ProtocolConfig, json.loads(json.dumps(to_file(cfg))), "protocol file") == cfg


def test_null_reads_as_the_omitted_key_where_the_default_is_none(tmp_path):
    # a null is accepted exactly where the default is None: the record, and so the manifest hash, are those
    # of the file that leaves the key out
    base = json.loads((CONFIGS / "protocol_paper_point.json").read_text())
    nulls = base | {"eta_override": None, "gate_pulse": base["gate_pulse"] | {"sigma_ns": None}}
    assert record(ProtocolConfig, nulls, "protocol file") == record(ProtocolConfig, base, "protocol file")
    hashes = []
    for name, raw in (("omitted", base), ("null", nulls)):
        (tmp_path / f"{name}.json").write_text(json.dumps(raw))
        out = tmp_path / name
        assert main(["switch", "--device", str(CONFIGS / "device_paper.json"), "--protocol",
                     str(tmp_path / f"{name}.json"), "--shots", "200", "--out", str(out)]) == 0
        hashes.append(json.loads((out / "switch_report.json").read_text())["manifest"]["manifest_hash"])
    assert hashes[0] == hashes[1]
    with pytest.raises(Breach, match=r"^dark_flip must be a finite number, got None$"):
        record(ProtocolConfig, base | {"dark_flip": None}, "protocol file")
    with pytest.raises(Breach, match=r"^gate_pulse\.duration_ns must be a finite number, got None$"):
        record(ProtocolConfig, base | {"gate_pulse": {"kind": "square", "duration_ns": None}}, "protocol file")
