import contextlib
import dataclasses
import importlib
import json
import math
import pkgutil
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photon_transistor
from photon_transistor import device as device_mod
from photon_transistor import errors
from photon_transistor.cavity import CavityParams, PulseShape, gating_efficiency, internal_loss_for_efficiency
from photon_transistor.device import (
    DeviceParams,
    KAPPA_I_INT_FOR_ETA_080,
    PROVENANCE_TAGS,
    from_dict,
    load,
    paper_defaults,
    save,
    to_dict,
)
from photon_transistor.measurement import DetectionModel
from photon_transistor.qubit import QubitRates
from photon_transistor.semiclassical import SemiclassicalSettings

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LEAF_PATHS = sorted(paper_defaults().provenance)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def devices(draw):
    """A DeviceParams with every leaf drawn: cavity I stays single-sided, T2 <= 2*T1."""
    positive, signed = _floats(1e-3, 1e3), _floats(-1e3, 1e3)

    def cavity(kappa_ext_out):
        return CavityParams(draw(_floats(1e3, 2e4)), draw(positive), kappa_ext_out, draw(_floats(0.0, 1e3)),
                            draw(signed), draw(signed))

    t1_ge, t1_ef = draw(positive), draw(positive)
    fraction = _floats(1e-3, 1.0)
    return DeviceParams(
        f_q=draw(positive),
        E_c=draw(positive),
        cavity_I=cavity(0.0),
        cavity_II=cavity(draw(positive)),
        qubit_rates=QubitRates(t1_ge, t1_ef, 2.0 * t1_ge * draw(fraction), 2.0 * t1_ef * draw(fraction),
                               draw(_floats(0.0, 1.0))),
        detection=DetectionModel(draw(_floats(1e-3, 1.0)), draw(_floats(0.0, 1e2)), draw(_floats(0.0, 1e2))),
        semiclassical=SemiclassicalSettings(draw(positive), draw(positive), draw(positive), draw(signed),
                                            draw(positive), draw(positive)),
        provenance={path: draw(st.sampled_from(PROVENANCE_TAGS)) for path in LEAF_PATHS},
    )


class TestPaperDefaults:
    def test_headline_values(self):
        dev = paper_defaults()
        assert dev.f_q == 5350.0
        assert dev.E_c == 249.0
        assert dev.cavity_I.kappa_ext_in == 1.81
        assert 2 * abs(dev.cavity_I.chi_ge) == pytest.approx(1.73)
        assert dev.cavity_II.kappa_ext_in == dev.cavity_II.kappa_ext_out == 0.13
        assert 2 * abs(dev.cavity_II.chi_ge) == pytest.approx(1.894)
        assert 2 * abs(dev.cavity_II.chi_gf) == pytest.approx(3.518)

    def test_cavity_ii_internal_loss_inferred_from_total(self):
        dev = paper_defaults()
        # quoted total linewidth 0.3 minus the two 0.13 ports
        assert dev.cavity_II.kappa_int == pytest.approx(0.3 - 2 * 0.13, abs=1e-12)
        assert dev.cavity_II.kappa_tot == pytest.approx(0.3)

    def test_sidedness(self):
        dev = paper_defaults()
        assert dev.cavity_I.single_sided
        assert dev.cavity_II.two_sided

    def test_frozen_internal_loss_reproduces_eta(self):
        dev = paper_defaults()
        eta = gating_efficiency(dev.cavity_I, PulseShape("gaussian", 960.0))
        assert eta == pytest.approx(0.80, abs=1e-9)

    def test_frozen_internal_loss_matches_fresh_root_find(self):
        dev = paper_defaults()
        lossless = dataclasses.replace(dev.cavity_I, kappa_int=0.0)
        root = internal_loss_for_efficiency(lossless, PulseShape("gaussian", 960.0), 0.80)
        assert root == pytest.approx(KAPPA_I_INT_FOR_ETA_080, abs=1e-7)

    def test_provenance_complete_and_tagged(self):
        dev = paper_defaults()
        flat = to_dict(dev)
        leaf_count = 2 + 6 + 6 + 5 + 3 + 6
        assert len(dev.provenance) == leaf_count
        assert dev.provenance["f_q_mhz"] == "paper"
        assert dev.provenance["cavity_i.kappa_int_mhz"] == "derived"
        assert dev.provenance["qubit_rates.t1_ge_us"] == "default"
        assert set(flat["provenance"].values()) <= {"paper", "derived", "default", "user"}


class TestSerialization:
    def test_shipped_paper_file_is_paper_defaults(self, tmp_path):
        path = tmp_path / "device.json"
        save(paper_defaults(), path)
        assert path.read_bytes() == (CONFIGS / "device_paper.json").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(dev=devices())
    def test_round_trip_every_leaf(self, dev):
        # through JSON text, as save and load do; distinct drawn leaves catch a key
        # that to_dict and from_dict map to different fields
        assert from_dict(json.loads(json.dumps(to_dict(dev)))) == dev

    @settings(max_examples=60, deadline=None)
    @given(dev=devices())
    def test_record_reads_back_what_to_file_writes(self, dev):
        assert errors.record(DeviceParams, json.loads(json.dumps(errors.to_file(dev))), "device file") == dev

    def test_round_trip(self, tmp_path):
        dev = paper_defaults()
        path = tmp_path / "device.json"
        save(dev, path)
        loaded = load(path)
        assert loaded == dev

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            load(path)

    def test_unknown_top_level_field(self):
        data = to_dict(paper_defaults())
        data["mystery_knob"] = 1.0
        with pytest.raises(ValueError, match="mystery_knob"):
            from_dict(data)

    def test_unknown_section_field(self):
        data = to_dict(paper_defaults())
        data["cavity_i"]["quality_factor"] = 1e6
        with pytest.raises(ValueError, match="quality_factor"):
            from_dict(data)

    def test_missing_field_named(self):
        data = to_dict(paper_defaults())
        del data["cavity_ii"]["kappa_int_mhz"]
        with pytest.raises(ValueError, match="kappa_int_mhz"):
            from_dict(data)

    def test_negative_rate_named(self, tmp_path):
        data = to_dict(paper_defaults())
        data["cavity_i"]["kappa_ext_in_mhz"] = -1.0
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="kappa_ext_in"):
            load(path)

    def test_non_numeric_value_named(self, tmp_path):
        data = to_dict(paper_defaults())
        data["cavity_ii"]["kappa_int_mhz"] = "tiny"
        path = tmp_path / "str.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="kappa_int_mhz"):
            load(path)

    def test_untagged_fields_become_user(self):
        data = to_dict(paper_defaults())
        del data["provenance"]
        dev = from_dict(data)
        assert set(dev.provenance.values()) == {"user"}

    def test_top_level_keys_are_checked_once(self):
        seen, fields = [], errors.fields

        def counted(where, *args):
            seen.append(where)
            return fields(where, *args)

        with mock.patch.object(errors, "fields", counted), mock.patch.object(device_mod, "fields", counted):
            from_dict(to_dict(paper_defaults()))
        assert seen.count("device file") == 1

    def test_provenance_for_unknown_field_rejected(self):
        data = to_dict(paper_defaults())
        data["provenance"]["cavity_i.bogus"] = "paper"
        with pytest.raises(ValueError, match="bogus"):
            from_dict(data)


class TestInvariants:
    def test_cavity_i_must_be_single_sided(self):
        dev = paper_defaults()
        two_sided = dataclasses.replace(dev.cavity_I, kappa_ext_out=0.5)
        with pytest.raises(ValueError, match="single-sided"):
            dataclasses.replace(dev, cavity_I=two_sided)

    def test_cavity_ii_must_be_two_sided(self):
        dev = paper_defaults()
        one_sided = dataclasses.replace(dev.cavity_II, kappa_ext_out=0.0)
        with pytest.raises(ValueError, match="two-sided"):
            dataclasses.replace(dev, cavity_II=one_sided)

    def test_positive_qubit_frequency(self):
        dev = paper_defaults()
        with pytest.raises(ValueError):
            dataclasses.replace(dev, f_q=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["f_q", "E_c"])
    def test_qubit_scalars_reject_a_value_that_is_not_a_finite_number(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name.lower()}_mhz must be a finite number, got"):
            dataclasses.replace(paper_defaults(), **{name: value})

    def test_bad_provenance_tag(self):
        dev = paper_defaults()
        with pytest.raises(ValueError, match="provenance"):
            DeviceParams(
                f_q=dev.f_q,
                E_c=dev.E_c,
                cavity_I=dev.cavity_I,
                cavity_II=dev.cavity_II,
                qubit_rates=dev.qubit_rates,
                detection=dev.detection,
                semiclassical=dev.semiclassical,
                provenance={"f_q_mhz": "guessed"},
            )


def test_loading_the_paper_device_applies_the_number_rule_once_per_float_leaf():
    # counted at every name the package holds for the rule, so that a module's own copy of it is seen too
    modules = [importlib.import_module(f"photon_transistor.{m.name}")
               for m in pkgutil.iter_modules(photon_transistor.__path__)]
    rule = mock.Mock(wraps=errors.number)
    with contextlib.ExitStack() as stack:
        for module in modules:
            if getattr(module, "number", None) is errors.number:
                stack.enter_context(mock.patch.object(module, "number", rule))
        load(CONFIGS / "device_paper.json")
    assert rule.call_count == len(LEAF_PATHS) == 28
