import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import photon_transistor
from photon_transistor import device as device_mod
from photon_transistor.analysis import synthesize_intensities
from photon_transistor.cli import RunManifest, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def device_file(tmp_path):
    path = tmp_path / "device.json"
    device_mod.save(device_mod.paper_defaults(), path)
    return path


@pytest.fixture()
def protocol_file(tmp_path):
    path = tmp_path / "protocol.json"
    path.write_text(
        json.dumps(
            {
                "theta": 0.0,
                "n_g": 0.18,
                "n_s": 37.2,
                "n_shots": 800,
                "seed": 321,
                "eta_override": 0.8,
                "gate_pulse": {"kind": "gaussian", "duration_ns": 960.0},
            }
        )
    )
    return path


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# manifest_hash=")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


class TestSpectra:
    def test_writes_csv_with_header_and_hash(self, tmp_path, device_file):
        out = tmp_path / "out"
        rc = main(["spectra", "--device", str(device_file), "--cavity", "II", "--out", str(out)])
        assert rc == 0
        hash_line, header, rows = read_csv(out / "spectra_cavity_II.csv")
        assert header == ["frequency_mhz", "level", "mode", "amplitude", "phase_rad"]
        assert len(rows) == 3 * 1201

    def test_peak_spacing_matches_dispersive_pull(self, tmp_path, device_file):
        out = tmp_path / "out"
        main(["spectra", "--device", str(device_file), "--cavity", "II", "--out", str(out),
              "--f-min", "8994", "--f-max", "9002", "--points", "8001"])
        _, _, rows = read_csv(out / "spectra_cavity_II.csv")
        peaks = {}
        for level in ("g", "e"):
            sel = [(float(r[0]), float(r[3])) for r in rows if r[1] == level]
            peaks[level] = max(sel, key=lambda t: t[1])[0]
        assert peaks["g"] - peaks["e"] == pytest.approx(1.894, abs=2e-3)

    def test_lossless_cavity_one_flat_reflectance(self, tmp_path):
        dev = device_mod.paper_defaults()
        import dataclasses

        lossless = dataclasses.replace(
            dev, cavity_I=dataclasses.replace(dev.cavity_I, kappa_int=0.0)
        )
        dev_path = tmp_path / "lossless.json"
        device_mod.save(lossless, dev_path)
        out = tmp_path / "out"
        main(["spectra", "--device", str(dev_path), "--cavity", "I", "--out", str(out)])
        _, _, rows = read_csv(out / "spectra_cavity_I.csv")
        amps = [float(r[3]) for r in rows]
        assert max(abs(a - 1.0) for a in amps) < 1e-9


class TestSwitch:
    def test_report_and_artifacts(self, tmp_path, device_file, protocol_file):
        out = tmp_path / "out"
        rc = main(["switch", "--device", str(device_file), "--protocol", str(protocol_file),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "switch_report.json").read_text())
        for run in ("gated", "ungated"):
            counts = report[run]["counts"]
            assert counts["on"] + counts["off"] == 800
        # gating increases the off-event count
        assert report["gated"]["counts"]["off"] > report["ungated"]["counts"]["off"]
        assert (out / "shots.csv").exists()
        assert (out / "histogram.csv").exists()

    def test_seed_reproducibility(self, tmp_path, device_file, protocol_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["switch", "--device", str(device_file), "--protocol", str(protocol_file),
                  "--out", str(out), "--shots", "300"])
        assert (out1 / "shots.csv").read_bytes() == (out2 / "shots.csv").read_bytes()
        r1 = json.loads((out1 / "switch_report.json").read_text())
        r2 = json.loads((out2 / "switch_report.json").read_text())
        for r in (r1, r2):  # same manifest hash, only path/time metadata differs
            r["manifest"].pop("timestamp")
            r["manifest"].pop("outputs")
        assert r1 == r2

    def test_paper_point_classification_converged(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["switch", "--device", str(CONFIGS / "device_paper.json"),
                   "--protocol", str(CONFIGS / "protocol_paper_point.json"), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "switch_report.json").read_text())
        assert report["classification"]["converged"] is True
        assert report["classification"]["iterations"] >= 1

    def test_pulse_missing_kind_exits_2(self, tmp_path, device_file):
        bad = tmp_path / "p.json"
        bad.write_text(json.dumps({"gate_pulse": {"duration_ns": 960.0}}))
        rc = main(["switch", "--device", str(device_file), "--protocol", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_invalid_protocol_exits_2(self, tmp_path, device_file):
        bad = tmp_path / "bad_protocol.json"
        bad.write_text(json.dumps({"subspace": "zz"}))
        rc = main(["switch", "--device", str(device_file), "--protocol", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestGainSweep:
    def test_rows_and_regimes(self, tmp_path, device_file):
        out = tmp_path / "out"
        rc = main(["gain-sweep", "--device", str(device_file), "--out", str(out),
                   "--n-min", "3", "--n-max", "1e8", "--points", "30"])
        assert rc == 0
        _, header, rows = read_csv(out / "gain_sweep.csv")
        assert header == ["n_s", "subspace", "gain_db", "extinction_db", "regime"]
        subspaces = {r[1] for r in rows}
        assert subspaces == {"ge", "gf"}
        regimes = {r[4] for r in rows}
        assert regimes == {"linear", "blockade", "bright"}

    def test_linear_regime_slope(self, tmp_path, device_file):
        out = tmp_path / "out"
        main(["gain-sweep", "--device", str(device_file), "--out", str(out),
              "--n-min", "3", "--n-max", "100", "--points", "12"])
        _, _, rows = read_csv(out / "gain_sweep.csv")
        ge = [(math.log10(float(r[0])), float(r[2]) / 10) for r in rows if r[1] == "ge"]
        xs, ys = zip(*ge)
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)


class TestWigner:
    def test_grid_and_values(self, tmp_path, device_file, protocol_file):
        out = tmp_path / "out"
        rc = main(["wigner", "--device", str(device_file), "--protocol", str(protocol_file),
                   "--condition", "off", "--out", str(out),
                   "--extent", "2.0", "--points", "21", "--shots", "600"])
        assert rc == 0
        _, header, rows = read_csv(out / "wigner_off.csv")
        assert header == ["x", "p", "w"]
        assert len(rows) == 21 * 21
        w = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
        # phase symmetry of a Fock-diagonal state
        assert w[(1.0, 0.4)] == pytest.approx(w[(1.0, -0.4)], abs=1e-9)
        assert max(abs(v) for v in w.values()) <= 2 / math.pi + 1e-9

    def test_off_center_negative_for_fock_like_state(self, tmp_path):
        # strong off-conditioned field: near-Fock-1 mixture has W(0) < 0.
        # needs a quiet detection chain so off labels track the gate flips
        import dataclasses

        from photon_transistor.measurement import DetectionModel
        from photon_transistor.qubit import QubitRates

        dev = dataclasses.replace(
            device_mod.paper_defaults(),
            detection=DetectionModel(0.5, 0.05, 0.05),
            qubit_rates=QubitRates(1e6, 1e6, 1e6, 1e6),
        )
        dev_path = tmp_path / "quiet.json"
        device_mod.save(dev, dev_path)
        proto = tmp_path / "p.json"
        proto.write_text(json.dumps({
            "n_g": 0.18, "n_s": 37.2, "n_shots": 1500, "seed": 5,
            "eta_override": 1.0, "dark_flip": 0.0,
            "signal_flip_rate_per_photon": 0.0,
        }))
        out = tmp_path / "out"
        main(["wigner", "--device", str(dev_path), "--protocol", str(proto),
              "--condition", "off", "--out", str(out), "--extent", "1.5",
              "--points", "11", "--shots", "1500"])
        _, _, rows = read_csv(out / "wigner_off.csv")
        w0 = [float(r[2]) for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0][0]
        assert w0 < 0.0


class TestCalibrate:
    def test_round_trip_report(self, tmp_path):
        inputs = synthesize_intensities(0.05, 1.0, 28.0, 0.13)
        payload = {
            "n0_open": inputs.n0_open,
            "na_open": inputs.na_open,
            "n0_close": inputs.n0_close,
            "na_close": inputs.na_close,
            "beta": 0.13,
            "eta": 0.80,
            "p_s": 0.925,
        }
        inp = tmp_path / "cal.json"
        inp.write_text(json.dumps(payload))
        out = tmp_path / "out"
        rc = main(["calibrate", "--inputs", str(inp), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "transistor_report.json").read_text())["report"]
        assert report["calibration"]["p_g_open"] == pytest.approx(0.05, abs=1e-9)
        assert report["calibration"]["n_e_state"] == pytest.approx(28.0, abs=1e-9)
        assert report["p_sg"] == pytest.approx(0.74, abs=1e-12)
        assert report["n1_open"] == pytest.approx(5.05, abs=1e-9)

    def test_beta_zero_exits_3(self, tmp_path):
        inp = tmp_path / "cal.json"
        inp.write_text(json.dumps({
            "n0_open": 10.0, "na_open": 10.0, "n0_close": 10.0, "na_close": 10.0,
            "beta": 0.0, "eta": 0.8,
        }))
        rc = main(["calibrate", "--inputs", str(inp), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_missing_eta_and_table_exits_2(self, tmp_path):
        inp = tmp_path / "cal.json"
        inp.write_text(json.dumps({
            "n0_open": 26.65, "na_open": 23.14, "n0_close": 2.35, "na_close": 5.86,
            "beta": 0.13,
        }))
        rc = main(["calibrate", "--inputs", str(inp), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_eta_from_beta_table(self, tmp_path):
        from photon_transistor.protocol import coherent_flip_probability

        inputs = synthesize_intensities(0.05, 1.0, 28.0, 0.13)
        table = [[n, coherent_flip_probability(n, 0.8, 0.04)]
                 for n in (0.05, 0.1, 0.18, 0.3, 0.5)]
        inp = tmp_path / "cal.json"
        inp.write_text(json.dumps({
            "n0_open": inputs.n0_open, "na_open": inputs.na_open,
            "n0_close": inputs.n0_close, "na_close": inputs.na_close,
            "beta": 0.13, "beta_table": table, "p_s": 0.925,
        }))
        out = tmp_path / "out"
        assert main(["calibrate", "--inputs", str(inp), "--out", str(out)]) == 0
        report = json.loads((out / "transistor_report.json").read_text())["report"]
        assert report["eta"] == pytest.approx(0.80, abs=1e-6)


def test_manifest_hash_covers_package_version(monkeypatch):
    def manifest():
        return RunManifest("switch", "ab12", {"n_g": 0.18}, 7, "t0", ("out.csv",))

    before = manifest()
    assert before.to_dict()["version"] == photon_transistor.__version__
    monkeypatch.setattr(photon_transistor, "__version__", "0.0.0+other")
    after = manifest()
    assert after.to_dict()["version"] == "0.0.0+other"
    assert after.hash() != before.hash()


def test_missing_device_file_exits_2(tmp_path):
    rc = main(["spectra", "--device", str(tmp_path / "nope.json"), "--cavity", "I",
               "--out", str(tmp_path / "o")])
    assert rc == 2
