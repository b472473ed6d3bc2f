import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

import photon_transistor
from photon_transistor import cavity, cli
from photon_transistor import device as device_mod
from photon_transistor import measurement, semiclassical
from photon_transistor.analysis import synthesize_intensities
from photon_transistor.cavity import PulseShape, spectrum
from photon_transistor.cli import (
    _shot_lines,
    _text,
    _wigner_lines,
    build_parser,
    load_protocol,
    main,
)
from photon_transistor.errors import InsufficientDataError
from photon_transistor.protocol import (
    ProtocolConfig,
    Shots,
    conditional_gate_field,
    label_records,
    run_experiment,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


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


def package_env() -> dict:
    """The environment of a fresh interpreter that imports this tree's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# manifest_hash=")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


def manifest_of(tmp_path, command: str, device_file, cfg=None, **flags) -> dict:
    """The manifest ``cli._artifacts`` builds for ``command`` run with ``flags`` (by dest, every
    one but --out and the input files) on ``device_file``, as the commands load and hash it, and
    the effective protocol ``cfg``."""
    args = argparse.Namespace(command=command, out=str(tmp_path / "manifest"), device=str(device_file), **flags)
    return cli._artifacts(args, ["any name"], device_mod.load_and_hash(device_file)[1], cfg)[1]


def csv_writer_bytes(manifest, header, rows) -> bytes:
    """Reference bytes: the manifest-hash line, then csv.writer rows."""
    buf = io.StringIO(newline="")
    buf.write(f"# manifest_hash={manifest['manifest_hash']}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def oracle_shot_lines(name: str, shots):
    """shots.csv lines of one run, formatted one f-string per line."""
    jump = ["" if math.isnan(t) else f"{t:.12g}" for t in shots.jump_time.tolist()]
    label = np.where(shots.on, measurement.ON, measurement.OFF).tolist()
    columns = zip(shots.flip.astype(int).tolist(), shots.level.tolist(), jump,
                  shots.true_photons.tolist(), shots.reading.tolist(), label)
    return (
        f"{name},{i},{flip},{level},{t},{photons:.12g},{reading:.12g},{on}\r\n"
        for i, (flip, level, t, photons, reading, on) in enumerate(columns)
    )


def scalar_pow_loss(s: float, d: int) -> np.ndarray:
    """protocol._binomial_loss as it was before it took numpy's vector power: scalar pow lists."""
    m, n = np.triu_indices(d)
    comb = np.array([math.comb(a, b) for a, b in zip(n.tolist(), m.tolist())], dtype=float)
    kept_pow = np.array([s**j for j in range(d)])
    lost_pow = np.array([(1.0 - s) ** j for j in range(d)])
    out = np.zeros((d, d))
    out[n, m] = comb * kept_pow[m] * lost_pow[n - m]
    return out


def w_text(v: float) -> str:
    """W's text under the output contract: ``%.11f``, and a value that rounds to zero unsigned."""
    text = f"{v:.11f}"
    return "0.00000000000" if text == "-0.00000000000" else text


def oracle_wigner_lines(xs, ps, w):
    """wigner_*.csv lines of a map, formatted one f-string per line."""
    x_text = [f"{x:.12g}" for x in xs.tolist()]
    return (
        f"{x},{p_text},{w_text(v)}\r\n"
        for p_text, row in zip((f"{p:.12g}" for p in ps.tolist()), w.tolist())
        for x, v in zip(x_text, row)
    )


#: values whose text is easy to get wrong: signed zeros and NaNs, infinities,
#: the smallest subnormal and a large finite value
SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e300, -1e300])
CHUNK = cli._CHUNK_ROWS
# row counts on and around the writer's chunk seams
ROW_COUNTS = st.one_of(st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]), st.integers(1, 5000))


def with_specials(rng, values, share=0.1):
    """``values`` with about ``share`` of its entries replaced by SPECIAL values."""
    out = np.array(values, dtype=float)
    hit = rng.random(out.shape) < share
    out[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
    return out


def lines(text) -> list[str]:
    """CSV text as its CRLF-terminated lines, so that a mismatch is reported by line."""
    return "".join(text).splitlines(keepends=True)


def written(chunks) -> str:
    """The text of the byte chunks a CSV row writer yields."""
    return b"".join(chunks).decode("utf-8")


def stripped(records) -> list[bytes]:
    """The texts of zero-padded ``S`` records: each record with its NUL bytes dropped."""
    return [record.replace(b"\0", b"") for record in records.tolist()]


class TestColumnFormatter:
    def test_text_keeps_signed_zeros_apart(self):
        assert _text(np.array([0.0, -0.0, 0.0, -0.0])).tolist() == [b"0", b"-0", b"0", b"-0"]

    def test_text_nan(self):
        values = np.array([np.nan, 1.5, -np.nan, 1.5])
        assert _text(values).tolist() == [b"nan", b"1.5", b"nan", b"1.5"]
        assert _text(values, nan="").tolist() == [b"", b"1.5", b"", b"1.5"]
        # a NaN's text replaces the format's, whatever the format
        assert _text(values, "%.11f").tolist() == [b"nan", b"1.50000000000", b"nan", b"1.50000000000"]
        assert _text(values, "%.11f", nan="").tolist() == [b"", b"1.50000000000", b"", b"1.50000000000"]

    def test_w_prints_at_eleven_decimals_with_an_unsigned_zero(self):
        w = np.array([[-1e-13, -0.0, 0.0, 2.0 / math.pi, -2.0 / math.pi, 5e-12, -5e-12,
                       np.nextafter(5e-12, 1.0), -np.nextafter(5e-12, 1.0)]])
        line = written(_wigner_lines(np.zeros(w.shape[1]), np.zeros(1), w))
        assert [row.split(",")[2] for row in line.splitlines()] == [
            "0.00000000000", "0.00000000000", "0.00000000000", "0.63661977237", "-0.63661977237",
            "0.00000000000", "0.00000000000", "0.00000000001", "-0.00000000001",
        ]

    @settings(max_examples=60, deadline=None)
    @given(n=ROW_COUNTS, jumps=st.sampled_from(["none", "all", "mixed"]), seed=st.integers(0, 2**32 - 1))
    def test_shot_lines_match_line_oracle(self, n, jumps, seed):
        rng = np.random.default_rng(seed)
        jump_time = rng.uniform(0.0, 10.0, n)
        if jumps == "none":
            jump_time[:] = np.nan
        elif jumps == "mixed":
            jump_time = with_specials(rng, np.where(rng.random(n) < 0.5, np.nan, jump_time))
        # detector noise makes readings negative; photon counts repeat many times
        shots = Shots(
            flip=rng.random(n) < 0.3,
            level=np.array(["g", "e", "f"])[rng.integers(0, 3, n)],
            jump_time=jump_time,
            true_photons=with_specials(rng, rng.poisson(20.0, n).astype(float)),
            reading=with_specials(rng, rng.normal(2.0, 4.0, n)),
            eta=0.8,
            on=rng.random(n) < 0.5,
        )
        assert lines(written(_shot_lines("gated", shots))) == lines(oracle_shot_lines("gated", shots))

    @settings(max_examples=60, deadline=None)
    @given(nx=st.integers(1, 70), n_p=st.sampled_from([1, 63, 64, 65, 129]), seed=st.integers(0, 2**32 - 1))
    @example(nx=65, n_p=65, seed=0)  # 4225 points: two chunk seams and a partial last chunk
    def test_wigner_lines_match_line_oracle(self, nx, n_p, seed):
        rng = np.random.default_rng(seed)
        xs = with_specials(rng, np.linspace(-2.5, 2.5, nx))
        ps = with_specials(rng, rng.uniform(-2.5, 2.5, n_p))
        # a map holds many near-repeats: round part of it so values recur exactly
        w = rng.normal(0.0, 0.2, (n_p, nx))
        w = with_specials(rng, np.where(rng.random(w.shape) < 0.5, np.round(w, 3), w))
        assert lines(written(_wigner_lines(xs, ps, w))) == lines(oracle_wigner_lines(xs, ps, w))


def near_ties():
    """Doubles whose %.12g text is hard to get right: 13-significant-digit decimals ending in 5
    (halfway between two 12-digit texts before the double's own rounding), powers of ten and
    the ends of the kernel's range [1e-4, 1e10), each 1 ulp either side, and either sign."""
    sign = st.sampled_from([1.0, -1.0])
    ends = st.sampled_from([1e-4, 1e10, *(10.0**k for k in range(-6, 13))])
    return st.one_of(
        st.builds(lambda m, k, s: s * float(f"{m}5e{k}"), st.integers(10**11, 10**12 - 1), st.integers(-18, 0), sign),
        st.builds(lambda v, d, s: s * float(np.nextafter(v, v * 2.0**d)), ends, st.integers(-1, 1), sign),
    )


SPECIAL_DOUBLES = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308])


class TestNumberKernel:
    """cli._g12 and cli._d against Python's % formatting (correctly rounded dtoa)."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(), st.floats(-1e10, 1e10), st.floats(-1e-3, 1e-3), near_ties(),
                                      SPECIAL_DOUBLES, st.floats(-1e-307, 1e-307)), min_size=1, max_size=40))
    @example(values=[0.0001, 1e10, 9999999999.99, 0.000123456789012, 123456789012.0, 1234567.0, -0.5])
    def test_g12_matches_percent_format(self, values):
        assert stripped(cli._g12(np.array(values))) == [b"%.12g" % v for v in values]

    def test_g12_matches_percent_format_on_random_columns(self):
        rng = np.random.default_rng(20240)
        n = 40000
        columns = [
            rng.normal(2.0, 4.0, n),  # detector readings
            np.exp(rng.uniform(math.log(1e-6), math.log(1e12), n)) * rng.choice([-1.0, 1.0], n),
            rng.integers(-(2**63), 2**63, n, dtype=np.int64).view(np.float64),  # every bit pattern
            rng.integers(0, 10**6, n) / 10.0 ** rng.integers(-3, 9, n),  # few digits: trailing zeros
            np.array([float(f"{m}5e{k}") for m, k in zip(rng.integers(10**11, 10**12, n // 10).tolist(),
                                                       rng.integers(-16, -1, n // 10).tolist())]),
        ]
        for values in columns:
            assert stripped(cli._g12(values)) == [b"%.12g" % v for v in values.tolist()]

    def test_d_matches_percent_across_every_power_of_ten(self):
        edges = [0, 1, 2**63 - 1] + [10**k + d for k in range(1, 19) for d in (-1, 0, 1)]
        assert stripped(cli._d(np.array(edges))) == [b"%d" % v for v in edges]
        for k in range(1, 19):  # arrays whose largest value sets the record width
            values = [0, 10**k - 1, 10**k]
            assert stripped(cli._d(np.array(values))) == [b"%d" % v for v in values]
            assert stripped(cli._d(np.array(values[:2]))) == [b"%d" % v for v in values[:2]]


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

    @pytest.mark.parametrize("points", ["-3", "0"])
    def test_bad_points_exits_2(self, tmp_path, device_file, capsys, points):
        out = tmp_path / "out"
        rc = main(["spectra", "--device", str(device_file), "--cavity", "II", "--out", str(out),
                   "--points", points])
        assert rc == 2
        assert "--points" in capsys.readouterr().err
        assert not (out / "spectra_cavity_II.csv").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--f-min", "nan"], "--f-min"),
            (["--f-min=-inf"], "--f-min"),
            (["--f-max", "inf"], "--f-max"),
            (["--f-max", "nan"], "--f-max"),
            (["--f-min", "7010", "--f-max", "6990"], "--f-max"),
            (["--f-min", "9100"], "--f-max"),  # above the default upper end
        ],
    )
    def test_bad_frequency_range_exits_2_before_any_output(self, tmp_path, device_file, capsys, flags, named):
        out = tmp_path / "out"
        rc = main(["spectra", "--device", str(device_file), "--cavity", "II", "--out", str(out), *flags])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_single_point_range(self, tmp_path, device_file):
        out = tmp_path / "out"
        assert main(["spectra", "--device", str(device_file), "--cavity", "II", "--out", str(out),
                     "--f-min", "9000", "--f-max", "9000", "--points", "3"]) == 0
        _, _, rows = read_csv(out / "spectra_cavity_II.csv")
        assert {r[0] for r in rows} == {"9000"}

    def test_csv_bytes_match_csv_writer(self, tmp_path, device_file):
        out = tmp_path / "out"
        assert main(["spectra", "--device", str(device_file), "--cavity", "I", "--out", str(out),
                     "--f-min", "6995", "--f-max", "7005", "--points", "201"]) == 0
        cav = device_mod.load(device_file).cavity_I
        grid = np.linspace(6995.0, 7005.0, 201)
        rows = []
        for level in ("g", "e", "f"):
            amps = spectrum(cav, grid, level)
            rows += [[f"{f:.12g}", level, "reflect", f"{amp:.12g}", f"{phase:.12g}"]
                     for f, amp, phase in zip(grid.tolist(), np.abs(amps).tolist(), np.angle(amps).tolist())]
        manifest = manifest_of(tmp_path, "spectra", device_file, cavity="I", f_min=6995.0, f_max=7005.0, points=201)
        expected = csv_writer_bytes(manifest, ["frequency_mhz", "level", "mode", "amplitude", "phase_rad"], rows)
        assert (out / "spectra_cavity_I.csv").read_bytes() == expected

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

    def test_shots_csv_across_chunk_seams_matches_line_oracle(self, tmp_path, device_file, protocol_file):
        # per arm: a short chunk, one whole chunk, a one-row last chunk and two seams
        dev = device_mod.load(device_file)
        for n in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1):
            out = tmp_path / str(n)
            assert main(["switch", "--device", str(device_file), "--protocol", str(protocol_file),
                         "--out", str(out), "--shots", str(n)]) == 0
            threshold = json.loads((out / "switch_report.json").read_text())["threshold"]
            cfg = dataclasses.replace(load_protocol(protocol_file), n_shots=n)
            head, rows = (out / "shots.csv").read_bytes().decode("utf-8").split("\r\n", 1)  # hash line, header
            assert head.endswith("\nrun,shot,gate_flip,level_at_signal_start,jump_time_us,true_photons,reading,label")
            expected = []
            for name, run_cfg in (("gated", cfg), ("ungated", dataclasses.replace(cfg, n_g=0.0, seed=cfg.seed + 1))):
                shots, _, _ = label_records(run_experiment(run_cfg, dev), threshold=threshold)
                expected += oracle_shot_lines(name, shots)
            assert len(expected) == 2 * n
            assert lines(rows) == lines(expected)

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

    def test_shots_csv_bytes_match_csv_writer(self, tmp_path, device_file, protocol_file):
        out = tmp_path / "out"
        assert main(["switch", "--device", str(device_file), "--protocol", str(protocol_file),
                     "--out", str(out), "--shots", "150"]) == 0
        threshold = json.loads((out / "switch_report.json").read_text())["threshold"]
        cfg = dataclasses.replace(load_protocol(protocol_file), n_shots=150)
        dev = device_mod.load(device_file)
        hash_line = (out / "shots.csv").read_text().splitlines()[0]
        buf = io.StringIO(newline="")
        buf.write(hash_line + "\n")
        writer = csv.writer(buf)
        writer.writerow(["run", "shot", "gate_flip", "level_at_signal_start", "jump_time_us",
                         "true_photons", "reading", "label"])
        jumps = 0
        for name, run_cfg in (("gated", cfg), ("ungated", dataclasses.replace(cfg, n_g=0.0, seed=cfg.seed + 1))):
            shots, _, _ = label_records(run_experiment(run_cfg, dev), threshold=threshold)
            for i in range(len(shots)):
                t = float(shots.jump_time[i])
                jumps += not math.isnan(t)
                writer.writerow([name, i, int(shots.flip[i]), str(shots.level[i]),
                                 "" if math.isnan(t) else f"{t:.12g}",
                                 f"{float(shots.true_photons[i]):.12g}", f"{float(shots.reading[i]):.12g}",
                                 "on" if shots.on[i] else "off"])
        assert jumps > 0  # both jump_time forms are covered
        assert (out / "shots.csv").read_bytes() == buf.getvalue().encode("utf-8")

    def test_histogram_csv_bytes_match_csv_writer(self, tmp_path, device_file, protocol_file):
        out = tmp_path / "out"
        assert main(["switch", "--device", str(device_file), "--protocol", str(protocol_file),
                     "--out", str(out), "--shots", "150", "--seed", "77", "--bins", "25"]) == 0
        cfg = dataclasses.replace(load_protocol(protocol_file), n_shots=150, seed=77)
        dev = device_mod.load(device_file)
        rows = []
        for name, run_cfg in (("gated", cfg), ("ungated", dataclasses.replace(cfg, n_g=0.0, seed=cfg.seed + 1))):
            for center, count in zip(*measurement.histogram(run_experiment(run_cfg, dev).reading, 25)):
                rows.append([name, f"{center:.12g}", count])
        manifest = manifest_of(tmp_path, "switch", device_file, cfg, shots=150, seed=77, bins=25)
        expected = csv_writer_bytes(manifest, ["run", "bin_center", "count"], rows)
        assert (out / "histogram.csv").read_bytes() == expected

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


    @pytest.mark.parametrize(
        "key, value, name",
        [
            ("theta", float("nan"), "theta"),
            ("n_g", float("nan"), "n_g"),
            ("n_s", float("nan"), "n_s"),
            ("signal_duration_us", float("nan"), "signal_duration_us"),
            ("signal_duration_us", -1.0, "signal_duration_us"),
            ("n_g", -0.1, "n_g"),
            ("n_s", -1.0, "n_s"),
            ("signal_flip_rate_per_photon", -1.0, "signal_flip_rate_per_photon"),
            ("signal_flip_rate_per_photon", float("inf"), "signal_flip_rate_per_photon"),
            ("fock_cutoff", 0, "fock_cutoff"),
            ("fock_cutoff", 1, "fock_cutoff"),
            ("fock_cutoff", 8.0, "fock_cutoff"),
            ("fock_cutoff", True, "fock_cutoff"),
            ("fock_cutoff", 1031, "fock_cutoff must be in [2, 1030], got 1031"),
            ("n_shots", 800.5, "n_shots"),
            ("n_shots", 2**22 + 1, "n_shots must be in [1, 4194304], got 4194305"),
            ("n_shots", True, "n_shots"),
            ("seed", "321", "seed"),
            ("seed", False, "seed"),
            # every float field, eta_override included, takes the input files' number rule
            *[(key, value, key)
              for key in ("theta", "n_g", "n_s", "signal_duration_us", "signal_flip_rate_per_photon",
                          "dark_flip", "eta_override")
              for value in (True, "0.5")],
        ],
    )
    def test_bad_protocol_value_exits_2_naming_it(self, tmp_path, device_file, protocol_file, capsys,
                                                  key, value, name):
        bad = tmp_path / "bad_protocol.json"
        bad.write_text(json.dumps({**json.loads(protocol_file.read_text()), key: value}))
        out = tmp_path / "out"
        rc = main(["switch", "--device", str(device_file), "--protocol", str(bad), "--out", str(out)])
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["switch", "wigner"])
    def test_shots_over_the_budget_exits_2_before_simulating(self, tmp_path, device_file, protocol_file, capsys,
                                                            monkeypatch, command):
        def no_shots(*args, **kwargs):
            raise AssertionError("--shots must be checked before any shot is run")

        monkeypatch.setattr(photon_transistor.protocol, "run_experiment", no_shots)
        out = tmp_path / "out"
        condition = ["--condition", "on"] if command == "wigner" else []
        rc = main([command, "--device", str(device_file), "--protocol", str(protocol_file), "--out", str(out),
                   *condition, "--shots", "4194305"])
        assert rc == 2
        assert capsys.readouterr().err == "config error: --shots must be in [1, 4194304], got 4194305\n"
        assert not out.exists()

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bad_bins_exits_2_before_simulating(self, tmp_path, device_file, protocol_file, capsys,
                                               monkeypatch, bins):
        def no_shots(*args, **kwargs):
            raise AssertionError("--bins must be checked before any shot is run")

        monkeypatch.setattr(photon_transistor.protocol, "run_experiment", no_shots)
        out = tmp_path / "out"
        rc = main(["switch", "--device", str(device_file), "--protocol", str(protocol_file),
                   "--out", str(out), "--bins", bins])
        assert rc == 2
        assert "--bins" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    # 2049**2 = 4198401 cells, the first Wigner grid over 2**22
    ("wigner", ["--protocol", str(CONFIGS / "protocol_paper_point.json"), "--condition", "on", "--points", "2049"]),
    ("spectra", ["--cavity", "I", "--points", str(2**22 + 1)]),
    ("gain-sweep", ["--points", str(2**22 + 1)]),
])
def test_points_over_the_grid_budget_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, flags):
    def no_work(*args, **kwargs):
        raise AssertionError("--points must be checked before the device is even loaded")

    monkeypatch.setattr(device_mod, "load", no_work)
    out = tmp_path / "out"
    rc = main([command, "--device", str(CONFIGS / "device_paper.json"), "--out", str(out), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--points" in err and "over the budget of 2**22 = 4194304" in err
    assert not out.exists()


def test_points_at_the_grid_budget_pass_the_check():
    cli._check_grid("--points", 2048, 2048**2)
    cli._check_grid("--points", 2**22, 2**22)


@pytest.mark.parametrize("bins", [str(2**22 + 1), "1000000000000"])
def test_bins_over_the_grid_budget_exits_2_before_any_work(tmp_path, capsys, monkeypatch, bins):
    def no_work(*args, **kwargs):
        raise AssertionError("--bins must be checked before the device is even loaded")

    monkeypatch.setattr(device_mod, "load", no_work)
    out = tmp_path / "out"
    rc = main(["switch", "--device", str(CONFIGS / "device_paper.json"),
               "--protocol", str(CONFIGS / "protocol_paper_point.json"), "--out", str(out), "--bins", bins])
    assert rc == 2
    assert f"--bins {bins} gives a grid of {bins} cells, over the budget of 2**22 = 4194304" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, moment_calls", [
    # eta once per run (gated and ungated), the survival once per conditional field (on and off)
    ("switch", ["--bins", "20"], 4),
    ("wigner", ["--condition", "off", "--points", "5"], 2),
])
def test_paper_gate_stage_builds_one_moment_rule_per_command(tmp_path, command, flags, moment_calls):
    # every eta and survival of a command is of one (cavity, pulse) pair, so the memo builds its one rule
    argv = [command, "--device", str(CONFIGS / "device_paper.json"),
            "--protocol", str(CONFIGS / "protocol_paper_point.json"), "--shots", "300", "--out", str(tmp_path)]
    with mock.patch.object(cavity, "_moment_rule", wraps=cavity._moment_rule) as rules:
        assert main([*argv, *flags]) == 0
    assert rules.call_count == 1
    info = cavity._pulse_moments.cache_info()
    assert (info.misses, info.hits) == (1, moment_calls - 1)


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

    def test_csv_bytes_match_csv_writer(self, tmp_path, device_file):
        out = tmp_path / "out"
        assert main(["gain-sweep", "--device", str(device_file), "--out", str(out),
                     "--n-min", "3", "--n-max", "1e7", "--points", "25", "--eta", "0.75", "--p-s", "0.9"]) == 0
        dev = device_mod.load(device_file)
        model = semiclassical.build_model(dev.cavity_II, dev.semiclassical)
        rows = [[f"{pt.n_s:.12g}", subspace, f"{pt.gain_db:.12g}", f"{pt.extinction_db:.12g}", pt.regime]
                for subspace in ("ge", "gf")
                for pt in semiclassical.gain_sweep(model, 0.75, 0.9, np.geomspace(3.0, 1e7, 25), subspace)]
        manifest = manifest_of(tmp_path, "gain-sweep", device_file, n_min=3.0, n_max=1e7, points=25, eta=0.75, p_s=0.9)
        expected = csv_writer_bytes(manifest, ["n_s", "subspace", "gain_db", "extinction_db", "regime"], rows)
        assert (out / "gain_sweep.csv").read_bytes() == expected

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--n-min", "-5"], "--n-min"),
            (["--n-min", "0"], "--n-min"),
            (["--n-min", "nan"], "--n-min"),
            (["--n-max", "inf"], "--n-max"),
            (["--n-min", "10", "--n-max", "5"], "--n-max"),
            (["--points", "0"], "--points"),
        ],
    )
    def test_bad_grid_exits_2(self, tmp_path, device_file, capsys, flags, name):
        out = tmp_path / "out"
        rc = main(["gain-sweep", "--device", str(device_file), "--out", str(out), *flags])
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not (out / "gain_sweep.csv").exists()


    @pytest.mark.parametrize(
        "flag, value",
        [("--eta", "1.5"), ("--eta", "nan"), ("--p-s", "-0.5"), ("--p-s", "1.2")],
    )
    def test_bad_probability_exits_2(self, tmp_path, device_file, capsys, flag, value):
        out = tmp_path / "out"
        rc = main(["gain-sweep", "--device", str(device_file), "--out", str(out), "--points", "3", flag, value])
        assert rc == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not (out / "gain_sweep.csv").exists()

    def test_flags_are_checked_before_the_device_is_read(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["gain-sweep", "--device", str(tmp_path / "missing.json"), "--out", str(out), "--eta", "1.5"])
        assert rc == 2
        assert capsys.readouterr().err == "config error: --eta must be in [0, 1], got 1.5\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning would come before the error line
    def test_overflowing_sweep_exits_3_before_any_output(self, tmp_path, capsys):
        # from n_s of about 1e107 on the mean-field cubic overflows; the rows once read nan,nan
        out = tmp_path / "out"
        rc = main(["gain-sweep", "--device", str(CONFIGS / "device_paper.json"), "--out", str(out),
                   "--n-max", "1e300"])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: no finite dim-branch population at n_s = 1.2216855924364995e+107: the mean-field cubic overflows"]
        assert not out.exists()

    def test_one_solve_per_command(self, tmp_path, device_file):
        # every subspace, qubit level and candidate frequency of the sweep comes from one pass
        with mock.patch.object(semiclassical, "_steady_states", wraps=semiclassical._steady_states) as solve:
            assert main(["gain-sweep", "--device", str(device_file), "--out", str(tmp_path / "out")]) == 0
        assert solve.call_count == 1

    def test_zero_bare_offset_device_sweeps(self, tmp_path, capsys):
        # the g pull is then 0, and the mean-field cubic has the double root n = -n_crit, never a population
        data = json.loads((CONFIGS / "device_paper.json").read_text())
        data["semiclassical"]["bare_offset_mhz"] = 0.0
        device = tmp_path / "device.json"
        device.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["gain-sweep", "--device", str(device), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, _, rows = read_csv(out / "gain_sweep.csv")
        assert len(rows) == 120
        assert all(math.isfinite(float(r[2])) and math.isfinite(float(r[3])) for r in rows)


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

    def test_csv_bytes_match_csv_writer(self, tmp_path, device_file, protocol_file):
        out = tmp_path / "out"
        assert main(["wigner", "--device", str(device_file), "--protocol", str(protocol_file),
                     "--condition", "on", "--out", str(out),
                     "--extent", "1.5", "--points", "17", "--shots", "400"]) == 0
        cfg = dataclasses.replace(load_protocol(protocol_file), n_shots=400)
        dev = device_mod.load(device_file)
        shots, _, _ = label_records(run_experiment(cfg, dev))
        state = conditional_gate_field(shots, "on", cfg, dev)
        xs, ps, pts = measurement.wigner_grid(1.5, 17)
        w = measurement.wigner(state, pts).reshape(17, 17)
        manifest = manifest_of(tmp_path, "wigner", device_file, cfg, condition="on", extent=1.5, points=17,
                               shots=400, seed=None)
        buf = io.StringIO(newline="")
        buf.write(f"# manifest_hash={manifest['manifest_hash']}\n")
        writer = csv.writer(buf)
        writer.writerow(["x", "p", "w"])
        for j, p in enumerate(ps):
            for i, x in enumerate(xs):
                writer.writerow([f"{x:.12g}", f"{p:.12g}", w_text(w[j, i])])
        assert (out / "wigner_on.csv").read_bytes() == buf.getvalue().encode("utf-8")

    @given(n_g=st.floats(0.05, 1.0), theta=st.sampled_from([0.0, math.pi]),
           condition=st.sampled_from(["on", "off"]), seed=st.integers(1, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_w_text_matches_scalar_pow_loss(self, n_g, theta, condition, seed):
        # the conditional field once took its loss weights from scalar pow.  The weights now
        # differ by a few ulp and W by at most 1.1e-16, so a W line moves only where W lies
        # that close to a rounding boundary of %.11f: about 1 value in 50,000.  Over 200
        # random maps of 1681 lines no line moved; at most 2 per map may be boundary values.
        dev = device_mod.load(CONFIGS / "device_paper.json")
        cfg = dataclasses.replace(load_protocol(CONFIGS / "protocol_paper_point.json"),
                                  n_g=n_g, theta=theta, n_shots=300, seed=seed)
        shots, _, _ = label_records(run_experiment(cfg, dev))
        xs, ps, pts = measurement.wigner_grid(2.5, 41)
        maps = []
        for loss in (scalar_pow_loss, photon_transistor.protocol._binomial_loss):
            with mock.patch.object(photon_transistor.protocol, "_binomial_loss", loss):
                try:
                    state = conditional_gate_field(shots, condition, cfg, dev)
                except InsufficientDataError:
                    return
            maps.append(measurement.wigner(state, pts).reshape(41, 41))
        old, new = maps
        assert np.max(np.abs(new - old)) <= 1e-15
        moved = [(a, b) for a, b in zip(lines(written(_wigner_lines(xs, ps, old))),
                                        lines(written(_wigner_lines(xs, ps, new)))) if a != b]
        assert len(moved) <= 2, moved

    @pytest.mark.parametrize("condition", ["on", "off"])
    def test_two_level_field_prints_the_closed_form(self, tmp_path, condition):
        # a field of cutoff 2 on a small window: a displacement truncated at
        # max(ceil(8 * extent^2) + 2, 6 * 2) = 12 levels printed W off by up to 1.4e-4 here
        proto = json.loads((CONFIGS / "protocol_paper_point.json").read_text())
        proto.update({"fock_cutoff": 2, "gate_source": "single_photon", "n_g": 0.5})
        proto_path = tmp_path / "protocol.json"
        proto_path.write_text(json.dumps(proto))
        device_path = CONFIGS / "device_paper.json"
        out = tmp_path / "out"
        assert main(["wigner", "--device", str(device_path), "--protocol", str(proto_path),
                     "--condition", condition, "--out", str(out),
                     "--extent", "1.0", "--points", "21", "--shots", "2000"]) == 0
        cfg = dataclasses.replace(load_protocol(proto_path), n_shots=2000)
        dev = device_mod.load(device_path)
        shots, _, _ = label_records(run_experiment(cfg, dev))
        p = np.real(np.diag(conditional_gate_field(shots, condition, cfg, dev).rho))
        xs, ps, pts = measurement.wigner_grid(1.0, 21)
        _, _, rows = read_csv(out / f"wigner_{condition}.csv")
        assert [r[:2] for r in rows] == [[f"{x:.12g}", f"{y:.12g}"] for y in ps.tolist() for x in xs.tolist()]
        # W = (2/pi) e^{-2|alpha|^2} sum_n (-1)^n p_n L_n(4|alpha|^2); %.11f rounds by up to 5e-12
        r2 = np.abs(pts) ** 2
        n = np.arange(p.size)
        closed = (2.0 / np.pi) * np.exp(-2.0 * r2) * ((-1.0) ** n * p * eval_laguerre(n, 4.0 * r2[:, None])).sum(axis=1)
        assert np.max(np.abs(np.array([float(r[2]) for r in rows]) - closed)) <= 6e-12

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--points", "0"], "--points"),
            (["--extent", "-1"], "--extent"),
            (["--extent", "0"], "--extent"),
            (["--extent", "nan"], "--extent"),
            (["--extent", "inf"], "--extent"),
        ],
    )
    def test_bad_grid_exits_2_before_simulating(self, tmp_path, device_file, protocol_file,
                                               capsys, monkeypatch, flags, name):
        def no_shots(*args, **kwargs):
            raise AssertionError("the grid must be checked before any shot is run")

        monkeypatch.setattr(photon_transistor.protocol, "run_experiment", no_shots)
        out = tmp_path / "out"
        rc = main(["wigner", "--device", str(device_file), "--protocol", str(protocol_file),
                   "--condition", "off", "--out", str(out), *flags])
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not (out / "wigner_off.csv").exists()

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning would come before the error line
    def test_overflowing_extent_exits_3_before_any_output(self, tmp_path, device_file, protocol_file, capsys):
        # x = 4 |alpha|^2 overflows on most of this grid; W once read nan there
        out = tmp_path / "out"
        rc = main(["wigner", "--device", str(device_file), "--protocol", str(protocol_file),
                   "--condition", "on", "--out", str(out), "--extent", "1e200", "--points", "5", "--shots", "200"])
        assert rc == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: W is not finite")
        assert not out.exists()

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["wigner", "--device", str(CONFIGS / "device_paper.json"),
                   "--protocol", str(CONFIGS / "protocol_paper_point.json"), "--condition", "on",
                   "--seed", "-3", "--out", str(out)])
        assert rc == 2
        assert "config error: --seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

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

    def test_report_has_no_counts_key(self, tmp_path):
        out = tmp_path / "out"
        assert main(["calibrate", "--inputs", str(CONFIGS / "calibration_example.json"), "--out", str(out)]) == 0
        assert "counts" not in json.loads((out / "transistor_report.json").read_text())["report"]

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

    def test_negative_n_g_in_beta_table_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "cal.json"
        data = json.loads((CONFIGS / "calibration_example.json").read_text())
        del data["eta"]
        inp.write_text(json.dumps({**data, "beta_table": [[0.1, 0.08], [-0.2, 0.05], [0.3, 0.2]]}))
        out = tmp_path / "out"
        assert main(["calibrate", "--inputs", str(inp), "--out", str(out)]) == 2
        assert "beta_table[1].n_g must be >= 0, got -0.2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fitted", [["eta"], ["dark_flip"], ["eta", "dark_flip"]])
    def test_beta_table_with_a_value_it_fits_exits_2_naming_both(self, tmp_path, capsys, fitted):
        data = json.loads((CONFIGS / "calibration_example.json").read_text())
        data = {k: v for k, v in data.items() if k != "eta"} | dict.fromkeys(fitted, 0.5)
        inp = tmp_path / "cal.json"
        inp.write_text(json.dumps({**data, "beta_table": [[0.1, 0.09], [0.3, 0.2]]}))
        out = tmp_path / "out"
        assert main(["calibrate", "--inputs", str(inp), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in ["beta_table", *fitted])
        assert not out.exists()

    @pytest.mark.parametrize("dark, rc", [(7.5, 2), (-0.1, 2), (1.0 + 1e-9, 2), (0.0, 0), (1.0, 0)])
    def test_given_dark_flip_must_be_a_probability(self, tmp_path, capsys, dark, rc):
        data = json.loads((CONFIGS / "calibration_example.json").read_text())
        inp = tmp_path / "cal.json"
        inp.write_text(json.dumps({**data, "eta": 0.8, "dark_flip": dark}))
        out = tmp_path / "out"
        assert main(["calibrate", "--inputs", str(inp), "--out", str(out)]) == rc
        if rc:
            assert "dark_flip" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert json.loads((out / "transistor_report.json").read_text())["report"]["dark_flip"] == dark

    @pytest.mark.parametrize(
        "intensities, eta, key",
        [
            # eta = 0: the single photon controls no signal photon, G = 10 log10 0
            ({"n0_open": 26.65, "na_open": 23.14, "n0_close": 2.35, "na_close": 5.86}, 0.0, "gain_db"),
            # n_e_state = 0 and P_g_open = 0: no signal passes ungated, R = 10 log10 (n1 / 0)
            ({"n0_open": 0.0, "na_open": 3.64, "n0_close": 28.0, "na_close": 24.36}, 0.8, "extinction_db"),
        ],
    )
    def test_non_finite_figure_of_merit_written_as_null(self, tmp_path, intensities, eta, key):
        inp = tmp_path / "cal.json"
        inp.write_text(json.dumps({**intensities, "beta": 0.13, "eta": eta}))
        out = tmp_path / "out"
        assert main(["calibrate", "--inputs", str(inp), "--out", str(out)]) == 0
        report = strict_json((out / "transistor_report.json").read_text())["report"]
        assert report[key] is None
        assert all(v is not None for k, v in report.items() if k not in (key, "dark_flip", "p_s", "p_sg"))

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


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON: Infinity, -Infinity and NaN are errors."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    manifest = manifest_of(tmp_path, "switch", CONFIGS / "device_paper.json", n_g=0.18)
    body = {"a": math.inf, "b": [math.nan, -math.inf, 1.5, np.float64(2.5)], "c": {"d": np.float64(-np.inf)},
            "e": None, "f": True, "g": (3, "x")}
    cli._write_json(tmp_path / "report.json", manifest, body)
    text = (tmp_path / "report.json").read_text()
    assert strict_json(text) == {"manifest": manifest, "a": None,
                                 "b": [None, None, 1.5, 2.5], "c": {"d": None}, "e": None, "f": True, "g": [3, "x"]}
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_manifest_hash_covers_package_version(tmp_path, monkeypatch):
    before = manifest_of(tmp_path, "switch", CONFIGS / "device_paper.json", n_g=0.18)
    assert before["version"] == photon_transistor.__version__
    monkeypatch.setattr(photon_transistor, "__version__", "0.0.0+other")
    after = manifest_of(tmp_path, "switch", CONFIGS / "device_paper.json", n_g=0.18)
    assert after["version"] == "0.0.0+other"
    assert after["manifest_hash"] != before["manifest_hash"]


def test_manifest_hash_covers_numpy_version(tmp_path, monkeypatch):
    before = manifest_of(tmp_path, "switch", CONFIGS / "device_paper.json", n_g=0.18)
    assert before["numpy"] == np.__version__
    monkeypatch.setattr(np, "__version__", "0.0.0+other")
    after = manifest_of(tmp_path, "switch", CONFIGS / "device_paper.json", n_g=0.18)
    assert after["numpy"] == "0.0.0+other"
    assert after["manifest_hash"] != before["manifest_hash"]


def test_manifest_hash_digests_the_six_run_fields(tmp_path):
    manifest = manifest_of(tmp_path, "switch", CONFIGS / "device_paper.json", n_g=0.18)
    hashed = {k: manifest[k] for k in ("command", "device_sha256", "protocol", "seed", "version", "numpy")}
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    assert manifest["manifest_hash"] == hashlib.sha256(blob).hexdigest()[:16]
    assert set(manifest) == {*hashed, "manifest_hash", "timestamp", "outputs"}
    assert manifest["device_sha256"] == file_sha256(CONFIGS / "device_paper.json")
    assert manifest["outputs"] == [str(tmp_path / "manifest" / "any name")]


#: per command, every flag but --out: its value in a base run (None: not given) and in a second
#: run that changes it alone; an input file is named by its key in TestManifestCoverage.files
FLAG_CHANGES = {
    "spectra": {"--device": ("device", "other_device"), "--cavity": ("I", "II"), "--f-min": (None, "6999"),
                "--f-max": (None, "7001"), "--points": ("5", "6")},
    "switch": {"--device": ("device", "other_device"), "--protocol": ("protocol", "other_protocol"),
               "--shots": ("200", "201"), "--seed": (None, "7"), "--bins": (None, "10")},
    "gain-sweep": {"--device": ("device", "other_device"), "--n-min": (None, "4"), "--n-max": (None, "1e5"),
                   "--points": ("5", "6"), "--eta": (None, "0.7"), "--p-s": (None, "0.9")},
    "wigner": {"--device": ("device", "other_device"), "--protocol": ("protocol", "other_protocol"),
               "--condition": ("on", "off"), "--extent": (None, "1.0"), "--points": ("5", "7"),
               "--shots": ("200", "201"), "--seed": (None, "7")},
    "calibrate": {"--inputs": ("inputs", "other_inputs")},
}


@pytest.mark.parametrize("command", ["spectra", "switch", "gain-sweep", "wigner", "calibrate"])
def test_each_input_file_is_opened_once_and_hashed_as_parsed(tmp_path, device_file, protocol_file, command):
    inputs = tmp_path / "inputs.json"
    inputs.write_bytes((CONFIGS / "calibration_example.json").read_bytes())
    argv = {"spectra": ["--device", device_file, "--cavity", "I", "--points", "5"],
            "switch": ["--device", device_file, "--protocol", protocol_file, "--shots", "50"],
            "gain-sweep": ["--device", device_file, "--points", "3"],
            "wigner": ["--device", device_file, "--protocol", protocol_file, "--condition", "on", "--points", "5",
                       "--shots", "50"],
            "calibrate": ["--inputs", inputs]}[command]
    files = [arg for arg in argv if isinstance(arg, Path)]
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    # pathlib opens through io.open, everything else through the builtin
    with mock.patch("builtins.open", counting_open), mock.patch("io.open", counting_open), \
            mock.patch.object(cli, "_artifacts", wraps=cli._artifacts) as artifacts:
        assert main([command, *map(str, argv), "--out", str(tmp_path / "out")]) == 0
    paths = [Path(f) for f in opened if isinstance(f, (str, os.PathLike))]
    assert [paths.count(path) for path in files] == [1] * len(files)
    # the manifest's digest is of the one read: the bytes of the device file, or of the calibration inputs
    assert artifacts.call_args.args[2] == file_sha256(files[0])


@pytest.mark.parametrize("key", ["p_s", "eta"])
@pytest.mark.parametrize("value", [1.5, -0.1])
def test_calibration_probability_outside_the_unit_interval_exits_2_before_any_output(tmp_path, capsys, key, value):
    data = json.loads((CONFIGS / "calibration_example.json").read_text())
    inp = tmp_path / "cal.json"
    inp.write_text(json.dumps({**data, key: value}))
    out = tmp_path / "out"
    assert main(["calibrate", "--inputs", str(inp), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {key} must be in [0, 1], got {value!r}\n"
    assert not out.exists()


class TestManifestCoverage:
    """The manifest hash covers every flag but ``--out``, and an input file by its content."""

    @staticmethod
    def files(tmp_path, device_file, protocol_file) -> dict[str, Path]:
        """Each input file, a byte copy of it at another path and a copy with one value edited."""
        texts = {"device": device_file.read_text(), "protocol": protocol_file.read_text(),
                 "inputs": (CONFIGS / "calibration_example.json").read_text()}
        edits = {"device": ("detection", "baseline_sigma", 1.1), "protocol": (None, "n_g", 0.2),
                 "inputs": (None, "p_s", 0.9)}
        out = {}
        for name, text in texts.items():
            section, key, value = edits[name]
            data = json.loads(text)
            (data[section] if section else data)[key] = value
            for prefix, content in (("", text), ("copy_", text), ("other_", json.dumps(data))):
                out[prefix + name] = tmp_path / f"{prefix}{name}.json"
                out[prefix + name].write_text(content)
        return out

    @staticmethod
    def manifest_hash(out: Path) -> str:
        """The one manifest hash stamped on every output of a run."""
        hashes = {json.loads(path.read_text())["manifest"]["manifest_hash"] for path in out.glob("*.json")}
        hashes |= {path.read_text().splitlines()[0].removeprefix("# manifest_hash=") for path in out.glob("*.csv")}
        assert len(hashes) == 1, hashes
        return hashes.pop()

    @pytest.mark.parametrize("command", sorted(FLAG_CHANGES))
    def test_every_flag_but_out_changes_the_hash(self, tmp_path, device_file, protocol_file, command):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(FLAG_CHANGES) == set(subparsers.choices)
        parser_flags = {a.option_strings[0] for a in subparsers.choices[command]._actions if a.dest != "help"}
        changes = FLAG_CHANGES[command]
        assert set(changes) | {"--out"} == parser_flags
        files = self.files(tmp_path, device_file, protocol_file)

        def run(name: str, flag: str | None = None, value: str | None = None) -> str:
            values = {f: value if f == flag else base for f, (base, _) in changes.items()}
            argv = [command, "--out", str(tmp_path / name)]
            for f, v in values.items():
                argv += [f, str(files.get(v, v))] if v is not None else []
            assert main(argv) == 0
            return self.manifest_hash(tmp_path / name)

        base = run("base")
        assert run("base_again") == base  # the output directory alone
        unchanged = [flag for flag, (_, changed) in changes.items() if run(flag.lstrip("-"), flag, changed) == base]
        assert unchanged == []
        # an input file enters by its bytes, not by its path
        for flag, (name, _) in changes.items():
            if name in files:
                assert run("copy_" + name, flag, "copy_" + name) == base


def test_load_protocol_accepts_every_field_and_rejects_unknown(tmp_path):
    # every ProtocolConfig field under its file name, each away from its default
    expected = ProtocolConfig(
        theta=math.pi, subspace="gf", n_g=0.3,
        gate_pulse=PulseShape("gaussian", 500.0, sigma=90.0, carrier_detuning=0.1),
        n_s=12.0, signal_duration=7.5, signal_detuning_target="bare", eta_override=0.7,
        dark_flip=0.02, n_shots=123, seed=9, gate_source="single_photon",
        signal_flip_rate_per_photon=2e-7, fock_cutoff=11,
    )
    default = ProtocolConfig()
    assert all(getattr(expected, f.name) != getattr(default, f.name) for f in dataclasses.fields(ProtocolConfig))
    data = dataclasses.asdict(expected)
    data["signal_duration_us"] = data.pop("signal_duration")
    data["gate_pulse"] = {"kind": "gaussian", "duration_ns": 500.0, "sigma_ns": 90.0, "carrier_detuning_mhz": 0.1}
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(data))
    assert load_protocol(path) == expected

    path.write_text(json.dumps({**data, "n_photons": 1}))
    with pytest.raises(ValueError, match="n_photons"):
        load_protocol(path)
    path.write_text(json.dumps({"signal_duration": 7.5}))  # the field name is not the file name
    with pytest.raises(ValueError, match="signal_duration"):
        load_protocol(path)


#: the command run on a bad value in each device section (None: the top level); each loads the whole file
_SECTION_COMMANDS = {None: "spectra", "cavity_i": "gain-sweep", "cavity_ii": "spectra", "qubit_rates": "switch",
                     "detection": "gain-sweep", "semiclassical": "switch"}


@pytest.mark.parametrize(
    "command, section, key",
    [(_SECTION_COMMANDS[s or None], s or None, k) for s, _, k in (p.rpartition(".") for p in device_mod._LEAF_PATHS)],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), "5350", True])
def test_device_value_not_a_finite_number_exits_2(tmp_path, protocol_file, capsys, command, section, key, value):
    data = device_mod.to_dict(device_mod.paper_defaults())
    (data[section] if section else data)[key] = value
    path = f"{section}.{key}" if section else key
    dev = tmp_path / "device.json"
    dev.write_text(json.dumps(data))
    out = tmp_path / "out"
    args = {"gain-sweep": [], "switch": ["--protocol", str(protocol_file)], "spectra": ["--cavity", "II"]}[command]
    rc = main([command, "--device", str(dev), "--out", str(out), *args])
    assert rc == 2
    assert path in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, edit, expected",
    [
        *[pytest.param(name, edit, what, id=f"{name}-{kind}")
          for name, what in (("device", "device file"), ("protocol", "protocol file"), ("inputs", "calibration inputs"))
          for kind, edit in (("list", lambda d: [d]), ("number", lambda d: 5))],
        pytest.param("protocol", lambda d: {**d, "gate_pulse": 5}, "gate_pulse", id="gate_pulse-number"),
        pytest.param("protocol", lambda d: {**d, "gate_pulse": "gaussian"}, "gate_pulse", id="gate_pulse-string"),
        pytest.param("protocol", lambda d: {**d, "gate_pulse": {"kind": "gaussian"}}, "duration_ns",
                     id="gate_pulse-no-duration"),
        pytest.param("device", lambda d: {**d, "provenance": list(d["provenance"])}, "provenance",
                     id="provenance-list"),
        pytest.param("device", lambda d: {**d, "cavity_ii": list(d["cavity_ii"].values())}, "cavity_ii",
                     id="section-list"),
        pytest.param("inputs", lambda d: {k: v for k, v in d.items() if k != "n0_open"}, "n0_open",
                     id="inputs-no-n0_open"),
    ],
)
def test_input_not_an_object_or_missing_a_key_exits_2_naming_it(tmp_path, capsys, name, edit, expected):
    files = {"device": CONFIGS / "device_paper.json", "protocol": CONFIGS / "protocol_paper_point.json",
             "inputs": CONFIGS / "calibration_example.json"}
    bad = tmp_path / f"{name}.json"
    bad.write_text(json.dumps(edit(json.loads(files[name].read_text()))))
    files[name] = bad
    out = tmp_path / "out"
    if name == "inputs":
        argv = ["calibrate", "--inputs", str(files["inputs"])]
    else:
        argv = ["switch", "--device", str(files["device"]), "--protocol", str(files["protocol"]), "--shots", "50"]
    assert main([*argv, "--out", str(out)]) == 2
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("eta", "0.8"), ("beta", True), ("n0_open", float("nan")), ("p_s", "0.925"), ("dark_flip", None),
     ("na_open", float("inf")), ("n0_close", "2.35"), ("na_close", -float("inf")), ("beta", None),
     ("beta_table", [[0.1, "0.09"], [0.3, 0.2]]), ("beta_table", 5), ("beta_table", [[0.1], [0.3, 0.2]]),
     ("beta_table", [[0.1, 0.09], {"n_g": 0.3}])],
)
def test_calibration_value_not_a_finite_number_exits_2(tmp_path, capsys, key, value):
    data = json.loads((CONFIGS / "calibration_example.json").read_text())
    if key == "beta_table":
        del data["eta"]
    data[key] = value
    inp = tmp_path / "cal.json"
    inp.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["calibrate", "--inputs", str(inp), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["duration_ns", "sigma_ns", "carrier_detuning_mhz"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), "960", True])
def test_gate_pulse_value_not_a_finite_number_exits_2(tmp_path, device_file, protocol_file, capsys, key, value):
    data = json.loads(protocol_file.read_text())
    data["gate_pulse"][key] = value
    protocol_file.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = main(["switch", "--device", str(device_file), "--protocol", str(protocol_file), "--out", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_eta_out_of_range_exits_3(tmp_path, capsys):
    # the paper protocol takes eta and the survival from the gate stage; moments no pulse
    # can give put both far out of [0, 1], and the first one computed stops the run
    out = tmp_path / "out"
    with mock.patch("photon_transistor.cavity._pulse_moments", return_value=(10j + 10.0, 10.0 - 10j)):
        rc = main(["switch", "--device", str(CONFIGS / "device_paper.json"),
                   "--protocol", str(CONFIGS / "protocol_paper_point.json"), "--shots", "50", "--out", str(out)])
    assert rc == 3
    assert re.match(r"error: (eta|survival) = \S+ lies outside \[0, 1\]", capsys.readouterr().err)
    assert not out.exists()


def test_pulse_beyond_the_moment_rule_budget_exits_3(tmp_path, device_file, protocol_file, capsys):
    # a 3.7 ps sigma asks for twice the 2**20 nodes the moment rule may take
    data = json.loads(protocol_file.read_text())
    data["gate_pulse"]["sigma_ns"] = 0.0037
    protocol_file.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = main(["switch", "--device", str(device_file), "--protocol", str(protocol_file), "--out", str(out)])
    assert rc == 3
    assert "over the budget of 2**20" in capsys.readouterr().err
    assert not out.exists()


def test_missing_device_file_exits_2(tmp_path):
    rc = main(["spectra", "--device", str(tmp_path / "nope.json"), "--cavity", "I",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_commands_import_no_scipy(tmp_path):
    # no path of the package imports scipy: with every scipy import made to fail, the five
    # commands, the internal-loss root-find, the qubit evolution, the Wigner map of a state with
    # coherences and a wide mean-field sweep of both subspaces still run
    script = f"""
import math, sys
sys.modules["scipy"] = None
import numpy as np
from photon_transistor import device
from photon_transistor.cavity import PulseShape, gating_efficiency, internal_loss_for_efficiency
from photon_transistor.cli import main
from photon_transistor.hilbert import coherent_state, pure_state
from photon_transistor.measurement import wigner, wigner_grid
from photon_transistor.qubit import QubitRates, evolve_lindblad
from photon_transistor.semiclassical import SaturableCavityModel, gain_sweep
dev, proto, out = {str(CONFIGS / "device_paper.json")!r}, {str(CONFIGS / "protocol_paper_point.json")!r}, {str(tmp_path)!r}
runs = [
    ["spectra", "--device", dev, "--cavity", "I", "--out", out, "--points", "51"],
    ["gain-sweep", "--device", dev, "--out", out, "--points", "5"],
    ["calibrate", "--inputs", {str(CONFIGS / "calibration_example.json")!r}, "--out", out],
    ["switch", "--device", dev, "--protocol", proto, "--out", out, "--shots", "400"],
    ["wigner", "--device", dev, "--protocol", proto, "--condition", "off", "--out", out,
     "--points", "11", "--shots", "400"],
]
for argv in runs:
    assert main(argv) == 0, argv
paper = device.load(dev)
c = paper.cavity_I
for pulse in (PulseShape("gaussian", 960.0), PulseShape("square", 230.0)):
    root = internal_loss_for_efficiency(c, pulse, gating_efficiency(c, pulse))
    assert abs(root - c.kappa_int) < 1e-9, (pulse, root)
psi = np.zeros(3 * 8, dtype=complex)
psi[0] = psi[8] = 1.0 / math.sqrt(2.0)  # (|g> + |e>)/sqrt2 (x) |0>
evolve_lindblad(pure_state(psi, (3, 8)), 0.96, QubitRates(30.0, 15.0, 20.0, 12.0))
wigner(coherent_state(1.0, 40), wigner_grid(2.0, 11)[2])  # off-diagonal: the per-point phase sum
model = SaturableCavityModel(paper.cavity_II, paper.semiclassical)
for subspace in ("ge", "gf"):
    assert len(gain_sweep(model, 0.80, 0.925, np.geomspace(3.0, 1e8, 120), subspace)) == 120
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", script], env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


class TestParserReuse:
    """``main`` builds its parser on its first call and reuses it for every later call."""

    def test_import_builds_no_parser_and_only_the_first_call_does(self, tmp_path):
        script = f"""
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
import photon_transistor.cli as cli
counts = [len(built)]
for _ in range(2):
    assert cli.main(["gain-sweep", "--device", {str(CONFIGS / "device_paper.json")!r}, "--points", "3",
                     "--out", {str(tmp_path)!r}]) == 0
    counts.append(len(built))
print(counts)
"""
        proc = subprocess.run([sys.executable, "-c", script], env=package_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # the program's parser and its five subparsers, once
        assert proc.stdout.splitlines()[-1] == "[0, 6, 6]"

    def test_shots_flag_does_not_carry_over(self, tmp_path, device_file, protocol_file):
        runs = {}
        for name, flags in (("flag", ["--shots", "100"]), ("file", [])):
            out = tmp_path / name
            assert main(["switch", "--device", str(device_file), "--protocol", str(protocol_file),
                         "--out", str(out), *flags]) == 0
            report = json.loads((out / "switch_report.json").read_text())
            runs[name] = report["manifest"]["protocol"]["n_shots"], sum(report["gated"]["counts"].values())
        assert runs == {"flag": (100, 100), "file": (800, 800)}

    def test_points_flag_does_not_carry_over(self, tmp_path, device_file):
        sizes = []
        for name, flags in (("flag", ["--points", "5"]), ("default", [])):
            out = tmp_path / name
            assert main(["gain-sweep", "--device", str(device_file), "--out", str(out), *flags]) == 0
            _, _, rows = read_csv(out / "gain_sweep.csv")
            sizes.append(sum(r[1] == "ge" for r in rows))
        assert sizes == [5, 60]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gain-sweep", "--points", "many"],
            ["spectra", "--cavity", "III", "--device", "d", "--out", "o"],
            ["sweep"],
            [],
        ],
    )
    def test_usage_error_leaves_the_next_call_working(self, tmp_path, device_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: photon-transistor" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["gain-sweep", "--device", str(device_file), "--out", str(out), "--points", "4"]) == 0
        _, _, rows = read_csv(out / "gain_sweep.csv")
        assert len(rows) == 8

    def test_in_process_runs_match_the_console_script(self, tmp_path):
        argv = ["gain-sweep", "--device", str(CONFIGS / "device_paper.json")]
        for run in ("a", "b"):
            assert main([*argv, "--out", str(tmp_path / run)]) == 0
        proc = subprocess.run([sys.executable, "-m", "photon_transistor.cli", *argv, "--out", str(tmp_path / "script")],
                              env=package_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        expected = (tmp_path / "script" / "gain_sweep.csv").read_bytes()
        assert (tmp_path / "a" / "gain_sweep.csv").read_bytes() == expected
        assert (tmp_path / "b" / "gain_sweep.csv").read_bytes() == expected
