"""Command-line front end: run experiments from config files, emit plot-ready data.

Every command writes CSV/JSON artifacts stamped with a manifest hash of the command, every
flag but ``--out`` (an input file by its content) and the package and numpy versions.
Equal hashes give equal bytes (JSON timestamps and file paths aside); across versions
CSV values agree at their printed precision, bar values within an ulp of a rounding
boundary.  The writer owns that precision: ``%.12g``, and ``%.11f`` for the Wigner W.

Exit codes: 0 success, 2 configuration error, 3 numeric or degenerate-data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, device as device_mod, measurement, protocol, semiclassical
from .cavity import PULSE_KEYS, PulseShape, spectrum
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NumericsError,
    UnphysicalInputError,
    UnsolvableCalibrationError,
    fields,
    number,
    read_json,
)
from .hilbert import mean_photon

_CONFIG_ERRORS = (ValueError, TypeError, KeyError, FileNotFoundError, IsADirectoryError)
_NUMERIC_ERRORS = (
    NumericsError,
    DegenerateDataError,
    InsufficientDataError,
    UnsolvableCalibrationError,
    UnphysicalInputError,
)

# protocol-file name -> ProtocolConfig field; only signal_duration carries its unit in the file
_PROTOCOL_KEYS = {
    {"signal_duration": "signal_duration_us"}.get(f.name, f.name): f.name
    for f in dataclasses.fields(protocol.ProtocolConfig)
}


@dataclasses.dataclass(frozen=True)
class RunManifest:
    command: str
    device_sha256: str
    #: the settings: every flag but ``--out`` and the input files, with the effective
    #: ProtocolConfig laid over them for ``switch`` and ``wigner``; None if there are none
    protocol: dict | None
    seed: int | None
    timestamp: str
    outputs: tuple[str, ...]
    # the package's and numpy's versions, read when the manifest is made
    version: str = dataclasses.field(default_factory=lambda: sys.modules[__package__].__version__)
    numpy: str = dataclasses.field(default_factory=lambda: np.__version__)

    def hash(self) -> str:
        """Digest of everything that determines the numeric outputs, code and numpy versions included."""
        payload = {
            "command": self.command,
            "device_sha256": self.device_sha256,
            "protocol": self.protocol,
            "seed": self.seed,
            "version": self.version,
            "numpy": self.numpy,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["outputs"] = list(self.outputs)
        out["manifest_hash"] = self.hash()
        return out


def _artifacts(args, names: list[str], cfg: protocol.ProtocolConfig | None = None) -> tuple[list[Path], RunManifest]:
    """Make the ``--out`` directory; return the paths of the named outputs in it and the
    manifest stamping them, which covers every parsed flag but ``--out``.  Input files enter
    by content: ``--device`` and ``--inputs`` by their SHA-256, ``--protocol`` by ``cfg``,
    the effective configuration, which is laid over the other flags."""
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "out", "device", "inputs", "protocol")}
    if cfg is not None:
        settings |= dataclasses.asdict(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in names]
    manifest = RunManifest(
        command=args.command,
        device_sha256=hashlib.sha256(Path(getattr(args, "device", None) or args.inputs).read_bytes()).hexdigest(),
        protocol=settings or None,
        seed=None if cfg is None else cfg.seed,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        outputs=tuple(str(p) for p in paths),
    )
    return paths, manifest


def _write_csv(path: Path, manifest: RunManifest, header: list[str], lines) -> None:
    """The manifest-hash line, the header, then the text of the CRLF-terminated rows:
    the bytes csv.writer gives, as no field needs quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# manifest_hash={manifest.hash()}\n{','.join(header)}\r\n")
        fh.writelines(lines)


#: rows per chunk: a chunk's columns are formatted whole and joined into one string, so
#: memory stays flat in the row count (4096-row chunks raise the benchmark's peak RSS)
_CHUNK_ROWS = 2048


def _formatted(values, fmt: str) -> list[str]:
    """The ``fmt`` strings of an array's values, from one ``%`` over all of them (faster than one per value)."""
    return ((fmt + "\0") * len(values) % tuple(values.tolist())).split("\0")[:-1]


def _text(values, fmt: str = "%.12g", nan: str | None = None) -> list[str]:
    """The ``fmt`` strings of a float array, a NaN's replaced by ``nan`` if it is given.

    Each distinct value is formatted once.  Values are told apart by their bits,
    not by float equality, which would merge -0.0 into 0.0."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    text = np.array(_formatted(distinct, fmt), dtype=object)
    if nan is not None:
        text[np.isnan(distinct)] = nan
    return text[inverse.ravel()].tolist()


#: ",<gate_flip>,<level>," at 2 * ord(level) + flip, for one-character levels
_FLIP_LEVEL = np.array([f",{i % 2},{chr(i // 2)}," for i in range(256)], dtype=object)
_LABEL = np.array([f"{measurement.OFF}\r\n", f"{measurement.ON}\r\n"], dtype=object)


def _chunks(*columns):
    """CSV text whose row i joins the i-th texts of the columns, one string per chunk of
    rows.  A column ``(fn, values, *args)`` gives the texts of the rows of a chunk as
    ``fn(values[chunk], *args)``, with its separator folded in."""
    for start in range(0, len(columns[0][1]), _CHUNK_ROWS):
        texts = [fn(values[start : start + _CHUNK_ROWS], *args) for fn, values, *args in columns]
        out = [""] * (len(columns) * len(texts[0]))
        for j, text in enumerate(texts):
            out[j :: len(columns)] = text
        yield "".join(out)


def load_protocol(path) -> protocol.ProtocolConfig:
    data = fields("protocol file", read_json(path, "protocol"), _PROTOCOL_KEYS)
    kwargs = {_PROTOCOL_KEYS[k]: v for k, v in data.items()}
    if "gate_pulse" in kwargs:
        raw = fields("gate_pulse", kwargs["gate_pulse"], PULSE_KEYS, ("kind", "duration_ns"))
        kwargs["gate_pulse"] = PulseShape(**{PULSE_KEYS[k]: v for k, v in raw.items()})
    return protocol.ProtocolConfig(**kwargs)


def _run_protocol(args) -> protocol.ProtocolConfig:
    """The ``--protocol`` file with the ``--shots`` and ``--seed`` overrides applied."""
    overrides = {"n_shots": args.shots, "seed": args.seed}
    cfg = load_protocol(args.protocol)
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


# ---------------------------------------------------------------------------
# commands


def cmd_spectra(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    for flag, value in (("--f-min", args.f_min), ("--f-max", args.f_max)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    dev = device_mod.load(args.device)
    cav = dev.cavity_I if args.cavity == "I" else dev.cavity_II
    mode = "reflect" if cav.single_sided else "transmit"
    span = 4.0 * max(abs(2.0 * cav.chi_ge), abs(2.0 * cav.chi_gf), cav.kappa_tot)
    lo = cav.f0 - span if args.f_min is None else args.f_min
    hi = cav.f0 + span if args.f_max is None else args.f_max
    if hi < lo:
        raise ValueError(f"--f-max must be >= --f-min, got {hi:g} < {lo:g} MHz")
    grid = np.linspace(lo, hi, args.points)

    (out_path,), manifest = _artifacts(args, [f"spectra_cavity_{args.cavity}.csv"])
    lines = []
    for level in ("g", "e", "f"):
        amps = spectrum(cav, grid, level)
        lines += _chunks((_formatted, grid, f"%.12g,{level},{mode},"), (_formatted, np.abs(amps), "%.12g,"),
                         (_formatted, np.angle(amps), "%.12g\r\n"))
    _write_csv(out_path, manifest, ["frequency_mhz", "level", "mode", "amplitude", "phase_rad"], lines)
    print(f"wrote {out_path}")
    return 0


def _class_stats(shots, detection, label):
    readings = shots.reading[shots.on == (label == measurement.ON)]
    if readings.size == 0:
        return {"count": 0, "mean_reading": None, "mean_output_photons": None}
    mean_reading = float(np.mean(readings))
    return {
        "count": int(readings.size),
        "mean_reading": mean_reading,
        "mean_output_photons": mean_reading / detection.efficiency,
    }


def _shot_lines(name: str, shots):
    """shots.csv text of one run: the bytes csv.writer gives, as no field needs quoting."""
    return _chunks((_formatted, np.arange(len(shots)), name + ",%d"),
                   (np.ndarray.tolist, _FLIP_LEVEL[2 * shots.level.view(np.uint32) + shots.flip]),
                   (_text, shots.jump_time, "%.12g,", ","), (_text, shots.true_photons, "%.12g,"),
                   (_formatted, shots.reading, "%.12g,"), (np.ndarray.tolist, _LABEL[shots.on.view(np.uint8)]))


def cmd_switch(args) -> int:
    if args.bins < 1:
        raise ValueError(f"--bins must be >= 1, got {args.bins}")
    dev = device_mod.load(args.device)
    cfg = _run_protocol(args)
    ungated_cfg = dataclasses.replace(cfg, n_g=0.0, seed=cfg.seed + 1)

    gated = protocol.run_experiment(cfg, dev)
    ungated = protocol.run_experiment(ungated_cfg, dev)

    # shared threshold from the pooled readings, as if both runs filled one histogram
    fit = measurement.kmeans_1d(np.concatenate([gated.reading, ungated.reading]))
    gated, _, counts_gated = protocol.label_records(gated, threshold=fit.threshold)
    ungated, _, counts_ungated = protocol.label_records(ungated, threshold=fit.threshold)

    cond = {}
    for label in (measurement.ON, measurement.OFF):
        try:
            state = protocol.conditional_gate_field(gated, label, cfg, dev)
            cond[f"mean_photon_{label}"] = mean_photon(state, 0)
        except InsufficientDataError:
            cond[f"mean_photon_{label}"] = None

    names = ["switch_report.json", "shots.csv", "histogram.csv"]
    (report_path, shots_path, hist_path), manifest = _artifacts(args, names, cfg)
    runs = (("gated", gated), ("ungated", ungated))
    header = ["run", "shot", "gate_flip", "level_at_signal_start", "jump_time_us", "true_photons", "reading", "label"]
    _write_csv(shots_path, manifest, header,
               itertools.chain.from_iterable(_shot_lines(name, shots) for name, shots in runs))
    hist_lines = []
    for name, shots in runs:
        centers, counts = measurement.histogram(shots.reading, args.bins)
        hist_lines += _chunks((_formatted, centers, name + ",%.12g,"), (_formatted, counts, "%d\r\n"))
    _write_csv(hist_path, manifest, ["run", "bin_center", "count"], hist_lines)

    report = {
        "manifest": manifest.to_dict(),
        "threshold": fit.threshold,
        "classification": {"iterations": fit.iterations, "converged": fit.converged},
        "gated": {
            "counts": counts_gated,
            "on": _class_stats(gated, dev.detection, measurement.ON),
            "off": _class_stats(gated, dev.detection, measurement.OFF),
        },
        "ungated": {
            "counts": counts_ungated,
            "on": _class_stats(ungated, dev.detection, measurement.ON),
            "off": _class_stats(ungated, dev.detection, measurement.OFF),
        },
        "conditional_gate_field": cond,
    }
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {report_path}")
    return 0


def cmd_gain_sweep(args) -> int:
    dev = device_mod.load(args.device)
    model = semiclassical.SaturableCavityModel(dev.cavity_II, dev.semiclassical)
    if not (math.isfinite(args.n_min) and args.n_min > 0):
        raise ValueError(f"--n-min must be finite and > 0, got {args.n_min}")
    if not (math.isfinite(args.n_max) and args.n_max >= args.n_min):
        raise ValueError(f"--n-max must be finite and >= --n-min, got {args.n_max}")
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    for flag, value in (("--eta", args.eta), ("--p-s", args.p_s)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{flag} must be finite and in [0, 1], got {value}")
    grid = np.geomspace(args.n_min, args.n_max, args.points)
    (out_path,), manifest = _artifacts(args, ["gain_sweep.csv"])
    lines = []
    for subspace in ("ge", "gf"):
        # one column of whole rows, a SweepPoint's fields in order: n_s, gain_db, extinction_db, regime
        row = f"%.12g,{subspace},%.12g,%.12g,%s\r\n"
        lines += _chunks((list, [row % p for p in semiclassical.gain_sweep(model, args.eta, args.p_s, grid, subspace)]))
    _write_csv(out_path, manifest, ["n_s", "subspace", "gain_db", "extinction_db", "regime"], lines)
    print(f"wrote {out_path}")
    return 0


def _wigner_lines(xs, ps, w):
    """wigner_*.csv text of the map ``w[j, i]`` at (xs[i], ps[j]), x running fastest; W is
    printed ``%.11f``, a W that rounds to zero unsigned (the double nearest 5e-12 lies below
    5e-12, so those are exactly |W| <= 5e-12)."""
    x_text, p_text = (np.array(_text(v, "%.12g,"), dtype=object) for v in (xs, ps))
    return _chunks((np.ndarray.tolist, np.tile(x_text, len(ps))), (np.ndarray.tolist, np.repeat(p_text, len(xs))),
                   (_text, np.where(np.abs(w) <= 5e-12, 0.0, w).ravel(), "%.11f\r\n"))


def cmd_wigner(args) -> int:
    if not (math.isfinite(args.extent) and args.extent > 0):
        raise ValueError(f"--extent must be finite and > 0, got {args.extent}")
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    dev = device_mod.load(args.device)
    cfg = _run_protocol(args)
    shots, _, _ = protocol.label_records(protocol.run_experiment(cfg, dev))
    state = protocol.conditional_gate_field(shots, args.condition, cfg, dev)
    xs, ps, pts = measurement.wigner_grid(args.extent, args.points)
    w = measurement.wigner(state, pts).reshape(args.points, args.points)

    (out_path,), manifest = _artifacts(args, [f"wigner_{args.condition}.csv"], cfg)
    _write_csv(out_path, manifest, ["x", "p", "w"], _wigner_lines(xs, ps, w))
    print(f"wrote {out_path}")
    return 0


def cmd_calibrate(args) -> int:
    measured = [f.name for f in dataclasses.fields(analysis.CalibrationInputs)]
    data = fields("calibration inputs", read_json(args.inputs, "calibration inputs"),
                  {*measured, "eta", "p_s", "dark_flip", "beta_table"}, measured)
    values = {k: number(k, v) for k, v in data.items() if k != "beta_table"}
    table = data.get("beta_table", [])
    if not isinstance(table, list):
        raise ValueError(f"beta_table must be a list of [n_g, beta] pairs, got {table!r}")
    for i, row in enumerate(table):
        if not (isinstance(row, list) and len(row) == 2):
            raise ValueError(f"beta_table[{i}] must be an [n_g, beta] pair, got {row!r}")
    table = [[number(f"beta_table[{i}]", v) for v in row] for i, row in enumerate(table)]

    dark = values.get("dark_flip")
    if "eta" in values:
        eta = values["eta"]
    elif "beta_table" in data:
        eta, dark = analysis.fit_eta(table)
    else:
        raise ValueError("provide either 'eta' or a 'beta_table' to fit")

    cal = analysis.solve_calibration(analysis.CalibrationInputs(**{k: values[k] for k in measured}))
    n1, n0 = analysis.predict_single_photon(cal, eta)
    p_s = values.get("p_s")
    report = analysis.TransistorReport(
        calibration=cal,
        eta=eta,
        dark_flip=dark,
        p_s=p_s,
        p_sg=analysis.switching_probability(eta, p_s) if p_s is not None else None,
        n1_open=n1,
        n0_open=n0,
        gain_db=analysis.gain_db(n1, n0),
        extinction_db=analysis.extinction_db(n0, n1),
        provenance={"inputs_file": str(args.inputs)},
    )
    (out_path,), manifest = _artifacts(args, ["transistor_report.json"])
    payload = {"manifest": manifest.to_dict(), "report": report.to_dict()}
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photon-transistor",
        description="Microwave single-photon transistor simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectra", help="qubit-state-dependent cavity spectra")
    p.add_argument("--device", required=True)
    p.add_argument("--cavity", choices=["I", "II"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--f-min", type=float, default=None)
    p.add_argument("--f-max", type=float, default=None)
    p.add_argument("--points", type=int, default=1201)

    p = sub.add_parser("switch", help="Monte Carlo single-shot switch statistics")
    p.add_argument("--device", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bins", type=int, default=60)

    p = sub.add_parser("gain-sweep", help="semiclassical gain/extinction sweep")
    p.add_argument("--device", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-min", type=float, default=3.0)
    p.add_argument("--n-max", type=float, default=1.6e6)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--eta", type=float, default=0.80)
    p.add_argument("--p-s", type=float, default=0.925)

    p = sub.add_parser("wigner", help="conditional gate-field Wigner map")
    p.add_argument("--device", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--condition", choices=["on", "off"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--extent", type=float, default=2.5)
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("calibrate", help="four-intensity calibration and figures of merit")
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)

    return parser


#: the parser, built on the first ``main`` call of the process and reused by every later one
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so that a wrapper patched in over a cmd_* function is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
