"""Command-line front end: run experiments from config files, emit plot-ready data.

Every command writes CSV/JSON artifacts stamped with a manifest hash computed
from the command, the device-file digest, the effective protocol settings,
the seed and the package version, so identical manifests reproduce
bit-identical numeric outputs.

Exit codes: 0 success, 2 configuration error, 3 numeric or degenerate-data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, device as device_mod, measurement, protocol, semiclassical
from .cavity import PulseShape, spectrum
from .errors import (
    CutoffError,
    DegenerateDataError,
    InsufficientDataError,
    NumericsError,
    UnphysicalInputError,
    UnsolvableCalibrationError,
)
from .hilbert import mean_photon, with_cutoff

_CONFIG_ERRORS = (ValueError, TypeError, KeyError, FileNotFoundError, IsADirectoryError)
_NUMERIC_ERRORS = (
    NumericsError,
    DegenerateDataError,
    InsufficientDataError,
    UnsolvableCalibrationError,
    UnphysicalInputError,
    CutoffError,
)

_PULSE_KEYS = {
    "kind": "kind",
    "duration_ns": "duration",
    "sigma_ns": "sigma",
    "carrier_detuning_mhz": "carrier_detuning",
}
_PROTOCOL_KEYS = {
    "theta",
    "subspace",
    "n_g",
    "gate_pulse",
    "n_s",
    "signal_duration_us",
    "signal_detuning_target",
    "eta_override",
    "dark_flip",
    "n_shots",
    "seed",
    "gate_source",
    "signal_flip_rate_per_photon",
    "fock_cutoff",
}


@dataclasses.dataclass(frozen=True)
class RunManifest:
    command: str
    device_sha256: str
    protocol: dict | None
    seed: int | None
    timestamp: str
    outputs: tuple[str, ...]
    # the package's version, read when the manifest is made
    version: str = dataclasses.field(default_factory=lambda: sys.modules[__package__].__version__)

    def hash(self) -> str:
        """Digest of everything that determines the numeric outputs, code version included."""
        payload = {
            "command": self.command,
            "device_sha256": self.device_sha256,
            "protocol": self.protocol,
            "seed": self.seed,
            "version": self.version,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["outputs"] = list(self.outputs)
        out["manifest_hash"] = self.hash()
        return out


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _write_csv(path: Path, manifest_hash: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# manifest_hash={manifest_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def load_protocol(path) -> protocol.ProtocolConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed protocol file {path}: {exc}") from exc
    unknown = set(data) - _PROTOCOL_KEYS
    if unknown:
        raise ValueError(f"unknown protocol fields: {sorted(unknown)}")
    kwargs = dict(data)
    if "signal_duration_us" in kwargs:
        kwargs["signal_duration"] = kwargs.pop("signal_duration_us")
    if "gate_pulse" in kwargs:
        raw = kwargs.pop("gate_pulse")
        unknown = set(raw) - set(_PULSE_KEYS)
        if unknown:
            raise ValueError(f"unknown gate_pulse fields: {sorted(unknown)}")
        kwargs["gate_pulse"] = PulseShape(**{attr: raw[k] for k, attr in _PULSE_KEYS.items() if k in raw})
    return protocol.ProtocolConfig(**kwargs)


def _protocol_as_dict(cfg: protocol.ProtocolConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["gate_pulse"] = dataclasses.asdict(cfg.gate_pulse)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_spectra(args) -> int:
    dev = device_mod.load(args.device)
    cav = dev.cavity_I if args.cavity == "I" else dev.cavity_II
    mode = "reflect" if cav.single_sided else "transmit"
    span = 4.0 * max(abs(2.0 * cav.chi_ge), abs(2.0 * cav.chi_gf), cav.kappa_tot)
    lo = cav.f0 - span if args.f_min is None else args.f_min
    hi = cav.f0 + span if args.f_max is None else args.f_max
    grid = np.linspace(lo, hi, args.points)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"spectra_cavity_{args.cavity}.csv"
    manifest = RunManifest(
        command=f"spectra --cavity {args.cavity}",
        device_sha256=_sha256_file(args.device),
        protocol={"f_min": lo, "f_max": hi, "points": args.points},
        seed=None,
        timestamp=_now(),
        outputs=(str(out_path),),
    )
    rows = []
    for level in ("g", "e", "f"):
        for f, amp in spectrum(cav, grid, level, mode):
            rows.append([_fmt(f), level, mode, _fmt(abs(amp)), _fmt(float(np.angle(amp)))])
    _write_csv(out_path, manifest.hash(), ["frequency_mhz", "level", "mode", "amplitude", "phase_rad"], rows)
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


def _shot_rows(name: str, shots):
    """shots.csv rows of one run, built column by column."""
    n = len(shots)
    return zip(
        [name] * n,
        range(n),
        shots.flip.astype(int).tolist(),
        shots.level.tolist(),
        ["" if math.isnan(t) else _fmt(t) for t in shots.jump_time.tolist()],
        map(_fmt, shots.true_photons.tolist()),
        map(_fmt, shots.reading.tolist()),
        np.where(shots.on, measurement.ON, measurement.OFF).tolist(),
    )


def cmd_switch(args) -> int:
    dev = device_mod.load(args.device)
    cfg = load_protocol(args.protocol)
    if args.shots is not None:
        cfg = dataclasses.replace(cfg, n_shots=args.shots)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
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

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out_dir / "switch_report.json",
        "shots": out_dir / "shots.csv",
        "histogram": out_dir / "histogram.csv",
    }
    manifest = RunManifest(
        command="switch",
        device_sha256=_sha256_file(args.device),
        protocol=_protocol_as_dict(cfg),
        seed=cfg.seed,
        timestamp=_now(),
        outputs=tuple(str(p) for p in paths.values()),
    )

    runs = (("gated", gated), ("ungated", ungated))
    _write_csv(
        paths["shots"],
        manifest.hash(),
        ["run", "shot", "gate_flip", "level_at_signal_start", "jump_time_us", "true_photons", "reading", "label"],
        (row for name, shots in runs for row in _shot_rows(name, shots)),
    )

    hist_rows = []
    for name, shots in runs:
        for center, count in measurement.histogram(shots.reading, args.bins):
            hist_rows.append([name, _fmt(center), count])
    _write_csv(paths["histogram"], manifest.hash(), ["run", "bin_center", "count"], hist_rows)

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
    paths["report"].write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {paths['report']}")
    return 0


def cmd_gain_sweep(args) -> int:
    dev = device_mod.load(args.device)
    model = semiclassical.build_model(dev.cavity_II, dev.semiclassical)
    grid = np.geomspace(args.n_min, args.n_max, args.points)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "gain_sweep.csv"
    manifest = RunManifest(
        command="gain-sweep",
        device_sha256=_sha256_file(args.device),
        protocol={"n_min": args.n_min, "n_max": args.n_max, "points": args.points,
                  "eta": args.eta, "p_s": args.p_s},
        seed=None,
        timestamp=_now(),
        outputs=(str(out_path),),
    )
    rows = []
    for subspace in ("ge", "gf"):
        for pt in semiclassical.gain_sweep(model, args.eta, args.p_s, grid, subspace):
            rows.append([_fmt(pt.n_s), subspace, _fmt(pt.gain_db), _fmt(pt.extinction_db), pt.regime])
    _write_csv(out_path, manifest.hash(), ["n_s", "subspace", "gain_db", "extinction_db", "regime"], rows)
    print(f"wrote {out_path}")
    return 0


def cmd_wigner(args) -> int:
    dev = device_mod.load(args.device)
    cfg = load_protocol(args.protocol)
    if args.shots is not None:
        cfg = dataclasses.replace(cfg, n_shots=args.shots)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    shots, _, _ = protocol.label_records(protocol.run_experiment(cfg, dev))
    state = protocol.conditional_gate_field(shots, args.condition, cfg, dev)

    # embed in a cutoff large enough for the requested phase-space window
    need = int(math.ceil(8.0 * args.extent**2)) + 2
    if need > state.dims[0]:
        state = with_cutoff(state, need)
    xs, ps, pts = measurement.wigner_grid(args.extent, args.points)
    w = measurement.wigner(state, pts).reshape(args.points, args.points)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"wigner_{args.condition}.csv"
    manifest = RunManifest(
        command=f"wigner --condition {args.condition}",
        device_sha256=_sha256_file(args.device),
        protocol=_protocol_as_dict(cfg),
        seed=cfg.seed,
        timestamp=_now(),
        outputs=(str(out_path),),
    )
    rows = []
    for j, p in enumerate(ps):
        for i, x in enumerate(xs):
            rows.append([_fmt(x), _fmt(p), _fmt(w[j, i])])
    _write_csv(out_path, manifest.hash(), ["x", "p", "w"], rows)
    print(f"wrote {out_path}")
    return 0


def cmd_calibrate(args) -> int:
    with open(args.inputs, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed inputs file {args.inputs}: {exc}") from exc
    allowed = {"n0_open", "na_open", "n0_close", "na_close", "beta",
               "eta", "p_s", "dark_flip", "beta_table"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown calibration fields: {sorted(unknown)}")

    dark = data.get("dark_flip")
    if "eta" in data:
        eta = float(data["eta"])
    elif "beta_table" in data:
        eta, dark = analysis.fit_eta(data["beta_table"])
    else:
        raise ValueError("provide either 'eta' or a 'beta_table' to fit")

    inputs = analysis.CalibrationInputs(
        n0_open=float(data["n0_open"]),
        na_open=float(data["na_open"]),
        n0_close=float(data["n0_close"]),
        na_close=float(data["na_close"]),
        beta=float(data["beta"]),
    )
    cal = analysis.solve_calibration(inputs)
    n1, n0 = analysis.predict_single_photon(cal, eta)
    p_s = float(data["p_s"]) if "p_s" in data else None
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "transistor_report.json"
    manifest = RunManifest(
        command="calibrate",
        device_sha256=_sha256_file(args.inputs),
        protocol=None,
        seed=None,
        timestamp=_now(),
        outputs=(str(out_path),),
    )
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
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("switch", help="Monte Carlo single-shot switch statistics")
    p.add_argument("--device", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bins", type=int, default=60)
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("gain-sweep", help="semiclassical gain/extinction sweep")
    p.add_argument("--device", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-min", type=float, default=3.0)
    p.add_argument("--n-max", type=float, default=1.6e6)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--eta", type=float, default=0.80)
    p.add_argument("--p-s", type=float, default=0.925)
    p.set_defaults(func=cmd_gain_sweep)

    p = sub.add_parser("wigner", help="conditional gate-field Wigner map")
    p.add_argument("--device", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--condition", choices=["on", "off"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--extent", type=float, default=2.5)
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("calibrate", help="four-intensity calibration and figures of merit")
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
