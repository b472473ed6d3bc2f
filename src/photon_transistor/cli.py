"""Command-line front end: run experiments from config files, emit plot-ready data.

Every command writes CSV/JSON artifacts stamped with one manifest record, a plain dict that
``_artifacts`` builds once per run: its hash covers the command, every flag but ``--out`` (an
input file by its content) and the package and numpy versions.
Equal hashes give equal bytes (JSON timestamps and file paths aside); across versions
CSV values agree at their printed precision, bar values within an ulp of a rounding
boundary.  The writer owns that precision: ``%.12g``, and ``%.11f`` for the Wigner W.

Every CSV is written by one record assembler, in chunks of rows: a chunk is a numpy
structured array of zero-padded fixed-width byte fields, the separators among them, and
its text is its bytes with every NUL dropped.  ``%.12g`` of the high-cardinality columns
and ``%d`` of the shot index come from a vectorised kernel exact to the byte, which hands
the values it cannot settle (near a rounding tie, out of its range, not finite) to ``%``;
the columns whose values repeat format each distinct value once with ``%``.

Exit codes: 0 success, 2 configuration error, 3 numeric or degenerate-data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, device as device_mod, measurement, protocol, semiclassical
from .cavity import spectrum
from .errors import (
    Breach,
    DegenerateDataError,
    InsufficientDataError,
    NumericsError,
    UnphysicalInputError,
    UnsolvableCalibrationError,
    bounded,
    fields,
    file_keys,
    number,
    read_json,
    record,
    table,
    to_file,
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

def _artifacts(args, names: list[str], digest: str,
               cfg: protocol.ProtocolConfig | None = None) -> tuple[list[Path], dict]:
    """Make the ``--out`` directory; return the paths of the named outputs in it and the
    manifest stamping them, built here once per run.

    Its ``manifest_hash`` digests six fields: the command, ``digest`` (the SHA-256 of the
    bytes parsed from the input file, ``--device`` or ``--inputs``), the settings
    (``protocol``: every flag but ``--out`` and the input files, with ``cfg``, the effective
    ProtocolConfig of ``switch`` and ``wigner``, laid over them; None if there are none), the
    seed, and the package's and numpy's versions, read at call time.  ``timestamp`` and
    ``outputs`` are not hashed."""
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "out", "device", "inputs", "protocol")}
    if cfg is not None:
        settings |= dataclasses.asdict(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in names]
    manifest = {
        "command": args.command,
        "device_sha256": digest,
        "protocol": settings or None,
        "seed": None if cfg is None else cfg.seed,
        "version": sys.modules[__package__].__version__,
        "numpy": np.__version__,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return paths, manifest | {
        "manifest_hash": hashlib.sha256(blob.encode()).hexdigest()[:16],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "outputs": [str(p) for p in paths],
    }


def _write_csv(path: Path, manifest: dict, header: list[str], chunks) -> None:
    """The manifest-hash line, the header, then the bytes of the CRLF-terminated rows:
    the bytes csv.writer gives, as no field needs quoting."""
    with open(path, "wb") as fh:
        fh.write(f"# manifest_hash={manifest['manifest_hash']}\n{','.join(header)}\r\n".encode())
        fh.writelines(chunks)


def _write_json(path: Path, manifest: dict, body: dict) -> None:
    """The report ``body`` under its ``manifest``, as indented JSON with sorted keys.  JSON has
    no Infinity or NaN (RFC 8259), so a non-finite float, at any depth, is written as null."""
    text = json.dumps({"manifest": manifest, **body})
    report = json.loads(text, parse_constant=lambda constant: None)  # Infinity, -Infinity, NaN -> null
    path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


#: rows per chunk: a chunk's fields are formatted whole and laid into one record array, so
#: memory stays flat in the row count
_CHUNK_ROWS = 2048

#: the most cells a grid may have: 2**22 ``--points`` of a 1-D grid or ``--bins``, 2048**2 of the Wigner map
_GRID_BUDGET = 2**22


def _formatted(values, fmt: str) -> list[str]:
    """The ``fmt`` strings of an array's values, from one ``%`` over all of them (faster than one per value)."""
    return ((fmt + "\0") * len(values) % tuple(values.tolist())).split("\0")[:-1]


def _text(values, fmt: str = "%.12g", nan: str | None = None) -> np.ndarray:
    """The ``fmt`` texts of a float array as an ``S`` array, a NaN's text replaced by ``nan`` if it is given.

    Each distinct value is formatted once, for the columns whose values repeat.  Values are
    told apart by their bits, not by float equality, which would merge -0.0 into 0.0."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    text = np.array(_formatted(distinct, fmt), dtype=object)
    if nan is not None:
        text[np.isnan(distinct)] = nan
    return text.astype("S")[inverse.ravel()]


#: the ASCII digits of 000 to 999: row c holds digit c of each, so the table is 3 KB
_DIGITS = (np.arange(1000, dtype=np.int16) // np.array([[100], [10], [1]], dtype=np.int16) % 10 + 48).astype(np.uint8)
#: 10.0**k, k = 0..16, each exact
_POW10 = (10 ** np.arange(17)).astype(float)
#: the 12 digit places of a %.12g text, as a column to set against a row of exponents
_SLOT = np.arange(12, dtype=np.int8)[:, None]


def _digits(v, groups: int) -> np.ndarray:
    """The ASCII digits of integers 0 <= v < 1000**groups, zero-filled: row k holds digit k of
    every value (the most significant first), so that each row is one contiguous array."""
    index = np.empty((groups, len(v)), dtype=np.intp)
    for j in range(groups - 1, -1, -1):
        v, index[j] = np.divmod(v, 1000)
    out = np.empty((groups, 3, len(v)), dtype=np.uint8)
    for c in range(3):
        np.take(_DIGITS[c], index, out=out[:, c])
    return out.reshape(3 * groups, len(v))


def _d(values) -> np.ndarray:
    """``'%d' % v`` of each v of an array of non-negative integers, as zero-padded ``S``
    records: the text is a record with its NUL bytes dropped."""
    v = np.asarray(values, dtype=np.int64)
    digits = _digits(v, (len(str(int(v.max()))) + 2) // 3)
    lead = np.ones(len(v), dtype=bool)
    for row in digits[:-1]:  # the zeros left of a value's first digit; its last digit stays
        lead &= row == 48
        row *= ~lead
    return digits.T.copy().view(f"S{len(digits)}").ravel()


def _g12(values) -> np.ndarray:
    """``'%.12g' % v`` of each v of a float array, as zero-padded ``S`` records: the text is a
    record with its NUL bytes dropped.

    A finite |v| in [1e-4, 1e10) with decimal exponent E prints in fixed point, from the 12
    digits of r = rint(y), y = |v|·10^(11−E) in [1e11, 1e12).  E comes from log10 and is then
    corrected by y's range, so the bits of log10 never matter.  10^(11−E) is exact, so y is off
    by under 2^-13 and r is the correctly rounded digit string unless y lies within 1e-3 of a
    tie.  Those rows, an r that reaches 1e12, zeros, NaNs, infinities and every value out of
    range are formatted by ``%``, whose dtoa rounds correctly.  A record holds the sign, "0"
    if E < 0, the digits up to E, the point, the zeros after it if E < 0, and the digits after
    E up to the last nonzero one; a slot left empty is NUL."""
    x = np.asarray(values, dtype=float)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e10)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[11 - e]
    if ((y < 1e11) | (y >= 1e12)).any():
        e += (y >= 1e12).astype(np.int64) - (y < 1e11)
        y = a * _POW10[11 - e]
    r = np.rint(y)
    fast &= (np.abs(y - r) < 0.499) & (y >= 1e11) & (r < 1e12)  # |frac(y) - 1/2| > 1e-3
    r[~fast] = 1e11
    digits = _digits(r.astype(np.int64), 4)
    e = e.astype(np.int8)
    kept = np.max((_SLOT + 1) * (digits != 48), axis=0)  # digits up to the last nonzero one
    whole = _SLOT <= e
    # one row per byte of the records, laid out whole and then transposed
    out = np.empty((30, len(x)), dtype=np.uint8)
    np.multiply(x < 0, 45, out=out[0], dtype=np.uint8)  # "-"
    np.multiply(e < 0, 48, out=out[1], dtype=np.uint8)
    np.multiply(digits, whole, out=out[2:14])
    np.multiply(kept > e + 1, 46, out=out[14], dtype=np.uint8)  # the point, unless no digit after it is kept
    np.multiply(_SLOT[:3] < -1 - e, 48, out=out[15:18], dtype=np.uint8)
    np.multiply(digits, ~whole & (_SLOT < kept), out=out[18:])
    text = out.T.copy().view("S30").ravel()
    if not fast.all():
        text[~fast] = _formatted(x[~fast], "%.12g")
    return text


def _records(n: int, *columns):
    """The CSV text of rows 0..n-1 of the columns, as one bytes object per chunk of rows.

    A column is a bytes constant or a function that takes a chunk's slice of rows and returns
    their texts as an ``S`` array.  A chunk is one record array of zero-padded fixed-width
    fields, the texts with the separators ("," and CRLF) as constant fields between them; no
    text holds a NUL byte, so the chunk's text is its bytes with every NUL dropped."""
    seps = [b","] * (len(columns) - 1) + [b"\r\n"]
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, n))
        fields = [f for col, sep in zip(columns, seps) for f in (col if isinstance(col, bytes) else col(rows), sep)]
        chunk = np.zeros(rows.stop - start, [("", np.asarray(f).dtype) for f in fields])
        for name, field in zip(chunk.dtype.names, fields):
            chunk[name] = field
        yield chunk.tobytes().translate(None, b"\0")


#: the texts of a flip and of an on/off label, by the bool's byte
_BIT = np.array([b"0", b"1"])
_LABEL = np.array([measurement.OFF, measurement.ON], dtype="S")


def load_protocol(path) -> protocol.ProtocolConfig:
    return record(protocol.ProtocolConfig, read_json(path, "protocol")[0], "protocol file")


def _inputs(args) -> tuple:
    """The device, the digest of its file and the protocol with the ``--shots`` and ``--seed`` overrides.  Each
    override is checked first, under its flag's name, by the bound of the field it sets (argparse made it an int)."""
    bounds = {f.name: f.bound for f in table(protocol.ProtocolConfig)}
    given = {"n_shots": ("--shots", args.shots), "seed": ("--seed", args.seed)}
    overrides = {name: bounded(flag, value, bounds[name]) for name, (flag, value) in given.items() if value is not None}
    dev, digest = device_mod.load_and_hash(args.device)
    return dev, digest, dataclasses.replace(load_protocol(args.protocol), **overrides)


# ---------------------------------------------------------------------------
# commands


def _check_grid(flag: str, n: int, cells: int) -> None:
    """Reject a ``--points`` or ``--bins`` n below 1, or one whose grid of ``cells`` cells is over the budget."""
    bounded(flag, n, ">= 1")
    if cells > _GRID_BUDGET:
        raise ValueError(f"{flag} {n} gives a grid of {cells} cells, over the budget of 2**22 = {_GRID_BUDGET}")


def _spectrum_lines(cav, grid, level: str, mode: str):
    """spectra_cavity_*.csv bytes of one level's spectrum over the frequency grid."""
    amps = spectrum(cav, grid, level)
    mag, phase = np.abs(amps), np.angle(amps)
    return _records(len(grid), lambda r: _g12(grid[r]), level.encode(), mode.encode(),
                    lambda r: _g12(mag[r]), lambda r: _g12(phase[r]))


def cmd_spectra(args) -> int:
    _check_grid("--points", args.points, args.points)
    for flag, value in (("--f-min", args.f_min), ("--f-max", args.f_max)):
        if value is not None:
            number(flag, value)
    dev, digest = device_mod.load_and_hash(args.device)
    cav = dev.cavity_I if args.cavity == "I" else dev.cavity_II
    mode = "reflect" if cav.single_sided else "transmit"
    span = 4.0 * max(abs(2.0 * cav.chi_ge), abs(2.0 * cav.chi_gf), cav.kappa_tot)
    lo = cav.f0 - span if args.f_min is None else args.f_min
    hi = cav.f0 + span if args.f_max is None else args.f_max
    if hi < lo:
        raise ValueError(f"--f-max must be >= --f-min, got {hi:g} < {lo:g} MHz")
    grid = np.linspace(lo, hi, args.points)

    (out_path,), manifest = _artifacts(args, [f"spectra_cavity_{args.cavity}.csv"], digest)
    _write_csv(out_path, manifest, ["frequency_mhz", "level", "mode", "amplitude", "phase_rad"],
               (chunk for level in ("g", "e", "f") for chunk in _spectrum_lines(cav, grid, level, mode)))
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
    """shots.csv bytes of one run: the bytes csv.writer gives, as no field needs quoting."""
    return _records(len(shots), name.encode(),
                    lambda r: _d(np.arange(r.start, r.stop)),
                    lambda r: _BIT[shots.flip[r].view(np.uint8)],
                    lambda r: shots.level[r].view(np.uint32).astype(np.uint8).view("S1"),  # one ASCII letter
                    lambda r: _text(shots.jump_time[r], nan=""),
                    lambda r: _text(shots.true_photons[r]),
                    lambda r: _g12(shots.reading[r]),
                    lambda r: _LABEL[shots.on[r].view(np.uint8)])


def cmd_switch(args) -> int:
    _check_grid("--bins", args.bins, args.bins)
    dev, digest, cfg = _inputs(args)
    ungated_cfg = dataclasses.replace(cfg, n_g=0.0, seed=cfg.seed + 1)

    runs = {"gated": protocol.run_experiment(cfg, dev), "ungated": protocol.run_experiment(ungated_cfg, dev)}
    # shared threshold from the pooled readings, as if both runs filled one histogram
    fit = measurement.kmeans_1d(np.concatenate([shots.reading for shots in runs.values()]))
    arms = {}
    for name, shots in runs.items():
        runs[name], _, counts = protocol.label_records(shots, threshold=fit.threshold)
        arms[name] = {"counts": counts, **{label: _class_stats(runs[name], dev.detection, label)
                                           for label in (measurement.ON, measurement.OFF)}}

    cond = {}
    for label in (measurement.ON, measurement.OFF):
        try:
            state = protocol.conditional_gate_field(runs["gated"], label, cfg, dev)
            cond[f"mean_photon_{label}"] = mean_photon(state, 0)
        except InsufficientDataError:
            cond[f"mean_photon_{label}"] = None

    names = ["switch_report.json", "shots.csv", "histogram.csv"]
    (report_path, shots_path, hist_path), manifest = _artifacts(args, names, digest, cfg)
    header = ["run", "shot", "gate_flip", "level_at_signal_start", "jump_time_us", "true_photons", "reading", "label"]
    _write_csv(shots_path, manifest, header,
               (chunk for name, shots in runs.items() for chunk in _shot_lines(name, shots)))
    hist_chunks = []
    for name, shots in runs.items():
        centers, counts = measurement.histogram(shots.reading, args.bins)
        hist_chunks += _records(len(centers), name.encode(), lambda r, c=centers: _text(c[r]),
                                lambda r, c=counts: _text(c[r], "%d"))
    _write_csv(hist_path, manifest, ["run", "bin_center", "count"], hist_chunks)

    _write_json(report_path, manifest, {
        "threshold": fit.threshold,
        "classification": {"iterations": fit.iterations, "converged": fit.converged},
        **arms,
        "conditional_gate_field": cond,
    })
    print(f"wrote {report_path}")
    return 0


def cmd_gain_sweep(args) -> int:
    _check_grid("--points", args.points, args.points)
    bounded("--n-min", number("--n-min", args.n_min), "> 0")
    if number("--n-max", args.n_max) < args.n_min:
        raise ValueError(f"--n-max must be >= --n-min, got {args.n_max!r} < {args.n_min!r}")
    for flag, value in (("--eta", args.eta), ("--p-s", args.p_s)):
        bounded(flag, number(flag, value), "in [0, 1]")
    dev, digest = device_mod.load_and_hash(args.device)
    model = semiclassical.SaturableCavityModel(dev.cavity_II, dev.semiclassical)
    grid = np.geomspace(args.n_min, args.n_max, args.points)
    # both subspaces from one sweep, a row per (subspace, n_s); the numbers of every row take one kernel pass
    n_s, gains, extinctions, regimes = semiclassical._sweep(model, args.eta, args.p_s, grid, ("ge", "gf"))
    numbers = _g12(np.concatenate([n_s, n_s, gains.ravel(), extinctions.ravel()])).reshape(3, -1)
    subspaces, regimes = np.repeat(np.array([b"ge", b"gf"]), len(n_s)), regimes.ravel().astype("S")
    (out_path,), manifest = _artifacts(args, ["gain_sweep.csv"], digest)
    _write_csv(out_path, manifest, ["n_s", "subspace", "gain_db", "extinction_db", "regime"],
               _records(len(subspaces), numbers[0].__getitem__, subspaces.__getitem__, numbers[1].__getitem__,
                        numbers[2].__getitem__, regimes.__getitem__))
    print(f"wrote {out_path}")
    return 0


def _wigner_lines(xs, ps, w):
    """wigner_*.csv bytes of the map ``w[j, i]`` at (xs[i], ps[j]), x running fastest; W is
    printed ``%.11f``, a W that rounds to zero unsigned (the double nearest 5e-12 lies below
    5e-12, so those are exactly |W| <= 5e-12)."""
    # a map repeats each W many times over (a radial map once per |alpha|), so its distinct values
    # are formatted once for the whole map rather than once per chunk
    x_text, w_text = _text(xs), _text(np.where(np.abs(w) <= 5e-12, 0.0, w), "%.11f")
    p_text = x_text if ps is xs else _text(ps)  # wigner_grid's square grid shares one axis
    return _records(w.size, lambda r: x_text[np.arange(r.start, r.stop) % len(xs)],
                    lambda r: p_text[np.arange(r.start, r.stop) // len(xs)], w_text.__getitem__)


def cmd_wigner(args) -> int:
    bounded("--extent", number("--extent", args.extent), "> 0")
    _check_grid("--points", args.points, args.points**2)
    dev, digest, cfg = _inputs(args)
    shots, _, _ = protocol.label_records(protocol.run_experiment(cfg, dev))
    state = protocol.conditional_gate_field(shots, args.condition, cfg, dev)
    xs, ps, pts = measurement.wigner_grid(args.extent, args.points)
    w = measurement.wigner(state, pts).reshape(args.points, args.points)

    (out_path,), manifest = _artifacts(args, [f"wigner_{args.condition}.csv"], digest, cfg)
    _write_csv(out_path, manifest, ["x", "p", "w"], _wigner_lines(xs, ps, w))
    print(f"wrote {out_path}")
    return 0


def cmd_calibrate(args) -> int:
    raw, digest = read_json(args.inputs, "calibration inputs")
    measured = file_keys(analysis.CalibrationInputs)
    data = fields("calibration inputs", raw, {*measured, "eta", "p_s", "dark_flip", "beta_table"}, measured)
    inputs = analysis.CalibrationInputs(**{name: data[k] for k, name in measured.items()})
    given = {k: bounded(k, number(k, data[k]), "in [0, 1]") for k in ("eta", "p_s", "dark_flip") if k in data}
    pairs = data.get("beta_table", [])
    if not isinstance(pairs, list):
        raise ValueError(f"beta_table must be a list of [n_g, beta] pairs, got {pairs!r}")
    for i, row in enumerate(pairs):
        if not (isinstance(row, list) and len(row) == 2):
            raise ValueError(f"beta_table[{i}] must be an [n_g, beta] pair, got {row!r}")

    if "beta_table" in data:
        if fitted := [key for key in ("eta", "dark_flip") if key in data]:
            raise ValueError(f"beta_table sets eta and dark_flip by its fit; drop {' and '.join(fitted)} or the table")
        try:
            eta, dark = analysis.fit_eta(pairs)
        except Breach as exc:  # fit_eta names a pair "points[1]"; the file calls it "beta_table[1]"
            raise Breach("beta_table" + exc.key.removeprefix("points"), exc.bound, exc.value) from exc
    elif "eta" in given:
        eta, dark = given["eta"], given.get("dark_flip")
    else:
        raise ValueError("provide either 'eta' or a 'beta_table' to fit")

    cal = analysis.solve_calibration(inputs)
    n1, n0 = analysis.predict_single_photon(cal, eta)
    p_s = given.get("p_s")
    (out_path,), manifest = _artifacts(args, ["transistor_report.json"], digest)
    _write_json(out_path, manifest, {"report": {
        "calibration": to_file(cal) | {"is_physical": cal.is_physical},
        "eta": eta,
        "dark_flip": dark,
        "p_s": p_s,
        "p_sg": None if p_s is None else analysis.switching_probability(eta, p_s),
        "n1_open": n1,
        "n0_open": n0,
        "gain_db": analysis.gain_db(n1, n0),
        "extinction_db": analysis.extinction_db(n0, n1),
        "provenance": {"inputs_file": str(args.inputs)},
    }})
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
