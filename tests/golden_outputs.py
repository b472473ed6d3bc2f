"""The golden outputs of the CLI on ``configs/``: the runs that write the nine files under
``tests/golden/``, and the rule that compares a fresh run with them.

Regenerate the files after a change that is meant to move numbers, from the repository root:

    python tests/golden_outputs.py            # rewrites tests/golden/
    python tests/golden_outputs.py OUT_DIR    # writes them to OUT_DIR instead

``diff -r tests/golden OUT_DIR`` then lists the rows that moved.  The runs take their
inputs by paths relative to the repository root, which the JSON files record.  A JSON report
that is rewritten keeps the manifest timestamp it recorded, so a regeneration that moves no
value leaves ``tests/golden/`` as it was.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests", "golden")
DEVICE, PROTOCOL = "configs/device_paper.json", "configs/protocol_paper_point.json"

RUNS = (
    ["switch", "--device", DEVICE, "--protocol", PROTOCOL, "--shots", "500", "--seed", "7"],
    *(["wigner", "--device", DEVICE, "--protocol", PROTOCOL, "--condition", condition,
       "--points", "21", "--shots", "500", "--seed", "7"] for condition in ("on", "off")),
    ["gain-sweep", "--device", DEVICE],
    *(["spectra", "--device", DEVICE, "--cavity", cavity, "--points", "101"] for cavity in ("I", "II")),
    ["calibrate", "--inputs", "configs/calibration_example.json"],
)
FILES = (
    "shots.csv", "histogram.csv", "switch_report.json", "wigner_on.csv", "wigner_off.csv",
    "gain_sweep.csv", "spectra_cavity_I.csv", "spectra_cavity_II.csv", "transistor_report.json",
)
#: manifest fields that differ between equal runs
UNCOMPARED = ("timestamp", "outputs")
#: manifest fields that follow the package and numpy versions
VERSIONED = ("version", "numpy", "manifest_hash")


def write(out) -> None:
    """Run the nine commands in this process, writing their outputs to ``out``; the
    working directory must be the repository root."""
    from photon_transistor.cli import main

    for argv in RUNS:
        if main([*argv, "--out", str(out)]) != 0:
            raise RuntimeError(f"{' '.join(argv)} failed")


def write_keeping_timestamps(out) -> None:
    """:func:`write`, then put back in each JSON report that ``out`` held before the manifest
    timestamp it recorded, the one field that differs between equal runs into one directory."""
    reports = [out / name for name in FILES if name.endswith(".json")]
    recorded = {path: timestamp(path.read_text(encoding="utf-8")) for path in reports if path.exists()}
    write(out)
    for path, stamp in recorded.items():
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(timestamp(text), stamp, 1), encoding="utf-8")


def timestamp(text: str) -> str:
    """The manifest timestamp line of a JSON report's text."""
    return f'"timestamp": {json.dumps(json.loads(text)["manifest"]["timestamp"])}'


def csv_moves(new: str, old: str, same_build: bool) -> list:
    """The (line, new field, old field) triples that moved between two CSV texts: every
    byte below the manifest-hash line, and the hash line itself for the same build."""
    (new_hash, new_rows), (old_hash, old_rows) = (text.split("\n", 1) for text in (new, old))
    moves = [(0, new_hash, old_hash)] if same_build and new_hash != old_hash else []
    if new_rows == old_rows:
        return moves
    new_lines, old_lines = new_rows.split("\r\n"), old_rows.split("\r\n")
    if len(new_lines) != len(old_lines):
        return moves + [(None, len(new_lines), len(old_lines))]
    for i, (a, b) in enumerate(zip(new_lines, old_lines), start=1):
        fa, fb = a.split(","), b.split(",")
        if len(fa) != len(fb):
            moves.append((i, a, b))
        else:
            moves += [(i, x, y) for x, y in zip(fa, fb) if x != y]
    return moves


def json_moves(new, old, same_build: bool, path: str = "") -> list:
    """The (key path, new value, old value) triples that moved between two parsed JSON
    documents; manifest timestamps and output paths are skipped, and the versioned
    manifest fields are compared only for the same build."""
    if isinstance(new, dict) and isinstance(old, dict):
        if set(new) != set(old):
            return [(path, sorted(new), sorted(old))]
        skip = ()
        if path.endswith("manifest"):
            skip = UNCOMPARED if same_build else UNCOMPARED + VERSIONED
        return [move for key in sorted(new) if key not in skip
                for move in json_moves(new[key], old[key], same_build, f"{path}.{key}".lstrip("."))]
    if isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        return [move for i, (a, b) in enumerate(zip(new, old)) for move in json_moves(a, b, same_build, f"{path}[{i}]")]
    return [] if type(new) is type(old) and new == old else [(path, new, old)]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    out = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else GOLDEN
    os.chdir(ROOT)
    write_keeping_timestamps(out)
