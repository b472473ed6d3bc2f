"""The CLI's outputs on ``configs/`` against the files committed under ``tests/golden/``.

A change that moves a number, however well formatted, fails here; a change meant to move
numbers regenerates the files (``python tests/golden_outputs.py``), and the diff of
``tests/golden/`` lists what moved.  With the recorded package and numpy versions every
byte below the CSV hash lines and every JSON value but the manifest's timestamp and output
paths must match, the hashes too.  On another numpy every byte below the hash lines and
every JSON value but the versioned manifest fields must match as well; since no other
numpy has yet been compared with these files, a move there is reported as an expected
failure listing what moved, not passed under a guessed tolerance.
"""

import json

import numpy as np
import pytest

import photon_transistor
from golden_outputs import FILES, GOLDEN, ROOT, csv_moves, json_moves, write, write_keeping_timestamps


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        write(out)
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads((ROOT / GOLDEN / "switch_report.json").read_text(encoding="utf-8"))["manifest"]


@pytest.mark.parametrize("name", FILES)
def test_cli_output_matches_golden(name, fresh, recorded):
    same_build = (recorded["version"], recorded["numpy"]) == (photon_transistor.__version__, np.__version__)
    new, old = ((where / name).read_text(encoding="utf-8") for where in (fresh, ROOT / GOLDEN))
    if name.endswith(".csv"):
        moves = csv_moves(new, old, same_build)
    else:
        moves = json_moves(json.loads(new), json.loads(old), same_build)
    if moves and recorded["numpy"] != np.__version__:
        pytest.xfail(f"{name} moved on numpy {np.__version__}, recorded with {recorded['numpy']} "
                     f"(first 5 of {len(moves)}): {moves[:5]}")
    assert not moves, f"{name} moved against tests/golden (first 5 of {len(moves)}): {moves[:5]}"


def test_golden_files_are_the_nine_outputs():
    assert sorted(p.name for p in (ROOT / GOLDEN).iterdir()) == sorted(FILES)


def test_rewriting_keeps_each_reports_recorded_timestamp(tmp_path, fresh):
    # so a regeneration of tests/golden/ that moves no value leaves the files as they were
    stamp = "2000-01-01T00:00:00+00:00"
    reports = [name for name in FILES if name.endswith(".json")]
    for name in reports:
        report = json.loads((fresh / name).read_text(encoding="utf-8"))
        report["manifest"]["timestamp"] = stamp
        (tmp_path / name).write_text(json.dumps(report), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        write_keeping_timestamps(tmp_path)
    for name in reports:
        new, old = (json.loads((where / name).read_text(encoding="utf-8")) for where in (tmp_path, fresh))
        assert new["manifest"]["timestamp"] == stamp
        assert json_moves(new, old, same_build=True) == []


def test_moves_on_another_build():
    head = "# manifest_hash=0123456789abcdef\nx,w\r\n"
    old = head + "0.5,0.12345678901\r\n1,on\r\n"
    # the hash follows the versions; every other byte must match on any build
    assert csv_moves(old.replace("0123", "4567"), old, same_build=False) == []
    assert csv_moves(old.replace("0123", "4567"), old, same_build=True) != []
    moved = old.replace("0.12345678901", "0.12345678902")
    for same_build in (False, True):
        assert csv_moves(moved, old, same_build) == [(2, "0.12345678902", "0.12345678901")]
    assert csv_moves(old.replace("on", "off"), old, same_build=False) == [(3, "off", "on")]
    assert csv_moves(old + "2,on\r\n", old, same_build=False) == [(None, 5, 4)]

    manifest = {"timestamp": "t0", "outputs": ["a"], "version": "0.9.0", "numpy": "2.4.6",
                "manifest_hash": "0123", "seed": 7}
    doc = {"manifest": manifest, "threshold": 7.25, "counts": {"on": 3}}
    other = manifest | {"timestamp": "t1", "outputs": ["b"], "numpy": "2.2.6", "manifest_hash": "4567"}
    rebuilt = doc | {"manifest": other}
    assert json_moves(rebuilt, doc, same_build=False) == []
    assert [path for path, _, _ in json_moves(rebuilt, doc, same_build=True)] == [
        "manifest.manifest_hash", "manifest.numpy"]
    nudged = rebuilt | {"threshold": float(np.nextafter(7.25, 8.0))}
    assert [path for path, _, _ in json_moves(nudged, doc, same_build=False)] == ["threshold"]
    assert json_moves(rebuilt | {"counts": {"on": 4}}, doc, same_build=False) == [("counts.on", 4, 3)]
    extra = rebuilt | {"seed": 8}
    assert json_moves(extra, doc, same_build=False) == [("", sorted(extra), sorted(doc))]
