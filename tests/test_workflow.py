"""The `toric --load` checks of the workflow's `python -O` step as tier-1
cases: each runs `python -O -m crepant.cli` in a child process, so the
invariants hold with asserts stripped, with the step's argv and
expectations (exit code, one stderr line, no output file)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _cli(*argv):
    """``python -O -m crepant.cli`` with argv in a child process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    command = [sys.executable, "-O", "-m", "crepant.cli", *argv]
    return subprocess.run(command, capture_output=True, text=True, env=env)


def _drop_last_simplex(doc):
    doc["simplices"].pop()


BUILD_400 = ["--n", "3", "--gen", "1,1,398@400", "--perm", "(1 2)"]
# the build's adjusted check passes the 1,600 fixed edges on the mirror of
# (1 2) on the crepancy certificate, and so does the load's
BUILD_3200 = ["--n", "3", "--gen", "1,1,3198@3200", "--perm", "(1 2)"]
# the walk, the edge-map flip and the crepancy certificate at |N/M| = 1600
BUILD_1600 = ["--n", "3", "--gen", "1,1,1598@1600", "--perm", "id", "--order", "revlex"]


@pytest.mark.parametrize(
    "source, edit, tail, code",
    [
        # a saved triangulation loads back and passes the build's audit
        pytest.param(BUILD_400, None, ["--perm", "(1 2)"], 0, id="400-swap"),
        # the Lefschetz sum of a loaded document, all cells for id
        pytest.param(BUILD_400, None, ["--perm", "id"], 0, id="400-id"),
        # --save beside --load would write nothing: exit 2
        pytest.param(BUILD_400, None, ["--save", "{out}"], 2, id="400-with-save"),
        pytest.param(BUILD_3200, None, ["--perm", "(1 2)"], 0, id="3200-swap"),
        pytest.param(BUILD_1600, None, ["--perm", "id"], 0, id="1600-revlex-id"),
        # one simplex dropped fails the crepancy check: exit 1, no L
        pytest.param(BUILD_1600, _drop_last_simplex, ["--perm", "id"], 1, id="1600-simplex-dropped"),
        pytest.param(
            '{"lattice": {"n": 3, "generators": []}, "vertices": ["1/0,0,1"], "simplices": []}',
            None, [], 2, id="zero-denominator",
        ),
        pytest.param(
            '{"lattice": {"n": -1, "generators": []}, "vertices": [], "simplices": []}',
            None, [], 2, id="negative-dimension",
        ),
    ],
)
def test_toric_load_under_python_O(tmp_path, source, edit, tail, code):
    """``source`` is the build argv that saves the document, or its text."""
    tri, out = tmp_path / "tri.json", tmp_path / "out.json"
    if isinstance(source, str):
        tri.write_text(source)
    else:
        built = _cli("toric", *source, "--save", str(tri))
        assert built.returncode == 0, built.stderr
    if edit:
        doc = json.loads(tri.read_text())
        edit(doc)
        tri.write_text(json.dumps(doc))
    proc = _cli("toric", "--load", str(tri), *(a.format(out=out) for a in tail))
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1 and not out.exists()
        return
    report = json.loads(proc.stdout)
    if code == 0:
        assert report["checks"] == {
            "crepant": "pass", "adjusted": "pass", "lefschetz_equals_fixed_count": "pass"
        }
    else:
        assert report["checks"] == {"crepant": "fail"}
        assert report["results"]["lefschetz"] is None and report["results"]["failures"]
