"""CLI checks under `python -O` as tier-1 cases: each runs
`python -O -m crepant.cli` in a child process, so the invariants hold with
asserts stripped.  Each case has its argv and expectations: an exit code;
for malformed input one stderr line, and for `toric --load` no output file;
a sheet that saves back to the same bytes; no stderr when the reader closes
the report early; and a peak memory bound for a group at the default cap."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CLI = [sys.executable, "-O", "-m", "crepant.cli"]


def _cli(*argv):
    """``python -O -m crepant.cli`` with argv in a child process."""
    return subprocess.run([*CLI, *argv], capture_output=True, text=True, env=ENV)


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


@pytest.mark.parametrize(
    "argv, code",
    [
        # group closures and outer actions on Zumbroich-basis cyclotomic integers
        pytest.param(["--fixture", "quintic"], 0, id="quintic"),
        pytest.param(["--fixture", "lt"], 0, id="lt"),
        pytest.param(["--fixture", "binary-dihedral", "--r", "12"], 0, id="binary-dihedral-12"),
        pytest.param(["--fixture", "binary-dihedral", "--r", "8"], 0, id="binary-dihedral-8"),
        # diagonal SL3 generators at conductor 9 with a conductor-1 symmetry lifted to 9
        pytest.param(
            ["--gens", "[[1,0,0],[0,z9^4,0],[0,0,z9^5]];[[z9^5,0,0],[0,1,0],[0,0,z9^4]]",
             "--h", "[[0,0,1],[1,0,0],[0,1,0]]"],
            0, id="sl3-gens",
        ),
        pytest.param(["--fixture", "cyclic", "--n", "300"], 0, id="cyclic-300"),
        # the closure cap is the largest order allowed: the order-125 quintic
        # group exceeds a cap of 124 (exit 3) and closes under a cap of 125
        pytest.param(["--fixture", "quintic", "--cap", "124"], 3, id="quintic-cap-124"),
        pytest.param(["--fixture", "quintic", "--cap", "125"], 0, id="quintic-cap-125"),
        # a cap below 1 is malformed input: exit 2
        pytest.param(["--fixture", "quintic", "--cap", "0"], 2, id="quintic-cap-0"),
        # the order-8 quaternion group of d4-triality reads the cap too
        pytest.param(["--fixture", "d4-triality", "--cap", "7"], 3, id="d4-triality-cap-7"),
        pytest.param(["--fixture", "d4-triality", "--cap", "8"], 0, id="d4-triality-cap-8"),
        # a fixture size below its minimum is malformed input: exit 2
        pytest.param(["--fixture", "cyclic", "--n", "-1"], 2, id="cyclic-n-minus-1"),
    ],
)
def test_group_under_python_O(argv, code):
    assert _cli("group", *argv).returncode == code


@pytest.mark.parametrize(
    "argv, code",
    [
        # crepant, adjusted and L = fixed count = index at |N/M| = 400
        pytest.param(["--n", "3", "--gen", "1,1,398@400", "--perm", "id"], 0, id="400-id"),
        # a lattice denominator D = 3 below the modulus 6
        pytest.param(["--n", "3", "--gen", "2,4,0@6", "--perm", "(1 2)"], 0, id="6-swap"),
        # a dimension below one is malformed input: exit 2
        pytest.param(["--n", "0"], 2, id="n-0"),
        # cycles that repeat an index are malformed input: exit 2
        pytest.param(["--n", "3", "--perm", "(1 2)(1 2)"], 2, id="repeated-cycle"),
    ],
)
def test_toric_build_under_python_O(argv, code):
    assert _cli("toric", *argv).returncode == code


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["group", "--gens", "[[z4,0],[0,z4^3-]]"], id="entry-ending-in-a-sign"),
        pytest.param(["toric", "--n", "3", "--gen", "1_0,1,1@12"], id="underscore-in-a-number"),
    ],
)
def test_malformed_input_exits_2_with_one_stderr_line(argv):
    proc = _cli(*argv)
    assert proc.returncode == 2 and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("fixture", ["quintic-swap", "quintic-swap-two-pairs"])
def test_orbifold_fixture_under_python_O(fixture):
    assert _cli("orbifold", "--fixture", fixture).returncode == 0


@pytest.mark.parametrize("fixture", ["quintic-swap", "quintic-swap-two-pairs"])
def test_saved_sheet_loads_and_saves_to_the_same_bytes(tmp_path, fixture):
    """A built pair table and a loaded one serialize alike."""
    sheet, again = tmp_path / "sheet.json", tmp_path / "again.json"
    assert _cli("orbifold", "--fixture", fixture, "--save", str(sheet)).returncode == 0
    assert _cli("orbifold", "--sheet", str(sheet), "--save", str(again)).returncode == 0
    assert sheet.read_bytes() == again.read_bytes()


@pytest.mark.parametrize(
    "text",
    [
        # a negative invariant class count in a stratum
        pytest.param(
            '{"group_order": 1, "classes": [{"label": "e", "size": 1, "centralizer_order": 1, '
            '"in_ch": true, "lefschetz_quotient": 1}], "strata": [{"label": "s", '
            '"stabilizer_order": 1, "lefschetz_stratum": 1, "h_invariant": true, "con_h": -1}]}',
            id="negative-con-h",
        ),
        # a misspelt record key is refused, not ignored
        pytest.param(
            '{"group_order": 1, "classes": [{"label": "e", "size": 1, "centralizer_order": 1, '
            '"in_ch": true, "euler_quotent": 0}]}',
            id="misspelt-record-key",
        ),
        # a misspelt top-level key is refused too, so its table is not dropped
        pytest.param(
            '{"group_order": 1, "classes": [{"label": "e", "size": 1, "centralizer_order": 1, '
            '"in_ch": true, "euler_quotient": 1, "lefschetz_quotient": 1}], '
            '"comuting_pairs": [["e", "e", 5]]}',
            id="misspelt-top-level-key",
        ),
    ],
)
def test_malformed_sheet_exits_2_under_python_O(tmp_path, text):
    sheet = tmp_path / "sheet.json"
    sheet.write_text(text + "\n")
    assert _cli("orbifold", "--sheet", str(sheet)).returncode == 2


def test_verify_under_python_O():
    proc = _cli("verify", "--seed", "7")
    assert proc.returncode == 0, proc.stderr


def test_verify_to_a_reader_that_closes_early_writes_no_stderr():
    """A reader that closes the pipe after one byte is no internal error:
    nothing on stderr, whatever the exit code."""
    command = [*CLI, "verify", "--seed", "7"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV) as proc:
        proc.stdout.read(1)
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert "internal error" not in err and err == ""


# a fresh interpreter that runs its argv as its only child and prints that
# child's peak RSS in KiB (Linux ru_maxrss of RUSAGE_CHILDREN), so that no
# other child of the test session is counted
PEAK_PROGRAM = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_group_at_the_default_cap_peaks_under_150_mb():
    """A group at the default cap is held without its |G|^2 table: the
    command peaks under 150 MB."""
    argv = ["group", "--fixture", "cyclic", "--n", "10000", "--action", "swap"]
    command = [sys.executable, "-c", PEAK_PROGRAM, *CLI, *argv]
    proc = subprocess.run(command, capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / 1024
    assert peak_mb < 150, f"peak RSS {peak_mb:.1f} MB is not under 150 MB"
