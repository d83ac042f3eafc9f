"""Golden reports: the README examples and ``crepant verify --seed 7``.

Each command's JSON report must equal the stored one byte for byte, apart
from the ``wall_time_ms`` value.  The commands run in order from one fresh
working directory, so ``--save tri.json`` writes the document that
``--load tri.json`` reads and argv (hence ``input_digest``) is the same on
every machine.

To rewrite the stored reports after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import pathlib
import re
import sys
import tempfile

from crepant.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# (file stem, argv); order matters for the save/load pair
COMMANDS = [
    ("group-binary-tetrahedral", ["group", "--fixture", "binary-tetrahedral"]),
    ("group-cyclic-4-swap", ["group", "--fixture", "cyclic", "--n", "4", "--action", "swap"]),
    ("group-binary-dihedral-5", ["group", "--fixture", "binary-dihedral", "--r", "5"]),
    ("group-gens", ["group", "--gens", "[[z4^1,0],[0,z4^3]]", "--h", "[[0,1],[-1,0]]"]),
    ("toric-z5sq-cycle", ["toric", "--fixture", "z5sq-cycle"]),
    ("toric-n2", ["toric", "--n", "2", "--gen", "1,1@2", "--perm", "(1 2)"]),
    ("toric-save", ["toric", "--fixture", "z5sq-cycle", "--save", "tri.json"]),
    ("toric-load", ["toric", "--load", "tri.json", "--perm", "(1 2 3)"]),
    ("orbifold-quintic-swap", ["orbifold", "--fixture", "quintic-swap"]),
    ("orbifold-quintic-swap-two-pairs", ["orbifold", "--fixture", "quintic-swap-two-pairs"]),
    ("orbifold-lt-complete-intersection", ["orbifold", "--fixture", "lt-complete-intersection"]),
    ("verify-seed-7", ["verify", "--seed", "7"]),
    ("verify-mckay2d", ["verify", "--only", "mckay2d", "--max-n", "30"]),
    ("verify-blockdet", ["verify", "--only", "blockdet"]),
]

_WALL_TIME = re.compile(r'"wall_time_ms": \d+')


def run_golden_commands(workdir) -> dict:
    """Run every command from ``workdir``; map stem to exit code and report."""
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for stem, argv in COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
            out[stem] = f"exit {rc}\n" + _WALL_TIME.sub('"wall_time_ms": 0', buf.getvalue())
    finally:
        os.chdir(cwd)
    return out


def test_golden_reports(tmp_path):
    got = run_golden_commands(tmp_path)
    for stem, text in got.items():
        expected = (GOLDEN_DIR / f"{stem}.txt").read_text()
        assert text == expected, f"report of {stem} differs from tests/golden/{stem}.txt"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, text in run_golden_commands(tmp).items():
            (GOLDEN_DIR / f"{stem}.txt").write_text(text)
    sys.exit(0)
