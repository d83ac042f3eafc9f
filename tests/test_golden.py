"""Golden reports: the README examples and ``crepant verify --seed 7``.

Each command's JSON report must equal the stored one byte for byte, apart
from the ``wall_time_ms`` value.  The commands run in order from one fresh
working directory, so ``--save tri.json`` writes the document that
``--load tri.json`` reads, and argv and that document (hence
``input_digest``) are the same on every machine.

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
from crepant.groups import FiniteMatrixGroup

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


def run_golden_commands(workdir, commands=COMMANDS) -> dict:
    """Run the commands from ``workdir``; map stem to exit code and report."""
    out = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for stem, argv in commands:
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


def _interleaved(commands):
    """The commands dealt round-robin by subcommand (group, toric, orbifold,
    verify, group, ...), keeping the order within each subcommand."""
    kinds = {}
    for stem, argv in commands:
        kinds.setdefault(argv[0], []).append((stem, argv))
    queues = list(kinds.values())
    out = []
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


def test_one_process_reuses_the_parser_across_subcommands(tmp_path, capsys):
    """Alternating subcommands in one process give the golden reports, and a
    malformed argv after successful calls still exits 2."""
    order = _interleaved(COMMANDS)
    assert [argv[0] for _, argv in order[:4]] == ["group", "toric", "orbifold", "verify"]
    got = run_golden_commands(tmp_path, order)
    for stem, text in got.items():
        assert text == (GOLDEN_DIR / f"{stem}.txt").read_text(), stem
    for bad in (["toric", "--n", "three"], ["verify", "--seed"], ["nosuch"], []):
        assert main(bad) == 2, bad
    capsys.readouterr()
    again = run_golden_commands(tmp_path, [COMMANDS[0]])
    assert again[COMMANDS[0][0]] == (GOLDEN_DIR / f"{COMMANDS[0][0]}.txt").read_text()


def test_no_command_builds_the_multiplication_table(tmp_path):
    """The group and verify commands read a group's generator columns and the
    rows and columns rebuilt from them: a group has no |G|² table to build."""
    for name in ("table", "mul", "conj"):
        assert not hasattr(FiniteMatrixGroup, name), name
    commands = [(stem, argv) for stem, argv in COMMANDS if argv[0] in ("group", "verify")]
    got = run_golden_commands(tmp_path, commands)
    assert "verify-seed-7" in got
    for stem, text in got.items():
        assert text == (GOLDEN_DIR / f"{stem}.txt").read_text(), stem
    argv = ["group", "--fixture", "cyclic", "--n", "2000", "--action", "swap"]
    text = run_golden_commands(tmp_path, [("cyclic-2000", argv)])["cyclic-2000"]
    assert text.startswith("exit 0\n")
    assert '"order": 2000' in text and '"class_equation": "pass"' in text


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, text in run_golden_commands(tmp).items():
            (GOLDEN_DIR / f"{stem}.txt").write_text(text)
    sys.exit(0)
