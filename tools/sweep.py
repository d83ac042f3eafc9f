"""Size sweep: how crepant's run time grows with the input, on two source trees.

Times, as the median of eleven repetitions of the CPU time of this process
(``time.process_time``, which leaves out the time it waits while other work
on the host runs), in one interpreter; each row also records the minimum
and the quartiles of its repetitions:

* ``cyclic``: closing ``fixtures.cyclic_group(n)`` and its swap
  ``groups.outer_action``, and the command ``crepant group --fixture cyclic
  --n N --action swap`` run as a child process (its CPU time, interpreter
  start-up included), for n in 300, 1000, 2000, 4000, 10000.  Each cyclic
  row also records its peak resident set size: a fresh interpreter runs the
  row's work (the closure; the closure and the outer action; the command) as
  its only child and reads ``ru_maxrss`` of ``RUSAGE_CHILDREN``, once per
  tree for the two in-process stages and on every repetition of the command;
* ``diagonal``: closing the three-generator group of 4x4 matrices
  diag(z_d^a) with exponent sum 0, of order d^3, and its
  ``groups.outer_action`` under the swap of the first two coordinates, for
  d in 5, 7, 11 (orders 125, 343, 1331);
* ``fixtures``: closing ``fixtures.quintic_group()``,
  ``fixtures.complete_intersection_group()`` (``lt``) and
  ``fixtures.binary_dihedral(12)``, and the ``groups.outer_action`` of each
  one's symmetry (the quintic swap), each named in the size column;
* ``zm2-cycle``: ``crepant toric`` on the full group Zm^2 with the coordinate
  3-cycle, for m in 5, 7, 11, 13, 17;
* ``line-swap``: ``crepant toric`` on ``1,1,m-2@m`` with ``(1 2)``, for
  m in 50, 100, 200, 400;
* ``line-id``: ``crepant toric`` on ``1,1,m-2@m`` with ``id``, for m in
  400, 800, 1600, 3200, where every maximal invariant face is a cell;
* ``line-id-revlex``: the same with ``--order revlex``, which inserts the
  points in reverse order and flips one diagonal;
* ``line-swap`` again, stage ``lefschetz``: ``toric.toric_lefschetz`` alone
  on a freshly built triangulation of ``1,1,m-2@m`` with ``(1 2)``, so that
  finding the maximal invariant faces is included, for m in 400, 800, 1600,
  3200;
* ``line-id`` and ``line-swap``, stage ``build``: ``toric.adjusted_triangulation``
  alone (lex), and stage ``verify_adjusted``: ``toric.verify_adjusted`` on a
  fresh triangulation that ``toric.verify_crepant`` has just passed, with
  the maximal invariant faces included, for m in 400, 800, 1600, 3200;
* ``quintic``: ``crepant orbifold --fixture`` on ``quintic-swap`` and
  ``quintic-swap-two-pairs``, and ``crepant verify --only quintic``, each
  named in the size column;
* ``import``: ``import crepant.cli`` in a fresh interpreter, its CPU time as
  a child process (interpreter start-up included), on a copy of the tree in
  two states named in the size column: ``no-cache``, a copy with no
  bytecode imported with ``PYTHONDONTWRITEBYTECODE=1``, so that every module
  is compiled on each import, as the set-up of ``bench/run.py`` sees it; and
  ``warm-cache``, a copy compiled beforehand, as an installed ``crepant``
  starts.  Stage ``command``: ``crepant group --fixture quintic``, ``toric
  --fixture z5sq-cycle``, ``orbifold --fixture quintic-swap`` and ``verify
  --seed 7`` (the state and the command named in the size column), each a
  one-shot command in a fresh interpreter on the same copies, run as
  ``python -m crepant.cli`` runs it (``runpy``).  The child times itself
  from before ``import crepant.cli`` to the command's exit, so the row holds
  all that crepant does, the loading of every layer it calls included, and
  leaves out the interpreter's own start-up: that is the same on both trees
  and moves by tens of milliseconds from run to run on a shared host, more
  than a layer takes to load.  One repetition of a command row is the
  median of five such children;

The toric and quintic rows time the whole command (a toric one builds,
certifies, takes the Lefschetz number and reports).  ``--baseline REV``
also times the ``src/`` of a git revision, extracted with ``git archive``,
in the same interpreter, so the two columns differ only in the source.
The trees run alternately, one repetition at a time.  CPU time still moves
with what other tenants of a shared host do to caches and clock rates: rows
of one source have read 10-30% apart between two trees.  So a difference
between the two columns of a row is evidence of a change only when the
quartile ranges of the two rows do not overlap; a difference inside both
columns' quartile ranges is not evidence.  Usage, from the repository root:

    python3 tools/sweep.py --baseline HEAD --out BENCH_20.json

This is a record of growth rates, separate from the gated workloads of
``bench/run.py``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CYCLIC_ORDERS = (300, 1000, 2000, 4000, 10_000)
DIAGONAL_CONDUCTORS = (5, 7, 11)
ZM2_CONDUCTORS = (5, 7, 11, 13, 17)
LINE_CONDUCTORS = (50, 100, 200, 400)
LARGE_LINE_CONDUCTORS = (400, 800, 1600, 3200)
QUINTIC_COMMANDS = {
    "quintic-swap": ["orbifold", "--fixture", "quintic-swap"],
    "quintic-swap-two-pairs": ["orbifold", "--fixture", "quintic-swap-two-pairs"],
    "verify-quintic": ["verify", "--only", "quintic"],
}
IMPORT_STATES = ("no-cache", "warm-cache")
COLD_COMMANDS = {
    "group": ["group", "--fixture", "quintic"],
    "toric": ["toric", "--fixture", "z5sq-cycle"],
    "orbifold": ["orbifold", "--fixture", "quintic-swap"],
    "verify": ["verify", "--seed", "7"],
}
REPEATS = 11
COMMAND_RUNS = 5
# A fresh interpreter that runs one cyclic row as its only child and prints
# that child's CPU seconds and peak RSS in KiB (Linux ru_maxrss of
# RUSAGE_CHILDREN), so that no other process's peak is counted.
CHILD_PROGRAM = """
import json, resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps([usage.ru_utime + usage.ru_stime, usage.ru_maxrss]))
"""
# The work of a cyclic row: src, stage and n in argv.
CYCLIC_PROGRAM = """
import sys
sys.path.insert(0, sys.argv[1])
from crepant import cli, fixtures, groups
stage, n = sys.argv[2], int(sys.argv[3])
if stage == "command":
    sys.exit(cli.main(["group", "--fixture", "cyclic", "--n", str(n), "--action", "swap"]))
group = fixtures.cyclic_group(n)
if stage == "outer_action":
    groups.outer_action(group, fixtures.cyclic_swap_symmetry())
"""


# The work of an import row: src in argv.
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import crepant.cli"
# The work of an import command row: src, then the command's argv, in argv;
# prints the CPU seconds from before the import of crepant.cli to the exit.
COMMAND_PROGRAM = """
import runpy, sys, time
start = time.process_time()
sys.path.insert(0, sys.argv.pop(1))
try:
    runpy.run_module("crepant.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
print(time.process_time() - start, file=sys.stderr)
"""


def _load_crepant(src: Path):
    """Import crepant from src, dropping any crepant modules imported before."""
    for name in [n for n in sys.modules if n == "crepant" or n.startswith("crepant.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        from crepant import cli, fixtures, groups, toric
    finally:
        sys.path.remove(str(src))
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: imported crepant from {cli.__file__}, not from {src}")
    return cli, fixtures, groups, toric


def _time(fn):
    """(CPU seconds of this process, result) of one call of fn."""
    start = time.process_time()
    result = fn()
    return time.process_time() - start, result


def _cyclic_child(src: Path, stage: str, n: int) -> tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of one cyclic row run in a child process."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD_PROGRAM, sys.executable, "-c", CYCLIC_PROGRAM,
         str(src), stage, str(n)],
        capture_output=True, text=True, check=True,
    ).stdout
    cpu_s, peak_kib = json.loads(out)
    return cpu_s, peak_kib / 1024


def _import_copies(src: Path, into: Path) -> dict[str, Path]:
    """Copies of src for the import rows, by state: one without bytecode and
    one compiled beforehand."""
    copies = {}
    for state in IMPORT_STATES:
        copies[state] = into / state / "src"
        shutil.copytree(src, copies[state], ignore=shutil.ignore_patterns("__pycache__"))
    compileall.compile_dir(copies["warm-cache"], quiet=1)
    return copies


def _import_child(src: Path) -> float:
    """CPU seconds of a child process that imports crepant.cli from src and
    writes no bytecode."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD_PROGRAM, sys.executable, "-c", IMPORT_PROGRAM, str(src)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    ).stdout
    return json.loads(out)[0]


def _command_child(src: Path, argv: list[str]) -> float:
    """CPU seconds of crepant in a child process that runs ``python -m
    crepant.cli`` with argv from src and writes no bytecode, from before
    the import of crepant.cli to the command's exit."""
    err = subprocess.run(
        [sys.executable, "-c", COMMAND_PROGRAM, str(src), *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    ).stderr
    return float(err.split()[-1])


def _diagonal_family(groups, d: int):
    """Generators diag(z_d^a) of dimension 4 with exponent sum 0, which
    generate a group of order d^3, and the swap of the first two coordinates."""
    def matrix(entry):
        return groups.GroupElement.from_matrix([[entry(i, j) for j in range(4)] for i in range(4)])

    gens = [
        matrix(lambda i, j: groups.CycloInt.zeta(d, e[i]) if i == j else 0)
        for e in ((1, d - 1, 0, 0), (0, 1, d - 1, 0), (0, 0, 1, d - 1))
    ]
    return gens, matrix(lambda i, j: int(j == (1, 0, 2, 3)[i]))


def _toric_argv(family: str, m: int) -> list[str]:
    if family == "zm2-cycle":
        gens = [f"1,{m - 1},0@{m}", f"0,1,{m - 1}@{m}"]
        perm = "(1 2 3)"
    else:
        gens = [f"1,1,{m - 2}@{m}"]
        perm = "(1 2)" if family == "line-swap" else "id"
    argv = ["toric", "--n", "3", "--perm", perm]
    for g in gens:
        argv += ["--gen", g]
    return argv + (["--order", "revlex"] if family.endswith("revlex") else [])


def _one_repetition(src: Path, peaks: dict, import_copies: dict[str, Path]) -> dict:
    """Seconds of every (family, size, stage) once, on the crepant under src
    and, for the import rows, on its copies; the peak RSS of each cyclic
    command is appended to peaks."""
    out = {}
    for state in IMPORT_STATES:
        out[("import", state, "import")] = _import_child(import_copies[state])
        for name, argv in COLD_COMMANDS.items():
            out[("import", f"{state} {name}", "command")] = statistics.median(
                [_command_child(import_copies[state], argv) for _ in range(COMMAND_RUNS)])
    cli, fixtures, groups, toric = _load_crepant(src)
    for n in CYCLIC_ORDERS:
        out[("cyclic", n, "close_group")], group = _time(lambda: fixtures.cyclic_group(n))
        swap = fixtures.cyclic_swap_symmetry()
        out[("cyclic", n, "outer_action")], _ = _time(lambda: groups.outer_action(group, swap))
        del group  # a baseline table of 800 MB is freed before the child runs
        out[("cyclic", n, "command")], peak = _cyclic_child(src, "command", n)
        peaks.setdefault(("cyclic", n, "command"), []).append(peak)
    for d in DIAGONAL_CONDUCTORS:
        gens, swap = _diagonal_family(groups, d)
        out[("diagonal", d**3, "close_group")], group = _time(lambda: groups.close_group(gens))
        out[("diagonal", d**3, "outer_action")], _ = _time(lambda: groups.outer_action(group, swap))
    for name, build, h in (
        ("quintic", fixtures.quintic_group, fixtures.quintic_symmetry("swap")),
        ("lt", fixtures.complete_intersection_group, fixtures.complete_intersection_symmetry()),
        ("binary-dihedral-12", lambda: fixtures.binary_dihedral(12),
         fixtures.binary_dihedral_symmetry(12)),
    ):
        out[("fixtures", name, "close_group")], group = _time(build)
        out[("fixtures", name, "outer_action")], _ = _time(lambda: groups.outer_action(group, h))
    swap = toric.PermSymmetry.from_cycles(3, [(0, 1)])
    for m in LARGE_LINE_CONDUCTORS:
        lp = toric.build_lattice_pair(3, [((1, 1, m - 2), m)])
        tri = toric.adjusted_triangulation(lp, swap)
        out[("line-swap", m, "lefschetz")], _ = _time(lambda: toric.toric_lefschetz(tri, lp, swap))
    for family, sym in (("line-id", toric.PermSymmetry.identity(3)), ("line-swap", swap)):
        for m in LARGE_LINE_CONDUCTORS:
            lp = toric.build_lattice_pair(3, [((1, 1, m - 2), m)])
            out[(family, m, "build")], tri = _time(lambda: toric.adjusted_triangulation(lp, sym))
            if not toric.verify_crepant(tri, lp):
                raise SystemExit(f"error: the {family} triangulation at m = {m} is not crepant")
            out[(family, m, "verify_adjusted")], ok = _time(lambda: toric.verify_adjusted(tri, lp, sym))
            if not ok:
                raise SystemExit(f"error: the {family} triangulation at m = {m} is not adjusted")
    commands = [
        (family, m, _toric_argv(family, m))
        for family, sizes in (
            ("zm2-cycle", ZM2_CONDUCTORS),
            ("line-swap", LINE_CONDUCTORS),
            ("line-id", LARGE_LINE_CONDUCTORS),
            ("line-id-revlex", LARGE_LINE_CONDUCTORS),
        )
        for m in sizes
    ]
    commands += [("quintic", name, argv) for name, argv in QUINTIC_COMMANDS.items()]
    for family, size, argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            out[(family, size, "command")], code = _time(lambda: cli.main(argv))
        if code != 0:
            raise SystemExit(f"error: crepant {' '.join(argv)} exited with {code}")
    return out


def _extract(rev: str, into: Path) -> Path:
    """The src/ tree of a git revision, written under into."""
    data = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into)
    return into / "src"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _revision(rev: str) -> str:
    return _git("rev-parse", rev)


def sweep(trees: dict[str, Path], into: Path) -> dict[str, list[dict]]:
    runs = {label: [] for label in trees}
    peaks = {label: {} for label in trees}
    copies = {label: _import_copies(src, into / label) for label, src in trees.items()}
    for rep in range(REPEATS):
        order = list(trees) if rep % 2 == 0 else list(reversed(trees))
        for label in order:
            runs[label].append(_one_repetition(trees[label], peaks[label], copies[label]))
    for label, src in trees.items():
        for n in CYCLIC_ORDERS:
            for stage in ("close_group", "outer_action"):
                peaks[label][("cyclic", n, stage)] = [_cyclic_child(src, stage, n)[1]]
    rows = {label: [] for label in trees}
    for label, reps in runs.items():
        for key in reps[0]:
            family, size, stage = key
            seconds = [r[key] for r in reps]
            q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
            row = {
                "family": family,
                "size": size,
                "stage": stage,
                "median_s": round(median, 4),
                "min_s": round(min(seconds), 4),
                "quartiles_s": [round(q1, 4), round(q3, 4)],
                "runs_s": [round(x, 4) for x in seconds],
            }
            if key in peaks[label]:
                row["peak_rss_mb"] = round(statistics.median(peaks[label][key]), 1)
            rows[label].append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="git revision whose src/ is timed as well")
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": ROOT / "src"}
        revisions = {"change": _revision("HEAD")}
        if _git("status", "--porcelain", "src"):
            revisions["change"] += " with uncommitted changes to src/"
        if args.baseline:
            trees = {"baseline": _extract(args.baseline, Path(tmp)), **trees}
            revisions["baseline"] = _revision(args.baseline)
        rows = sweep(trees, Path(tmp) / "import")
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "repeats": REPEATS,
        "statistic": "median, minimum and quartiles of the repeats, CPU seconds "
                     "(time.process_time); overlapping quartile ranges are no evidence",
        "revisions": revisions,
        # ROADMAP item 3: closing cyclic_group(2000) plus its swap outer action
        "cyclic_2000_total_s": {
            label: round(sum(e["median_s"] for e in entries
                             if (e["family"], e["size"]) == ("cyclic", 2000)
                             and e["stage"] != "command"), 4)
            for label, entries in rows.items()
        },
        "cyclic_2000_limit_s": 0.5,
        # the separate command at the closure's default cap, against its limits
        "cyclic_10000_command": {
            label: {k: e[k] for k in ("median_s", "peak_rss_mb")}
            for label, entries in rows.items() for e in entries
            if (e["family"], e["size"], e["stage"]) == ("cyclic", 10_000, "command")
        },
        "cyclic_10000_command_limits": {"cpu_s": 1.5, "peak_rss_mb": 150},
        # a fresh interpreter's import of crepant.cli, without and with bytecode
        "import_crepant_cli_s": {
            label: {e["size"]: e["median_s"] for e in entries
                    if (e["family"], e["stage"]) == ("import", "import")}
            for label, entries in rows.items()
        },
        # crepant's part of a fresh interpreter's one-shot command, without
        # and with bytecode
        "cold_command_s": {
            label: {e["size"]: e["median_s"] for e in entries
                    if (e["family"], e["stage"]) == ("import", "command")}
            for label, entries in rows.items()
        },
        "rows": rows,
    }
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    for label, entries in rows.items():
        for e in entries:
            q1, q3 = e["quartiles_s"]
            peak = f", peak {e['peak_rss_mb']} MB" if "peak_rss_mb" in e else ""
            print(
                f"{label:9} {e['family']:14} {e['size']!s:>22} {e['stage']:13} "
                f"{e['median_s']:.4f} s  (min {e['min_s']:.4f}, quartiles {q1:.4f}-{q3:.4f}{peak})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
