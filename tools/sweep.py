"""Size sweep: how crepant's run time grows with the input, on two source trees.

Times, as the median of eleven repetitions of the CPU time of this process
(``time.process_time``, which leaves out the time it waits while other work
on the host runs), in one interpreter; each row also records the minimum
and the quartiles of its repetitions:

* ``cyclic``: closing ``fixtures.cyclic_group(n)`` and its swap
  ``groups.outer_action``, for n in 300, 1000, 2000;
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
  named in the size column.

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
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CYCLIC_ORDERS = (300, 1000, 2000)
DIAGONAL_CONDUCTORS = (5, 7, 11)
ZM2_CONDUCTORS = (5, 7, 11, 13, 17)
LINE_CONDUCTORS = (50, 100, 200, 400)
LARGE_LINE_CONDUCTORS = (400, 800, 1600, 3200)
QUINTIC_COMMANDS = {
    "quintic-swap": ["orbifold", "--fixture", "quintic-swap"],
    "quintic-swap-two-pairs": ["orbifold", "--fixture", "quintic-swap-two-pairs"],
    "verify-quintic": ["verify", "--only", "quintic"],
}
REPEATS = 11


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


def _one_repetition(src: Path) -> dict:
    """Seconds of every (family, size, stage) once, on the crepant under src."""
    cli, fixtures, groups, toric = _load_crepant(src)
    out = {}
    for n in CYCLIC_ORDERS:
        out[("cyclic", n, "close_group")], group = _time(lambda: fixtures.cyclic_group(n))
        swap = fixtures.cyclic_swap_symmetry()
        out[("cyclic", n, "outer_action")], _ = _time(lambda: groups.outer_action(group, swap))
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


def sweep(trees: dict[str, Path]) -> dict[str, list[dict]]:
    runs = {label: [] for label in trees}
    for rep in range(REPEATS):
        order = list(trees) if rep % 2 == 0 else list(reversed(trees))
        for label in order:
            runs[label].append(_one_repetition(trees[label]))
    rows = {label: [] for label in trees}
    for label, reps in runs.items():
        for family, size, stage in reps[0]:
            seconds = [r[(family, size, stage)] for r in reps]
            q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
            rows[label].append({
                "family": family,
                "size": size,
                "stage": stage,
                "median_s": round(median, 4),
                "min_s": round(min(seconds), 4),
                "quartiles_s": [round(q1, 4), round(q3, 4)],
                "runs_s": [round(x, 4) for x in seconds],
            })
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
        rows = sweep(trees)
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
                             if e["family"] == "cyclic" and e["size"] == 2000), 4)
            for label, entries in rows.items()
        },
        "cyclic_2000_limit_s": 0.5,
        "rows": rows,
    }
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    for label, entries in rows.items():
        for e in entries:
            q1, q3 = e["quartiles_s"]
            print(
                f"{label:9} {e['family']:14} {e['size']!s:>22} {e['stage']:13} "
                f"{e['median_s']:.4f} s  (min {e['min_s']:.4f}, quartiles {q1:.4f}-{q3:.4f})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
