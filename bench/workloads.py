"""Seeded inputs of the three workloads and the answer check of every item.

An item is one ``crepant.cli.main`` call plus the check of the report it
prints.  Inputs are argv lists made from the workload seed; the program sees
nothing else.  Every expected answer is computed here with plain integer
arithmetic or taken from a closed form, never from crepant, so a wrong
answer on the timed path cannot agree with its own check.

The seed changes the inputs but not the amount of work, so that runs with
different seeds can be compared: it chooses among inputs whose operation
counts, measured with ``tracer.py``, are equal or within 3%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

WORKLOADS = ("group-census", "toric-audit", "verify-sweep")

VERIFY_CHECKS = (
    "blockdet",
    "mckay2d",
    "toric3d-random",
    "parity43",
    "quintic",
    "ci",
    "ade",
    "exactmath",
    "independence",
)


@dataclass
class Item:
    """One CLI call and what its report must say.

    ``expect`` holds required ``results`` values.  ``checks`` holds required
    ``checks`` statuses; when empty, every check the report lists must pass.
    ``family`` names the size family used for growth-rate fits.
    """

    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    family: str | None = None


def check(item: Item, exit_code: int, report: dict | None) -> list[str]:
    """Problems with one item's outcome; an empty list means a correct answer."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not isinstance(report, dict):
        return ["no JSON report"]
    results = report.get("results", {})
    statuses = report.get("checks", {})
    problems = []
    for key, want in item.expect.items():
        if results.get(key) != want:
            problems.append(f"{key} = {results.get(key)!r}, expected {want!r}")
    for key, want in (item.checks or {name: "pass" for name in statuses}).items():
        if statuses.get(key) != want:
            problems.append(f"check {key} is {statuses.get(key)!r}, expected {want!r}")
    return problems


# ---------------------------------------------------------------------------
# exponent-vector groups: diagonal SL3 groups and the toric quotients both
# live in (Z/m)^3 and are checked by brute force there


def span_mod(gens, m: int, limit: int | None = None) -> set[tuple[int, ...]]:
    """Subgroup of (Z/m)^n generated by the vectors.

    With ``limit``, stops as soon as more than ``limit`` elements are found.
    """
    zero = tuple(0 for _ in gens[0])
    seen, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if limit is not None and len(seen) > limit:
                        return seen
        frontier = nxt
    return seen


def permute(vec, perm) -> tuple[int, ...]:
    """Move coordinate i to position perm[i]."""
    out = [0] * len(vec)
    for i, v in enumerate(vec):
        out[perm[i]] = v
    return tuple(out)


def orbit(vec, perm) -> list[tuple[int, ...]]:
    out = [tuple(vec)]
    while True:
        nxt = permute(out[-1], perm)
        if nxt == out[0]:
            return out
        out.append(nxt)


def fixed_count(group, perm) -> int:
    return sum(1 for v in group if permute(v, perm) == v)


CYCLE3 = (1, 2, 0)  # (1 2 3) in the CLI's 1-based cycle notation
SWAP12 = (1, 0, 2)  # (1 2)
PERM_TEXT = {CYCLE3: "(1 2 3)", SWAP12: "(1 2)"}


def _sl_vector(rng, m: int) -> tuple[int, int, int]:
    a, b = rng.randrange(m), rng.randrange(m)
    return (a, b, (-a - b) % m)


def _gen_arg(vec, m: int) -> str:
    return ",".join(str(x) for x in vec) + f"@{m}"


# ---------------------------------------------------------------------------
# group-census

# One cyclic order per size, spanning orders 24 to 54 and conductor degrees
# phi(n) 8 to 40.  The seed picks the action of each: `swap` and `flip`
# make the same number of GroupElement.mul and CycloInt products.
CYCLIC_ORDERS = (24, 32, 41, 48, 54)
# Binary dihedral fixture r: order 4(r - 2), r + 1 classes, r - 1 invariant.
BINARY_DIHEDRAL_RS = (8, 12)
# Every order-81 diagonal SL3 group at conductor 9 is the whole group, so
# the seed picks its generators, not its work.
SL3_CONDUCTOR = 9


def _diag_matrix(vec, m: int) -> str:
    entries = ["1" if k == 0 else f"z{m}^{k}" for k in vec]
    n = len(vec)
    rows = [",".join(entries[i] if i == j else "0" for j in range(n)) for i in range(n)]
    return "[[" + "],[".join(rows) + "]]"


def _perm_matrix(perm) -> str:
    n = len(perm)
    rows = [",".join("1" if perm[j] == i else "0" for j in range(n)) for i in range(n)]
    return "[[" + "],[".join(rows) + "]]"


def group_census(seed: int) -> list[Item]:
    rng = random.Random(f"group-census:{seed}")
    items = [
        Item("quintic", ["group", "--fixture", "quintic"], {"order": 125, "classes": 125}),
        Item("lt", ["group", "--fixture", "lt"], {"order": 81, "classes": 81}),
        Item(
            "binary-tetrahedral",
            ["group", "--fixture", "binary-tetrahedral"],
            {"order": 24, "classes": 7, "invariant_classes": 3},
        ),
        Item(
            "d4-triality",
            ["group", "--fixture", "d4-triality"],
            {"order": 8, "classes": 5, "invariant_classes": 2},
        ),
    ]
    for n in CYCLIC_ORDERS:
        action = rng.choice(("swap", "flip"))
        items.append(
            Item(
                f"cyclic-{n}-{action}",
                ["group", "--fixture", "cyclic", "--n", str(n), "--action", action],
                {"order": n, "classes": n, "invariant_classes": gcd(2, n)},
                family="cyclic",
            )
        )
    for r in BINARY_DIHEDRAL_RS:
        items.append(
            Item(
                f"binary-dihedral-{r}",
                ["group", "--fixture", "binary-dihedral", "--r", str(r)],
                {"order": 4 * (r - 2), "classes": r + 1, "invariant_classes": r - 1},
            )
        )
    m = SL3_CONDUCTOR
    while True:
        vec = _sl_vector(rng, m)
        group = span_mod(orbit(vec, CYCLE3), m)
        if len(group) == m * m:
            break
    gens = [_diag_matrix(v, m) for v in orbit(vec, CYCLE3)[:2]]
    items.append(
        Item(
            f"sl3-diag-{m}",
            ["group", "--gens", ";".join(gens), "--h", _perm_matrix(CYCLE3)],
            {
                "order": len(group),
                "classes": len(group),
                "invariant_classes": fixed_count(group, CYCLE3),
            },
        )
    )
    return items


# ---------------------------------------------------------------------------
# toric-audit

ZM2_CONDUCTORS = (3, 4, 5, 6)
LINE_CONDUCTOR = 20
# Random instances are drawn at the given conductors until the group has the
# given order.  All such instances give verify_crepant the same work (traced
# with tracer.py for seeds 0-11): for `(1 2)`, one check of 32^2 simplex
# pairs; for `(1 2 3)`, one rotation candidate plus the final check,
# 2 * 28^2 pairs.
RANDOM_SHAPES = {SWAP12: (32, (8, 16)), CYCLE3: (28, (14,))}


def _toric_pair(label, m, gens, perm, work_dir, family=None, load_perms=None):
    """Build-and-save item plus its load-and-verify items.

    The expected Lefschetz number is the number of group elements the
    permutation fixes, which the paper's identity makes equal to the fixed
    count and the sublattice index.  ``load_perms`` lists (permutation text,
    expected Lefschetz number) for the loads; by default one load with the
    build's permutation.
    """
    group = span_mod(gens, m)
    path = f"{work_dir}/{label}.json"
    argv = ["toric", "--n", "3", "--perm", PERM_TEXT[perm], "--save", path]
    for g in gens:
        argv += ["--gen", _gen_arg(g, m)]
    lef = fixed_count(group, perm)
    build = Item(
        label,
        argv,
        {
            "group_order": len(group),
            "simplex_count": len(group),
            "lefschetz": lef,
            "fixed_count": lef,
            "sublattice_index": lef,
            "crepant": True,
            "adjusted": True,
            "equal": True,
        },
        family=family,
    )
    loads = []
    for text, expect_l in load_perms or [(PERM_TEXT[perm], lef)]:
        loads.append(
            Item(
                f"{label}-load-{'id' if text == 'id' else 'perm'}",
                ["toric", "--load", path, "--perm", text],
                {"crepant": True, "simplices": len(group), "lefschetz": expect_l},
                family=family,
            )
        )
    return [build] + loads


def _random_toric(rng, perm):
    order, conductors = RANDOM_SHAPES[perm]
    while True:
        m = rng.choice(conductors)
        gens = []
        for _ in range(rng.randint(1, 2)):
            gens += orbit(_sl_vector(rng, m), perm)
        group = span_mod(gens, m, limit=order)
        if len(group) == order:
            return m, gens, group


def toric_audit(seed: int, work_dir: str) -> list[Item]:
    rng = random.Random(f"toric-audit:{seed}")
    items = []
    for m in ZM2_CONDUCTORS:
        gens = [(1, m - 1, 0), (0, 1, m - 1)]
        items += _toric_pair(f"z{m}sq-cycle", m, gens, CYCLE3, work_dir, family="zm2")
    m = LINE_CONDUCTOR
    # The identity's Lefschetz number is the Euler number, the group order m,
    # and every element is fixed by (1 2), so both loads must read m.
    items += _toric_pair(
        f"line-{m}", m, [(1, 1, m - 2)], SWAP12, work_dir,
        load_perms=[("(1 2)", m), ("id", m)],
    )
    for perm in (SWAP12, CYCLE3):
        m, gens, group = _random_toric(rng, perm)
        name = "mirror" if perm == SWAP12 else "rotation"
        items += _toric_pair(f"random-{name}-{m}-{len(group)}", m, gens, perm, work_dir)
    return items


# ---------------------------------------------------------------------------
# verify-sweep


# toric3d-random runs as TORIC3D_ITEMS items of `--count TORIC3D_COUNT`
# instances, each from its own verify seed, so that every item is short.
# Its cost is the number of simplex pairs verify_crepant examines (the sum
# of s^2 over its calls, counted with tracer.py), which varies ninety-fold
# between arbitrary seeds.  Of seeds 0-119 traced at this count, these ten
# examine 3,676 to 3,876 pairs, within 3% of the median (3,768).
TORIC3D_SEED_POOL = (0, 8, 11, 12, 16, 39, 54, 85, 104, 111)
TORIC3D_ITEMS = 3
TORIC3D_COUNT = 5


def verify_sweep(seed: int) -> list[Item]:
    # One item per check, but toric3d-random is split over seeds of the pool.
    # It is the first check that draws from the seeded generator, so each
    # item's instances are the first ones of the full `crepant verify --seed`.
    rng = random.Random(f"verify-sweep:{seed}")
    seeds = [str(s) for s in rng.sample(TORIC3D_SEED_POOL, TORIC3D_ITEMS)]
    items = []
    for name in VERIFY_CHECKS:
        if name == "toric3d-random":
            items += [
                Item(
                    f"verify-{name}-{s}",
                    ["verify", "--seed", s, "--only", name, "--count", str(TORIC3D_COUNT)],
                    checks={name: "pass"},
                )
                for s in seeds
            ]
        else:
            items.append(
                Item(
                    f"verify-{name}",
                    ["verify", "--seed", seeds[0], "--only", name],
                    checks={name: "open-question" if name == "parity43" else "pass"},
                )
            )
    return items


def make_items(workload: str, seed: int, work_dir: str) -> list[Item]:
    if workload == "group-census":
        return group_census(seed)
    if workload == "toric-audit":
        return toric_audit(seed, work_dir)
    if workload == "verify-sweep":
        return verify_sweep(seed)
    raise ValueError(f"unknown workload {workload!r}")
