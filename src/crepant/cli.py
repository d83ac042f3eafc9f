"""Command-line surface: fixture execution, datasheet ingestion, triangulation
construction and verification, and machine-readable reporting.

Each command handler returns its results, its checks and the bytes of the
document it read; reports are emitted only by ``main``, which times the
command and exits 1 exactly when a check reads "fail".  Reports are JSON with
sorted keys; identical inputs produce byte-identical reports apart from the
wall_time_ms field.  Exit codes: 0 success, 1 property failure, 2 parse,
schema or input error (including a symmetry with no valid invariant core, a
flag the command would ignore beside another, and a file path that cannot be
read or written), 3 closure cap exceeded, 4 unsupported dimension, 5
internal error (an exception no other code covers, named on one line), 141
the reader closed standard output before the report was written (as in
``| head``; nothing is printed, and 141 is what a shell reports for a
SIGPIPE exit).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import random
import re
import sys
import time

from . import exactmath, fixtures, groups, orbifold, toric

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_UNSUPPORTED = 4
EXIT_INTERNAL = 5
EXIT_PIPE = 141


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input grammars, each one anchored regex over ASCII digits; re compiles and
# caches a pattern on its first use, so a cold start compiles none

# an entry is a sum of terms, each an integer, z<m> or z<m>^<k>: an optional
# sign before the first term and exactly one sign before every later one
_TERM = r"(?:[0-9]+|z[0-9]+(?:\^[0-9]+)?)"
_ENTRY = rf"[+-]?{_TERM}(?:[+-]{_TERM})*"
_SIGNED_TERM = rf"([+-]?)({_TERM})"
# signed integers a_1,...,a_n@m, with whitespace around each number only
_NUMBER = r"\s*[+-]?[0-9]+\s*"
_GENERATOR = rf"(?a){_NUMBER}(?:,{_NUMBER})*@{_NUMBER}"
# cycles (i j ...) side by side, their indices split by whitespace or one comma
_CYCLES = r"(?a)(?:\(\s*[0-9]+(?:\s*,\s*[0-9]+|\s+[0-9]+)*\s*\))+"


def parse_entry(token: str) -> exactmath.CycloInt:
    """One matrix entry: a signed sum of integers and roots of unity z<m>^<k>."""
    token = token.strip()
    if not re.fullmatch(_ENTRY, token):
        raise ParseError(f"matrix entry {token!r} is not a signed sum of integers and z<m>^<k>")
    out = exactmath.CycloInt.from_int(0)
    for sign, term in re.findall(_SIGNED_TERM, token):
        if term[0] == "z":
            m, _, k = term[1:].partition("^")
            if int(m) < 1:
                raise ParseError(f"root of unity z{int(m)} in {token!r} needs a conductor >= 1")
            value = exactmath.CycloInt.zeta(int(m), int(k or 1))
        else:
            value = int(term)
        out = out - value if sign == "-" else out + value
    return out


def parse_matrix(text: str) -> groups.GroupElement:
    """Matrices as [[entry,entry],[entry,entry]] with z<m>^<k> entries."""
    text = text.strip()
    if not (text.startswith("[[") and text.endswith("]]")):
        raise ParseError("matrix must look like [[...],[...]]")
    body = text[2:-2]
    rows = body.split("],[")
    entries = [[parse_entry(tok) for tok in row.split(",")] for row in rows]
    if any(len(r) != len(entries) for r in entries):
        raise ParseError("matrix must be square")
    return groups.GroupElement.from_matrix(entries)


def parse_permutation(text: str, n: int) -> toric.PermSymmetry:
    """Cycle notation with 1-based indices: '(1 2)', '(1 2 3)', '(1 2)(3 4)', 'id'.

    The cycles must be disjoint.  A ParseError names the text.
    """
    text = text.strip()
    if text in ("", "id", "()"):
        return toric.PermSymmetry.identity(n)
    if not re.fullmatch(_CYCLES, text):
        raise ParseError(f"permutation {text!r} is not cycles of indices like (1 2)(3 4)")
    cycles = [[int(i) - 1 for i in re.findall("[0-9]+", c)] for c in text.split(")")[:-1]]
    if any(not 0 <= i < n for cyc in cycles for i in cyc):
        raise ParseError(f"cycle index out of range in {text!r}")
    try:
        return toric.PermSymmetry.from_cycles(n, cycles)
    except ValueError as exc:
        raise ParseError(f"permutation {text!r} repeats an index: its cycles must be disjoint") from exc


def parse_h_generator(text: str) -> tuple[tuple[int, ...], int]:
    """Quotient generators as 'a_1,...,a_n@m'."""
    if not re.fullmatch(_GENERATOR, text):
        raise ParseError(f"generator {text.strip()!r} must look like a,b,...@m with integers")
    vec, m = text.split("@")
    return tuple(int(x) for x in vec.split(",")), int(m)


# ---------------------------------------------------------------------------
# reports


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def emit_report(
    command: list[str], results: dict, checks: dict, started: float, out=None, input_bytes=None
) -> dict:
    """Print the JSON report.  Its input_digest covers argv and, for a
    command that reads a document, that document's bytes."""
    payload = {"command": command}
    if input_bytes is not None:
        payload["input_sha256"] = hashlib.sha256(input_bytes).hexdigest()
    report = {
        "command": command,
        "input_digest": _digest(payload),
        "results": results,
        "checks": checks,
        "wall_time_ms": int((time.monotonic() - started) * 1000),
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return report


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# group command


def _group_fixture(args):
    name = args.fixture
    if name == "cyclic":
        if args.n is None:
            raise ParseError("cyclic fixture needs --n")
        _at_least("--n", args.n, 1)
        group = fixtures.cyclic_group(args.n, cap=args.cap)
        action = {
            "swap": fixtures.cyclic_swap_symmetry,
            "flip": fixtures.cyclic_flip_symmetry,
        }.get(args.action or "swap")
        if action is None:
            raise ParseError(f"unknown cyclic action {args.action!r}")
        return group, action()
    if name == "binary-dihedral":
        r = 4 if args.r is None else _at_least("--r", args.r, 3)
        return fixtures.binary_dihedral(r, cap=args.cap), fixtures.binary_dihedral_symmetry(r)
    if name == "binary-tetrahedral":
        return fixtures.binary_tetrahedral(cap=args.cap), fixtures.binary_tetrahedral_symmetry()
    if name == "d4-triality":
        return fixtures.d4_triality()
    if name == "quintic":
        return fixtures.quintic_group(cap=args.cap), fixtures.quintic_symmetry(
            args.action or "swap"
        )
    if name in ("lt", "lt-complete-intersection", "complete-intersection"):
        return (
            fixtures.complete_intersection_group(cap=args.cap),
            fixtures.complete_intersection_symmetry(),
        )
    raise ParseError(f"unknown group fixture {name!r}")


def _at_least(flag: str, value: int, least: int) -> int:
    """The value of a size flag, refused with a ParseError below ``least``."""
    if value < least:
        raise ParseError(f"{flag} {value} is below its minimum {least}")
    return value


def _refuse_with(args, flag: str, *ignored: str) -> None:
    """A ParseError when ``flag`` is given with one of the flags it makes the
    command ignore."""
    given = [f for f in ignored if getattr(args, f[2:]) is not None]
    if given:
        raise ParseError(f"{flag} cannot be combined with {', '.join(given)}")


def cmd_group(args):
    _at_least("--cap", args.cap, 1)
    # the flags among --n, --r and --action that each fixture reads; --gens reads none
    reads = {"cyclic": ("--n", "--action"), "binary-dihedral": ("--r",), "quintic": ("--action",)}
    unread = [f for f in ("--n", "--r", "--action") if f not in reads.get(args.fixture, ())]
    if args.fixture:
        _refuse_with(args, "--fixture", "--gens", "--h", *unread)
        group, h = _group_fixture(args)
    elif args.gens:
        _refuse_with(args, "--gens", *unread)
        gens = [parse_matrix(g) for g in args.gens.split(";")]
        group = groups.close_group(gens, cap=args.cap)
        h = parse_matrix(args.h) if args.h else None
    else:
        raise ParseError("need --fixture or --gens")
    classes = groups.conjugacy_classes(group)
    results = {
        "order": group.order,
        "classes": classes.count,
        "abelian": group.is_abelian(),
    }
    checks = {"class_equation": _status(_class_equation_holds(group, classes))}
    if h is not None:
        action = groups.outer_action(group, h)
        results["invariant_classes"] = groups.invariant_class_count(action)
        results["compatible_classes"] = len(groups.compatible_class_filter(group, action))
    return results, checks, None


def _class_equation_holds(group, classes) -> bool:
    """|class| * |centralizer| = |G| for every class, and the classes cover G.

    Only the centralizer's order is needed.  A representative i that
    commutes with every generator, g·i = i·g read off the generator rows and
    columns, has the whole group as its centralizer; for any other one the
    elements x with i·x = x·i are counted off the row and the column of i.
    """
    generator_rows = [group.row(g) for g in group.generators]
    total = 0
    for cl in classes.classes:
        i = cl[0]
        if all(row[i] == col[i] for row, col in zip(generator_rows, group.columns)):
            cent_order = group.order
        else:
            cent_order = sum(1 for ix, xi in zip(group.row(i), group.column(i)) if ix == xi)
        if len(cl) * cent_order != group.order:
            return False
        total += len(cl)
    return total == group.order


# ---------------------------------------------------------------------------
# toric command


def _toric_inputs(args):
    if args.fixture == "z5sq-cycle":
        _refuse_with(args, "--fixture", "--n", "--gen", "--perm")
        lp = toric.build_lattice_pair(3, [((1, 2, 2), 5), ((1, 1, 3), 5)])
        return lp, toric.PermSymmetry.from_cycles(3, [(0, 1, 2)])
    if args.fixture:
        raise ParseError(f"unknown toric fixture {args.fixture!r}")
    if args.n is None:
        raise ParseError("need --fixture or --n with --gen/--perm")
    if args.n < 1:
        raise ParseError(f"--n {args.n} is not a dimension >= 1")
    gens = [parse_h_generator(g) for g in args.gen or [] if g.strip()]
    lp = toric.build_lattice_pair(args.n, gens)
    return lp, parse_permutation(args.perm or "id", args.n)


def cmd_toric(args):
    """``toric.audit_triangulation`` of the triangulation built from the inputs or
    loaded in any dimension; a value that the audit leaves None gets no check."""
    data = None
    if args.load:
        _refuse_with(args, "--load", "--fixture", "--n", "--gen", "--save", "--order")
        with open(args.load, "rb") as fh:
            data = fh.read()
        tri, lp = toric.triangulation_from_document(json.loads(data))
        sym = parse_permutation(args.perm or "id", lp.n)
    else:
        lp, sym = _toric_inputs(args)
        tri = toric.adjusted_triangulation(lp, sym, args.order or "lex")
    results = toric.audit_triangulation(tri, lp, sym)
    if args.load:  # the names that readers of the load report pin
        results["simplices"] = results.pop("simplex_count")
    else:
        del results["failures"]
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(toric.triangulation_to_document(tri, lp), fh, sort_keys=True, indent=1)
            fh.write("\n")
    names = {"crepant": "crepant", "adjusted": "adjusted", "equal": "lefschetz_equals_fixed_count"}
    checks = {name: _status(results[k]) for k, name in names.items() if results[k] is not None}
    return results, checks, data


# ---------------------------------------------------------------------------
# orbifold command


def _orbifold_fixture(name: str) -> orbifold.GSpaceSheet:
    if name == "quintic-swap":
        return orbifold.quintic_sheet("swap")
    if name in ("quintic-swap-two-pairs", "quintic-double-swap"):
        return orbifold.quintic_sheet("swap-two-pairs")
    if name in ("lt-complete-intersection", "complete-intersection"):
        return orbifold.complete_intersection_sheet()
    if name == "point":
        return orbifold.point_sheet()
    raise ParseError(f"unknown orbifold fixture {name!r}")


def cmd_orbifold(args):
    data = None
    if args.fixture:
        _refuse_with(args, "--fixture", "--sheet")
        sheet = _orbifold_fixture(args.fixture)
    elif args.sheet:
        with open(args.sheet, "rb") as fh:
            data = fh.read()
        sheet = orbifold.sheet_from_document(json.loads(data))
    else:
        raise ParseError("need --fixture or --sheet")
    results = {}
    checks = {}
    try:
        results["euler"] = orbifold.orbifold_euler(sheet)
        checks["double_count"] = "pass"
    except orbifold.MissingValue:
        results["euler"] = None
    except orbifold.InconsistentSheet as exc:
        results["euler_error"] = str(exc)
        checks["double_count"] = "fail"
    results["lefschetz"] = orbifold.equivariant_lefschetz(sheet)
    results["compatible_classes"] = sum(1 for c in sheet.classes if c.in_ch)
    chain = orbifold.chain_check(sheet)
    results["chain_status"] = chain.status
    if chain.stage_strata is not None:
        results["chain_stage_strata"] = chain.stage_strata
        results["chain_stage_classes"] = chain.stage_classes
        checks["chain"] = _status(bool(chain.equal))
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(orbifold.sheet_to_document(sheet), fh, sort_keys=True, indent=1)
            fh.write("\n")
    return results, checks, data


# ---------------------------------------------------------------------------
# verify command: the cross-module property sweep


def _check_blockdet(args, rng):
    details = {str(s): toric.block_det(s) for s in range(1, 13)}
    ok = details["1"] == 0 and all(details[str(s)] == s + 1 for s in range(2, 13))
    return {"status": _status(ok), "values": details}


def _check_mckay2d(args, rng):
    rows = []
    ok = True
    for m in range(1, args.max_n + 1):
        lp = toric.build_lattice_pair(2, [((1, m - 1), m)] if m > 1 else [])
        sym = toric.PermSymmetry.from_cycles(2, [(0, 1)])
        tri = toric.adjusted_triangulation(lp, sym)
        lef = toric.toric_lefschetz(tri, lp, sym)
        fixed = toric.count_fixed_elements(lp, sym)
        group = fixtures.cyclic_group(m)
        action = groups.outer_action(group, fixtures.cyclic_swap_symmetry())
        inv = groups.invariant_class_count(action)
        rows.append({"n": m, "lefschetz": lef, "fixed": fixed, "invariant_classes": inv})
        ok = ok and lef == fixed == inv
    return {"status": _status(ok), "rows": rows}


def _random_lattice_instance(rng):
    order = rng.choice([2, 3])
    sym = (
        toric.PermSymmetry.from_cycles(3, [(0, 1)])
        if order == 2
        else toric.PermSymmetry.from_cycles(3, [(0, 1, 2)])
    )
    while True:
        m = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randint(0, m - 1), rng.randint(0, m - 1)
            vec = [a, b, (-(a + b)) % m]
            for _ in range(order):
                gens.append((tuple(vec), m))
                vec = sym.apply(vec)
        try:
            lp = toric.build_lattice_pair(3, gens)
        except toric.NotSpecialLinear:
            continue
        if lp.order <= 49 and sym.preserves(lp):
            return lp, sym


def _check_toric3d_random(args, rng):
    count = args.count
    failures = []
    orders = []
    for _ in range(count):
        lp, sym = _random_lattice_instance(rng)
        orders.append(lp.order)
        try:
            rep = toric.symmetry_report(lp, sym)
        except (ValueError, ArithmeticError) as exc:  # a refusal by the library is a real failure
            failures.append({"generators": lp.generators, "error": str(exc)})
            continue
        if not (rep["equal"] and rep["crepant"] and rep["adjusted"]):
            failures.append(
                {
                    "generators": lp.generators,
                    "lefschetz": rep["lefschetz"],
                    "fixed": rep["fixed_count"],
                    "index": rep["sublattice_index"],
                }
            )
    return {
        "status": _status(not failures),
        "instances": count,
        "orders": sorted(set(orders)),
        "failures": failures[:1],
    }


def _check_parity43(args, rng):
    """Counts for the plain coordinate swap on the cyclic torus subgroup.

    The engine's brute-force count disagrees with the quoted parity; the
    comparison is recorded as an open question, not a failure.
    """
    rows = []
    for m in (2, 3, 4, 5, 6, 7):
        group = fixtures.cyclic_group(m)
        action = groups.outer_action(group, fixtures.cyclic_flip_symmetry())
        engine = groups.invariant_class_count(action)
        quoted = 1 if m % 2 == 0 else 2
        rows.append(
            {
                "n": m,
                "engine": engine,
                "quoted": quoted,
                "agree": engine == quoted,
            }
        )
    return {"status": "open-question", "rows": rows}


def _check_quintic(args, rng):
    out = {}
    ok = True
    for variant, expect_l, expect_nonid in (("swap", 56, 24), ("swap-two-pairs", 8, 4)):
        sheet = orbifold.quintic_sheet(variant)
        lef = orbifold.equivariant_lefschetz(sheet)
        euler = orbifold.orbifold_euler(sheet)  # raises if double count disagrees
        chain = orbifold.chain_check(sheet)
        nonid = sum(1 for c in sheet.classes if c.in_ch and c.fixed_dim != 3)
        ident = orbifold.identity_action_variant(sheet)
        reduction = orbifold.equivariant_lefschetz(ident) == orbifold.orbifold_euler(ident)
        ok = ok and lef == expect_l and nonid == expect_nonid and chain.equal and reduction
        out[variant] = {
            "lefschetz": lef,
            "euler": euler,
            "chain": chain.status,
            "nonidentity_compatible": nonid,
            "identity_reduction": reduction,
        }
    return {"status": _status(ok), "variants": out}


def _check_ci(args, rng):
    sheet = orbifold.complete_intersection_sheet()
    lef = orbifold.equivariant_lefschetz(sheet)
    inch = sum(1 for c in sheet.classes if c.in_ch)
    ok = lef == 16 and inch == 9 and sheet.group_order == 81
    return {
        "status": _status(ok),
        "lefschetz": lef,
        "compatible_classes": inch,
        "group_order": sheet.group_order,
    }


def _check_ade(args, rng):
    rows = []
    ok = True
    for m in (2, 4, 6, 8):
        group = fixtures.cyclic_group(m)
        inv = groups.invariant_class_count(
            groups.outer_action(group, fixtures.cyclic_swap_symmetry())
        )
        rep = orbifold.mckay_check(inv, orbifold.a_chain(m - 1))
        rows.append({"case": f"cyclic-{m}", **rep})
        ok = ok and rep["equal"] and inv == 2
    for r in range(3, 9):
        group = fixtures.binary_dihedral(r)
        inv = groups.invariant_class_count(
            groups.outer_action(group, fixtures.binary_dihedral_symmetry(r))
        )
        rep = orbifold.mckay_check(inv, orbifold.d_diagram(r))
        rows.append({"case": f"binary-dihedral-{r}", **rep})
        ok = ok and rep["equal"] and inv == r - 1
    group = fixtures.binary_tetrahedral()
    classes = groups.conjugacy_classes(group)
    inv = groups.invariant_class_count(
        groups.outer_action(group, fixtures.binary_tetrahedral_symmetry())
    )
    rep = orbifold.mckay_check(inv, orbifold.e6_diagram())
    rows.append({"case": "binary-tetrahedral", "classes": classes.count, **rep})
    ok = ok and rep["equal"] and inv == 3 and classes.count == 7
    q8, tri = fixtures.d4_triality()
    inv = groups.invariant_class_count(groups.outer_action(q8, tri))
    rep = orbifold.mckay_check(inv, orbifold.d4_rotation())
    rows.append({"case": "d4-triality", **rep})
    ok = ok and rep["equal"] and inv == 2
    return {"status": _status(ok), "rows": rows}


def _check_exactmath(args, rng):
    ok = True
    for m in range(1, 31):
        prod = (1,)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = exactmath._poly_mul(prod, exactmath.cyclotomic_polynomial(d))
        target = [0] * (m + 1)
        target[0], target[m] = -1, 1
        ok = ok and list(prod) == [x for x in target]
    snf_ok = True
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = exactmath.IntMat.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        U, D, V = exactmath.smith_normal_form(mat)
        snf_ok = snf_ok and U.mul(mat).mul(V).entries == D.entries
        snf_ok = snf_ok and abs(U.det()) == 1 and abs(V.det()) == 1
        diag = [D.get(i, i) for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i]:
                snf_ok = snf_ok and diag[i + 1] % diag[i] == 0
    return {"status": _status(ok and snf_ok), "cyclotomic_products": ok, "snf_random": snf_ok}


def _check_independence(args, rng):
    rows = []
    ok = True
    for m in range(1, 21):
        lp = toric.build_lattice_pair(2, [((1, m - 1), m)] if m > 1 else [])
        sym = toric.PermSymmetry.from_cycles(2, [(0, 1)])
        a = toric.toric_lefschetz(toric.adjusted_triangulation(lp, sym, "lex"), lp, sym)
        b = toric.toric_lefschetz(toric.adjusted_triangulation(lp, sym, "revlex"), lp, sym)
        ok = ok and a == b
    lp = toric.build_lattice_pair(3, [((1, 2, 2), 5), ((1, 1, 3), 5)])
    sym = toric.PermSymmetry.from_cycles(3, [(0, 1, 2)])
    ta = toric.adjusted_triangulation(lp, sym, "lex")
    tb = toric.adjusted_triangulation(lp, sym, "revlex")
    distinct = set(ta.cells) != set(tb.cells)
    la, lb = toric.toric_lefschetz(ta, lp, sym), toric.toric_lefschetz(tb, lp, sym)
    ok = ok and distinct and la == lb
    rows.append({"case": "z5sq-cycle", "distinct": distinct, "lefschetz": [la, lb]})
    return {"status": _status(ok), "rows": rows}


VERIFY_CHECKS = {
    "blockdet": _check_blockdet,
    "mckay2d": _check_mckay2d,
    "toric3d-random": _check_toric3d_random,
    "parity43": _check_parity43,
    "quintic": _check_quintic,
    "ci": _check_ci,
    "ade": _check_ade,
    "exactmath": _check_exactmath,
    "independence": _check_independence,
}


def cmd_verify(args):
    rng = random.Random(args.seed)
    _at_least("--count", args.count, 1)
    _at_least("--max-n", args.max_n, 1)
    names = [args.only] if args.only else list(VERIFY_CHECKS)
    for name in names:
        if name not in VERIFY_CHECKS:
            raise ParseError(f"unknown check {name!r}; choose from {sorted(VERIFY_CHECKS)}")
    results = {name: VERIFY_CHECKS[name](args, rng) for name in names}
    return results, {name: out["status"] for name, out in results.items()}, None


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crepant",
        description="Equivariant McKay/Lefschetz computations for finite group actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="finite matrix group analysis")
    g.add_argument("--fixture")
    g.add_argument("--gens", help="semicolon-separated matrices [[...],[...]]")
    g.add_argument("--h", help="outer symmetry matrix")
    g.add_argument("--n", type=int)
    g.add_argument("--r", type=int)
    g.add_argument("--action")
    g.add_argument("--cap", type=int, default=10_000)
    g.add_argument("--out")

    t = sub.add_parser("toric", help="lattice triangulation analysis")
    t.add_argument("--fixture")
    t.add_argument("--n", type=int)
    t.add_argument("--gen", action="append", help="quotient generator a,b,...@m")
    t.add_argument("--perm", help="coordinate permutation in cycle notation")
    t.add_argument("--order", choices=["lex", "revlex"], help="insertion order (default lex)")
    t.add_argument("--load", help="verify a triangulation document")
    t.add_argument("--save", help="write the triangulation document")
    t.add_argument("--out")

    o = sub.add_parser("orbifold", help="sheet evaluation")
    o.add_argument("--fixture")
    o.add_argument("--sheet", help="sheet document to evaluate")
    o.add_argument("--save", help="write the sheet document")
    o.add_argument("--out")

    v = sub.add_parser("verify", help="cross-module property sweep")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--only")
    v.add_argument("--max-n", type=int, default=30)
    v.add_argument("--count", type=int, default=50)
    v.add_argument("--out")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and a
    build costs more than most commands of a one-process sweep."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "group": cmd_group,
        "toric": cmd_toric,
        "orbifold": cmd_orbifold,
        "verify": cmd_verify,
    }
    started = time.monotonic()
    try:
        results, checks, input_bytes = handlers[args.command](args)
        emit_report(["crepant"] + argv, results, checks, started, args.out, input_bytes)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return EXIT_FAIL if "fail" in checks.values() else EXIT_OK
    except groups.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except toric.UnsupportedDimension as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except BrokenPipeError:
        # the reader has gone, as after `| head`: stop quietly, with stdout on
        # the null device so that the flush at exit does not meet the closed
        # pipe again (the SIGPIPE note of the Python `signal` documentation)
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()  # a stdout with no descriptor stays as it is
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        # a ParseError, malformed JSON, an input the layers refuse, or a path
        # that cannot be read or written (missing, a directory, no permission);
        # BrokenPipeError, an OSError too, is caught above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
