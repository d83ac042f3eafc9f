"""Orbifold Euler characteristics and equivariant Lefschetz evaluation over
stratified descriptions of a group action.

A sheet is a class-level (and optionally stratum-level) account of a space
with a finite group action and a compatible outer involution: per conjugacy
class it records the Euler characteristic and Lefschetz number of the fixed
set quotient, plus membership in the class of elements whose conjugacy class
is invariant in every relevant stabilizer.  The evaluators compute

  * the orbifold Euler characteristic as a sum over classes of e(X^g/C(g)),
    cross-checked against the commuting-pair double count, and
  * the Lefschetz number of the induced map on a crepant resolution as the
    sum of quotient Lefschetz numbers over compatible classes,

and the stratum chain evaluator re-derives the same total from stabilizer
strata weighted by invariant-class counts.

The built-in sheet generators describe two degree-five hypersurface
involutions and one complete-intersection involution; their geometry reduces
to exact computations on Fermat-type coordinate sections, done by the
diagonal-plus-permutation fixed-point engine at the bottom of the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exactmath import CycloInt

__all__ = [
    "ClassRecord",
    "StratumRecord",
    "GSpaceSheet",
    "DynkinGraph",
    "orbifold_euler",
    "equivariant_lefschetz",
    "chain_check",
    "identity_action_variant",
    "quintic_sheet",
    "complete_intersection_sheet",
    "point_sheet",
    "dynkin_lefschetz",
    "mckay_check",
    "a_chain",
    "d_diagram",
    "e6_diagram",
    "d4_rotation",
    "sheet_to_document",
    "sheet_from_document",
    "MissingValue",
    "InconsistentSheet",
    "fermat_euler",
    "full_support_euler",
    "section_euler",
    "pair_euler",
    "twisted_fixed_euler",
    "derived_quotient_lefschetz",
]

LIT = "literature"  # value quoted from the source analysis, not recomputed here
DERIVED = "derived"
TRIVIAL = "trivial"


class MissingValue(ValueError):
    """A required class or stratum value is absent from the sheet."""


class InconsistentSheet(ValueError):
    """The two expressions for the orbifold Euler characteristic disagree."""


# ---------------------------------------------------------------------------
# sheet data model


@dataclass(frozen=True)
class ClassRecord:
    label: str
    size: int
    centralizer_order: int
    in_ch: bool
    euler_quotient: Optional[int] = None
    lefschetz_quotient: Optional[int] = None
    provenance: dict = field(default_factory=dict)
    fixed_dim: Optional[int] = None


@dataclass(frozen=True)
class StratumRecord:
    """Stabilizer-class stratum with its h-twisted Lefschetz total.

    lefschetz_stratum is the sum over twisted sectors of the stratum: the
    index of the stabilizer times the Lefschetz number of the symmetry on the
    stratum quotient.  At the identity symmetry it coincides with the
    compactly-supported Euler characteristic of the stratum.
    """

    label: str
    stabilizer_order: int
    euler_stratum: Optional[int] = None
    lefschetz_stratum: Optional[int] = None
    h_invariant: bool = True
    con_h: int = 0


@dataclass(frozen=True)
class GSpaceSheet:
    group_order: int
    classes: tuple[ClassRecord, ...]
    strata: Optional[tuple[StratumRecord, ...]] = None
    commuting_pairs: Optional[dict] = None  # (label_g, label_h) -> euler of double fixed set
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        total = sum(c.size for c in self.classes)
        if total != self.group_order:
            raise InconsistentSheet(f"class sizes sum to {total}, not {self.group_order}")
        for c in self.classes:
            if c.size * c.centralizer_order != self.group_order:
                raise InconsistentSheet(
                    f"class {c.label}: size*centralizer != group order"
                )
        if self.strata:
            for s in self.strata:
                if s.con_h > s.stabilizer_order:
                    raise InconsistentSheet(
                        f"stratum {s.label}: invariant class count exceeds order"
                    )


# ---------------------------------------------------------------------------
# evaluators


def orbifold_euler(sheet: GSpaceSheet) -> int:
    """Sum of e(X^g/C(g)) over conjugacy classes.

    When the commuting-pair table is present the double-count expression
    (1/|G|) * sum of e(X^g cap X^h) over commuting pairs is evaluated as well
    and a disagreement raises InconsistentSheet.
    """
    sheet.validate()
    vals = []
    for c in sheet.classes:
        if c.euler_quotient is None:
            raise MissingValue(f"class {c.label} has no euler value")
        vals.append(c.euler_quotient)
    rhs = sum(vals)
    if sheet.commuting_pairs is not None:
        if any(c.size != 1 for c in sheet.classes):
            raise InconsistentSheet(
                "commuting-pair evaluation requires singleton classes"
            )
        total = sum(sheet.commuting_pairs.values())
        mid = Fraction(total, sheet.group_order)
        if mid != rhs:
            raise InconsistentSheet(
                f"double count {mid} differs from class sum {rhs}"
            )
    return rhs


def equivariant_lefschetz(sheet: GSpaceSheet) -> int:
    """Sum of quotient Lefschetz numbers over the compatible classes."""
    sheet.validate()
    out = 0
    for c in sheet.classes:
        if not c.in_ch:
            continue
        if c.lefschetz_quotient is None:
            raise MissingValue(f"compatible class {c.label} has no Lefschetz value")
        out += c.lefschetz_quotient
    return out


@dataclass(frozen=True)
class ChainReport:
    stage_strata: Optional[Fraction]
    stage_classes: int
    equal: Optional[bool]
    skipped_strata: tuple[str, ...]
    detail: dict

    @property
    def status(self) -> str:
        if self.stage_strata is None:
            return "no-strata"
        return "equal" if self.equal else "mismatch"


def chain_check(sheet: GSpaceSheet) -> ChainReport:
    """Evaluate the stratum-level and class-level stages of the summation
    chain and report equality or the exact mismatch.

    The stratum stage sums lefschetz_stratum * |S|/|G| * con(h, S) over
    h-invariant stabilizer classes; non-invariant strata contribute zero and
    are listed as skipped.
    """
    sheet.validate()
    stage_classes = equivariant_lefschetz(sheet)
    if not sheet.strata:
        return ChainReport(None, stage_classes, None, (), {})
    total = Fraction(0)
    skipped = []
    per_stratum = {}
    for s in sheet.strata:
        if not s.h_invariant:
            skipped.append(s.label)
            per_stratum[s.label] = Fraction(0)
            continue
        if s.lefschetz_stratum is None:
            raise MissingValue(f"stratum {s.label} has no Lefschetz value")
        term = (
            Fraction(s.lefschetz_stratum)
            * Fraction(s.stabilizer_order, sheet.group_order)
            * s.con_h
        )
        per_stratum[s.label] = term
        total += term
    return ChainReport(
        total,
        stage_classes,
        total == stage_classes,
        tuple(skipped),
        {"per_stratum": per_stratum},
    )


def identity_action_variant(sheet: GSpaceSheet) -> GSpaceSheet:
    """The same sheet with the symmetry replaced by the identity.

    Every class becomes compatible with Lefschetz value equal to its Euler
    value; every stratum becomes invariant with its Euler characteristic as
    the Lefschetz total and all classes of the (abelian) stabilizer counted
    as invariant.
    """
    classes = tuple(
        ClassRecord(
            c.label,
            c.size,
            c.centralizer_order,
            True,
            c.euler_quotient,
            c.euler_quotient,
            dict(c.provenance),
            c.fixed_dim,
        )
        for c in sheet.classes
    )
    strata = None
    if sheet.strata is not None:
        strata = tuple(
            StratumRecord(
                s.label,
                s.stabilizer_order,
                s.euler_stratum,
                s.euler_stratum,
                True,
                s.stabilizer_order,
            )
            for s in sheet.strata
        )
    return GSpaceSheet(
        sheet.group_order, classes, strata, sheet.commuting_pairs, dict(sheet.metadata)
    )


# ---------------------------------------------------------------------------
# serialization


def sheet_to_document(sheet: GSpaceSheet) -> dict:
    doc = {
        "group_order": sheet.group_order,
        "classes": [
            {
                "label": c.label,
                "size": c.size,
                "centralizer_order": c.centralizer_order,
                "in_ch": c.in_ch,
                "euler_quotient": c.euler_quotient,
                "lefschetz_quotient": c.lefschetz_quotient,
                "provenance": dict(c.provenance),
                "fixed_dim": c.fixed_dim,
            }
            for c in sheet.classes
        ],
        "metadata": dict(sheet.metadata),
    }
    if sheet.strata is not None:
        doc["strata"] = [
            {
                "label": s.label,
                "stabilizer_order": s.stabilizer_order,
                "euler_stratum": s.euler_stratum,
                "lefschetz_stratum": s.lefschetz_stratum,
                "h_invariant": s.h_invariant,
                "con_h": s.con_h,
            }
            for s in sheet.strata
        ]
    if sheet.commuting_pairs is not None:
        doc["commuting_pairs"] = [
            [a, b, v] for (a, b), v in sorted(sheet.commuting_pairs.items())
        ]
    return doc


def sheet_from_document(doc: dict) -> GSpaceSheet:
    try:
        classes = tuple(
            ClassRecord(
                str(c["label"]),
                int(c["size"]),
                int(c["centralizer_order"]),
                bool(c["in_ch"]),
                None if c.get("euler_quotient") is None else int(c["euler_quotient"]),
                None
                if c.get("lefschetz_quotient") is None
                else int(c["lefschetz_quotient"]),
                dict(c.get("provenance", {})),
                c.get("fixed_dim"),
            )
            for c in doc["classes"]
        )
        strata = None
        if "strata" in doc:
            strata = tuple(
                StratumRecord(
                    str(s["label"]),
                    int(s["stabilizer_order"]),
                    None if s.get("euler_stratum") is None else int(s["euler_stratum"]),
                    None
                    if s.get("lefschetz_stratum") is None
                    else int(s["lefschetz_stratum"]),
                    bool(s["h_invariant"]),
                    int(s["con_h"]),
                )
                for s in doc["strata"]
            )
        pairs = None
        if "commuting_pairs" in doc:
            pairs = {(a, b): int(v) for a, b, v in doc["commuting_pairs"]}
        sheet = GSpaceSheet(
            int(doc["group_order"]), classes, strata, pairs, dict(doc.get("metadata", {}))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed sheet document: {exc}") from exc
    sheet.validate()
    return sheet


def point_sheet(group_order: int = 1, class_count: int = 1) -> GSpaceSheet:
    """Sheet for the one-point space: every class contributes one."""
    if group_order % class_count:
        raise ValueError("class count must divide the group order for this helper")
    size = 1 if group_order == class_count else group_order // class_count
    classes = tuple(
        ClassRecord(
            f"c{i}",
            size,
            group_order // size,
            True,
            1,
            1,
            {"euler_quotient": TRIVIAL, "lefschetz_quotient": TRIVIAL},
            0,
        )
        for i in range(class_count)
    )
    return GSpaceSheet(group_order, classes, None, None, {"space": "point"})


# ---------------------------------------------------------------------------
# resolution graphs


@dataclass(frozen=True)
class DynkinGraph:
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    automorphism: dict

    def validate(self) -> None:
        for a, b in self.edges:
            ia, ib = self.automorphism[a], self.automorphism[b]
            if (ia, ib) not in self.edges and (ib, ia) not in self.edges:
                raise ValueError(f"automorphism does not preserve edge ({a}, {b})")


def dynkin_lefschetz(graph: DynkinGraph) -> int:
    """Trace on degree-zero plus degree-two cohomology of the surface
    resolution: one plus the number of fixed components."""
    graph.validate()
    return 1 + sum(1 for n in graph.nodes if graph.automorphism[n] == n)


def a_chain(k: int, reversal: bool = True) -> DynkinGraph:
    nodes = tuple(f"a{i}" for i in range(1, k + 1))
    edges = tuple((f"a{i}", f"a{i+1}") for i in range(1, k))
    if reversal:
        auto = {f"a{i}": f"a{k + 1 - i}" for i in range(1, k + 1)}
    else:
        auto = {n: n for n in nodes}
    return DynkinGraph(nodes, edges, auto)


def d_diagram(r: int, swap_forks: bool = True) -> DynkinGraph:
    chain = [f"c{i}" for i in range(1, r - 1)]
    nodes = tuple(chain + ["f1", "f2"])
    edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    edges += [(chain[-1], "f1"), (chain[-1], "f2")]
    auto = {n: n for n in chain}
    auto.update({"f1": "f2", "f2": "f1"} if swap_forks else {"f1": "f1", "f2": "f2"})
    return DynkinGraph(nodes, tuple(edges), auto)


def e6_diagram(flip: bool = True) -> DynkinGraph:
    nodes = ("a1", "a2", "a3", "a4", "a5", "b")
    edges = (("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a5"), ("a3", "b"))
    if flip:
        auto = {"a1": "a5", "a2": "a4", "a3": "a3", "a4": "a2", "a5": "a1", "b": "b"}
    else:
        auto = {n: n for n in nodes}
    return DynkinGraph(nodes, edges, auto)


def d4_rotation() -> DynkinGraph:
    nodes = ("c", "x", "y", "z")
    edges = (("c", "x"), ("c", "y"), ("c", "z"))
    auto = {"c": "c", "x": "y", "y": "z", "z": "x"}
    return DynkinGraph(nodes, edges, auto)


def mckay_check(invariant_classes: int, graph: DynkinGraph) -> dict:
    """Compare an invariant-conjugacy-class count against the resolution trace."""
    lef = dynkin_lefschetz(graph)
    return {
        "invariant_classes": invariant_classes,
        "resolution_lefschetz": lef,
        "equal": invariant_classes == lef,
    }


# ---------------------------------------------------------------------------
# Fermat-type section geometry
#
# Everything below is exact combinatorics for hypersurfaces of Fermat type
# x_1^d + ... + x_m^d = 0 and their twisted fixed loci under maps of the form
# diagonal times coordinate permutation.


def fermat_euler(d: int, m: int) -> int:
    """Euler characteristic of the degree-d Fermat hypersurface in m variables.

    Computed by the cyclic branched-cover recursion: the m-variable Fermat is
    a d-fold cover of projective (m-2)-space branched along the
    (m-1)-variable Fermat.
    """
    if m <= 1:
        return 0
    e = d  # two variables: d points
    for j in range(3, m + 1):
        e = d * (j - 1) - (d - 1) * e
    return e


def full_support_euler(d: int, m: int) -> int:
    """Euler characteristic of the locus with every coordinate nonzero."""
    out = 0
    for j in range(m + 1):
        out += (-1) ** (m - j) * _binom(m, j) * fermat_euler(d, j)
    return out


def _binom(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def section_euler(d: int, block_sizes: Sequence[int]) -> int:
    """Euler characteristic of the fixed set of a diagonal map on the Fermat
    hypersurface: the disjoint union of coordinate sections, one per block of
    equal eigenvalues."""
    return sum(fermat_euler(d, b) for b in block_sizes)


def _partition_blocks(pattern: Sequence[int]) -> list[tuple[int, ...]]:
    by_value: dict[int, list[int]] = {}
    for i, v in enumerate(pattern):
        by_value.setdefault(v, []).append(i)
    return [tuple(ix) for ix in by_value.values()]


def pair_euler(d: int, pattern_a: Sequence[int], pattern_b: Sequence[int]) -> int:
    """Euler characteristic of the double fixed set of two commuting diagonal
    maps: sections indexed by the common refinement of the eigenvalue blocks."""
    blocks: dict[tuple[int, int], int] = {}
    for i, (a, b) in enumerate(zip(pattern_a, pattern_b)):
        blocks[(a, b)] = blocks.get((a, b), 0) + 1
    return sum(fermat_euler(d, size) for size in blocks.values())


def _cycles_of(src: Sequence[int]) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    out = []
    for i in range(len(src)):
        if i in seen:
            continue
        cyc = [i]
        j = src[i]
        while j != i:
            cyc.append(j)
            j = src[j]
        seen.update(cyc)
        out.append(tuple(cyc))
    return out


def twisted_fixed_euler(
    d: int,
    q: int,
    exponents: Sequence[int],
    src: Sequence[int],
    supports: Sequence[frozenset],
) -> int:
    """Euler characteristic of the fixed locus of x_i -> zeta_q^{a_i} * x_{src(i)}
    on the Fermat hypersurface, restricted to the given exact supports.

    The fixed locus splits over eigenvalues; each eigenvalue contributes a
    projective subspace spanned by one vector per compatible permutation
    cycle, on which the hypersurface restricts to a twisted Fermat form whose
    coefficients are exact sums of roots of unity.  Supports that are not
    unions of compatible cycles contribute nothing.
    """
    n = len(exponents)
    cycles = _cycles_of(src)
    support_sets = [frozenset(t) for t in supports]

    # eigenvalue candidates per cycle, as exact roots of unity
    candidates: list[CycloInt] = []
    for cyc in cycles:
        l = len(cyc)
        e = sum(exponents[i] for i in cyc) % q
        for k in range(l):
            candidates.append(CycloInt.zeta(q * l, e + q * k))
    eigenvalues: list[CycloInt] = []
    for c in candidates:
        if not any(c == seen for seen in eigenvalues):
            eigenvalues.append(c)

    total = 0
    for lam in eigenvalues:
        compatible = []
        for cyc in cycles:
            l = len(cyc)
            rho = CycloInt.zeta(q, sum(exponents[i] for i in cyc) % q)
            if lam**l == rho:
                compatible.append(cyc)
        if not compatible:
            continue
        kappa_zero = {}
        for cyc in compatible:
            unit = CycloInt.from_int(1, lam.conductor)
            kappa = unit**d
            x = unit
            for step in range(1, len(cyc)):
                x = lam * x * _zeta_inverse(q, exponents[cyc[step - 1]])
                kappa = kappa + x**d
            kappa_zero[cyc] = kappa.is_zero()
        for T in support_sets:
            inside = [cyc for cyc in compatible if set(cyc) <= T]
            if not inside:
                continue
            for r in range(1, len(inside) + 1):
                for B in itertools.combinations(inside, r):
                    if frozenset().union(*[set(c) for c in B]) != T:
                        continue
                    zeros = sum(1 for cyc in B if kappa_zero[cyc])
                    nonzeros = len(B) - zeros
                    if zeros == 0:
                        total += full_support_euler(d, nonzeros)
                    elif nonzeros == 0 and len(B) == 1:
                        total += 1
    return total


def _zeta_inverse(q: int, a: int) -> CycloInt:
    return CycloInt.zeta(q, (-a) % q)


# ---------------------------------------------------------------------------
# the quintic sheets


def _normalize_pattern(p: tuple[int, ...], q: int) -> tuple[int, ...]:
    return tuple((x - p[0]) % q for x in p)


def _conjugate_pattern(p: tuple[int, ...], inv: Sequence[int], q: int) -> tuple[int, ...]:
    return _normalize_pattern(tuple(p[inv[i]] for i in range(len(p))), q)


def _quintic_patterns() -> list[tuple[int, ...]]:
    out = []
    for rest in itertools.product(range(5), repeat=4):
        if sum(rest) % 5 == 0:
            out.append((0,) + rest)
    return sorted(out)


def _quintic_involution(variant: str) -> tuple[int, ...]:
    if variant == "swap":
        return (1, 0, 2, 3, 4)
    if variant == "swap-two-pairs":
        return (1, 0, 2, 4, 3)
    raise ValueError(f"unknown quintic variant: {variant}")


def _pattern_label(p: Sequence[int]) -> str:
    return "".join(str(x) for x in p)


def _orbit_count_on_section(
    patterns: Sequence[tuple[int, ...]], block: tuple[int, ...], d: int
) -> int:
    """Number of group orbits on the d-point section of a two-coordinate block."""
    i, j = block
    diffs = {(p[i] - p[j]) % d for p in patterns}
    # the section points form one orbit per coset of the difference image
    return d // len(diffs)


def _curve_quotient_euler(
    patterns: Sequence[tuple[int, ...]], block: tuple[int, ...], d: int
) -> int:
    """Euler characteristic of (plane section)/G for a three-coordinate block,
    by averaging fixed-set Euler characteristics over the image group."""
    image = sorted({_normalize_pattern(tuple(p[i] for i in block), d) for p in patterns})
    total = 0
    for g in image:
        blocks = _partition_blocks(g)
        total += section_euler(d, [len(b) for b in blocks])
    if total % len(image):
        raise InconsistentSheet(
            f"block {block}: fixed-set Euler sum {total} is not a multiple of "
            f"the image order {len(image)}"
        )
    return total // len(image)


def quintic_sheet(variant: str = "swap") -> GSpaceSheet:
    """Sheet for the degree-five threefold with its diagonal symmetry quotient
    and a coordinate involution.

    Class records carry derived Euler values (orbit counts and averaged
    fixed-set characteristics over the 125 diagonal symmetries) and quoted
    Lefschetz values for the compatible classes; the stratum records carry
    exact twisted-sector totals from the Fermat engine.  The commuting-pair
    table lists e(X^g cap X^h) for all 125 x 125 pairs.
    """
    d = 5
    inv = _quintic_involution(variant)
    patterns = _quintic_patterns()
    identity_lefschetz = 8 if variant == "swap" else 0

    classes = []
    for p in patterns:
        blocks = _partition_blocks(p)
        section_blocks = [b for b in blocks if len(b) >= 2]
        in_ch = _conjugate_pattern(p, inv, d) == p
        is_identity = all(x == 0 for x in p)
        if is_identity:
            fixed_dim = 3
            euler = None  # filled from the pair table average below
        else:
            dims = [len(b) - 2 for b in section_blocks]
            fixed_dim = max(dims) if dims else None
            euler = 0
            for b in section_blocks:
                if len(b) == 2:
                    euler += _orbit_count_on_section(patterns, b, d)
                elif len(b) == 3:
                    euler += _curve_quotient_euler(patterns, b, d)
                else:  # pragma: no cover - no larger proper blocks exist here
                    raise AssertionError("unexpected block size")
        lefschetz = None
        prov = {"euler_quotient": DERIVED}
        if in_ch:
            lefschetz = identity_lefschetz if is_identity else 2
            prov["lefschetz_quotient"] = LIT
        classes.append(
            ClassRecord(_pattern_label(p), 1, 125, in_ch, euler, lefschetz, prov, fixed_dim)
        )

    pairs = {}
    for a in patterns:
        for b in patterns:
            pairs[(_pattern_label(a), _pattern_label(b))] = pair_euler(d, a, b)

    # identity-class Euler value: average of its table row
    id_label = _pattern_label((0,) * 5)
    row = sum(pairs[(id_label, _pattern_label(b))] for b in patterns)
    if row % len(patterns):
        raise InconsistentSheet(
            f"class {id_label}: pair-table row sum {row} is not a multiple of "
            f"the group order {len(patterns)}"
        )
    classes = [
        ClassRecord(
            c.label,
            c.size,
            c.centralizer_order,
            c.in_ch,
            row // len(patterns) if c.label == id_label else c.euler_quotient,
            c.lefschetz_quotient,
            c.provenance,
            c.fixed_dim,
        )
        for c in classes
    ]

    strata = _quintic_strata(patterns, inv, d)
    meta = {
        "variant": variant,
        "identity_lefschetz": identity_lefschetz,
        "geometry_table": {
            "points": fermat_euler(d, 2),
            "plane_curve": fermat_euler(d, 3),
            "surface": fermat_euler(d, 4),
            "threefold": fermat_euler(d, 5),
        },
        "provenance_notes": {
            "surface": LIT,
            "plane_curve": LIT,
            "points": TRIVIAL,
            "threefold": DERIVED,
            "identity_lefschetz": LIT,
        },
    }
    sheet = GSpaceSheet(125, tuple(classes), strata, pairs, meta)
    sheet.validate()
    return sheet


def _quintic_strata(
    patterns: list[tuple[int, ...]], inv: tuple[int, ...], d: int
) -> tuple[StratumRecord, ...]:
    n = 5
    coords = range(n)

    def stabilizer(T):
        return [p for p in patterns if len({p[i] for i in T}) == 1]

    records = []
    # one stratum per support of size two or three; supports of size four and
    # five have trivial stabilizer and are aggregated into one free stratum
    small_supports = [
        frozenset(T)
        for size in (2, 3)
        for T in itertools.combinations(coords, size)
    ]
    for T in sorted(small_supports, key=lambda s: (len(s), sorted(s))):
        stab = stabilizer(T)
        h_inv = frozenset(inv[i] for i in T) == T
        euler = full_support_euler(d, len(T))
        cosets = _coset_reps(patterns, stab, d)
        lef = 0
        for g in cosets:
            lef += twisted_fixed_euler(d, d, g, inv, [T])
        con = sum(1 for p in stab if _conjugate_pattern(p, inv, d) == p)
        records.append(
            StratumRecord(
                "stab" + "".join(str(i) for i in sorted(T)),
                len(stab),
                euler,
                lef,
                h_inv,
                con,
            )
        )
    free_supports = [
        frozenset(T)
        for size in (4, 5)
        for T in itertools.combinations(coords, size)
    ]
    euler_free = sum(full_support_euler(d, len(T)) for T in free_supports)
    lef_free = 0
    for g in patterns:
        lef_free += twisted_fixed_euler(d, d, g, inv, free_supports)
    records.append(StratumRecord("free", 1, euler_free, lef_free, True, 1))
    return tuple(records)


def _coset_reps(
    patterns: list[tuple[int, ...]], stab: list[tuple[int, ...]], d: int
) -> list[tuple[int, ...]]:
    stab_set = set(stab)
    reps = []
    seen: set[tuple[int, ...]] = set()
    for p in patterns:
        if p in seen:
            continue
        reps.append(p)
        for s in stab_set:
            seen.add(_normalize_pattern(tuple((x + y) % d for x, y in zip(p, s)), d))
    return reps


def derived_quotient_lefschetz(
    patterns: Sequence[tuple[int, ...]],
    class_pattern: tuple[int, ...],
    inv: Sequence[int],
    d: int,
) -> Fraction:
    """Independent computation of L(h, X^g/G) by averaging twisted sectors.

    The fixed set of g is the union of sections over its eigenvalue blocks of
    size at least two; the Lefschetz number of h on the quotient is the
    average over the group of the Euler characteristics of the twisted fixed
    loci inside that union.
    """
    blocks = [b for b in _partition_blocks(class_pattern) if len(b) >= 2]
    supports = []
    for b in blocks:
        for size in range(2, len(b) + 1):
            supports.extend(frozenset(T) for T in itertools.combinations(b, size))
    total = 0
    for g in patterns:
        twisted = tuple((g[i]) % d for i in range(len(g)))
        total += twisted_fixed_euler(d, d, twisted, inv, supports)
    return Fraction(total, len(patterns))


# ---------------------------------------------------------------------------
# the complete-intersection sheet


def complete_intersection_sheet() -> GSpaceSheet:
    """Sheet for the involution on the quotient of the pair of cubic equations
    in six variables by its order-81 diagonal symmetry group.

    Elements are parametrized by (a, b, mu) with a, b mod 3 and mu mod 9; the
    involution swaps the paired coordinates in each cubic block, and the
    compatible classes are those with 2a = 2b = mu modulo 3.  Euler data for
    individual classes is not quoted in the source analysis and is left
    unset; Lefschetz values exist exactly where the evaluator needs them.
    """
    classes = []
    for mu in range(9):
        for a in range(3):
            for b in range(3):
                in_ch = (2 * a) % 3 == mu % 3 and (2 * b) % 3 == mu % 3
                is_identity = a == 0 and b == 0 and mu == 0
                lefschetz = None
                prov = {}
                if in_ch:
                    lefschetz = 0 if is_identity else 2
                    prov["lefschetz_quotient"] = LIT
                classes.append(
                    ClassRecord(
                        f"a{a}b{b}m{mu}",
                        1,
                        81,
                        in_ch,
                        None,
                        lefschetz,
                        prov,
                        3 if is_identity else (0 if in_ch and not is_identity else None),
                    )
                )
    sheet = GSpaceSheet(
        81,
        tuple(classes),
        None,
        None,
        {"curve_section_euler": -18, "provenance_notes": {"curve_section_euler": LIT}},
    )
    sheet.validate()
    return sheet
