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

The read-only records (``exactmath.Record``) are the sheet schema: the
document writer, the strict reader and the identity variant all go through
their fields, and the reader checks each value by its field's annotation.

The built-in sheet generators describe two degree-five hypersurface
involutions and one complete-intersection involution; their geometry reduces
to exact computations on Fermat-type coordinate sections, done by the
diagonal-plus-permutation fixed-point engine at the bottom of the module.
A quintic sheet is built from its pattern types, each computed once per
call: commuting-pair values per pair of eigenvalue-block partitions, held
as a `PairTable` of 27 rows (a loaded table has a row per label, and the
double count sums each row once, weighted by its labels), section values
per block size, stratum totals per centralizer type of support by one
engine call per listed twisted class, and each engine call walks its cycle
subsets once.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Optional, Sequence

from .exactmath import Record, _json_int, fields, permutation_cycles, zeta_sum_is_zero

__all__ = [
    "ClassRecord",
    "StratumRecord",
    "GSpaceSheet",
    "PairTable",
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
    "twisted_fixed_euler",
]

LIT = "literature"  # value quoted from the source analysis, not recomputed here
DERIVED = "derived"
TRIVIAL = "trivial"
PROVENANCE_TAGS = (LIT, DERIVED, TRIVIAL)


class MissingValue(ValueError):
    """A required class or stratum value is absent from the sheet."""


class InconsistentSheet(ValueError):
    """The two expressions for the orbifold Euler characteristic disagree."""


# ---------------------------------------------------------------------------
# sheet data model


class ClassRecord(Record):
    label: str
    size: int
    centralizer_order: int
    in_ch: bool
    euler_quotient: Optional[int] = None
    lefschetz_quotient: Optional[int] = None
    provenance: dict = None  # None is read as {}
    fixed_dim: Optional[int] = None

    def _post_init(self):
        if self.provenance is None:
            self.__dict__["provenance"] = {}


class StratumRecord(Record):
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


class PairTable(Mapping):
    """The commuting-pair table: a read-only mapping from (label_a, label_b)
    to e(X^a cap X^b) that holds one value row per label type.  ``type_of``
    maps each label_a to its type, and ``rows[type]`` is a dict from label_b
    to the value; pairs are listed in the order of ``type_of``, then of rows.
    """

    __slots__ = ("_type_of", "_rows")

    def __init__(self, type_of: dict, rows):
        self._type_of = type_of
        self._rows = rows

    @classmethod
    def by_label(cls, pairs: Mapping) -> PairTable:
        """The table of a plain mapping, each label its own type."""
        rows: dict = {}
        for (a, b), value in pairs.items():
            rows.setdefault(a, {})[b] = value
        return cls({a: a for a in rows}, rows)

    def __getitem__(self, pair):
        a, b = pair
        return self._rows[self._type_of[a]][b]

    def __iter__(self):
        for a, t in self._type_of.items():
            for b in self._rows[t]:
                yield a, b

    def __len__(self) -> int:
        return sum(len(self._rows[t]) for t in self._type_of.values())

    def __repr__(self) -> str:
        return f"PairTable({dict(self)!r})"

    def triples(self) -> list:
        """Every [label_a, label_b, value], in the order of the mapping."""
        return [[a, b, v] for a, t in self._type_of.items() for b, v in self._rows[t].items()]

    def total(self) -> int:
        """The sum of all values: each row summed once, times the number of
        labels of its type."""
        weights = Counter(self._type_of.values())
        return sum(n * sum(self._rows[t].values()) for t, n in weights.items())


class GSpaceSheet(Record):
    group_order: int
    classes: tuple[ClassRecord, ...]
    strata: Optional[tuple[StratumRecord, ...]] = None
    commuting_pairs: Optional[Mapping] = None  # a PairTable; a plain mapping is converted
    metadata: dict = None  # None is read as {}

    def _post_init(self):
        pairs = self.commuting_pairs
        if pairs is not None and not isinstance(pairs, PairTable):
            self.__dict__["commuting_pairs"] = PairTable.by_label(pairs)
        if self.metadata is None:
            self.__dict__["metadata"] = {}
        self.validate()

    def validate(self) -> None:
        if self.group_order < 1:
            raise InconsistentSheet(f"group_order must be positive, not {self.group_order}")
        labels: set[str] = set()
        for c in self.classes:
            if c.label in labels:
                raise InconsistentSheet(f"class {c.label}: label appears more than once")
            labels.add(c.label)
            for key, value in (("size", c.size), ("centralizer_order", c.centralizer_order)):
                if value < 1:
                    raise InconsistentSheet(f"class {c.label}: {key} must be positive, not {value}")
            if c.fixed_dim is not None and c.fixed_dim < 0:
                raise InconsistentSheet(
                    f"class {c.label}: fixed_dim must not be negative, not {c.fixed_dim}"
                )
        total = sum(c.size for c in self.classes)
        if total != self.group_order:
            raise InconsistentSheet(f"class sizes sum to {total}, not {self.group_order}")
        for c in self.classes:
            if c.size * c.centralizer_order != self.group_order:
                raise InconsistentSheet(
                    f"class {c.label}: size*centralizer != group order"
                )
        labels.clear()
        for s in self.strata or ():
            if s.label in labels:
                raise InconsistentSheet(f"stratum {s.label}: label appears more than once")
            labels.add(s.label)
            if s.stabilizer_order < 1:
                raise InconsistentSheet(
                    f"stratum {s.label}: stabilizer_order must be positive, not {s.stabilizer_order}"
                )
            if self.group_order % s.stabilizer_order:
                raise InconsistentSheet(
                    f"stratum {s.label}: stabilizer_order {s.stabilizer_order} does not divide "
                    f"group_order {self.group_order}"
                )
            if s.con_h > s.stabilizer_order:
                raise InconsistentSheet(
                    f"stratum {s.label}: invariant class count exceeds order"
                )
            if s.con_h < 0:
                raise InconsistentSheet(
                    f"stratum {s.label}: con_h must not be negative, not {s.con_h}"
                )


# ---------------------------------------------------------------------------
# evaluators


def orbifold_euler(sheet: GSpaceSheet) -> int:
    """Sum of e(X^g/C(g)) over conjugacy classes.

    When the commuting-pair table is present the double-count expression
    (1/|G|) * sum of e(X^g cap X^h) over commuting pairs is evaluated as well
    and a disagreement raises InconsistentSheet.
    """
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
        total = sheet.commuting_pairs.total()
        mid = Fraction(total, sheet.group_order)
        if mid != rhs:
            raise InconsistentSheet(
                f"double count {mid} differs from class sum {rhs}"
            )
    return rhs


def equivariant_lefschetz(sheet: GSpaceSheet) -> int:
    """Sum of quotient Lefschetz numbers over the compatible classes."""
    out = 0
    for c in sheet.classes:
        if not c.in_ch:
            continue
        if c.lefschetz_quotient is None:
            raise MissingValue(f"compatible class {c.label} has no Lefschetz value")
        out += c.lefschetz_quotient
    return out


class ChainReport(Record):
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
            c.label, c.size, c.centralizer_order, True, c.euler_quotient, c.euler_quotient,
            dict(c.provenance), c.fixed_dim,
        )
        for c in sheet.classes
    )
    strata = None
    if sheet.strata is not None:
        strata = tuple(
            StratumRecord(
                s.label, s.stabilizer_order, s.euler_stratum, s.euler_stratum, True,
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
        "classes": [_record_document(c) for c in sheet.classes],
        "metadata": dict(sheet.metadata),
    }
    if sheet.strata is not None:
        doc["strata"] = [_record_document(s) for s in sheet.strata]
    if sheet.commuting_pairs is not None:
        doc["commuting_pairs"] = sorted(sheet.commuting_pairs.triples())
    return doc


def _record_document(record: Record) -> dict:
    """A class or stratum record's fields by name, a dict value copied."""
    values = zip(record._fields, record._field_values())
    return {f: dict(v) if isinstance(v, dict) else v for f, v in values}


def _json_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, not {value!r}")
    return value


def _json_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, not {value!r}")
    return value


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, not {value!r}")
    return dict(value)


def _json_optional_int(value, what: str) -> Optional[int]:
    return None if value is None else _json_int(value, what)


# a record field's annotation -> (reader, whether the key may be absent);
# an absent key takes the field's default
_FIELD_READERS = {
    "str": (_json_str, False),
    "int": (_json_int, False),
    "bool": (_json_bool, False),
    "Optional[int]": (_json_optional_int, True),
    "dict": (_json_object, True),
}


def _read_records(kind: type, records, key: str) -> tuple:
    """The ClassRecords or StratumRecords listed under a document key, each
    field read by the reader of its annotation and named with the label; a key
    that is no field of the record is refused."""
    if not isinstance(records, list):
        raise ValueError(f"{key} must be a list of objects, not {records!r}")
    kind_fields = fields(kind)
    names = {f.name for f in kind_fields}
    out = []
    for i, record in enumerate(records):
        record = _json_object(record, f"{key}[{i}]")
        label = record.get("label")
        owner = repr(label) if isinstance(label, str) else f"{key}[{i}]"
        for name in record:
            if name not in names:
                raise ValueError(f"{name!r} of {owner} is not a {kind.__name__} field")
        values = {}
        for f in kind_fields:
            read, may_be_absent = _FIELD_READERS[f.type]
            if f.name in record:
                values[f.name] = read(record[f.name], f"{f.name} of {owner}")
            elif not may_be_absent:
                raise ValueError(f"{f.name} of {owner} is missing")
        out.append(kind(**values))
    return tuple(out)


def _read_pairs(entries) -> dict:
    """The commuting-pair table as rows by label, label_a -> {label_b: value}:
    each entry an [a, b, value] triple, a pair at most once."""
    if not isinstance(entries, list):
        raise ValueError(f"commuting_pairs must be a list of [a, b, value], not {entries!r}")
    rows: dict = {}
    for entry in entries:
        shaped = isinstance(entry, list) and len(entry) == 3
        if not (shaped and isinstance(entry[0], str) and isinstance(entry[1], str)):
            raise ValueError(f"commuting pair {entry!r} is not [a, b, value] with labels a and b")
        a, b, v = entry
        row = rows.setdefault(a, {})
        if b in row:
            raise ValueError(f"commuting pair {[a, b]!r} appears more than once")
        # the name of the pair is built only for a value that is not an integer
        row[b] = v if type(v) is int else _json_int(v, f"commuting pair {[a, b]!r}")
    return rows


def sheet_from_document(doc: dict) -> GSpaceSheet:
    """Inverse of sheet_to_document.  A ValueError names the key, label or
    pair of the first malformed entry, or a key that is no field of the sheet."""
    doc = _json_object(doc, "a sheet document")
    names = {f.name for f in fields(GSpaceSheet)}
    for key in doc:
        if key not in names:
            raise ValueError(f"{key!r} is not a GSpaceSheet field")
    classes = _read_records(ClassRecord, doc.get("classes"), "classes")
    strata = _read_records(StratumRecord, doc["strata"], "strata") if "strata" in doc else None
    rows = _read_pairs(doc["commuting_pairs"]) if "commuting_pairs" in doc else None
    group_order = _json_int(doc.get("group_order"), "group_order")
    metadata = _json_object(doc.get("metadata", {}), "metadata")
    for c in classes:
        for key, tag in c.provenance.items():
            if tag not in PROVENANCE_TAGS:
                raise ValueError(
                    f"class {c.label!r}: provenance tag {tag!r} of {key} is not one of "
                    + ", ".join(PROVENANCE_TAGS)
                )
    labels = {c.label for c in classes}
    pairs = None
    if rows is not None:
        for a, b, _ in doc["commuting_pairs"]:
            for label in (a, b):
                if label not in labels:
                    raise ValueError(f"commuting pair {[a, b]}: label {label!r} names no class")
        # the table lists every ordered pair of (singleton) classes
        for a in classes:
            row = rows.get(a.label, {})
            for b in classes:
                if b.label not in row:
                    raise ValueError(f"commuting pair {[a.label, b.label]!r} is missing")
        pairs = PairTable({a: a for a in rows}, rows)  # each label its own type
    return GSpaceSheet(group_order, classes, strata, pairs, metadata)


def point_sheet(group_order: int = 1, class_count: int = 1) -> GSpaceSheet:
    """Sheet for the one-point space: every class contributes one."""
    if group_order % class_count:
        raise ValueError("class count must divide the group order for this helper")
    size = 1 if group_order == class_count else group_order // class_count
    prov = {"euler_quotient": TRIVIAL, "lefschetz_quotient": TRIVIAL}
    classes = tuple(
        ClassRecord(f"c{i}", size, group_order // size, True, 1, 1, dict(prov), 0)
        for i in range(class_count)
    )
    return GSpaceSheet(group_order, classes, None, None, {"space": "point"})


# ---------------------------------------------------------------------------
# resolution graphs


class DynkinGraph(Record):
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
        out += (-1) ** (m - j) * comb(m, j) * fermat_euler(d, j)
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


def _common_block_sizes(pattern_a: Sequence[int], pattern_b: Sequence[int]):
    """Block sizes of the common refinement of two eigenvalue patterns."""
    blocks: dict[tuple[int, int], int] = {}
    for ab in zip(pattern_a, pattern_b):
        blocks[ab] = blocks.get(ab, 0) + 1
    return blocks.values()


@lru_cache(maxsize=8)
def _cycle_setup(d: int, src: tuple[int, ...]) -> tuple:
    """The cycles of src, their coordinate bit masks, and full_support_euler(d, r)
    for every number r of cycles: what a twisted count needs of (d, src) alone,
    built once for the many counts of one involution."""
    cycles = tuple(permutation_cycles(src))
    masks = tuple(sum(1 << i for i in cyc) for cyc in cycles)
    return cycles, masks, tuple(full_support_euler(d, r) for r in range(len(cycles) + 1))


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
    coefficient kappa is a sum of roots of unity.  Supports that are not
    unions of compatible cycles contribute nothing.

    Every root of unity is held as an integer residue k mod N standing for
    zeta_N^k, with N = q * lcm(cycle lengths).  A cycle of length l with
    exponent sum e has the l-th roots of zeta_q^e as its eigenvalue
    candidates, zeta_{ql}^{e+qk}; since ql divides N these are the residues
    (e+qk) * N/(ql), zeta_q^a is a * N/q, and products and powers of them
    (the walk along a cycle, the terms x^d of kappa) stay in the group of
    N-th roots.  So multiplication is addition of residues, a power is a
    multiple, equality is equality mod N, and the candidates deduplicate in
    a set.  The one question that is not about a single root is whether
    kappa = sum of zeta_N^{d*x} vanishes: that is whether the expansions of
    its terms in the Zumbroich basis of Q(zeta_N), the table that CycloInt
    uses, cancel (`exactmath.zeta_sum_is_zero`).

    Sets of coordinates are bit masks.  Only supports that are unions of
    cycles can contribute, and only cycles inside such a support can take
    part, so the rest are dropped first.  Per eigenvalue each set of
    compatible cycles is then enumerated once, and its union is looked up
    in the multiset of supports (a support listed twice counts twice).  The
    cycles, their masks and the full-support Euler numbers depend on (d, src)
    alone and come from ``_cycle_setup``.
    """
    cycles, masks, fse = _cycle_setup(d, tuple(src))
    wanted: dict[int, int] = {}
    for t in supports:
        mask = sum(1 << i for i in frozenset(t))
        if mask and sum(m for m in masks if m & mask == m) == mask:
            wanted[mask] = wanted.get(mask, 0) + 1
    useful = [c for c, m in enumerate(masks) if any(m & t == m for t in wanted)]
    if not useful:
        return 0
    n_root = q * lcm(*(len(cycles[c]) for c in useful))
    unit_q = n_root // q  # the residue of zeta_q
    sums = {c: sum(exponents[i] for i in cycles[c]) % q for c in useful}

    eigenvalues: set[int] = set()
    for c in useful:
        l = len(cycles[c])
        scale = n_root // (q * l)
        eigenvalues.update((sums[c] + q * k) * scale for k in range(l))

    total = 0
    for lam in eigenvalues:
        inside = [
            c for c in useful if (len(cycles[c]) * lam - sums[c] * unit_q) % n_root == 0
        ]
        kappa_zero = {}
        for c in inside:
            x = 0  # the walk starts at the unit, residue 0
            terms = [0]
            for i in cycles[c][:-1]:
                x += lam - exponents[i] * unit_q
                terms.append(d * x)
            kappa_zero[c] = zeta_sum_is_zero(n_root, terms)
        for r in range(1, len(inside) + 1):
            for B in itertools.combinations(inside, r):
                count = wanted.get(sum(masks[c] for c in B), 0)
                if not count:
                    continue
                zeros = sum(1 for c in B if kappa_zero[c])
                if zeros == 0:
                    total += count * fse[r]
                elif r == 1:
                    total += count
    return total


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


def _curve_quotient_euler(
    patterns: Sequence[tuple[int, ...]], block: tuple[int, ...], d: int
) -> int:
    """Euler characteristic of (section)/G for a block of two or three
    coordinates, by averaging fixed-set Euler characteristics over the image
    group (Burnside): for two coordinates the d section points, for three the
    plane curve."""
    first = block[0]
    image = {tuple((p[i] - p[first]) % d for i in block) for p in patterns}
    total = sum(section_euler(d, [len(b) for b in _partition_blocks(g)]) for g in image)
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
    table gives e(X^g cap X^h) for all 125 x 125 pairs as a `PairTable` with
    one row per pattern type.

    Each value is computed once per type and then looked up: a section
    value once per block size (the patterns, all sum-zero exponent vectors
    modulo scalars, are closed under coordinate permutations), a pair value
    once per pair of set partitions into eigenvalue blocks (27 partitions,
    729 pairs), h-invariance once per pattern, and a stratum total once per
    centralizer type of support, by one twisted-sector count per twisted
    class, each class listed directly (`_quintic_strata`).
    """
    d = 5
    inv = _quintic_involution(variant)
    patterns = _quintic_patterns()
    identity_lefschetz = 8 if variant == "swap" else 0

    labels = [_pattern_label(p) for p in patterns]
    invariant = {p for p in patterns if _conjugate_pattern(p, inv, d) == p}
    section = {r: _curve_quotient_euler(patterns, tuple(range(r)), d) for r in (2, 3)}

    # a pair value depends on two patterns only through their set partitions
    # and is symmetric; the table holds one row per type, in label order
    euler_by_size = [fermat_euler(d, m) for m in range(len(inv) + 1)].__getitem__
    keys = [tuple(p.index(x) for x in p) for p in patterns]  # first index of each value
    types = sorted(set(keys))
    kinds = [types.index(k) for k in keys]  # the type of each pattern, by its position
    value = [[0] * len(types) for _ in types]
    for i, ka in enumerate(types):
        for j in range(i, len(types)):
            value[i][j] = value[j][i] = sum(map(euler_by_size, _common_block_sizes(ka, types[j])))
    rows = [dict(zip(labels, map(v.__getitem__, kinds))) for v in value]
    pairs = PairTable(dict(zip(labels, kinds)), rows)

    blocks = [[b for b in _partition_blocks(p) if len(b) >= 2] for p in patterns]
    classes = []
    for p, label, kind, section_blocks in zip(patterns, labels, kinds, blocks):
        in_ch = p in invariant
        is_identity = not any(p)
        if is_identity:
            fixed_dim = 3
            # identity-class Euler value: average of its table row
            row_sum = sum(rows[kind].values())
            euler, rest = divmod(row_sum, len(patterns))
            if rest:
                raise InconsistentSheet(
                    f"class {label}: pair-table row sum {row_sum} is not a "
                    f"multiple of the group order {len(patterns)}"
                )
        else:
            # a proper block has two or three coordinates: four equal values
            # of a pattern summing to zero force the fifth to equal them
            fixed_dim = max((len(b) - 2 for b in section_blocks), default=None)
            euler = sum(section[len(b)] for b in section_blocks)
        lefschetz = None
        prov = {"euler_quotient": DERIVED}
        if in_ch:
            lefschetz = identity_lefschetz if is_identity else 2
            prov["lefschetz_quotient"] = LIT
        classes.append(
            ClassRecord(label, 1, 125, in_ch, euler, lefschetz, prov, fixed_dim)
        )

    strata = _quintic_strata(patterns, blocks, invariant, inv, d)
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
    return GSpaceSheet(125, tuple(classes), strata, pairs, meta)


def _class_representatives(keyed, lengths: Sequence[int], d: int) -> list:
    """The items of (cycle sums, item) pairs whose sums open a twisted class.
    Adding c to a vector adds c*l mod d to its sum along a cycle of length l,
    so a class is the orbit of the sums under d shifts, marked when first met."""
    marked, reps = set(), []
    for sums, item in keyed:
        if sums not in marked:
            marked.update(tuple((s + k * l) % d for s, l in zip(sums, lengths)) for k in range(d))
            reps.append(item)
    return reps


def _quintic_strata(
    patterns: list[tuple[int, ...]], blocks: list, invariant: set, inv: tuple[int, ...], d: int
) -> tuple[StratumRecord, ...]:
    """One stratum per support T of size two or three, plus one free stratum
    aggregating the supports of size four and five, whose stabilizer is
    trivial.

    A pattern fixes T when T lies in one of its eigenvalue blocks (``blocks``
    lists those of two or more coordinates per pattern), so one pass gives
    the stabilizers and their h-invariant classes.  Each stratum total is a
    sum over twisted classes: a diagonal t conjugates g*h to (g + t - h.t)*h
    and keeps the Fermat hypersurface and each support, so the count depends
    only on the sums of g along the cycles of h mod d, up to a scalar shift.
    The classes split the coset representatives evenly; the engine runs once
    per class.  A stratum walks the d^k sum tuples of its k cycles and builds
    a vector (the sums on the first coordinates of the cycles) only for the
    first tuple of each class; the free stratum walks the sums of the
    patterns (`_class_representatives`).

    The total of an h-invariant T is computed once per centralizer type, the
    sorted lengths of the cycles of h inside T: any matching of the cycles of
    two supports of one type, and of the cycles outside them, is a coordinate
    permutation s commuting with h.  It keeps the Fermat hypersurface and the
    patterns, so conjugation by s carries the stratum, stabilizer and twisted
    sectors of T onto those of s(T), with equal fixed-locus counts.
    """
    n, cycles = 5, permutation_cycles(inv)
    fse = [full_support_euler(d, m) for m in range(n + 1)]

    def class_total(reps, n_reps, supports, label):
        per_class, rest = divmod(n_reps, len(reps))
        if rest:
            raise InconsistentSheet(
                f"{label}: {len(reps)} twisted classes do not divide {n_reps} cosets evenly"
            )
        return per_class * sum(twisted_fixed_euler(d, d, g, inv, supports) for g in reps)

    stab, con = {}, {}
    for p, section_blocks in zip(patterns, blocks):
        for block in section_blocks:
            for T in itertools.chain(*(itertools.combinations(block, r) for r in (2, 3))):
                stab[T] = stab.get(T, 0) + 1
                con[T] = con.get(T, 0) + (p in invariant)
    records, by_type = [], {}  # centralizer type of an h-invariant support -> its total
    for T in itertools.chain(*(itertools.combinations(range(n), r) for r in (2, 3))):
        support, label = frozenset(T), "stab" + "".join(str(i) for i in T)
        h_inv = frozenset(inv[i] for i in T) == support
        lef = 0  # a support that is not a union of cycles of h counts nothing
        if h_inv:
            inside = [c for c in cycles if support.issuperset(c)]
            shape = tuple(sorted(len(c) for c in inside))
            if shape not in by_type:
                firsts = [c[0] for c in inside]
                sums = ((s, s) for s in itertools.product(range(d), repeat=len(inside)))
                reps = _class_representatives(sums, [len(c) for c in inside], d)
                vectors = [tuple(dict(zip(firsts, s)).get(i, 0) for i in range(n)) for s in reps]
                by_type[shape] = class_total(vectors, len(patterns) // stab[T], [support], label)
            lef = by_type[shape]
        euler = fse[len(T)]
        records.append(StratumRecord(label, stab[T], euler, lef, h_inv, con[T]))
    free = [frozenset(T) for size in (4, 5) for T in itertools.combinations(range(n), size)]
    euler_free = sum(fse[len(T)] for T in free)
    sums = ((tuple(sum(p[i] for i in c) % d for c in cycles), p) for p in patterns)
    reps = _class_representatives(sums, [len(c) for c in cycles], d)
    lef_free = class_total(reps, len(patterns), free, "free")
    records.append(StratumRecord("free", 1, euler_free, lef_free, True, 1))
    return tuple(records)


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
    for mu, a, b in itertools.product(range(9), range(3), range(3)):
        in_ch = (2 * a) % 3 == mu % 3 == (2 * b) % 3
        is_identity = a == b == mu == 0
        lefschetz = (0 if is_identity else 2) if in_ch else None
        prov = {"lefschetz_quotient": LIT} if in_ch else {}
        fixed_dim = 3 if is_identity else (0 if in_ch else None)
        label = f"a{a}b{b}m{mu}"
        classes.append(ClassRecord(label, 1, 81, in_ch, None, lefschetz, prov, fixed_dim))
    meta = {"curve_section_euler": -18, "provenance_notes": {"curve_section_euler": LIT}}
    return GSpaceSheet(81, tuple(classes), None, None, meta)
