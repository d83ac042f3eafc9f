"""Explicit finite matrix groups over cyclotomic integers.

Closure from generators, conjugacy classes, centralizers, the action of an
outer symmetry by conjugation, and counting of invariant classes.  Groups are
immutable after closure; every query is a pure function of the stored data.

Matrix arithmetic grows with |G|·|gens|, never with |G|².  Closure multiplies
each element by each generator once and records the generator columns
x -> x·g together with a Schreier tree (every element's breadth-first parent
and the generator that reached it); the multiplication table is then filled by
integer lookups along the tree, each row composed from two rows already
known.  An outer action conjugates only the stored generators and extends the
map along the table, proving it a homomorphism on every edge x -> x·g.  This
is the Schreier-tree/Dimino closure of Holt, Eick and O'Brien, *Handbook of
Computational Group Theory* (2005), §4.1, and of Butler, *Fundamental
Algorithms for Permutation Groups* (LNCS 559).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .exactmath import CycloDivisor, CycloInt, cyclo_div_exact

__all__ = [
    "GroupElement",
    "FiniteMatrixGroup",
    "ConjClassSet",
    "OuterAction",
    "close_group",
    "conjugacy_classes",
    "centralizer",
    "outer_action",
    "invariant_class_count",
    "compatible_class_filter",
    "CapExceeded",
    "ElementNotInGroup",
    "IncompatibleElements",
    "NotNormalizing",
    "StabilizerNotSubgroup",
]


class CapExceeded(RuntimeError):
    """Closure grew past the configured cap (group too large or not finite)."""


class ElementNotInGroup(ValueError):
    pass


class IncompatibleElements(ValueError):
    """Matrices of different sizes or conductors were multiplied."""


class NotNormalizing(ValueError):
    """Conjugation by the proposed symmetry leaves the group."""


class StabilizerNotSubgroup(ValueError):
    pass


def _as_cyclo(x) -> CycloInt:
    return x if isinstance(x, CycloInt) else CycloInt.from_int(int(x))


@dataclass(frozen=True)
class GroupElement:
    """Square invertible matrix of cyclotomic integers.

    The canonical key is the sequence of the entries' Zumbroich coefficient
    tuples at the element's conductor; it drives equality, ordering, and the
    deterministic element order of a group.
    """

    n: int
    conductor: int
    entries: tuple[tuple[CycloInt, ...], ...]

    @staticmethod
    def from_matrix(rows: Sequence[Sequence], conductor: Optional[int] = None) -> GroupElement:
        ent = [[_as_cyclo(x) for x in row] for row in rows]
        n = len(ent)
        if any(len(r) != n for r in ent):
            raise ValueError("matrix must be square")
        m = conductor or 1
        for row in ent:
            for x in row:
                m = lcm(m, x.conductor)
        ent = tuple(tuple(x.lift(m) for x in row) for row in ent)
        return GroupElement(n, m, ent)

    @staticmethod
    def identity(n: int, conductor: int = 1) -> GroupElement:
        one = CycloInt.from_int(1, conductor)
        zero = CycloInt.from_int(0, conductor)
        return GroupElement(
            n, conductor, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    def lift(self, conductor: int) -> GroupElement:
        if conductor == self.conductor:
            return self
        return GroupElement(
            self.n, conductor, tuple(tuple(x.lift(conductor) for x in row) for row in self.entries)
        )

    def key(self) -> tuple:
        return tuple(x.coeffs for row in self.entries for x in row)

    def mul(self, other: GroupElement) -> GroupElement:
        if self.conductor != other.conductor or self.n != other.n:
            raise IncompatibleElements(
                f"cannot multiply a {self.n}x{self.n} matrix at conductor {self.conductor} "
                f"by a {other.n}x{other.n} matrix at conductor {other.conductor}"
            )
        # only nonzero entries take part: the matrices of monomial and
        # diagonal groups are mostly zeros, and their products single terms
        support = [[(j, b) for j, b in enumerate(row) if b.coeffs] for row in other.entries]
        zero = CycloInt.from_int(0, self.conductor)
        rows = []
        for row in self.entries:
            out: list = [None] * self.n
            for k, a in enumerate(row):
                if a.coeffs:
                    for j, b in support[k]:
                        out[j] = a * b if out[j] is None else out[j] + a * b
            rows.append(tuple(zero if x is None else x for x in out))
        return GroupElement(self.n, self.conductor, tuple(rows))

    def det(self) -> CycloInt:
        return _det(self.entries, self.conductor)

    def scale(self, c: CycloInt) -> GroupElement:
        c = c.lift(self.conductor)
        return GroupElement(
            self.n,
            self.conductor,
            tuple(tuple(c * x if x.coeffs else x for x in row) for row in self.entries),
        )

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        m = lcm(self.conductor, other.conductor)
        return self.lift(m).key() == other.lift(m).key()

    __hash__ = None  # type: ignore[assignment]


def _det(entries, conductor: int) -> CycloInt:
    n = len(entries)
    if n == 0:
        return CycloInt.from_int(1, conductor)
    if n == 1:
        return entries[0][0]
    out = CycloInt.from_int(0, conductor)
    for j in range(n):
        if entries[0][j].is_zero():
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in entries[1:])
        term = entries[0][j] * _det(minor, conductor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _adjugate(g: GroupElement) -> GroupElement:
    n = g.n
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(r[:i] + r[i + 1 :] for k, r in enumerate(g.entries) if k != j)
            d = _det(minor, g.conductor)
            row.append(d if (i + j) % 2 == 0 else -d)
        cof.append(tuple(row))
    return GroupElement(n, g.conductor, tuple(cof))


Normalizer = Callable[[GroupElement], GroupElement]


def scalar_normalize(g: GroupElement) -> GroupElement:
    """Canonical representative of a projective class of a matrix of roots of unity.

    Multiplies by the unique scalar root of unity making the first nonzero
    diagonal entry equal to one.  Realizes faithfully-acting quotients of
    diagonal symmetry groups as honest matrix groups.
    """
    for i in range(g.n):
        d = g.entries[i][i]
        if not d.is_zero():
            root = d.as_root_of_unity()
            if root is None:
                raise ValueError("diagonal entry is not a root of unity")
            s, k = root
            if (s, k) == (1, 0):
                return g
            inv = CycloInt.zeta(g.conductor, -k)
            return g.scale(inv if s == 1 else -inv)
    raise ValueError("matrix has no nonzero diagonal entry")


@dataclass(frozen=True)
class FiniteMatrixGroup:
    """Closed matrix group with elements ordered by canonical key.

    The multiplication table maps index pairs to indices; inverses are read
    off the table.  ``generators`` holds the indices of a generating set, the
    only elements an outer action conjugates as matrices.  An optional
    normalizer realizes a projective quotient by mapping every raw product to
    its canonical representative.
    """

    elements: tuple[GroupElement, ...]
    table: tuple[tuple[int, ...], ...]
    identity_index: int
    generators: tuple[int, ...]
    normalizer: Optional[Normalizer] = None
    _inverse: tuple[int, ...] = field(default=())

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def conj(self, i: int, by: int) -> int:
        return self.mul(self.mul(by, i), self.inv(by))

    def index_of(self, g: GroupElement) -> int:
        """Index of g, compared at the lcm of its and the group's conductor."""
        m = lcm(self.elements[0].conductor, g.conductor)
        idx = self._key_index(m).get(g.lift(m).key())
        if idx is None:
            raise ElementNotInGroup("element is not in the group")
        return idx

    def contains(self, g: GroupElement) -> bool:
        try:
            self.index_of(g)
            return True
        except (ElementNotInGroup, ValueError):
            return False

    def _key_index(self, conductor: int) -> dict:
        """Element keys lifted to the conductor, built once per conductor."""
        cache = self.__dict__.setdefault("_key_cache", {})
        index = cache.get(conductor)
        if index is None:
            index = cache[conductor] = {
                e.lift(conductor).key(): i for i, e in enumerate(self.elements)
            }
        return index

    def is_abelian(self) -> bool:
        """Whether the stored generators, which generate the group, commute."""
        return all(
            self.table[g][h] == self.table[h][g]
            for g, h in itertools.combinations(self.generators, 2)
        )

    def subgroup(self, indices) -> FiniteMatrixGroup:
        """Subgroup on a closed subset of element indices, reindexed by key.

        Its generators are chosen greedily from the table: each element in
        index order that the generators so far do not reach joins them.
        """
        idx = sorted(set(indices), key=lambda i: self.elements[i].key())
        pos = {g: k for k, g in enumerate(idx)}
        for i in idx:
            for j in idx:
                if self.table[i][j] not in pos:
                    raise StabilizerNotSubgroup("subset is not closed under products")
        table = tuple(tuple(pos[self.table[i][j]] for j in idx) for i in idx)
        elements = tuple(self.elements[i] for i in idx)
        ident = pos[self.identity_index]
        inv = tuple(pos[self.inv(i)] for i in idx)
        gens: list[int] = []
        reached = {ident}
        for i in range(len(idx)):
            if i not in reached:
                gens.append(i)
                reached = set(_span(table, ident, gens))
        return FiniteMatrixGroup(elements, table, ident, tuple(gens), self.normalizer, inv)

    def element_orders(self) -> list[int]:
        out = []
        for i in range(self.order):
            k, x = 1, i
            while x != self.identity_index:
                x = self.mul(x, i)
                k += 1
            out.append(k)
        return out


def _span(table, identity: int, generators: Sequence[int]) -> list[int]:
    """Indices reached from the identity by right multiplication, in BFS order."""
    queue, seen = [identity], {identity}
    for x in queue:  # the queue grows while it is scanned
        row = table[x]
        for g in generators:
            y = row[g]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return queue


def close_group(
    generators: Sequence[GroupElement],
    cap: int = 10_000,
    normalizer: Optional[Normalizer] = None,
) -> FiniteMatrixGroup:
    """Smallest matrix group containing the generators.

    Breadth-first closure under right multiplication; raises CapExceeded when
    the element count passes the cap.  The search makes the only matrix
    products, one x·g per element and generator.  It records the generator
    columns (x -> index of x·g) and a Schreier tree: for every element b
    but the identity, the element parent(b) and generator g it was first
    reached from, b = parent(b)·g.

    Elements are then ordered by canonical key, so the result is independent
    of generator order.  The row of each generator g is filled along the tree
    by g·b = (g·parent(b))·h, one integer lookup per entry; every other row
    a = parent(a)·g is then the composition a·x = parent(a)·(g·x) of two rows
    already known, taken in BFS order.  Inverses are read off the rows.
    """
    if not generators:
        raise ValueError("at least one generator required")
    n = generators[0].n
    m = 1
    for g in generators:
        if g.n != n:
            raise ValueError("generators must share a dimension")
        m = lcm(m, g.conductor)
    gens = [g.lift(m) for g in generators]
    if normalizer is not None:
        gens = [normalizer(g) for g in gens]
    for g in gens:
        if g.det().is_zero():
            raise ValueError("generators must be invertible")

    ident = GroupElement.identity(n, m)
    if normalizer is not None:
        ident = normalizer(ident)
    found = [ident]  # breadth-first order
    keys = [ident.key()]
    index = {keys[0]: 0}
    parent, via = [-1], [-1]
    columns: list[list[int]] = [[] for _ in gens]
    for x_index, x in enumerate(found):  # the list grows while it is scanned
        for k, g in enumerate(gens):
            p = x.mul(g)
            if normalizer is not None:
                p = normalizer(p)
            key = p.key()
            j = index.get(key)
            if j is None:
                if len(found) >= cap:
                    raise CapExceeded(f"closure exceeded cap of {cap}")
                j = index[key] = len(found)
                found.append(p)
                keys.append(key)
                parent.append(x_index)
                via.append(k)
            columns[k].append(j)

    by_key = sorted(range(len(found)), key=keys.__getitem__)
    pos = [0] * len(found)
    for r, i in enumerate(by_key):
        pos[i] = r
    columns = [[pos[col[i]] for i in by_key] for col in columns]
    identity_index = pos[0]
    generator_indices = tuple(col[identity_index] for col in columns)
    steps = [(pos[b], pos[parent[b]], columns[via[b]]) for b in range(1, len(found))]
    generator_rows = []
    for g in generator_indices:
        row = [0] * len(found)
        row[identity_index] = g
        for b, p, col in steps:
            row[b] = col[row[p]]
        generator_rows.append(itemgetter(*row))
    table: list = [None] * len(found)
    table[identity_index] = tuple(range(len(found)))
    for b in range(1, len(found)):
        table[pos[b]] = generator_rows[via[b]](table[pos[parent[b]]])
    return FiniteMatrixGroup(
        elements=tuple(found[i] for i in by_key),
        table=tuple(table),
        identity_index=identity_index,
        generators=generator_indices,
        normalizer=normalizer,
        _inverse=tuple(row.index(identity_index) for row in table),
    )


@dataclass(frozen=True)
class ConjClassSet:
    """Partition of a group's element indices into conjugacy classes."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def conjugacy_classes(group: FiniteMatrixGroup) -> ConjClassSet:
    """Exact conjugacy classes; representatives are the minimal canonical keys.

    A class is the orbit of an element under conjugation by the generators
    alone, since those conjugations generate every inner automorphism.  The
    classes are kept on the group, computed once.
    """
    cached = group.__dict__.get("_classes")
    if cached is not None:
        return cached
    table = group.table
    conjugators = [(g, group.inv(g)) for g in group.generators]
    assigned = [False] * group.order
    classes = []
    for a in range(group.order):
        if assigned[a]:
            continue
        assigned[a] = True
        orbit = [a]
        for x in orbit:  # the orbit grows while it is scanned
            for g, g_inv in conjugators:
                y = table[table[g][x]][g_inv]
                if not assigned[y]:
                    assigned[y] = True
                    orbit.append(y)
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda cl: group.elements[cl[0]].key())
    reps = tuple(cl[0] for cl in classes)
    out = group.__dict__["_classes"] = ConjClassSet(tuple(classes), reps)
    return out


def centralizer(group: FiniteMatrixGroup, x) -> FiniteMatrixGroup:
    """Subgroup of elements commuting with x (an element or an index)."""
    i = x if isinstance(x, int) else group.index_of(x)
    members = [c for c in range(group.order) if group.mul(c, i) == group.mul(i, c)]
    return group.subgroup(members)


@dataclass(frozen=True)
class OuterAction:
    """Conjugation action of a normalizing element h on a group.

    h need not belong to the group; it must map the element set to itself by
    conjugation.  Stores the induced permutations of elements and of classes.
    """

    group: FiniteMatrixGroup
    h: GroupElement
    element_perm: tuple[int, ...]
    classes: ConjClassSet
    class_perm: tuple[int, ...]


def outer_action(group: FiniteMatrixGroup, h: GroupElement) -> OuterAction:
    """Build the conjugation action g -> h g h^-1 from the group's generators.

    Only the stored generators are conjugated as matrices, with h^-1 taken as
    adjugate over determinant; a generator whose conjugate leaves the group
    raises NotNormalizing.  That is the whole normalizing test, because the
    conjugates of the generators generate the conjugate of the group.

    The map is extended along a breadth-first search of the table from the
    identity by perm[x·g] = perm[x]·perm[g], and the same identity is checked
    on every edge x -> x·g the search meets.  Since every element is a word
    in the generators, this proves perm a homomorphism; with the bijection
    check it is an automorphism, equal to conjugation by h on every element.
    """
    m = lcm(group.elements[0].conductor, h.conductor)
    hh = h.lift(m)
    det = hh.det()
    if det.is_zero():
        raise ValueError("symmetry must be invertible")
    adj = _adjugate(hh)
    divisor = CycloDivisor(det)
    images = []
    for gi in group.generators:
        num = hh.mul(group.elements[gi].lift(m)).mul(adj)
        ent = []
        for row in num.entries:
            out_row = []
            for x in row:
                q = cyclo_div_exact(x, divisor)
                if q is None:
                    raise NotNormalizing(
                        f"conjugate of generator {gi} has non-integral entries"
                    )
                out_row.append(q)
            ent.append(tuple(out_row))
        cand = GroupElement.from_matrix(ent)
        if group.normalizer is not None:
            cand = group.normalizer(cand)
        try:
            images.append(group.index_of(cand))
        except ElementNotInGroup:
            raise NotNormalizing(f"conjugate of generator {gi} falls outside the group") from None

    table = group.table
    order = _span(table, group.identity_index, group.generators)
    if len(order) != group.order:
        raise ValueError("the stored generators do not generate the group")
    perm = [-1] * group.order
    perm[group.identity_index] = group.identity_index
    for x in order:  # breadth-first, so perm[x] is set before x is scanned
        row, image_row = table[x], table[perm[x]]
        for g, hg in zip(group.generators, images):
            y, hy = row[g], image_row[hg]
            if perm[y] < 0:
                perm[y] = hy
            elif perm[y] != hy:
                raise NotNormalizing(
                    f"conjugation is not a homomorphism at element {x} times generator {g}"
                )
    if sorted(perm) != list(range(group.order)):
        raise NotNormalizing("conjugation is not a bijection of the element set")

    classes = conjugacy_classes(group)
    class_index = [0] * group.order
    for k, cl in enumerate(classes.classes):
        for i in cl:
            class_index[i] = k
    class_perm = tuple(class_index[perm[cl[0]]] for cl in classes.classes)
    return OuterAction(group, h, tuple(perm), classes, class_perm)


def invariant_class_count(action: OuterAction) -> int:
    """Number of conjugacy classes fixed setwise by the action."""
    return sum(1 for k, img in enumerate(action.class_perm) if k == img)


def class_in_subgroup_invariant(
    action: OuterAction, sub: FiniteMatrixGroup, element_index: int
) -> bool:
    """Is the conjugacy class of the element inside sub invariant under h?

    Both the element index and the subgroup refer back to the ambient group.
    """
    group = action.group
    g = group.elements[element_index]
    gi = sub.index_of(g)
    cls = {sub.conj(gi, s) for s in range(sub.order)}
    cls_ambient = {group.index_of(sub.elements[i]) for i in cls}
    image = {action.element_perm[i] for i in cls_ambient}
    return image == cls_ambient


def compatible_class_filter(
    group: FiniteMatrixGroup,
    action: OuterAction,
    stabilizers: Sequence[FiniteMatrixGroup] = (),
) -> set[int]:
    """Classes compatible with the outer symmetry across the supplied stabilizers.

    A class qualifies when it is h-invariant in the ambient group and, for
    every supplied h-invariant stabilizer containing its elements, the class
    inside that stabilizer is h-invariant as well.  For abelian groups this
    reduces to the elements fixed by conjugation.
    """
    amb_indices = []
    for s in stabilizers:
        try:
            idx = frozenset(group.index_of(e) for e in s.elements)
        except ElementNotInGroup:
            raise StabilizerNotSubgroup("stabilizer contains elements outside the group") from None
        amb_indices.append((s, idx))

    out = set()
    for k, cl in enumerate(action.classes.classes):
        if action.class_perm[k] != k:
            continue
        ok = True
        for g in cl:
            for s, idx in amb_indices:
                image = {action.element_perm[i] for i in idx}
                if image != idx:
                    continue  # only h-invariant stabilizers constrain membership
                if g in idx and not class_in_subgroup_invariant(action, s, g):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(k)
    return out
