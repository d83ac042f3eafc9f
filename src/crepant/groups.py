"""Explicit finite matrix groups over cyclotomic integers.

Closure from generators, conjugacy classes, centralizers, the action of an
outer symmetry by conjugation, and counting of invariant classes.  Groups are
immutable after closure; every query is a pure function of the stored data.

Closure is Dimino's: the group grows from the subgroup of the first
generators one right coset at a time, and only coset representatives are
multiplied by generators, so matrix products number at most |G|·|gens| and
often far fewer.  The generator columns x -> x·g are integer lookups through
the table of the previous subgroup, and every multiplication table is filled
from such columns along a Schreier tree (each element's parent and the
generator that reached it), each row composed from two rows already known.
An outer action conjugates only the stored generators and extends the map
along the table, proving it a homomorphism on every edge x -> x·g.  This is
the Dimino closure of Butler, *Fundamental Algorithms for Permutation Groups*
(LNCS 559), and of Holt, Eick and O'Brien, *Handbook of Computational Group
Theory* (2005), §4.1.

Element arithmetic runs on the entries' canonical coefficient tuples, not
through the CycloInt operators: each entry of a product, a scaling or a
determinant is one ``exactmath._sum_of_products`` of tuple pairs, and every
product element carries its canonical key from the moment it is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .exactmath import CycloDivisor, CycloInt, _negated, _sum_of_products, cyclo_div_exact

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
        key = self.__dict__.get("_key")
        if key is None:
            key = self.__dict__["_key"] = tuple(x.coeffs for row in self.entries for x in row)
        return key

    def mul(self, other: GroupElement) -> GroupElement:
        if self.conductor != other.conductor or self.n != other.n:
            raise IncompatibleElements(
                f"cannot multiply a {self.n}x{self.n} matrix at conductor {self.conductor} "
                f"by a {other.n}x{other.n} matrix at conductor {other.conductor}"
            )
        # only nonzero entries take part: the matrices of monomial and
        # diagonal groups are mostly zeros, and their products single terms
        m, n = self.conductor, self.n
        support = other._support()
        zero = _sum_of_products(m, ())
        rows = []
        for row in self._support():
            pairs: dict = {}
            for k, a in row:
                for j, b in support[k]:
                    pairs.setdefault(j, []).append((a, b))
            out = [zero] * n
            for j, p in pairs.items():
                out[j] = _sum_of_products(m, p)
            rows.append(tuple(out))
        return _element(n, m, rows)

    def _support(self) -> list:
        """The nonzero entries of each row as (column, coefficient tuple) pairs,
        kept on the element."""
        support = self.__dict__.get("_support_rows")
        if support is None:
            support = self.__dict__["_support_rows"] = [
                [(j, x.coeffs) for j, x in enumerate(row) if x.coeffs] for row in self.entries
            ]
        return support

    def det(self) -> CycloInt:
        return _det(self.entries, self.conductor)

    def scale(self, c: CycloInt) -> GroupElement:
        m, c = self.conductor, c.lift(self.conductor).coeffs
        return _element(
            self.n,
            m,
            [tuple([_sum_of_products(m, ((c, x.coeffs),)) if x.coeffs else x for x in row])
             for row in self.entries],
        )

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        m = lcm(self.conductor, other.conductor)
        return self.lift(m).key() == other.lift(m).key()

    __hash__ = None  # type: ignore[assignment]


def _element(n: int, m: int, rows: Sequence[tuple[CycloInt, ...]]) -> GroupElement:
    """The element with these rows of entries at conductor m, its key read
    off the rows as they are given."""
    g = GroupElement(n, m, tuple(rows))
    g.__dict__["_key"] = tuple([x.coeffs for row in rows for x in row])
    return g


def _det(entries, conductor: int) -> CycloInt:
    """Determinant by expansion along the first row: its nonzero entries
    times their signed minors, one sum of products per level."""
    n = len(entries)
    if n == 0:
        return CycloInt.from_int(1, conductor)
    if n == 1:
        return entries[0][0]
    pairs = []
    for j, x in enumerate(entries[0]):
        if x.coeffs:
            minor = _det(tuple(row[:j] + row[j + 1 :] for row in entries[1:]), conductor)
            if minor.coeffs:
                pairs.append((x.coeffs if j % 2 == 0 else _negated(x.coeffs), minor.coeffs))
    return _sum_of_products(conductor, pairs)


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
    return _element(n, g.conductor, cof)


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


def _fill_table(columns, tree, identity: int, size: int) -> list[tuple[int, ...]]:
    """Multiplication table from the generator columns, columns[k][x] = x·g_k,
    and a Schreier tree listing (b, parent, k) with b = parent·g_k, parents
    first.  The row of each generator g is filled along the tree by
    g·b = (g·parent)·g_k, one lookup per entry; every other row is then the
    composition b·x = parent·(g_k·x) of two rows already known."""
    generator_rows = []
    for col in columns:
        row = [0] * size
        row[identity] = col[identity]
        for b, p, k in tree:
            row[b] = columns[k][row[p]]
        generator_rows.append(itemgetter(*row))
    table: list = [None] * size
    table[identity] = tuple(range(size))
    for b, p, k in tree:
        table[b] = generator_rows[k](table[p])
    return table


def close_group(
    generators: Sequence[GroupElement],
    cap: int = 10_000,
    normalizer: Optional[Normalizer] = None,
) -> FiniteMatrixGroup:
    """Smallest matrix group containing the generators.

    Dimino's coset closure: H_i = <g_1, ..., g_i> grows from H = H_{i-1} one
    right coset H·r at a time, starting from r = 1, unless g_i lies in H.
    Only coset representatives are multiplied by g_1, ..., g_i; a product r·g
    outside the cosets so far is a new representative r', and each h·r' is
    computed once: a cyclic group of order n takes n matrix products and the
    order-125 quintic group 142, not |G|·|gens|.  CapExceeded is raised
    before a coset would take the order past the cap.

    Columns stay integer lookups: for x = h·r and r·g = h'·r', x·g = (h·h')·r'
    with h·h' read off the table of H, which _fill_table builds along the
    Schreier tree (h·r' = (h·r)·g when r' = r·g).  Elements are then ordered
    by canonical key, so the result is independent of generator order, and
    the table and the inverses are filled along the tree the same way.
    """
    if not generators:
        raise ValueError("at least one generator required")
    n = generators[0].n
    m = 1
    for g in generators:
        if g.n != n:
            raise ValueError("generators must share a dimension")
        m = lcm(m, g.conductor)
    norm = normalizer or (lambda g: g)
    gens = [norm(g.lift(m)) for g in generators]
    for g in gens:
        if g.det().is_zero():
            raise ValueError("generators must be invertible")

    ident = norm(GroupElement.identity(n, m))
    # coset c of the current H holds h·r_c at index c·|H| + h, so 0 is the identity
    elements = [ident]
    index = {ident.key(): 0}
    tree: list[tuple[int, int, int]] = []  # (b, parent, k) with b = parent·g_k
    columns: list[list[int]] = []  # columns[k][x] = index of x·g_k in H
    for i, g in enumerate(gens):
        if g.key() in index:
            continue
        size = len(elements)
        by_column = list(zip(*_fill_table(columns, tree, 0, size)))  # [y][h] = h·y
        reps, reached = [ident], []  # reached[c][k] = (c', y) with r_c·g_k = y·r_c'
        for c, r in enumerate(reps):  # the list grows while it is scanned
            row = []
            for k, s in enumerate(gens[: i + 1]):
                p = norm(r.mul(s))
                j = index.get(p.key())
                if j is None:
                    if len(elements) + size > cap:
                        raise CapExceeded(f"closure exceeded cap of {cap}")
                    j = len(elements)
                    reps.append(p)
                    for h in range(size):
                        x = p if h == 0 else norm(elements[h].mul(p))
                        index[x.key()] = len(elements)
                        elements.append(x)
                        tree.append((j + h, c * size + h, k))
                row.append(divmod(j, size))
            reached.append(row)
        columns = [[c * size + hy for c, y in col for hy in by_column[y]] for col in zip(*reached)]

    by_key = sorted(range(len(elements)), key=lambda i: elements[i].key())
    pos = {i: r for r, i in enumerate(by_key)}
    identity_index = pos[0]
    tree = [(pos[b], pos[p], k) for b, p, k in tree]
    columns = [[pos[col[i]] for i in by_key] for col in columns]
    table = _fill_table(columns, tree, identity_index, len(elements))
    # b = p·g_k has the inverse g_k^-1·p^-1, and one row scan finds each g_k^-1
    inverse = [identity_index] * len(elements)
    generator_inverses = [table[col[identity_index]].index(identity_index) for col in columns]
    for b, p, k in tree:
        inverse[b] = table[generator_inverses[k]][inverse[p]]
    return FiniteMatrixGroup(
        elements=tuple(elements[i] for i in by_key),
        table=tuple(table),
        identity_index=identity_index,
        generators=tuple(pos[index[g.key()]] for g in gens),
        normalizer=normalizer,
        _inverse=tuple(inverse),
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
