"""Explicit finite matrix groups over cyclotomic integers.

Closure from generators, conjugacy classes, centralizers, the action of an
outer symmetry by conjugation, and counting of invariant classes.  Groups and
elements are read-only records (``exactmath.Record``); every query is a pure
function of the stored data.  A group is closed from its matrices alone and
acted on by plain conjugation: a quotient, such as a diagonal group modulo
scalars, enters as a matrix subgroup that maps onto it.

Closure is Dimino's: the group grows from the subgroup of the first
generators one right coset at a time, and only coset representatives are
multiplied by generators, so matrix products number at most |G|·|gens| and
often far fewer.  A group keeps no multiplication table: it holds one column
x -> x·g per stored generator, the Schreier tree that reached each element
(its parent and the generator), and the inverses, all O(|G|·|gens|).  Any
row x -> b·x is rebuilt from them along the tree in O(|G|), and any column
x -> x·j as x -> (j^-1·x^-1)^-1.  An outer action conjugates only the stored
generators and extends the map along the generator columns, proving it a
homomorphism on every edge x -> x·g.  These are the Dimino closure of
Butler, *Fundamental Algorithms for Permutation Groups* (LNCS 559), and the
Schreier structures of Holt, Eick and O'Brien, *Handbook of Computational
Group Theory* (2005), ch. 4.

An element is stored once, as sparse rows of the (column, coefficient
tuple) pairs of its nonzero entries, and those rows are its canonical key.
Products, determinants and the conjugations of an outer action read and
write them, not the CycloInt operators: each nonzero entry of a result is
one ``exactmath._sum_of_products`` of tuple pairs, and zero entries take no
work.
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Optional, Sequence

from .exactmath import CycloDivisor, CycloInt, Record, _negated, _sum_of_products, cyclo_div_exact
from .exactmath import _cyclo, _expansions, _product, _root_index

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


class GroupElement(Record):
    """Square invertible matrix of cyclotomic integers, a read-only ``Record``.

    Stored as sparse ``rows``: each row lists the (-j, coefficient tuple)
    pairs of its nonzero entries in column order j, the tuples being the
    entries' Zumbroich coordinates at the element's conductor.  The rows are
    the canonical key: they drive equality, the key indexes and the
    deterministic element order of a group, which is the order of the dense
    entries row by row, since a column read as -j puts a row with a zero
    entry, whose next stored column lies further right, before a row with a
    nonzero entry there.  The rows make the arithmetic skip zero entries.
    Rows hold tuples, but an element is unhashable, as equality lifts both
    sides to a common conductor.
    """

    n: int
    conductor: int
    rows: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]

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
        return GroupElement(n, m, tuple(
            tuple((-j, c) for j, x in enumerate(row) if (c := x.lift(m).coeffs)) for row in ent
        ))

    @staticmethod
    def identity(n: int, conductor: int = 1) -> GroupElement:
        one = CycloInt.from_int(1, conductor).coeffs
        return _element(n, conductor, tuple(((-i, one),) for i in range(n)))

    def lift(self, conductor: int) -> GroupElement:
        if conductor == self.conductor:
            return self
        m = self.conductor
        return _element(self.n, conductor, tuple(
            tuple([(j, _cyclo(m, x).lift(conductor).coeffs) for j, x in row]) for row in self.rows
        ))

    def key(self) -> tuple:
        return self.rows

    def mul(self, other: GroupElement) -> GroupElement:
        if self.conductor != other.conductor or self.n != other.n:
            raise IncompatibleElements(
                f"cannot multiply a {self.n}x{self.n} matrix at conductor {self.conductor} "
                f"by a {other.n}x{other.n} matrix at conductor {other.conductor}"
            )
        # only nonzero entries take part: the matrices of monomial and
        # diagonal groups are mostly zeros, and their products single terms
        m, right = self.conductor, other.rows
        rows = []
        for row in self.rows:
            if len(row) == 1:  # a scaling of one right row; nonzero times nonzero is nonzero
                (k, a), = row
                if len(right[-k]) == 1:  # monomial times monomial
                    (j, b), = right[-k]
                    rows.append(((j, _product(m, a, b).coeffs),))
                else:
                    rows.append(tuple([(j, _product(m, a, b).coeffs) for j, b in right[-k]]))
            else:
                pairs: dict = {}
                for k, a in row:
                    for j, b in right[-k]:
                        pairs.setdefault(j, []).append((a, b))
                sums = [(j, _sum_of_products(m, pairs[j]).coeffs) for j in sorted(pairs)[::-1]]
                rows.append(tuple([(j, x) for j, x in sums if x]))
        return _element(self.n, m, tuple(rows))

    def det(self) -> CycloInt:
        return _det(self.rows, self.conductor, tuple(range(0, -self.n, -1)))

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        m = lcm(self.conductor, other.conductor)
        return self.lift(m).rows == other.lift(m).rows

    __hash__ = None  # type: ignore[assignment]


def _element(n: int, m: int, rows: tuple) -> GroupElement:
    """``GroupElement(n, m, rows)`` without the constructor's field binding,
    for the product path."""
    g = object.__new__(GroupElement)
    g.__dict__.update(n=n, conductor=m, rows=rows)
    return g


def _descend(g: GroupElement, m: int) -> Optional[GroupElement]:
    """g at a conductor m dividing its own M, when every entry is 0 or a
    signed root of unity s·zeta_M^k with M/m dividing k, which is
    s·zeta_m^(k·m/M); None otherwise.  For even M, s·zeta_M^k is also
    -s·zeta_M^(k+M/2), so both exponents are tried: -1 lies at every m."""
    big = g.conductor
    step, roots, table = big // m, _root_index(big), _expansions(m)
    rows = []
    for row in g.rows:
        out = []
        for j, x in row:
            root = roots.get(x)
            if root is None:
                return None
            s, k = root
            if k % step and big % 2 == 0:
                s, k = -s, (k + big // 2) % big
            if k % step:
                return None
            terms = table[k // step]
            out.append((j, terms if s == 1 else _negated(terms)))
        rows.append(tuple(out))
    return _element(g.n, m, tuple(rows))


def _det(rows, conductor: int, cols: tuple) -> CycloInt:
    """Determinant of sparse rows over the column keys cols, in column order,
    by expansion along the first row: its nonzero entries times their signed
    minors, one sum of products per level; a zero row makes it zero at once."""
    if not rows:
        return CycloInt.from_int(1, conductor)
    pairs = []
    for k, x in rows[0] if all(rows) else ():
        p = cols.index(k)
        rest = [tuple(e for e in r if e[0] != k) for r in rows[1:]]
        minor = _det(rest, conductor, cols[:p] + cols[p + 1 :])
        if minor.coeffs:
            pairs.append((x if p % 2 == 0 else _negated(x), minor.coeffs))
    return _sum_of_products(conductor, pairs)


def _adjugate(g: GroupElement) -> GroupElement:
    """The transposed cofactors: entry (i, j) is (-1)^(i+j) times the minor
    of g without row j and column i."""
    cols, rows = tuple(range(0, -g.n, -1)), []
    for i, k in enumerate(cols):
        rest = [tuple(e for e in r if e[0] != k) for r in g.rows]
        minor_cols, row = cols[:i] + cols[i + 1 :], []
        for j in range(g.n):
            d = _det(rest[:j] + rest[j + 1 :], g.conductor, minor_cols).coeffs
            if d:
                row.append((-j, d if (i + j) % 2 == 0 else _negated(d)))
        rows.append(tuple(row))
    return _element(g.n, g.conductor, tuple(rows))


class FiniteMatrixGroup(Record):
    """Closed matrix group with elements ordered by canonical key, a
    read-only ``Record`` that keeps its key indexes and classes once built.

    No multiplication table is stored.  ``columns[k]`` maps x to x·g for the
    k-th stored generator g, whose index is ``generators[k]``; ``tree`` lists
    (b, parent, k) with b = parent·g_k, parents first, reaching every element
    but the identity; ``_inverse`` holds the inverses.  Rows and columns of
    any element are rebuilt from these in O(|G|), and they are the group's
    only product structure.  The stored generators are the only elements an
    outer action conjugates as matrices.  Elements are the matrices
    themselves: a product is the plain matrix product.
    """

    elements: tuple[GroupElement, ...]
    identity_index: int
    generators: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]
    tree: tuple[tuple[int, int, int], ...]
    _inverse: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def row(self, b: int) -> list[int]:
        """x -> b·x, filled along the tree as b·(p·g_k) = (b·p)·g_k."""
        return _row(self.columns, self.tree, self.identity_index, b)

    def column(self, j: int) -> list[int]:
        """x -> x·j, read as (j^-1·x^-1)^-1 off the row of j^-1."""
        return _column(self.columns, self.tree, self.identity_index, self._inverse, j)

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def index_of(self, g: GroupElement) -> int:
        """Index of g, compared at the lcm of its and the group's conductor."""
        m = lcm(self.elements[0].conductor, g.conductor)
        idx = self._key_index(m).get(g.lift(m).key())
        if idx is None:
            raise ElementNotInGroup("element is not in the group")
        return idx

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
        """Whether the stored generators, which generate the group, commute:
        g_a·g_b = col_b[g_a] against g_b·g_a = col_a[g_b]."""
        return all(
            col_b[a] == col_a[b]
            for (a, col_a), (b, col_b) in itertools.combinations(
                zip(self.generators, self.columns), 2
            )
        )

    def subgroup(self, indices) -> FiniteMatrixGroup:
        """Subgroup on a closed subset of element indices, reindexed by key.

        Its generators are chosen greedily: each element in index order that
        the generators so far do not reach joins them.  As they reach the
        whole subset from the identity, it is closed exactly when each one's
        column maps it into itself, so no table is read.
        """
        idx = sorted(set(indices), key=lambda i: self.elements[i].key())
        pos = {g: k for k, g in enumerate(idx)}
        if self.identity_index not in pos:
            raise StabilizerNotSubgroup("subset does not contain the identity")
        ident = pos[self.identity_index]
        gens: list[int] = []
        columns: list[tuple[int, ...]] = []
        tree: list = []
        reached = {ident}
        for i in range(len(idx)):
            if i not in reached:
                col = self.column(idx[i])
                image = tuple(pos.get(col[x]) for x in idx)
                if None in image:
                    raise StabilizerNotSubgroup("subset is not closed under products")
                gens.append(i)
                columns.append(image)
                tree = _span(columns, ident)
                reached.update(b for b, _, _ in tree)
        elements = tuple(self.elements[i] for i in idx)
        inv = tuple(pos[self.inv(i)] for i in idx)
        return FiniteMatrixGroup(elements, ident, tuple(gens), tuple(columns), tuple(tree), inv)


def _span(columns, identity: int) -> list[tuple[int, int, int]]:
    """The breadth-first Schreier tree from the identity along the columns:
    (y, x, k) with y = x·g_k, for every element reached, in the order reached."""
    queue, seen, tree = [identity], {identity}, []
    for x in queue:  # the queue grows while it is scanned
        for k, col in enumerate(columns):
            y = col[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
                tree.append((y, x, k))
    return tree


def _row(columns, tree, identity: int, b: int) -> list[int]:
    """x -> b·x from the generator columns along a Schreier tree (y, p, k)
    with y = p·g_k, parents first: b·y = (b·p)·g_k."""
    row = [identity] * (len(tree) + 1)
    row[identity] = b
    for y, p, k in tree:
        row[y] = columns[k][row[p]]
    return row


def _column(columns, tree, identity: int, inverse, j: int) -> list[int]:
    """x -> x·j = (j^-1·x^-1)^-1, from the row of j^-1 and the inverses."""
    row = _row(columns, tree, identity, inverse[j])
    return [inverse[row[x_inv]] for x_inv in inverse]


def _inverses(columns, tree, identity: int) -> list[int]:
    """The inverses along the tree: b = p·g_k has b^-1 = g_k^-1·p^-1, read off
    one row per generator inverse.  g_k^-1 is the last element before the
    identity on the walk e, g_k, g_k², ... down column k."""
    rows = []
    for col in columns:
        last, x = identity, col[identity]
        while x != identity:
            last, x = x, col[x]
        rows.append(_row(columns, tree, identity, last))
    inverse = [identity] * (len(tree) + 1)
    for b, p, k in tree:
        inverse[b] = rows[k][inverse[p]]
    return inverse


def close_group(generators: Sequence[GroupElement], cap: int = 10_000) -> FiniteMatrixGroup:
    """Smallest matrix group containing the generators.

    Dimino's coset closure: H_i = <g_1, ..., g_i> grows from H = H_{i-1} one
    right coset H·r at a time, starting from r = 1, unless g_i lies in H.
    Only coset representatives are multiplied by g_1, ..., g_i; a product r·g
    outside the cosets so far is a new representative r', and each h·r' is
    computed once: a cyclic group of order n takes n matrix products and the
    order-125 quintic group 142, not |G|·|gens|.  CapExceeded is raised
    before a coset would take the order past the cap.

    Columns stay integer lookups: for x = h·r and r·g = y·r', x·g = (h·y)·r',
    with h -> h·y the column of y in H, rebuilt from H's generator columns,
    Schreier tree (h·r' = (h·r)·g when r' = r·g) and inverses for just the
    elements y that occur.  Elements are then ordered by canonical key, so
    the result is independent of generator order; the inverses are filled
    along the tree, and a generator that already lay in an earlier subgroup
    takes its column from them.  The key index built on the way is kept.
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
    for g in gens:
        if g.det().is_zero():
            raise ValueError("generators must be invertible")

    ident = GroupElement.identity(n, m)
    # coset c of the current H holds h·r_c at index c·|H| + h, so 0 is the identity
    elements = [ident]
    index = {ident.key(): 0}
    tree: list[tuple[int, int, int]] = []  # (b, parent, k) with b = parent·g_k
    columns: list[list[int]] = []  # columns[k][x] = index of x·g_k in H
    for i, g in enumerate(gens):
        if g.key() in index:
            continue
        size = len(elements)
        reps, reached = [ident], []  # reached[c][k] = (c', y) with r_c·g_k = y·r_c'
        for c, r in enumerate(reps):  # the list grows while it is scanned
            row = []
            for k, s in enumerate(gens[: i + 1]):
                p = r.mul(s)
                j = index.get(p.key())
                if j is None:
                    if len(elements) + size > cap:
                        raise CapExceeded(f"closure exceeded cap of {cap}")
                    j = len(elements)
                    reps.append(p)
                    for h in range(size):
                        x = p if h == 0 else elements[h].mul(p)
                        index[x.key()] = len(elements)
                        elements.append(x)
                        tree.append((j + h, c * size + h, k))
                row.append(divmod(j, size))
            reached.append(row)
        h_tree = tree[: size - 1]  # the edges of H come first
        h_inverse = _inverses(columns, h_tree, 0)
        ys = {y for row in reached for _, y in row}
        h_columns = {y: _column(columns, h_tree, 0, h_inverse, y) for y in ys}  # [y][h] = h·y
        columns = [[c * size + hy for c, y in col for hy in h_columns[y]] for col in zip(*reached)]

    by_key = sorted(range(len(elements)), key=lambda i: elements[i].key())
    pos = {i: r for r, i in enumerate(by_key)}
    identity_index = pos[0]
    tree = [(pos[b], pos[p], k) for b, p, k in tree]
    columns = [tuple([pos[col[i]] for i in by_key]) for col in columns]
    inverse = _inverses(columns, tree, identity_index)
    for key, i in index.items():
        index[key] = pos[i]
    stored = tuple(index[g.key()] for g in gens)
    # generators after the last one that grew the group have no column yet
    columns += [
        tuple(_column(columns, tree, identity_index, inverse, j)) for j in stored[len(columns) :]
    ]
    group = FiniteMatrixGroup(
        tuple(elements[i] for i in by_key), identity_index, stored, tuple(columns), tuple(tree),
        tuple(inverse),
    )
    group.__dict__["_key_cache"] = {m: index}
    return group


class ConjClassSet(Record):
    """Partition of a group's element indices into conjugacy classes."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def conjugacy_classes(group: FiniteMatrixGroup) -> ConjClassSet:
    """Exact conjugacy classes; representatives are the minimal canonical keys.

    A class is the orbit of an element under conjugation by the generators
    alone, since those conjugations generate every inner automorphism; each
    x -> g^-1·x·g is the row of g^-1 followed by the column of g.  The
    classes are kept on the group, computed once.
    """
    cached = group.__dict__.get("_classes")
    if cached is not None:
        return cached
    conjugators = [
        (group.row(group.inv(g)), col) for g, col in zip(group.generators, group.columns)
    ]
    assigned = [False] * group.order
    classes = []
    for a in range(group.order):
        if assigned[a]:
            continue
        assigned[a] = True
        orbit = [a]
        for x in orbit:  # the orbit grows while it is scanned
            for row, col in conjugators:
                y = col[row[x]]
                if not assigned[y]:
                    assigned[y] = True
                    orbit.append(y)
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda cl: group.elements[cl[0]].key())
    reps = tuple(cl[0] for cl in classes)
    out = group.__dict__["_classes"] = ConjClassSet(tuple(classes), reps)
    return out


def centralizer(group: FiniteMatrixGroup, x) -> FiniteMatrixGroup:
    """Subgroup of elements commuting with x (an element or an index), read
    off the row and the column of x."""
    i = x if isinstance(x, int) else group.index_of(x)
    members = [c for c, (ic, ci) in enumerate(zip(group.row(i), group.column(i))) if ic == ci]
    return group.subgroup(members)


class OuterAction(Record):
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

    The map is extended along a breadth-first search of the generator
    columns from the identity by perm[x·g] = perm[x]·perm[g], reading
    perm[x]·perm[g] off the column of the image perm[g], and the same identity
    is checked on every edge x -> x·g the search meets.  Since every element
    is a word in the generators, this proves perm a homomorphism; with the
    bijection check it is an automorphism, equal to conjugation by h on every
    element.
    """
    group_m = group.elements[0].conductor
    m = lcm(group_m, h.conductor)
    hh = h.lift(m)
    det = hh.det()
    if det.is_zero():
        raise ValueError("symmetry must be invertible")
    adj = _adjugate(hh)
    divisor = CycloDivisor(det)
    images = []
    for gi in group.generators:
        rows = []
        for row in hh.mul(group.elements[gi].lift(m)).mul(adj).rows:
            out = []
            for j, x in row:  # zero entries are not stored: they divide to zero
                q = cyclo_div_exact(_cyclo(m, x), divisor)
                if q is None:
                    raise NotNormalizing(f"conjugate of generator {gi} has non-integral entries")
                out.append((j, q.coeffs))
            rows.append(tuple(out))
        cand = _element(hh.n, m, tuple(rows))
        if cand.conductor != group_m:  # looked up at the group's conductor when it lies there
            cand = _descend(cand, group_m) or cand
        try:
            images.append(group.index_of(cand))
        except ElementNotInGroup:
            raise NotNormalizing(f"conjugate of generator {gi} falls outside the group") from None

    tree = _span(group.columns, group.identity_index)
    if len(tree) + 1 != group.order:
        raise ValueError("the stored generators do not generate the group")
    for g, col in zip(group.generators, group.columns):
        # image columns are read off rows built from these, so one entry
        # redirected here could bend an image column to agree with it
        if len(set(col)) != group.order:
            raise NotNormalizing(f"the column of generator {g} is not a permutation")
    edges = list(zip(group.generators, group.columns, map(group.column, images)))
    perm = [-1] * group.order
    perm[group.identity_index] = group.identity_index
    for x in (group.identity_index, *(b for b, _, _ in tree)):
        # breadth-first, so perm[x] is set before x is scanned
        px = perm[x]
        for g, col, image_col in edges:
            y, hy = col[x], image_col[px]
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
    cls = next(cl for cl in conjugacy_classes(sub).classes if gi in cl)
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
