"""Lattice pairs from abelian quotient singularities and their symmetric
crepant triangulations.

The base simplex (the face of the unit simplex in the hyperplane where the
coordinates sum to one) is triangulated by simplices with vertices in the
overlattice N; unimodular triangulations correspond to crepant resolutions,
and a coordinate-permutation symmetry acts on everything.  The symmetric
triangulation is built once per symmetry from one fundamental domain,
triangulated with all of its lattice points, and its images around one
invariant core triangle; ``audit_triangulation`` checks it, or a loaded one
in any dimension, and names a witness for every failure.  The orbit-sum
evaluator computes the Lefschetz number of the symmetry on the resolution
as a sum of det(I - sigma) terms, one per maximal invariant face, each read
off the cycle types of the symmetry and the face.

All geometry is exact and runs on integers.  A ``LatticePair`` is D, the
lattice denominator (N lies in (1/D)Z^n), with the integer rows D*b of a
basis b of N; one Smith form of the generators scaled by D gives that basis,
its inverse and |N/M| at once.  N/M is held once as the set of residues
D*x mod D of its elements, and the points of N on the base simplex are the
residues of coordinate sum D together with the unit points.  A
``Triangulation`` holds each vertex x as the integer tuple scale*x: the
scale is D once built and the lcm of the denominators once read from a
document, and no check assumes it is D.  A positive scale keeps the
lexicographic order and commutes with coordinate permutations.  These
integer cells are the only faces.  Fractions appear only in views and
reports, never in a check or a sum: ``LatticePair.base_points``, the faces
of the record view ``orbit_records`` and report volumes.  Documents and
failure witnesses write each coordinate as an integer or ``p/q``.

A maximal simplex of the base simplex has its vertices at height one
(coordinate sum one), so its normalized volume is |det V| * |N/M| for the
matrix V of its vertices; scaled by D this is an integer identity.  Every
other lattice question takes one integer Smith form of N-coordinates, whose
invariant factors multiply to a sublattice index or a lower dimensional
volume.  One such volume, of the simplex on per-cycle vertex averages
(integer once scaled by the lcm of the cycle lengths), is the fixed-locus
volume of a report and judges an invariant face standard when it is
1/prod(lengths).  A point is in a simplex when it is in its span and the
simplices with it in place of one vertex sum to the whole.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import re
from functools import cached_property
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from typing import Callable, Optional, Sequence

from .exactmath import (
    IntMat,
    LatticeError,
    Record,
    _bareiss_det,
    _json_int,
    _smith_invariants,
    permutation_cycles,
    smith_normal_form,
)

__all__ = [
    "LatticePair",
    "PermSymmetry",
    "Triangulation",
    "OrbitRecord",
    "build_lattice_pair",
    "adjusted_triangulation",
    "verify_crepant",
    "verify_adjusted",
    "toric_lefschetz",
    "orbit_records",
    "block_det",
    "count_fixed_elements",
    "fixed_sublattice_index",
    "audit_triangulation",
    "symmetry_report",
    "triangulation_to_document",
    "triangulation_from_document",
    "NotSpecialLinear",
    "UnsupportedDimension",
    "NotInvariant",
    "NotInvariantTriangulation",
]

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]  # a point x scaled by the lattice denominator D: D*x


class NotSpecialLinear(ValueError):
    """Generator exponents do not sum to zero modulo the modulus."""


class UnsupportedDimension(ValueError):
    """Triangulation construction is only available in dimensions 2 and 3."""


class NotInvariant(ValueError):
    pass


class NotInvariantTriangulation(ValueError):
    pass


# ---------------------------------------------------------------------------
# lattice pairs


class LatticePair(Record):
    """Sublattice M = Z^n inside an overlattice N with N/M the quotient group.

    N is spanned by M together with vectors a/m for the given generator pairs
    (a, m); every generator satisfies sum(a) = 0 mod m, so coordinate sums
    stay integral on N, the lattice counterpart of acting through the special
    linear torus.  N lies in (1/scale)Z^n, and ``basis`` holds the integer
    rows scale*b of a basis b of N.
    """

    n: int
    generators: tuple[tuple[tuple[int, ...], int], ...]
    scale: int  # D, the lattice denominator
    basis: tuple[IntVec, ...]
    order: int  # index of M in N

    def _cached(self, name: str, compute):
        """The value kept on the instance under ``name``, computed once."""
        value = self.__dict__.get(name)
        if value is None:
            value = self.__dict__[name] = compute()
        return value

    def basis_inverse(self) -> list[list[int]]:
        """Inverse of the basis matrix: its rows are the N-coordinates of the
        unit vectors, so it is integral because M = Z^n lies in N.  It comes
        from the Smith form that ``build_lattice_pair`` takes."""

        def missing():
            raise LatticeError("the basis inverse is known only for a pair from build_lattice_pair")

        return self._cached("_binv", missing)

    def residues(self) -> frozenset[IntVec]:
        """N/M as the residues D*x mod D of its elements, D the scale.

        Found by breadth-first search from zero over the residues of the
        generators.  Raises LatticeError when a generator is not in
        (1/D)Z^n or the search does not find ``order`` residues.
        """

        def compute():
            d = self.scale
            steps = []
            for vec, m in self.generators:
                if any(a * d % m for a in vec):
                    raise LatticeError(f"generator {vec}/{m} is not in (1/{d})Z^{self.n}")
                steps.append(tuple(a * d // m % d for a in vec))
            zero = (0,) * self.n
            seen, frontier = {zero}, [zero]
            while frontier:
                nxt = []
                for r in frontier:
                    for g in steps:
                        s = tuple((x + y) % d for x, y in zip(r, g))
                        if s not in seen:
                            seen.add(s)
                            nxt.append(s)
                frontier = nxt
            if len(seen) != self.order:
                raise LatticeError(
                    f"the generators give {len(seen)} elements of N/M, not the order {self.order}"
                )
            return frozenset(seen)

        return self._cached("_residues", compute)

    def contains(self, y: IntVec, scale: int) -> bool:
        """Whether x = y/scale is in N: D*x is integral, its residue in N/M."""
        d = self.scale
        if any(a * d % scale for a in y):
            return False  # not in (1/D)Z^n
        return tuple(a * d // scale % d for a in y) in self.residues()

    def scaled_base_points(self) -> list[IntVec]:
        """D*x for the points x of N on the base simplex, in lexicographic order.

        Such a D*x is a nonnegative integer vector of coordinate sum D, so it
        is its own residue, unless it is a multiple of D: a unit point.
        """
        d = self.scale
        return sorted([r for r in self.residues() if sum(r) == d] + _units(self.n, d))

    def base_points(self) -> list[Vec]:
        """All points of N on the base simplex, in lexicographic order."""
        d = self.scale
        return [tuple(Fraction(c, d) for c in y) for y in self.scaled_base_points()]


def _units(n: int, d: int) -> list[IntVec]:
    """The unit points e_i scaled by d."""
    return [tuple(d * int(i == j) for j in range(n)) for i in range(n)]


def build_lattice_pair(n: int, generators: Sequence[tuple[Sequence[int], int]]) -> LatticePair:
    """Overlattice of Z^n spanned by the given (exponent vector, modulus) pairs.

    D is the lcm of the reduced denominators m/gcd(a_i, m) of the generator
    entries.  One Smith form U K V = S of the rows D*e_i and D*a/m, with
    invariants s_1..s_n, gives everything: K = U^-1 S V^-1 spans the same
    rows as diag(s) V^-1, the basis at scale D; N/M has order D^n/prod(s);
    and the basis inverse is V diag(D/s_i), integral because each s_i
    divides D (H. Cohen, A Course in Computational Algebraic Number Theory,
    1993, section 2.4).
    """
    if n < 1:
        raise ValueError(f"lattice n must be at least 1, not {n}")
    gens = []
    for vec, m in generators:
        vec = tuple(int(v) for v in vec)
        if len(vec) != n or m < 1:
            raise ValueError(f"generator {vec}@{m} needs {n} exponents and a modulus m >= 1")
        if sum(vec) % m != 0:
            raise NotSpecialLinear(f"exponents {vec} do not sum to 0 mod {m}")
        gens.append((vec, int(m)))
    d = lcm(*(m // gcd(a, m) for vec, m in gens for a in vec))
    rows = _units(n, d) + [[a * d // m for a in vec] for vec, m in gens]
    _, S, V = smith_normal_form(IntMat.from_rows(rows))
    s = [S.get(k, k) for k in range(n)]
    if not all(s) or any(d % x for x in s) or d**n % prod(s):
        raise LatticeError(f"invariants {s} do not give an overlattice of Z^{n} in (1/{d})Z^{n}")
    vinv = V.inverse_unimodular()
    basis = tuple(tuple(s[k] * x for x in vinv.row(k)) for k in range(n))
    lp = LatticePair(n, tuple(gens), d, basis, d**n // prod(s))
    lp._cached("_binv", lambda: [[d // s[k] * x for k, x in enumerate(V.row(i))] for i in range(n)])
    return lp


# ---------------------------------------------------------------------------
# permutation symmetries


class PermSymmetry(Record):
    """Coordinate permutation acting on points by (sigma x)_i = x at the preimage."""

    perm: tuple[int, ...]  # images: coordinate i moves to position perm[i]

    def _post_init(self):
        perm = self.perm
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation")
        inverse = sorted(range(len(perm)), key=perm.__getitem__)  # (sigma x)_j = x_inverse[j]
        self.__dict__["_image"] = operator.itemgetter(*inverse) if len(perm) > 1 else tuple

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> PermSymmetry:
        return PermSymmetry(tuple(range(n)))

    @staticmethod
    def from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> PermSymmetry:
        """The product of disjoint cycles; ValueError names a repeated or out-of-range index."""
        images, seen = list(range(n)), set()
        for cyc in cycles:
            for i, a in enumerate(cyc):
                if not 0 <= a < n:
                    raise ValueError(f"index {a} is out of range for {n} coordinates")
                if a in seen:
                    raise ValueError(f"index {a} repeats in the cycles {list(map(tuple, cycles))}")
                seen.add(a)
                images[a] = cyc[(i + 1) % len(cyc)]
        return PermSymmetry(tuple(images))

    def apply(self, x: Vec) -> Vec:
        return self._image(x)

    def cycles(self) -> list[tuple[int, ...]]:
        return permutation_cycles(self.perm)

    @property
    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def preserves(self, lp: LatticePair) -> bool:
        return all(lp.contains(self.apply(y), lp.scale) for y in lp.basis)


# ---------------------------------------------------------------------------
# simplices and triangulations


class Triangulation(Record):
    """Set of maximal simplices on the integer points scale*x of their
    vertices x.  ``cells`` are the simplices as sorted tuples of points, in
    sorted order; a simplex given twice stays twice, for verification to
    report."""

    scale: int
    cells: tuple[tuple[IntVec, ...], ...]

    def _post_init(self):
        self.__dict__["cells"] = tuple(sorted(tuple(sorted(c)) for c in self.cells))

    @cached_property
    def vertex_set(self) -> tuple[IntVec, ...]:
        return tuple(sorted({y for c in self.cells for y in c}))

    def _invariant_faces(self, sym: PermSymmetry) -> list[tuple[IntVec, ...]]:
        """``_maximal_invariant_faces`` of the cells, found once per symmetry."""
        found = self.__dict__.setdefault("_faces", {})
        if sym not in found:
            found[sym] = _maximal_invariant_faces(self.cells, sym)
        return found[sym]


# ---------------------------------------------------------------------------
# lattice geometry helpers


def _lattice_coords(binv: Sequence[Sequence[int]], y: Sequence[int]) -> list[int]:
    """N-coordinates of an integer vector y, from the basis inverse."""
    return [sum(a * row[j] for a, row in zip(y, binv)) for j in range(len(binv))]


def _saturation_index(lp: LatticePair, rows: Sequence[Sequence[int]]) -> int:
    """Index of the lattice spanned by independent integer vectors in its
    saturation, N intersected with their span; 0 when they are dependent.

    It is the product of the Smith invariants of the vectors' N-coordinates.
    """
    binv = lp.basis_inverse()
    invariants = _smith_invariants([_lattice_coords(binv, y) for y in rows])
    return prod(invariants) if len(invariants) == len(rows) else 0


def _volume(points: Sequence[IntVec], scale: int, lp: LatticePair) -> Fraction:
    """Normalized volume of the simplex on the integer points divided by
    ``scale``: the saturation index of its d edges over scale^d, 0 when they
    are dependent, and 1 for a single point."""
    edges = [[a - b for a, b in zip(v, points[0])] for v in points[1:]]
    return Fraction(_saturation_index(lp, edges), scale ** len(edges))


# ---------------------------------------------------------------------------
# planar triangulation machinery (the base simplex in dimension 3 is a polygon)


def _orient(a: Vec, b: Vec, c: Vec) -> int:
    """Sign of the turn a, b, c in the base plane, read in the affine chart
    that drops the last coordinate."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _point_in_triangle(p: IntVec, tri: tuple[IntVec, IntVec, IntVec]) -> str:
    """'in', 'edge', or 'out' (exact); a degenerate triangle holds nothing."""
    a, b, c = tri
    s = _orient(a, b, c)
    sides = (_orient(a, b, p), _orient(b, c, p), _orient(c, a, p))
    if s == 0 or -s in sides:
        return "out"
    return "edge" if 0 in sides else "in"


def _insert_points(
    triangles: list[tuple[IntVec, IntVec, IntVec]], points: Sequence[IntVec]
) -> tuple[list[tuple[IntVec, IntVec, IntVec]], dict[frozenset, list[tuple]]]:
    """Incremental insertion into a planar triangulation of the distinct
    points that lie in its triangles; the triangles and the edge map.

    Each point either splits its containing triangle into three or splits the
    one or two triangles adjacent to the edge it lies on (the edge whose line
    holds it: a point on the boundary of a triangle, not a vertex, is on one
    edge line only).  Inserting every lattice point of the region leaves only
    empty lattice triangles, which in a planar lattice have normalized area
    one.  ``_walk`` finds a point from the first piece of the last split in
    the given triangle that holds it.  The result is in list order: pieces
    replace their triangle in place, and a split edge is directed as in the
    earlier of its triangles, so each triangle holds the places [label,
    label + 2^e), which its pieces cut in four, once per point at most.
    """
    top = 2 * len(points)
    place, edges = {}, {}  # triangle -> (label, e), edge -> the triangles on it

    def add(t, label, e):
        place[t] = (label, e)
        for e in itertools.combinations(t, 2):
            edges.setdefault(frozenset(e), []).append(t)

    for k, t in enumerate(triangles):
        add(t, k << top, top)
    last = list(triangles)  # the first piece of the last split inside each given one
    for p in points:
        k = next((k for k, t in enumerate(triangles) if _point_in_triangle(p, t) != "out"), None)
        if k is None or p in triangles[k]:  # a vertex already
            continue
        where, t = _walk(p, last[k], edges)
        if where == "in":
            a, b, c = t
            splits = [(t, [(a, b, p), (b, c, p), (c, a, p)])]
        else:
            edge = frozenset(next(e for e in itertools.combinations(t, 2) if _orient(*e, p) == 0))
            users = sorted(edges[edge], key=place.__getitem__)
            e0, e1 = next(e for e in itertools.pairwise(users[0] + users[0][:1]) if set(e) == edge)
            splits = [(u, [(e0, p, o), (e1, p, o)]) for u in users for o in set(u) - {e0, e1}]
        for t, pieces in splits:
            label, e = place.pop(t)
            for edge in itertools.combinations(t, 2):
                edges[frozenset(edge)].remove(t)
            for i, piece in enumerate(pieces):
                add(piece, label + (i << (e - 2)), e - 2)
            last[label >> top] = pieces[0]
    return sorted(place, key=place.__getitem__), edges


def _walk(p: IntVec, t: tuple, edges: dict[frozenset, list[tuple]]) -> tuple[str, tuple]:
    """Where p is in the triangle that holds it (``_point_in_triangle``), and
    that triangle, by the straight walk over the edge map from the centroid q
    of t (Devillers, Pion and Teillaud, "Walking in a triangulation", 2002)
    in a convex region that holds t and p.  A vertex on the line qp counts as
    left of it, as if the line moved right: the walk crosses only edges."""
    qx, qy, _ = map(sum, zip(*t))  # 3q: the sides are read at three times the scale
    dx, dy = 3 * p[0] - qx, 3 * p[1] - qy

    def left(y):
        return dx * (3 * y[1] - qy) >= dy * (3 * y[0] - qx)

    while (where := _point_in_triangle(p, t)) == "out":
        # leave t through the edge that the line crosses with p beyond it
        a, b, c = t
        edge = next((u, v) for u, v, w in ((a, b, c), (b, c, a), (c, a, b))
                    if left(u) != left(v) and _orient(u, v, p) == -_orient(u, v, w))
        t = next(s for s in edges[frozenset(edge)] if s is not t)
    return where, t


# ---------------------------------------------------------------------------
# adjusted triangulation construction


def adjusted_triangulation(
    lp: LatticePair, sym: PermSymmetry, insertion_order: str = "lex"
) -> Triangulation:
    """Symmetry-adjusted unimodular triangulation of the base simplex.

    A one-dimensional base is cut at every lattice point.  A base triangle is
    built from one fundamental domain of the symmetry and its invariant core
    (``_fundamental_domain``): the domain is triangulated with all of its
    lattice points, so every triangle is an empty lattice triangle and has
    normalized area one by Pick's theorem, and the symmetry maps the pieces
    around the core.  ``revlex`` inserts the points in reverse order and then
    flips one interior diagonal of the domain, which gives a second, distinct
    triangulation whenever the domain has one.  Raises UnsupportedDimension
    for n >= 4.
    """
    if lp.n < 2:
        raise UnsupportedDimension("base simplex needs dimension >= 2")
    if lp.n >= 4:
        raise UnsupportedDimension("construction is limited to dimensions 2 and 3")
    if not sym.preserves(lp):
        raise NotInvariant("symmetry does not preserve the lattice")

    reverse = insertion_order == "revlex"
    if insertion_order not in ("lex", "revlex"):
        raise ValueError("insertion_order must be 'lex' or 'revlex'")

    d = lp.scale
    pts = sorted(lp.scaled_base_points(), reverse=reverse)
    if lp.n == 2:
        return Triangulation(d, zip(pts, pts[1:]))

    polygon, core = _fundamental_domain(pts, sym, d)
    # repeated vertices mark sides that have shrunk to a point
    domain = [v for k, v in enumerate(polygon) if v != polygon[k - 1]]
    if len(domain) == 4 and _orient(*domain[:3]) != _orient(domain[0], *domain[2:]):
        # cut the quadrilateral along the diagonal that runs inside it
        domain = domain[1:] + domain[:1]
    tris = [(domain[0], domain[t], domain[t + 1]) for t in range(1, len(domain) - 1)]
    tris, edges = _insert_points(tris, pts)
    if reverse:
        tris = _flip_one_diagonal(tris, edges)
    return _orbit_triangulation(tris, sym, core, d)


def _fundamental_domain(
    pts: Sequence[IntVec], sym: PermSymmetry, d: int
) -> tuple[list[IntVec], list[tuple[IntVec, ...]]]:
    """A fundamental domain of the symmetry on the base triangle T (a polygon
    in cyclic order, given the lattice points ``pts`` of T scaled by the
    denominator d) and the invariant core triangle, if any, that the domain
    and its images surround.

    - Identity: T, no core.
    - Reflection in the line x_i = x_j through e_k: the half on the side of
      e_i less the core (w, p, sigma p), for w the lowest lattice point of
      the mirror and p the lattice point of the side e_i e_j nearest the
      mirror.  If the midpoint of that side is in N, w = p is the midpoint
      and there is no core.  Else the core has area one: for a lattice
      vector g of height one above the side, g + sigma g is an invariant
      vector of height two, so the lattice points of the mirror (e_k among
      them) come every one or two heights; missing height zero, they come
      every two, and w lies at height one above the unit segment (sigma p, p).
    - Rotation of order three about the centre c: the quadrilateral
      (w, v, rho v, rho w) for w the lattice point nearest c and v the corner
      of the largest coordinate of w; the core is the orbit triangle of w
      unless w = c.  The rotation keeps the Euclidean metric of the base
      plane, so the lattice is hexagonal and a centre c outside N is the
      centre of an area-one lattice triangle, which lies inside T (the next
      lattice points from c are twice as far, so the corners of T are the
      core or the inscribed circle of T holds it).  As seen from c, w lies
      within 60 degrees of v, so the segment w v meets the core in w alone
      and its images cut the ring around the core into three copies of the
      domain.  If w lies on a side of T, the copies are the corner triangles
      (w, corner, rho w).
    """
    e = _units(3, d)
    if sym.order == 1:
        return e, []
    if sym.order == 2:
        (i, j) = next(c for c in sym.cycles() if len(c) == 2)
        k = 3 - i - j
        w = min((q for q in pts if q[i] == q[j]), key=lambda q: q[k])
        p = min((q for q in pts if q[k] == 0 and q[i] >= q[j]), key=lambda q: q[i])
        core = [] if p == w else [(w, p, sym.apply(p))]
        return [e[i], p, w, e[k]], core
    # squared distance to the centre (d/3, d/3, d/3), times nine
    w = min(pts, key=lambda q: (sum((3 * a - d) ** 2 for a in q), q))
    core = [] if all(3 * a == d for a in w) else [(w, sym.apply(w), sym.apply(sym.apply(w)))]
    if w.count(0) == 1:
        z = w.index(0)
        return [w, e[sym.perm[sym.perm[z]]], sym.apply(w)], core
    v = e[w.index(max(w))]
    return [w, v, sym.apply(v), sym.apply(w)], core


def _orbit_triangulation(tris, sym: PermSymmetry, core, d: int) -> Triangulation:
    """The invariant core simplices, then each triangle with its images under
    the symmetry, each simplex once, on the points d*x."""
    orbit = [tris]
    for _ in range(sym.order - 1):
        orbit.append([tuple(map(sym.apply, t)) for t in orbit[-1]])
    return Triangulation(d, {tuple(sorted(t)) for t in itertools.chain(core, *orbit)})


def _flip_one_diagonal(
    tris: list[tuple[IntVec, IntVec, IntVec]], edges: dict[frozenset, list[tuple]]
) -> list[tuple[IntVec, IntVec, IntVec]]:
    """Flip the first strictly convex interior diagonal, if any: that of the
    least pair (i, j), i < j, of triangles in list order on one edge of the
    edge map.  Flipping preserves vertices, areas, and emptiness of lattice
    triangles, so it turns one unimodular triangulation of a region into another."""
    index = {t: k for k, t in enumerate(tris)}
    pairs = ((*sorted(map(index.get, ts)), *sorted(e)) for e, ts in edges.items() if len(ts) == 2)
    for i, j, a, b in sorted(pairs):
        (c,), (d,) = set(tris[i]) - {a, b}, set(tris[j]) - {a, b}
        if _orient(a, b, c) * _orient(a, b, d) < 0 and _orient(c, d, a) * _orient(c, d, b) < 0:
            return [t for k, t in enumerate(tris) if k not in (i, j)] + [(c, d, a), (c, d, b)]
    return tris


# ---------------------------------------------------------------------------
# verification


class Certificate(Record):
    """The verdict of ``verify_crepant`` or ``verify_adjusted``: truthy
    exactly on a pass, with the number of simplices checked and one witness
    per failure, named as a document would name it."""

    ok: bool
    simplex_count: int
    failures: tuple[str, ...]

    def __bool__(self):
        return self.ok


def verify_crepant(tri: Triangulation, lp: LatticePair) -> Certificate:
    """Check that a triangulation of the base simplex induces a crepant resolution.

    The certificate is linear in the number of simplices and uses integer
    determinants only.  With D the lattice denominator and V the matrix of a
    simplex's vertices, it checks:

    - every vertex lies on the base simplex and, once per distinct vertex,
      in the overlattice N;
    - every simplex has dimension n - 1;
    - every simplex is unimodular: |det(D V)| * |N/M| = D^n;
    - the normalized volumes sum to |N/M|, the volume of the base simplex;
    - facet pairing: a facet on the boundary of the base simplex (its
      vertices share a zero coordinate) belongs to exactly one simplex, any
      other facet to exactly two, whose opposite vertices lie strictly on
      opposite sides of it (read from the signs of the same determinants).

    Why this suffices: crossing an interior facet, one simplex ends where its
    partner begins, so the number of simplices covering a generic point is
    the same on both sides.  That covering degree is therefore constant on
    the base simplex, and the volume sum forces it to be one: the simplices
    tile the base simplex face to face.  Non-face-to-face contacts cannot
    occur either: a unimodular simplex holds no lattice point besides its
    vertices, so no vertex can lie inside another simplex's edge.  The
    checks hold at any scale of the points, which need not be D.  Every
    failure names its witness as a document would.  A pass is kept on the
    triangulation as the certificate for ``lp`` that ``verify_adjusted`` reads.
    """
    failures = []
    n = lp.n
    scale, cells = tri.scale, tri.cells
    for y in tri.vertex_set:
        outside = not (len(y) == n and sum(y) == scale and min(y) >= 0)
        if outside or not lp.contains(y, scale):
            kind = "outside the base simplex" if outside else "not in the overlattice"
            failures.append(f"vertex {_witness(y, scale)} {kind}")
    for c in cells:
        if len(c) != n:
            failures.append(f"simplex {_witness(c, scale)} has dimension {len(c) - 1}")

    if not failures:
        # normalized volumes are |det| * |N/M| / full; sum their numerators
        full = scale**n
        dets = list(map(_bareiss_det, cells))
        for c, det in zip(cells, dets):
            vol = abs(det) * lp.order
            if det == 0:
                failures.append(f"degenerate simplex {_witness(c, scale)}")
            elif vol != full:
                failures.append(f"simplex {_witness(c, scale)} has normalized volume {Fraction(vol, full)}")
        numerators = sum(map(abs, dets)) * lp.order
        if numerators != lp.order * full:
            failures.append(f"volumes sum to {Fraction(numerators, full)}, expected {lp.order}")
        if all(dets):
            failures.extend(_facet_pairing_failures(tri, dets, n))
    if not failures:
        tri.__dict__.setdefault("_unimodular", set()).add(lp)
    return Certificate(ok=not failures, simplex_count=len(cells), failures=tuple(failures))


def _facet_pairing_failures(tri: Triangulation, dets: Sequence[int], n: int) -> list[str]:
    """Facets used the wrong number of times or paired on one side, given
    the determinant of every cell.

    Dropping vertex k from a simplex with sorted vertices leaves its facet in
    sorted order; moving row k of the vertex matrix to the end takes
    n - 1 - k transpositions, so the side of the opposite vertex relative to
    the facet is the determinant's sign times (-1)^(n-1-k).
    """
    cells = tri.cells
    uses: dict[tuple[IntVec, ...], list[tuple[int, int]]] = {}
    for idx, (vs, det) in enumerate(zip(cells, dets)):
        sign = 1 if det > 0 else -1
        for k in range(len(vs)):
            side = sign if (n - 1 - k) % 2 == 0 else -sign
            uses.setdefault(vs[:k] + vs[k + 1 :], []).append((idx, side))
    failures = []
    for facet, users in uses.items():
        boundary = 0 in map(sum, zip(*facet))  # the vertices are nonnegative
        kind, want = ("boundary", 1) if boundary else ("interior", 2)
        if len(users) == want and (boundary or users[0][1] != users[1][1]):
            continue
        owners = [_witness(cells[i], tri.scale) for i, _ in users]
        named = _witness(facet, tri.scale)
        if len(users) != want:
            failures.append(
                f"{kind} facet {named} is shared by {len(users)} simplices, expected {want}: "
                f"{', '.join(owners)}"
            )
        else:
            failures.append(
                f"simplices {owners[0]} and {owners[1]} lie on the same side of their facet {named}"
            )
    return failures


# ---------------------------------------------------------------------------
# orbit records, the Lefschetz sum and standard faces


class OrbitRecord(Record):
    """Torus orbit of a maximal invariant face f: the face, the rank n - |f|
    of N modulo the saturated span of f, and det(I - A_f) for the action A_f
    there, whose characteristic polynomial is prod(t^l_i - 1) over the cycles
    of the symmetry divided by prod(t^k_j - 1) over the vertex cycles of f."""

    face: tuple[Vec, ...]  # the rational vertices y/scale, in sorted order
    quotient_rank: int
    contribution: int


def _vertex_cycles(face: tuple[IntVec, ...], image: Callable) -> list[tuple[int, ...]]:
    """Cycles of the vertex map image on an invariant face, as positions in it."""
    index = {y: i for i, y in enumerate(face)}
    return permutation_cycles([index.get(image(y)) for y in face])


def orbit_records(tri: Triangulation, lp: LatticePair, sym: PermSymmetry) -> list[OrbitRecord]:
    """Orbit record for every maximal invariant face, the faces that carry
    the Lefschetz sum (``toric_lefschetz``), in sorted order: the record
    view of the terms that the sum adds up."""
    return [
        OrbitRecord(tuple(tuple(Fraction(a, tri.scale) for a in y) for y in f), lp.n - len(f), c)
        for f, c in _face_terms(tri, lp, sym)
    ]


def _face_terms(tri: Triangulation, lp: LatticePair, sym: PermSymmetry):
    """(f, det(I - A_f)) for every maximal invariant face f, in sorted order,
    once the symmetry is checked to map the triangulation to itself
    (NotInvariantTriangulation) and to keep every basis vector of N
    (NotInvariant names the first one that it maps out of N)."""
    image = {y: sym.apply(y) for y in tri.vertex_set}
    have = set(tri.cells)
    if not all(tuple(sorted(image[y] for y in key)) in have for key in tri.cells):
        raise NotInvariantTriangulation("symmetry does not map the triangulation to itself")
    for y in lp.basis:
        if not lp.contains(sym.apply(y), lp.scale):
            named = _witness(y, lp.scale)
            raise NotInvariant(f"symmetry maps the basis vector {named} out of the lattice")
    ls = [len(c) for c in sym.cycles()]
    return ((f, _face_contribution(f, ls, image.get)) for f in tri._invariant_faces(sym))


def _face_contribution(face: tuple, lengths: Sequence[int], image: Callable) -> int:
    """det(I - A_f) of an invariant face f from the cycle lengths of the
    symmetry and its vertex map image (``toric_lefschetz``)."""
    ks = [len(c) for c in _vertex_cycles(face, image)]
    return prod(lengths) // prod(ks) if len(ks) == len(lengths) else 0


def _det_one_minus(a: IntMat) -> int:
    """det(I - A) for a square integer matrix A (1 for the empty matrix)."""
    n = a.rows
    diff = [[int(i == j) - a.get(i, j) for j in range(n)] for i in range(n)]
    return IntMat.from_rows(diff).det()


def toric_lefschetz(tri: Triangulation, lp: LatticePair, sym: PermSymmetry) -> int:
    """Lefschetz number of the symmetry on the induced crepant resolution.

    The sum of det(I - A_f) over the invariant faces f, A_f the action on N
    modulo the saturated span of f.  The vertices of f are independent and
    permuted, so over Q the characteristic polynomial of the symmetry on N,
    prod(t^l_i - 1) over its cycles, is prod(t^k_j - 1) over the vertex
    cycles of f times that of A_f.  Cancelling one t - 1 per cycle at t = 1
    gives det(I - A_f) = prod(l_i) / prod(k_j) when f has as many cycles as
    the symmetry, and 0 when it has fewer.  The cycles of f sum to
    independent fixed vectors, so f has no more cycles than the symmetry and
    fewer than any invariant face that holds it: the sum runs over the
    maximal invariant faces alone, the empty face adds 0, and each term is
    an integer read off an integer face of the cells, with no Fraction and
    no Smith form (``orbit_records`` lists the same terms as records).

    NotInvariant: the symmetry maps N off itself, even if every invariant
    face is a cell.  ``toric --load`` never meets it: the unimodular cells of
    a crepant triangulation are bases of N, so a symmetry keeping one keeps N.

    Precondition: nondegenerate cells of n vertices, as ``verify_crepant``
    certifies; a cell on three collinear points counts 1, not 0.
    """
    return sum(c for _, c in _face_terms(tri, lp, sym))


def block_det(s: int) -> int:
    """det(I - A_s) for the s-by-s shift-with-negative-last-row block.

    Returns 0 for s = 1 (the degenerate single-coordinate block) and s + 1
    otherwise, the latter computed from the explicit matrix.
    """
    if s < 1:
        raise ValueError("block size must be positive")
    if s == 1:
        return 0
    rows = []
    for i in range(s - 1):
        rows.append([1 if j == i + 1 else 0 for j in range(s)])
    rows.append([-1] * s)
    return _det_one_minus(IntMat.from_rows(rows))


def count_fixed_elements(lp: LatticePair, sym: PermSymmetry) -> int:
    """Number of symmetry-fixed elements of the quotient group N/M."""
    return sum(1 for r in lp.residues() if sym.apply(r) == r)


def fixed_sublattice_index(lp: LatticePair, sym: PermSymmetry) -> int:
    """Index of M-in-the-fixed-subspace inside N-in-the-fixed-subspace."""
    # the cycle sums are a basis of M in the fixed subspace
    return _saturation_index(lp, [[int(i in cyc) for i in range(sym.n)] for cyc in sym.cycles()])


def _standard_face(
    face: tuple[IntVec, ...],
    pieces: Sequence[tuple[IntVec, ...]],
    sym: PermSymmetry,
    lp: LatticePair,
    scale: int,
) -> Certificate:
    """Is the invariant face standard?  The face and its pieces are tuples
    of points scaled to integers by ``scale``.

    - When the symmetry moves a vertex, the pieces inside the face (vertex
      set within the face's, or every vertex in it) must be permuted with
      none fixed, if there are several and the first has one vertex more
      than there are vertex cycles.
    - With k >= 2 vertex cycles of lengths l_i, the fixed locus spanned by
      the cycle averages must have volume 1/prod(l_i)
      (``_cycle_average_volume``).

    A failing verdict names the face and the test it fails.
    """

    def verdict(why=""):
        named = f"invariant face {_witness(face, scale)} is not standard: {why}"
        return Certificate(not why, len(pieces), (named,) if why else ())

    cycles = _vertex_cycles(face, sym.apply)
    lengths = [len(cyc) for cyc in cycles]
    if max(lengths) > 1:
        members = set(face)
        inside = [
            s for s in pieces if set(s) <= members or all(_in_simplex(y, face, lp) for y in s)
        ]
        if len(inside) > 1 and len(inside[0]) == len(cycles) + 1:
            have = set(inside)
            for s in inside:
                image = tuple(sorted(sym.apply(y) for y in s))
                if image not in have or image == s:
                    why = f"{_witness(s, scale)} maps to {'itself' if image == s else 'no piece'}"
                    return verdict(f"its pieces are not permuted with none fixed: {why}")
    if len(cycles) > 1:
        volume, want = _cycle_average_volume(face, cycles, lp, scale), Fraction(1, prod(lengths))
        if volume != want:
            return verdict(f"its fixed locus has volume {volume}, expected {want}")
    return verdict()


def _cycle_average_volume(
    points: Sequence[IntVec], cycles: Sequence[Sequence[int]], lp: LatticePair, scale: int
) -> Fraction:
    """Normalized volume of the simplex on the averages of the points (scaled
    to integers by ``scale``) over each cycle of indices; 1 for one cycle.

    With L the lcm of the cycle lengths, the averages scaled by L are integer
    points, so the volume is the saturation index of their d edges divided
    by (scale * L)^d; it is 0 when they are dependent.
    """
    big = lcm(*map(len, cycles))
    averages = [
        [big // len(cyc) * sum(col) for col in zip(*(points[i] for i in cyc))] for cyc in cycles
    ]
    return _volume(averages, scale * big, lp)


def _in_simplex(p: IntVec, simplex: Sequence[IntVec], lp: LatticePair) -> bool:
    """Whether the integer point p lies in the closed, nondegenerate simplex.

    p lies in the affine span when the edges together with p - v_0 are
    dependent (saturation index 0).  Then the simplex with vertex i replaced
    by p has |lambda_i| times the lattice volume of the whole, lambda the
    barycentric coordinates of p, which sum to one; so these volumes sum to
    the whole exactly when every lambda_i >= 0.
    """
    if _volume((*simplex, p), 1, lp):
        return False
    parts = (_volume((*simplex[:i], p, *simplex[i + 1 :]), 1, lp) for i in range(len(simplex)))
    return sum(parts) == _volume(simplex, 1, lp)


def verify_adjusted(tri: Triangulation, lp: LatticePair, sym: PermSymmetry) -> Certificate:
    """Every maximal invariant face of the triangulation is standard, judged
    by ``_standard_face`` on scaled points with the simplices inside it.  A
    failure names the first face that is not, and the test it fails.

    A triangulation that ``verify_crepant`` has certified unimodular for
    ``lp`` needs no judgement for two kinds of face.  The vertices of a
    certified cell are a basis of N, so the edges of any of its faces are a
    primitive system: part of a basis of N.
    - A face whose vertices are all fixed, in any dimension: its fixed locus
      is the face itself, of volume 1 = 1/prod(1), and no vertex moves.
    - For n <= 3, an invariant cell: one vertex cycle, or a fixed v and a
      swapped pair u, w whose fixed locus has volume 1/2, as u + w - 2v is
      primitive.  Not so at n = 4: two 2-cycles give 1/2, not 1/4.
    """
    certified = lp in tri.__dict__.get("_unimodular", ())
    by_set: Optional[dict[frozenset, list[tuple[IntVec, ...]]]] = None
    for f in tri._invariant_faces(sym):
        if certified and ((lp.n <= 3 and len(f) == lp.n) or all(sym.apply(y) == y for y in f)):
            continue
        if by_set is None:  # the cells by vertex set, once a face is judged
            by_set = {}
            for key in tri.cells:
                by_set.setdefault(frozenset(key), []).append(key)
        # the simplices inside f have vertex sets among the subsets of f
        inside = sorted(s for sub in _subsets(f) for s in by_set.get(frozenset(sub), ()))
        verdict = _standard_face(f, inside, sym, lp, tri.scale)
        if not verdict:
            return Certificate(False, len(tri.cells), verdict.failures)
    return Certificate(True, len(tri.cells), ())


def _maximal_invariant_faces(simplices: Sequence[tuple], sym: PermSymmetry) -> list[tuple]:
    """The invariant faces of the simplices (given as sorted vertex tuples)
    contained in no larger one.

    A face is invariant when the symmetry permutes its vertices.  The
    vertices of a simplex whose whole orbit lies in that simplex span its
    largest invariant face, and every invariant face lies in one simplex, so
    the maximal invariant faces are the maximal sets among these, one per
    simplex at most.  Faces come as sorted vertex tuples, in sorted order:
    dropping vertices and taking combinations keep the order of a sorted
    simplex.  Only subsets of the sizes of smaller candidates can hide one,
    so only those are built: none when every candidate is a whole cell, as
    for the identity.
    """
    image = {v: sym.apply(v) for v in {v for s in simplices for v in s}}  # once per vertex
    largest = set()
    for s in simplices:
        # drop vertices whose image has left the face until none is dropped;
        # the symmetry has finite order, so a whole orbit stays
        keep = s
        while len(stay := tuple(v for v in keep if image[v] in keep)) < len(keep):
            keep = stay
        if keep:
            largest.add(keep)
    sizes = {len(g) for g in largest}
    smaller = {
        sub for g in largest for k in sizes if k < len(g) for sub in itertools.combinations(g, k)
    }
    return sorted(largest - smaller)


def _subsets(vertices: tuple) -> list[tuple]:
    """The nonempty subsets of a vertex tuple, each in the tuple's order."""
    return [sub for k in range(1, len(vertices) + 1) for sub in itertools.combinations(vertices, k)]


# ---------------------------------------------------------------------------
# the combined audit


def audit_triangulation(tri: Triangulation, lp: LatticePair, sym: PermSymmetry) -> dict:
    """Every symmetry invariant of a built or loaded triangulation: the
    crepancy check, the fixed quotient elements, the fixed-sublattice index
    and the fixed locus.  The Lefschetz number, the adjusted check and the
    authoritative equality lefschetz == fixed_count == sublattice_index need
    a crepant triangulation that the symmetry keeps, and are None without
    one.  ``failures`` names the witnesses of the two checks, then the three
    values when they differ."""
    rep = verify_crepant(tri, lp)
    fixed_count = count_fixed_elements(lp, sym)
    index = fixed_sublattice_index(lp, sym)
    failures = list(rep.failures)
    lef = adjusted = equal = None
    if rep:  # the sum over maximal invariant faces needs a crepant triangulation
        with contextlib.suppress(NotInvariantTriangulation):
            lef = toric_lefschetz(tri, lp, sym)
    if lef is not None:
        verdict = verify_adjusted(tri, lp, sym)
        adjusted, equal = bool(verdict), lef == fixed_count == index
        failures += verdict.failures
        if not equal:
            named = f"lefschetz {lef}, fixed_count {fixed_count}, sublattice_index {index}"
            failures.append(f"{named} are not equal")
    cycles = sym.cycles()
    cyc = [len(c) for c in cycles if len(c) > 1]
    # the fixed polytope: the simplex on the per-cycle barycenters
    vol = _cycle_average_volume(_units(lp.n, lp.scale), cycles, lp, lp.scale)
    weight = prod(cyc) * factorial(len(cyc))
    return {
        "dimension": lp.n,
        "group_order": lp.order,
        "cycle_lengths": cyc,
        "lefschetz": lef,
        "fixed_count": fixed_count,
        "sublattice_index": index,
        "crepant": bool(rep),
        "simplex_count": rep.simplex_count,
        "invariant_maximal_simplices": sum(1 for f in tri._invariant_faces(sym) if len(f) == lp.n),
        "adjusted": adjusted,
        "fixed_locus_volume": vol,
        "fixed_locus_zero_dimensional": len(cycles) == 1,
        "claim_one_value": vol * weight,
        "claim_two_value": Fraction(fixed_count, weight),
        "equal": equal,
        "failures": failures,
    }


def symmetry_report(lp: LatticePair, sym: PermSymmetry, insertion_order: str = "lex") -> dict:
    """``audit_triangulation`` of the adjusted triangulation, with it as ``triangulation``."""
    tri = adjusted_triangulation(lp, sym, insertion_order)
    return {**audit_triangulation(tri, lp, sym), "triangulation": tri}


# ---------------------------------------------------------------------------
# serialization


def _coordinate_text(a: int, scale: int) -> str:
    """The coordinate a/scale as an integer or as p/q in lowest terms."""
    g = gcd(a, scale)
    return str(a // g) if g == scale else f"{a // g}/{scale // g}"


def _witness(points, scale: int) -> str:
    """A point y as (a, p/q, ...), y/scale as a document writes it; points as a tuple of those."""
    if isinstance(points, int):
        return _coordinate_text(points, scale)
    return f"({', '.join(_witness(y, scale) for y in points)})"


def triangulation_to_document(tri: Triangulation, lp: LatticePair) -> dict:
    """Structured document for a triangulation; round-trips bit-exactly."""
    vertices = tri.vertex_set
    vindex = {y: i for i, y in enumerate(vertices)}
    return {
        "lattice": {
            "n": lp.n,
            "generators": [[list(vec), m] for vec, m in lp.generators],
        },
        "vertices": [",".join(_coordinate_text(a, tri.scale) for a in y) for y in vertices],
        "simplices": [[vindex[y] for y in c] for c in tri.cells],
    }


# an integer, or p/q with q > 0
_COORDINATE = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def triangulation_from_document(doc: dict) -> tuple[Triangulation, LatticePair]:
    """Inverse of triangulation_to_document.

    A ValueError names the first malformed entry: a missing or unknown key,
    a lattice that is not integers, a vertex that is not a string of n
    coordinates, each an integer or p/q with q > 0, or a simplex index
    outside 0 <= i < len(vertices).  The coordinates are read straight into integers
    at the lcm of their denominators.  The ``certificate`` block that earlier
    versions wrote is ignored.
    """
    for key in doc if isinstance(doc, dict) else ():
        if key not in ("lattice", "vertices", "simplices", "certificate"):
            raise ValueError(f"{key!r} is not a key of a triangulation document")
    lat = _document_entry(doc, "lattice", dict)
    for key in lat:
        if key not in ("n", "generators"):
            raise ValueError(f"{key!r} is not a key of the lattice of a triangulation document")
    n = _json_int(lat.get("n"), "lattice n")
    gens = []
    for g in _document_entry(lat, "generators", list):
        if not (isinstance(g, list) and len(g) == 2 and isinstance(g[0], list)):
            raise ValueError(f"lattice generator {g!r} is not a pair [exponents, modulus]")
        what = f"an entry of lattice generator {g!r}"
        gens.append(([_json_int(a, what) for a in g[0]], _json_int(g[1], what)))
    lp = build_lattice_pair(n, gens)
    coords = []
    for k, text in enumerate(_document_entry(doc, "vertices", list)):
        matches = [_COORDINATE.fullmatch(c) for c in text.split(",")] if isinstance(text, str) else []
        if len(matches) != n or None in matches:
            raise ValueError(
                f"vertex {k} {text!r} is not {n} coordinates, each an integer or p/q with q > 0"
            )
        coords.append([(int(m[1]), int(m[2] or 1)) for m in matches])
    scale = lcm(*(q for v in coords for _, q in v))
    points = [tuple(p * (scale // q) for p, q in v) for v in coords]
    cells = []
    for k, idx in enumerate(_document_entry(doc, "simplices", list)):
        if not isinstance(idx, list):
            raise ValueError(f"simplex {k} {idx!r} is not a list of vertex indices")
        for i in idx:
            if _json_int(i, f"index {i!r} of simplex {k}") not in range(len(points)):
                raise ValueError(f"index {i} of simplex {k} is not in 0 <= i < {len(points)}")
        cells.append([points[i] for i in idx])
    return Triangulation(scale, cells), lp


def _document_entry(record, key: str, kind: type):
    """record[key] of a triangulation document, which must be a ``kind``."""
    value = record.get(key) if isinstance(record, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"the triangulation document needs a JSON {kind.__name__} {key!r}")
    return value
