"""Lattice pairs from abelian quotient singularities and their symmetric
crepant triangulations.

The base simplex (the face of the unit simplex in the hyperplane where the
coordinates sum to one) is triangulated by simplices with vertices in the
overlattice N; unimodular triangulations correspond to crepant resolutions,
and a coordinate-permutation symmetry acts on everything.  The orbit-sum
evaluator computes the Lefschetz number of the symmetry on the resolution as
a sum of det(I - sigma) terms over invariant faces.

All geometry is exact: points are tuples of Fractions, and every test on a
maximal simplex is an integer determinant.  A maximal simplex of the base
simplex has its vertices at height one (coordinate sum one), so its
normalized volume is |det V| * |N/M| for the matrix V of its vertices; scaled
by the lattice denominator this is an integer identity.  Volumes of lower
dimensional faces go through integer normal forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .exactmath import (
    IntMat,
    LatticeError,
    _gauss_reduce,
    _solve_in_basis,
    lattice_index,
    row_lattice_basis,
    smith_normal_form,
)

__all__ = [
    "LatticePair",
    "PermSymmetry",
    "QSimplex",
    "Triangulation",
    "OrbitRecord",
    "StandardPair",
    "build_lattice_pair",
    "fixed_subspace",
    "standard_pair",
    "is_g_standard",
    "adjusted_triangulation",
    "verify_crepant",
    "verify_adjusted",
    "fixed_locus_of",
    "normalized_volume",
    "sublattice_in_subspace",
    "toric_lefschetz",
    "orbit_records",
    "block_det",
    "count_fixed_elements",
    "fixed_sublattice_index",
    "symmetry_report",
    "triangulation_to_document",
    "triangulation_from_document",
    "NotSpecialLinear",
    "UnsupportedDimension",
    "DegenerateOrbit",
    "NotInvariant",
    "NotInvariantTriangulation",
]

Vec = tuple[Fraction, ...]


class NotSpecialLinear(ValueError):
    """Generator exponents do not sum to zero modulo the modulus."""


class UnsupportedDimension(ValueError):
    """Triangulation construction is only available in dimensions 2 and 3."""


class DegenerateOrbit(RuntimeError):
    """No valid invariant core simplex exists for the requested symmetry."""


class NotInvariant(ValueError):
    pass


class NotInvariantTriangulation(ValueError):
    pass


def _vec(xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def _vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# lattice pairs


@dataclass(frozen=True)
class LatticePair:
    """Sublattice M = Z^n inside an overlattice N with N/M the quotient group.

    N is spanned by M together with vectors a/m for the given generator pairs
    (a, m); every generator satisfies sum(a) = 0 mod m, so coordinate sums
    stay integral on N, the lattice counterpart of acting through the special
    linear torus.
    """

    n: int
    generators: tuple[tuple[tuple[int, ...], int], ...]
    basis: tuple[Vec, ...]
    order: int  # index of M in N

    def basis_inverse(self) -> list[list[Fraction]]:
        cache = getattr(self, "_binv", None)
        if cache is None:
            k = self.n
            aug = [list(self.basis[i]) + [Fraction(int(i == j)) for j in range(k)] for i in range(k)]
            # invert by row reduction of [B | I]
            rows = [[aug[i][j] for j in range(2 * k)] for i in range(k)]
            _gauss_reduce(rows)
            cache = [[rows[i][k + j] for j in range(k)] for i in range(k)]
            object.__setattr__(self, "_binv", cache)
        return cache

    def coords(self, x) -> Optional[tuple[Fraction, ...]]:
        """Coordinates of a vector in the N basis (always defined, full rank)."""
        binv = self.basis_inverse()
        x = _vec(x)
        return tuple(
            sum(x[i] * binv[i][j] for i in range(self.n)) for j in range(self.n)
        )

    def contains(self, x) -> bool:
        return all(c.denominator == 1 for c in self.coords(x))

    def denominator(self) -> int:
        d = 1
        for row in self.basis:
            for v in row:
                d = lcm(d, v.denominator)
        return d

    def base_points(self) -> list[Vec]:
        """All points of N on the base simplex, in lexicographic order."""
        d = self.denominator()
        pts = []
        for comp in _compositions(d, self.n):
            x = tuple(Fraction(c, d) for c in comp)
            if self.contains(x):
                pts.append(x)
        return sorted(pts)

    def coset_representatives(self) -> list[Vec]:
        """Representatives of N/M in the half-open unit cube."""
        reps = {tuple(Fraction(0) for _ in range(self.n))}
        frontier = list(reps)
        gens = [tuple(Fraction(a, m) for a in vec) for vec, m in self.generators]
        while frontier:
            nxt = []
            for r in frontier:
                for g in gens:
                    s = tuple((x + y) % 1 for x, y in zip(r, g))
                    if s not in reps:
                        reps.add(s)
                        nxt.append(s)
            frontier = nxt
        return sorted(reps)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def build_lattice_pair(n: int, generators: Sequence[tuple[Sequence[int], int]]) -> LatticePair:
    """Overlattice of Z^n spanned by the given (exponent vector, modulus) pairs."""
    gens = []
    for vec, m in generators:
        vec = tuple(int(v) for v in vec)
        if len(vec) != n or m < 1:
            raise ValueError("generator shape mismatch")
        if sum(vec) % m != 0:
            raise NotSpecialLinear(f"exponents {vec} do not sum to 0 mod {m}")
        gens.append((vec, int(m)))
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for vec, m in gens:
        rows.append([Fraction(v, m) for v in vec])
    basis = [tuple(r) for r in row_lattice_basis(rows)]
    det = _det_fraction(basis)
    order = Fraction(1) / abs(det)
    if order.denominator != 1:
        raise LatticeError(f"overlattice covolume {abs(det)} is not the reciprocal of an index")
    return LatticePair(n, tuple(gens), tuple(basis), int(order))


def _det_fraction(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(rows)
    a = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = a[c][c]
        a[c] = [x / inv for x in a[c]]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


# ---------------------------------------------------------------------------
# permutation symmetries


@dataclass(frozen=True)
class PermSymmetry:
    """Coordinate permutation acting on points by (sigma x)_i = x at the preimage."""

    perm: tuple[int, ...]  # images: coordinate i moves to position perm[i]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation")

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> PermSymmetry:
        return PermSymmetry(tuple(range(n)))

    @staticmethod
    def from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> PermSymmetry:
        images = list(range(n))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                images[a] = cyc[(i + 1) % len(cyc)]
        return PermSymmetry(tuple(images))

    def apply(self, x: Vec) -> Vec:
        out = [None] * self.n
        for i, v in enumerate(x):
            out[self.perm[i]] = v
        return tuple(out)

    def cycles(self) -> list[tuple[int, ...]]:
        seen, out = set(), []
        for i in range(self.n):
            if i in seen:
                continue
            cyc = [i]
            j = self.perm[i]
            while j != i:
                cyc.append(j)
                j = self.perm[j]
            seen.update(cyc)
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    @property
    def order(self) -> int:
        out = 1
        for c in self.cycles():
            out = lcm(out, len(c))
        return out

    def matrix(self) -> IntMat:
        n = self.n
        return IntMat.from_rows(
            [[1 if self.perm[j] == i else 0 for j in range(n)] for i in range(n)]
        )

    def preserves(self, lp: LatticePair) -> bool:
        return all(lp.contains(self.apply(row)) for row in lp.basis)


def fixed_subspace(sym: PermSymmetry) -> list[Vec]:
    """Basis of the fixed subspace: one cycle-sum vector per cycle."""
    out = []
    for cyc in sym.cycles():
        out.append(tuple(Fraction(1 if i in cyc else 0) for i in range(sym.n)))
    return out


# ---------------------------------------------------------------------------
# simplices and triangulations


@dataclass(frozen=True)
class QSimplex:
    """Simplex with rational vertices, stored in sorted order."""

    vertices: tuple[Vec, ...]

    @staticmethod
    def of(*points) -> QSimplex:
        return QSimplex(tuple(sorted(_vec(p) for p in points)))

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def faces(self):
        """All nonempty faces, including the simplex itself."""
        vs = self.vertices
        for k in range(1, len(vs) + 1):
            for sub in itertools.combinations(vs, k):
                yield QSimplex(tuple(sub))

    def image(self, sym: PermSymmetry) -> QSimplex:
        return QSimplex(tuple(sorted(sym.apply(v) for v in self.vertices)))

    def centroid(self) -> Vec:
        k = len(self.vertices)
        return tuple(sum(col, Fraction(0)) / k for col in zip(*self.vertices))


@dataclass(frozen=True)
class Triangulation:
    """Set of maximal simplices, plus an optional coarse certificate.

    The certificate is a coarser triangulation whose invariant simplices are
    standard, together with the index of the coarse simplex containing each
    fine one.
    """

    simplices: tuple[QSimplex, ...]
    coarse: Optional[tuple[QSimplex, ...]] = None
    coarse_assignment: Optional[tuple[int, ...]] = None

    @staticmethod
    def of(simplices, coarse=None, coarse_assignment=None) -> Triangulation:
        return Triangulation(
            tuple(sorted(simplices, key=lambda s: s.vertices)),
            tuple(coarse) if coarse is not None else None,
            tuple(coarse_assignment) if coarse_assignment is not None else None,
        )

    @property
    def vertex_set(self) -> tuple[Vec, ...]:
        return tuple(sorted({v for s in self.simplices for v in s.vertices}))

    def all_faces(self) -> list[QSimplex]:
        seen = {}
        for s in self.simplices:
            for f in s.faces():
                seen[f.vertices] = f
        return [seen[k] for k in sorted(seen)]

    def is_symmetric(self, sym: PermSymmetry) -> bool:
        have = {s.vertices for s in self.simplices}
        return all(s.image(sym).vertices in have for s in self.simplices)


# ---------------------------------------------------------------------------
# lattice geometry helpers


def _integer_kernel_rows(a: IntMat) -> list[list[int]]:
    """Basis rows of the left kernel {c : c*a = 0} inside Z^rows."""
    U, D, _ = smith_normal_form(a)
    out = []
    for i in range(a.rows):
        d = D.get(i, i) if i < min(D.rows, D.cols) else 0
        if d == 0:
            out.append(list(U.row(i)))
    return out


def _rational_nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {y : rows . y = 0} over the rationals (column vectors as rows)."""
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    a = [list(map(Fraction, r)) for r in rows]
    _gauss_reduce(a)
    pivots = []
    for r in a:
        lead = next((k for k in range(n) if r[k] != 0), None)
        if lead is not None:
            pivots.append(lead)
    free = [j for j in range(n) if j not in pivots]
    out = []
    for j in free:
        y = [Fraction(0)] * n
        y[j] = Fraction(1)
        for r in a:
            lead = next((k for k in range(n) if r[k] != 0), None)
            if lead is not None:
                y[lead] = -r[j]
        out.append(y)
    return out


def sublattice_in_subspace(lp: LatticePair, span_rows: Sequence[Vec]) -> list[Vec]:
    """Basis of the lattice N intersected with a rational subspace."""
    n = lp.n
    span = [list(map(Fraction, r)) for r in span_rows]
    if not span:
        return []
    complement = _rational_nullspace(span)
    if not complement:
        return [tuple(r) for r in lp.basis]
    cols = []
    den = 1
    for y in complement:
        col = []
        for i in range(n):
            v = sum(lp.basis[i][j] * y[j] for j in range(n))
            col.append(v)
            den = lcm(den, v.denominator)
        cols.append(col)
    mat = IntMat.from_rows(
        [[int(cols[k][i] * den) for k in range(len(cols))] for i in range(n)]
    )
    kernel = _integer_kernel_rows(mat)
    out = []
    for c in kernel:
        out.append(tuple(sum(Fraction(c[i]) * lp.basis[i][j] for i in range(n)) for j in range(n)))
    return out


def normalized_volume(vertices: Sequence[Vec], lp: LatticePair) -> Fraction:
    """Volume of a simplex relative to the lattice induced by N on its span.

    This is the lattice-normalized volume: the number of fundamental cells of
    the induced lattice in the edge parallelepiped.  Zero-dimensional
    simplices get volume one by convention.  A maximal simplex of the base
    simplex takes the determinant route of ``_height_one_volume``; lower
    dimensional faces go through the induced lattice's normal form.
    """
    verts = [_vec(v) for v in vertices]
    d = len(verts) - 1
    if d == 0:
        return Fraction(1)
    if d == lp.n - 1 and all(sum(v) == 1 for v in verts):
        vol = _height_one_volume(verts, lp)
        if vol == 0:
            raise ValueError("simplex is degenerate or lattice does not span it")
        return vol
    edges = [_vsub(v, verts[0]) for v in verts[1:]]
    induced = sublattice_in_subspace(lp, edges)
    if len(induced) != d:
        raise ValueError("simplex is degenerate or lattice does not span it")
    coords = []
    for e in edges:
        c = _solve_in_basis(list(e), [list(b) for b in induced])
        if c is None:
            raise ValueError("edge outside induced lattice span")
        coords.append(c)
    return abs(_det_fraction(coords))


def _height_one_volume(verts: Sequence[Vec], lp: LatticePair) -> Fraction:
    """Normalized volume of n vertices at height one: |det V| * |N/M|.

    The coordinate sum maps N onto Z, so a basis of N can be taken as one
    height-one vector plus a basis of the height-zero lattice; in it the
    vertex matrix is block triangular and its determinant is the volume of
    the edges in the induced lattice.  Changing to the standard basis divides
    the determinant by the covolume 1/|N/M|.  Scaling the vertices by a common
    denominator keeps the arithmetic in integers.
    """
    den = lcm(*(x.denominator for v in verts for x in v))
    det = IntMat.from_rows([[int(x * den) for x in v] for v in verts]).det()
    return Fraction(abs(det) * lp.order, den ** lp.n)


# ---------------------------------------------------------------------------
# planar triangulation machinery (the base simplex in dimension 3 is a polygon)


def _chart(x: Vec) -> tuple[Fraction, Fraction]:
    """Affine chart on the base plane: drop the last coordinate."""
    return (x[0], x[1])


def _orient(a: Vec, b: Vec, c: Vec) -> int:
    (ax, ay), (bx, by), (cx, cy) = _chart(a), _chart(b), _chart(c)
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _on_segment(p: Vec, a: Vec, b: Vec) -> bool:
    if _orient(a, b, p) != 0:
        return False
    (px, py), (ax, ay), (bx, by) = _chart(p), _chart(a), _chart(b)
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _point_in_triangle(p: Vec, tri: tuple[Vec, Vec, Vec]) -> str:
    """'in', 'edge', or 'out' (exact)."""
    a, b, c = tri
    s = _orient(a, b, c)
    if s == 0:
        return "out"
    o1, o2, o3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
    if o1 == s and o2 == s and o3 == s:
        return "in"
    if (o1 == s or o1 == 0) and (o2 == s or o2 == 0) and (o3 == s or o3 == 0):
        return "edge"
    return "out"


def _insert_points(triangles: list[tuple[Vec, Vec, Vec]], points: Sequence[Vec]) -> list[tuple[Vec, Vec, Vec]]:
    """Incremental insertion of points into a planar triangulation.

    Each point either splits its containing triangle into three or splits the
    one or two triangles adjacent to the edge it lies on.  Inserting every
    lattice point of the region leaves only empty lattice triangles, which in
    a planar lattice have normalized area one.
    """
    tris = list(triangles)
    for p in points:
        if any(p in t for t in tris):
            continue
        placed = False
        for idx, t in enumerate(tris):
            where = _point_in_triangle(p, t)
            if where == "in":
                a, b, c = t
                tris[idx : idx + 1] = [(a, b, p), (b, c, p), (c, a, p)]
                placed = True
                break
            if where == "edge":
                a, b, c = t
                for e0, e1, opp in ((a, b, c), (b, c, a), (c, a, b)):
                    if _on_segment(p, e0, e1):
                        edge = (e0, e1)
                        break
                else:  # pragma: no cover
                    continue
                new = []
                for t2 in tris:
                    if edge[0] in t2 and edge[1] in t2:
                        opp2 = next(v for v in t2 if v not in edge)
                        new.append((edge[0], p, opp2))
                        new.append((edge[1], p, opp2))
                    else:
                        new.append(t2)
                tris = new
                placed = True
                break
        if not placed:
            raise ValueError(f"point {p} is outside the region being triangulated")
    return tris


# ---------------------------------------------------------------------------
# adjusted triangulation construction


def adjusted_triangulation(
    lp: LatticePair, sym: PermSymmetry, insertion_order: str = "lex"
) -> Triangulation:
    """Symmetry-adjusted unimodular triangulation of the base simplex.

    The construction follows the dimension and the order of the symmetry:
    full subdivision for a one-dimensional base; mirrored halves (with a
    straddling area-one triangle when the midpoint of the opposite side is
    not a lattice point) for an order-two symmetry in dimension three; a
    rotated sector around an invariant core triangle for order three.
    Raises UnsupportedDimension for n >= 4 and DegenerateOrbit when no valid
    invariant core exists.
    """
    if lp.n < 2:
        raise UnsupportedDimension("base simplex needs dimension >= 2")
    if lp.n >= 4:
        raise UnsupportedDimension("construction is limited to dimensions 2 and 3")
    if not sym.preserves(lp):
        raise NotInvariant("symmetry does not preserve the lattice")
    if sym.order not in (1, 2, 3):
        raise DegenerateOrbit(f"symmetry order {sym.order} not supported")

    reverse = insertion_order == "revlex"
    if insertion_order not in ("lex", "revlex"):
        raise ValueError("insertion_order must be 'lex' or 'revlex'")

    if lp.n == 2:
        pts = lp.base_points()
        simplices = [QSimplex.of(a, b) for a, b in zip(pts, pts[1:])]
        return Triangulation.of(
        simplices, coarse=simplices, coarse_assignment=range(len(simplices))
    )

    if sym.order == 1:
        return _triangulate_trivial(lp, reverse)
    if sym.order == 2:
        return _triangulate_mirror(lp, sym, reverse)
    return _triangulate_rotation(lp, sym, reverse)


def _units(n: int) -> list[Vec]:
    return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]


def _sorted_points(points, reverse: bool):
    return sorted(points, reverse=reverse)


def _triangulate_trivial(lp: LatticePair, reverse: bool) -> Triangulation:
    e = _units(3)
    base = [(e[0], e[1], e[2])]
    pts = [p for p in _sorted_points(lp.base_points(), reverse) if p not in e]
    tris = _insert_points(base, pts)
    simplices = [QSimplex.of(*t) for t in tris]
    # every simplex is invariant, so the certificate is the fine triangulation
    return Triangulation.of(
        simplices, coarse=simplices, coarse_assignment=range(len(simplices))
    )


def _triangulate_mirror(lp: LatticePair, sym: PermSymmetry, reverse: bool) -> Triangulation:
    e = _units(3)
    (i, j) = next(c for c in sym.cycles() if len(c) == 2)
    k = next(c[0] for c in sym.cycles() if len(c) == 1)
    mid = tuple((e[i][t] + e[j][t]) / 2 for t in range(3))

    def half_points(strict=False):
        out = []
        for p in lp.base_points():
            if p[i] > p[j] or (not strict and p[i] == p[j]):
                out.append(p)
        return out

    simplices: list[QSimplex] = []
    if lp.contains(mid):
        region = [(e[i], mid, e[k])]
        pts = [p for p in _sorted_points(half_points(), reverse) if p not in (e[i], mid, e[k])]
        half = _insert_points(region, pts)
        for t in half:
            simplices.append(QSimplex.of(*t))
            simplices.append(QSimplex.of(*t).image(sym))
    else:
        fixed_line = sorted(
            (p for p in lp.base_points() if p[i] == p[j]), key=lambda p: p[k]
        )
        if not fixed_line:
            raise DegenerateOrbit("no lattice points on the fixed segment")
        w = fixed_line[0]  # smallest fixed-vertex coordinate: closest to the opposite side
        side = sorted((p for p in lp.base_points() if p[k] == 0), key=lambda p: p[i])
        above = [p for p in side if p[i] > Fraction(1, 2)]
        t1 = None
        for p in sorted(above, key=lambda p: p[i]):
            cand = QSimplex.of(w, p, sym.apply(p))
            if cand.dim == 2 and normalized_volume(cand.vertices, lp) == 1:
                t1 = (w, p, sym.apply(p))
                break
        if t1 is None:
            raise DegenerateOrbit("no area-one straddling triangle exists")
        w_, p, _ = t1
        region = []
        if _orient(e[i], p, w) != 0:
            region.append((e[i], p, w))
        if _orient(e[i], w, e[k]) != 0:
            region.append((e[i], w, e[k]))
        if not region:
            # the straddling triangle already covers the whole base simplex
            return Triangulation.of(
                [QSimplex.of(*t1)], coarse=[QSimplex.of(*t1)], coarse_assignment=[0]
            )
        corner_pts = [
            q
            for q in _sorted_points(half_points(), reverse)
            if q not in (e[i], p, w, e[k]) and q not in t1
        ]
        half = _insert_points(region, corner_pts)
        simplices.append(QSimplex.of(*t1))
        for t in half:
            simplices.append(QSimplex.of(*t))
            simplices.append(QSimplex.of(*t).image(sym))
    uniq = {s.vertices: s for s in simplices}
    out = list(uniq.values())
    return Triangulation.of(out, coarse=out, coarse_assignment=range(len(out)))


def _flip_one_diagonal(tris: list[tuple[Vec, Vec, Vec]]) -> list[tuple[Vec, Vec, Vec]]:
    """Flip the first strictly convex interior diagonal, if any.

    Flipping preserves vertices, areas, and emptiness of lattice triangles,
    so it turns one unimodular triangulation of a region into another.
    """
    sets = [frozenset(t) for t in tris]
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            shared = sets[i] & sets[j]
            if len(shared) != 2:
                continue
            a, b = sorted(shared)
            c = next(v for v in tris[i] if v not in shared)
            d = next(v for v in tris[j] if v not in shared)
            if _orient(a, b, c) * _orient(a, b, d) >= 0:
                continue
            if _orient(c, d, a) * _orient(c, d, b) >= 0:
                continue
            out = [t for k, t in enumerate(tris) if k not in (i, j)]
            out.extend([(c, d, a), (c, d, b)])
            return out
    return tris


def _triangulate_rotation(lp: LatticePair, sym: PermSymmetry, reverse: bool) -> Triangulation:
    e = _units(3)
    center = _vec([Fraction(1, 3)] * 3)
    pts = lp.base_points()

    if lp.contains(center):
        sector = [(center, e[0], e[sym.perm[0]])]
        members = [
            p
            for p in _sorted_points(pts, reverse)
            if p != center
            and p not in e
            and _point_in_triangle(p, sector[0]) != "out"
        ]
        tris = _insert_points(sector, members)
        if reverse:
            tris = _flip_one_diagonal(tris)
        simplices = []
        for t in tris:
            s = QSimplex.of(*t)
            simplices.extend([s, s.image(sym), s.image(sym).image(sym)])
        uniq = {s.vertices: s for s in simplices}
        out = list(uniq.values())
        return Triangulation.of(out, coarse=out, coarse_assignment=range(len(out)))

    # invariant core: orbit triangle of the lattice point nearest the center
    candidates = []
    for w in pts:
        orbit = QSimplex.of(w, sym.apply(w), sym.apply(sym.apply(w)))
        if orbit.dim != 2:
            continue
        if normalized_volume(orbit.vertices, lp) != 1:
            continue
        dist = sum((a - b) ** 2 for a, b in zip(w, center))
        candidates.append((dist, w, orbit))
    if not candidates:
        raise DegenerateOrbit("no area-one invariant core triangle exists")
    candidates.sort(key=lambda c: (c[0], c[1]))
    _, w1, core = candidates[0]
    w2, w3 = sym.apply(w1), sym.apply(sym.apply(w1))

    if core.vertices == QSimplex.of(*e).vertices:
        return Triangulation.of([core], coarse=[core], coarse_assignment=[0])

    for v1 in e:
        v2 = sym.apply(v1)
        starts = [[(w1, v1, v2), (w1, v2, w2)], [(w1, v1, w2)], [(w1, v2, w2)]]
        for start in starts:
            if any(_orient(*t) == 0 for t in start):
                continue
            if len({_orient(*t) for t in start}) != 1:
                continue
            try:
                sector_area = sum(
                    normalized_volume(QSimplex.of(*t).vertices, lp) for t in start
                )
            except ValueError:
                continue
            if 1 + 3 * sector_area != lp.order:
                continue
            corners = {v for t in start for v in t}
            members = [
                p
                for p in _sorted_points(pts, reverse)
                if p not in corners
                and any(_point_in_triangle(p, t) != "out" for t in start)
                and _point_in_triangle(p, (w1, w2, w3)) == "out"
            ]
            try:
                tris = _insert_points(list(start), members)
            except ValueError:
                continue
            if reverse:
                tris = _flip_one_diagonal(tris)
            simplices = [core]
            for t in tris:
                s = QSimplex.of(*t)
                simplices.extend([s, s.image(sym), s.image(sym).image(sym)])
            uniq = {s.vertices: s for s in simplices}
            out = list(uniq.values())
            cand = Triangulation.of(out, coarse=out, coarse_assignment=range(len(out)))
            if verify_crepant(cand, lp):
                return cand
    raise DegenerateOrbit("no sector decomposition found around the invariant core")


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class CrepancyReport:
    ok: bool
    simplex_count: int
    volume_total: Fraction
    expected_volume: int
    failures: tuple[str, ...]
    # Non-face-to-face contacts.  Always empty once the certificate passes:
    # kept so that stored reports keep their shape.
    contact_flags: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


def verify_crepant(tri: Triangulation, lp: LatticePair) -> CrepancyReport:
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
    vertices, so no vertex can lie inside another simplex's edge, and
    ``contact_flags`` stays empty.  Every failure names its witness.
    """
    failures = []
    n = lp.n
    den = lp.denominator()
    scaled = {}
    for v in sorted({v for s in tri.simplices for v in s.vertices}):
        if len(v) != n or sum(v) != 1 or any(x < 0 for x in v):
            failures.append(f"vertex {v} outside the base simplex")
        elif not lp.contains(v):
            failures.append(f"vertex {v} not in the overlattice")
        else:
            scaled[v] = [int(x * den) for x in v]
    for s in tri.simplices:
        if s.dim != n - 1:
            failures.append(f"simplex {s.vertices} has dimension {s.dim}")

    total = Fraction(0)
    if not failures:
        full = den**n
        dets = [IntMat.from_rows([scaled[v] for v in s.vertices]).det() for s in tri.simplices]
        for s, det in zip(tri.simplices, dets):
            if det == 0:
                failures.append(f"degenerate simplex {s.vertices}")
                continue
            vol = Fraction(abs(det) * lp.order, full)
            total += vol
            if vol != 1:
                failures.append(f"simplex {s.vertices} has normalized volume {vol}")
        if total != lp.order:
            failures.append(f"volumes sum to {total}, expected {lp.order}")
        if all(dets):
            failures.extend(_facet_pairing_failures(tri.simplices, dets, n))
    return CrepancyReport(
        ok=not failures,
        simplex_count=len(tri.simplices),
        volume_total=total,
        expected_volume=lp.order,
        failures=tuple(failures),
    )


def _facet_pairing_failures(
    simplices: Sequence[QSimplex], dets: Sequence[int], n: int
) -> list[str]:
    """Facets used the wrong number of times or paired on one side.

    Dropping vertex k from a simplex with sorted vertices leaves its facet in
    sorted order; moving row k of the vertex matrix to the end takes
    n - 1 - k transpositions, so the side of the opposite vertex relative to
    the facet is the determinant's sign times (-1)^(n-1-k).
    """
    uses: dict[tuple[Vec, ...], list[tuple[int, int]]] = {}
    for idx, (s, det) in enumerate(zip(simplices, dets)):
        sign = 1 if det > 0 else -1
        vs = s.vertices
        for k in range(len(vs)):
            side = sign if (n - 1 - k) % 2 == 0 else -sign
            uses.setdefault(vs[:k] + vs[k + 1 :], []).append((idx, side))
    failures = []
    for facet, users in uses.items():
        owners = [simplices[i].vertices for i, _ in users]
        boundary = any(all(v[i] == 0 for v in facet) for i in range(n))
        kind, want = ("boundary", 1) if boundary else ("interior", 2)
        if len(users) != want:
            failures.append(
                f"{kind} facet {facet} is shared by {len(users)} simplices, expected {want}: {owners}"
            )
        elif not boundary and users[0][1] == users[1][1]:
            failures.append(
                f"simplices {owners[0]} and {owners[1]} lie on the same side of their facet {facet}"
            )
    return failures


# ---------------------------------------------------------------------------
# orbit records and the Lefschetz sum


@dataclass(frozen=True)
class OrbitRecord:
    """Torus orbit attached to an invariant face of the triangulation.

    Carries the face, a basis of the quotient of N by the saturated span of
    the cone over the face, the induced action matrix, and its det(I - A)
    contribution.
    """

    face: Optional[QSimplex]  # None encodes the empty face (the dense orbit)
    quotient_rank: int
    action: IntMat
    contribution: int


def _action_in_lattice_coords(lp: LatticePair, sym: PermSymmetry) -> IntMat:
    rows = []
    for b in lp.basis:
        img = sym.apply(b)
        c = lp.coords(img)
        if any(x.denominator != 1 for x in c):
            raise NotInvariant(f"symmetry maps the basis vector {b} out of the lattice")
        rows.append([int(x) for x in c])
    return IntMat.from_rows(rows)


def _quotient_action(lp: LatticePair, S: IntMat, span_vectors: Sequence[Vec]) -> IntMat:
    """Action induced on N / (N intersect span), in a completed basis.

    S is the action on N in lattice coordinates, from _action_in_lattice_coords.
    """
    n = lp.n
    if not span_vectors:
        return S
    sat = sublattice_in_subspace(lp, list(span_vectors))
    r = len(sat)
    coords = [[int(x) for x in lp.coords(v)] for v in sat]
    K = IntMat.from_rows(coords)
    _, D, V = smith_normal_form(K)
    W = V.inverse_unimodular()  # rows: basis of Z^n whose first r rows span K
    A = W.mul(S).mul(V)
    # the saturated span is invariant, so A is block triangular; the
    # bottom-right block is the quotient action
    q = n - r
    if any(A.get(i, r + j) for i in range(r) for j in range(q)):
        raise NotInvariant(f"span of {list(span_vectors)} is not invariant under the symmetry")
    rows = [[A.get(r + i, r + j) for j in range(q)] for i in range(q)]
    return IntMat.from_rows(rows) if q else IntMat(0, 0, ())


def orbit_records(tri: Triangulation, lp: LatticePair, sym: PermSymmetry) -> list[OrbitRecord]:
    """Orbit record for every invariant face, including the empty face."""
    if not tri.is_symmetric(sym):
        raise NotInvariantTriangulation("symmetry does not map the triangulation to itself")
    records = []
    S = _action_in_lattice_coords(lp, sym)
    eye = IntMat.identity(lp.n)
    diff = IntMat.from_rows(
        [[eye.get(i, j) - S.get(i, j) for j in range(lp.n)] for i in range(lp.n)]
    )
    records.append(OrbitRecord(None, lp.n, S, diff.det()))
    for f in tri.all_faces():
        if f.image(sym).vertices != f.vertices:
            continue
        A = _quotient_action(lp, S, f.vertices)
        q = A.rows
        d = IntMat.from_rows(
            [[(1 if i == j else 0) - A.get(i, j) for j in range(q)] for i in range(q)]
        ).det() if q else 1
        records.append(OrbitRecord(f, q, A, d))
    return records


def toric_lefschetz(tri: Triangulation, lp: LatticePair, sym: PermSymmetry) -> int:
    """Lefschetz number of the symmetry on the induced crepant resolution.

    Sums det(I - sigma) over the quotient lattices of all invariant faces;
    faces lying in the closure of a larger invariant face contribute zero
    automatically (the quotient retains a fixed direction).
    """
    return sum(r.contribution for r in orbit_records(tri, lp, sym))


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
    a = IntMat.from_rows(rows)
    eye = IntMat.identity(s)
    diff = IntMat.from_rows(
        [[eye.get(i, j) - a.get(i, j) for j in range(s)] for i in range(s)]
    )
    return diff.det()


def count_fixed_elements(lp: LatticePair, sym: PermSymmetry) -> int:
    """Number of symmetry-fixed elements of the quotient group N/M."""
    count = 0
    for rep in lp.coset_representatives():
        img = tuple(v % 1 for v in sym.apply(rep))
        if img == rep:
            count += 1
    return count


def fixed_sublattice_index(lp: LatticePair, sym: PermSymmetry) -> int:
    """Index of M-in-the-fixed-subspace inside N-in-the-fixed-subspace."""
    span = fixed_subspace(sym)
    m_basis = [list(map(Fraction, v)) for v in span]  # cycle sums are an M-basis
    n_basis = sublattice_in_subspace(lp, span)
    return lattice_index(m_basis, n_basis)


# ---------------------------------------------------------------------------
# standard pairs


@dataclass(frozen=True)
class StandardPair:
    """Model simplex with cyclic symmetry, its reference triangulation, and
    the fixed-locus simplex."""

    simplex: QSimplex
    triangulation: Triangulation
    fixed_simplex: QSimplex
    perm: PermSymmetry
    cycle_lengths: tuple[int, ...]
    transverse_lengths: tuple[int, ...]


def standard_pair(cycle_lengths: Sequence[int], transverse_lengths: Sequence[int] = ()) -> StandardPair:
    """Model pair for the given cycle data.

    The ambient lattice is a direct sum of cyclically permuted summands; the
    model simplex is the unit simplex on the origin and the unit points, the
    reference triangulation is by the pieces obtained by dropping one unit
    point per permuted summand and adjoining the origin and the per-summand
    barycenters, and the fixed-locus simplex collects the origin, the
    barycenters, and the transverse unit points.
    """
    ls = [int(x) for x in cycle_lengths]
    ms = [int(x) for x in transverse_lengths]
    if any(x < 1 for x in ls + ms):
        raise ValueError("cycle data must be positive")
    n = sum(ls) + sum(ms)
    if n == 0:
        raise ValueError("empty cycle data")
    units = _units(n)
    origin = tuple(Fraction(0) for _ in range(n))

    blocks: list[list[int]] = []
    at = 0
    for l in ls:
        blocks.append(list(range(at, at + l)))
        at += l
    m_indices = list(range(at, n))

    images = list(range(n))
    for block in blocks:
        for pos, idx in enumerate(block):
            images[idx] = block[(pos + 1) % len(block)]
    perm = PermSymmetry(tuple(images))

    barys = []
    for block in blocks:
        barys.append(tuple(Fraction(1 if i in block else 0, len(block)) for i in range(n)))

    fixed = QSimplex.of(origin, *barys, *[units[i] for i in m_indices])

    pieces = []
    for drop in itertools.product(*[block for block in blocks]) if blocks else [()]:
        verts = [origin]
        for b, block in enumerate(blocks):
            verts.extend(units[i] for i in block if i != drop[b])
        verts.extend(barys)
        verts.extend(units[i] for i in m_indices)
        pieces.append(QSimplex.of(*verts))
    tri = Triangulation.of(pieces)

    simplex = QSimplex.of(origin, *units)
    return StandardPair(simplex, tri, fixed, perm, tuple(ls), tuple(ms))


def fixed_locus_of(simplex: QSimplex, sym: PermSymmetry) -> QSimplex:
    """Fixed points of the symmetry inside an invariant simplex.

    For an affine action permuting the vertices this is the convex hull of
    the per-cycle vertex averages.
    """
    verts = list(simplex.vertices)
    images = [sym.apply(v) for v in verts]
    vperm = []
    for img in images:
        vperm.append(verts.index(img))
    seen, cents = set(), []
    for i in range(len(verts)):
        if i in seen:
            continue
        cyc = [i]
        j = vperm[i]
        while j != i:
            cyc.append(j)
            j = vperm[j]
        seen.update(cyc)
        k = len(cyc)
        cents.append(tuple(sum(verts[c][t] for c in cyc) / k for t in range(len(verts[0]))))
    return QSimplex.of(*cents)


def _vertex_cycle_lengths(simplex: QSimplex, sym: PermSymmetry) -> list[int]:
    verts = list(simplex.vertices)
    vperm = [verts.index(sym.apply(v)) for v in verts]
    seen, out = set(), []
    for i in range(len(verts)):
        if i in seen:
            continue
        cyc = [i]
        j = vperm[i]
        while j != i:
            cyc.append(j)
            j = vperm[j]
        seen.update(cyc)
        out.append(len(cyc))
    return sorted(out, reverse=True)


def is_g_standard(
    sigma: QSimplex,
    tri: Optional[Triangulation],
    sym: PermSymmetry,
    lp: Optional[LatticePair] = None,
) -> bool:
    """Does the invariant simplex look like the standard model of its type?

    Checks, in order: the symmetry permutes the vertices (with every
    pointwise-fixed vertex on the fixed subspace); the refinement pieces of
    matching dimension are permuted without a fixed piece when the symmetry
    acts nontrivially; and the fixed-locus volume equals the reciprocal of
    the product of the vertex cycle lengths.  Zero-dimensional fixed loci
    pass the volume check by convention.
    """
    if sigma.image(sym).vertices != sigma.vertices:
        raise NotInvariant("simplex is not invariant under the symmetry")
    lengths = _vertex_cycle_lengths(sigma, sym)
    fixed = fixed_locus_of(sigma, sym)
    trivial_action = all(l == 1 for l in lengths)

    # pointwise-fixed vertices must sit on the fixed locus
    for v in sigma.vertices:
        if sym.apply(v) == v and v not in fixed.vertices:
            span = [list(f) for f in fixed.vertices]
            if _solve_in_basis(list(v), span) is None:
                return False

    if tri is not None and not trivial_action:
        inside = [
            s
            for s in tri.simplices
            if set(s.vertices) <= set(sigma.vertices)
            or all(_point_in_triangle_nd(v, sigma) for v in s.vertices)
        ]
        if len(inside) > 1 and inside and inside[0].dim == fixed.dim + 1:
            keys = {s.vertices for s in inside}
            for s in inside:
                if s.image(sym).vertices not in keys:
                    return False
                if s.image(sym).vertices == s.vertices:
                    return False

    if fixed.dim >= 1:
        denom = 1
        for l in lengths:
            denom *= l
        lattice = lp if lp is not None else _standard_lattice(len(sigma.vertices[0]))
        try:
            vol = normalized_volume(fixed.vertices, lattice)
        except ValueError:
            return False
        if vol != Fraction(1, denom):
            return False
    return True


def _point_in_triangle_nd(p: Vec, simplex: QSimplex) -> bool:
    """Barycentric containment test for a point in a simplex of any dimension."""
    verts = simplex.vertices
    base = verts[0]
    edges = [list(_vsub(v, base)) for v in verts[1:]]
    if not edges:
        return p == base
    c = _solve_in_basis(list(_vsub(p, base)), edges)
    if c is None:
        return False
    return all(x >= 0 for x in c) and sum(c) <= 1


def _standard_lattice(n: int) -> LatticePair:
    rows = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    return LatticePair(n, (), rows, 1)


def verify_adjusted(tri: Triangulation, lp: LatticePair, sym: PermSymmetry) -> bool:
    """Every maximal invariant simplex of the coarse certificate is standard."""
    coarse = tri.coarse if tri.coarse is not None else tri.simplices
    coarse_tri = Triangulation.of(coarse)
    faces = coarse_tri.all_faces()
    invariant = [f for f in faces if f.image(sym).vertices == f.vertices]
    maximal = []
    for f in invariant:
        if not any(
            set(f.vertices) < set(g.vertices) for g in invariant if g.vertices != f.vertices
        ):
            maximal.append(f)
    for f in maximal:
        restricted = Triangulation.of(
            [s for s in coarse_tri.simplices if set(s.vertices) <= set(f.vertices)]
            or [f]
        )
        if not is_g_standard(f, restricted, sym, lp):
            return False
    return True


# ---------------------------------------------------------------------------
# the combined audit


def symmetry_report(
    lp: LatticePair, sym: PermSymmetry, insertion_order: str = "lex"
) -> dict:
    """Build the adjusted triangulation and evaluate every symmetry invariant.

    Reports the orbit-sum Lefschetz number, the count of fixed quotient
    elements, the fixed-sublattice index, the crepancy check, and the
    cycle/volume bookkeeping of the fixed locus; the authoritative equality
    is lefschetz == fixed_count == sublattice index.
    """
    tri = adjusted_triangulation(lp, sym, insertion_order)
    rep = verify_crepant(tri, lp)
    lef = toric_lefschetz(tri, lp, sym)
    fixed_count = count_fixed_elements(lp, sym)
    index = fixed_sublattice_index(lp, sym)
    cyc = [len(c) for c in sym.cycles() if len(c) > 1]
    prod = 1
    for c in cyc:
        prod *= c
    span = fixed_subspace(sym)
    fixed_poly = _fixed_polytope(lp, sym)
    if fixed_poly is not None and fixed_poly.dim >= 1:
        vol = normalized_volume(fixed_poly.vertices, lp)
        zero_dim = False
    else:
        vol = Fraction(1)
        zero_dim = True
    k = len(cyc)
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    claim_one = prod * vol * fact
    claim_two_rhs = Fraction(fixed_count, prod * fact) if prod * fact else Fraction(fixed_count)
    return {
        "dimension": lp.n,
        "group_order": lp.order,
        "cycle_lengths": cyc,
        "lefschetz": lef,
        "fixed_count": fixed_count,
        "sublattice_index": index,
        "crepant": bool(rep),
        "simplex_count": rep.simplex_count,
        "invariant_maximal_simplices": sum(
            1 for s in tri.simplices if s.image(sym).vertices == s.vertices
        ),
        "adjusted": verify_adjusted(tri, lp, sym),
        "fixed_locus_volume": vol,
        "fixed_locus_zero_dimensional": zero_dim,
        "claim_one_value": claim_one,
        "claim_two_value": claim_two_rhs,
        "equal": lef == fixed_count == index,
        "triangulation": tri,
    }


def _fixed_polytope(lp: LatticePair, sym: PermSymmetry) -> Optional[QSimplex]:
    """Intersection of the fixed subspace with the base simplex, as a simplex."""
    cycles = sym.cycles()
    verts = []
    for cyc in cycles:
        verts.append(tuple(Fraction(1 if i in cyc else 0, len(cyc)) for i in range(sym.n)))
    # the fixed polytope is the simplex on the per-cycle barycenters
    uniq = sorted(set(verts))
    return QSimplex(tuple(uniq))


# ---------------------------------------------------------------------------
# serialization


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _parse_frac(s: str) -> Fraction:
    return Fraction(s)


def triangulation_to_document(tri: Triangulation, lp: LatticePair) -> dict:
    """Structured document for a triangulation; round-trips bit-exactly."""
    vertices = tri.vertex_set
    vindex = {v: i for i, v in enumerate(vertices)}
    doc = {
        "lattice": {
            "n": lp.n,
            "generators": [[list(vec), m] for vec, m in lp.generators],
        },
        "vertices": [",".join(_frac_str(x) for x in v) for v in vertices],
        "simplices": [[vindex[v] for v in s.vertices] for s in tri.simplices],
    }
    if tri.coarse is not None:
        cverts = sorted({v for s in tri.coarse for v in s.vertices})
        cindex = {v: i for i, v in enumerate(cverts)}
        doc["certificate"] = {
            "vertices": [",".join(_frac_str(x) for x in v) for v in cverts],
            "simplices": [[cindex[v] for v in s.vertices] for s in tri.coarse],
            "assignment": list(tri.coarse_assignment or ()),
        }
    return doc


def triangulation_from_document(doc: dict) -> tuple[Triangulation, LatticePair]:
    lat = doc["lattice"]
    lp = build_lattice_pair(lat["n"], [(tuple(v), m) for v, m in lat["generators"]])
    vertices = [tuple(_parse_frac(p) for p in s.split(",")) for s in doc["vertices"]]
    simplices = [QSimplex(tuple(sorted(vertices[i] for i in idx))) for idx in doc["simplices"]]
    coarse = None
    assignment = None
    if "certificate" in doc:
        cert = doc["certificate"]
        cverts = [tuple(_parse_frac(p) for p in s.split(",")) for s in cert["vertices"]]
        coarse = [QSimplex(tuple(sorted(cverts[i] for i in idx))) for idx in cert["simplices"]]
        assignment = cert.get("assignment")
    return Triangulation.of(simplices, coarse=coarse, coarse_assignment=assignment), lp
