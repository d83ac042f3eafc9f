import itertools
import json
import random
from fractions import Fraction
from math import lcm, prod
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from crepant import toric
from crepant.cli import _random_lattice_instance
from crepant.exactmath import (
    IntMat,
    LatticeError,
    _bareiss_det,
    _integer_rows,
    permutation_cycles,
    smith_normal_form,
)
from crepant.toric import (
    NotInvariant,
    NotSpecialLinear,
    PermSymmetry,
    Triangulation,
    UnsupportedDimension,
    adjusted_triangulation,
    audit_triangulation,
    block_det,
    build_lattice_pair,
    count_fixed_elements,
    fixed_sublattice_index,
    orbit_records,
    symmetry_report,
    toric_lefschetz,
    triangulation_from_document,
    triangulation_to_document,
    verify_adjusted,
    verify_crepant,
    NotInvariantTriangulation,
    OrbitRecord,
    _coordinate_text,
    _cycle_average_volume,
    _det_one_minus,
    _in_simplex,
    _lattice_coords,
    _maximal_invariant_faces,
    _orient,
)

SWAP2 = PermSymmetry.from_cycles(2, [(0, 1)])
SWAP3 = PermSymmetry.from_cycles(3, [(0, 1)])
ROT3 = PermSymmetry.from_cycles(3, [(0, 1, 2)])


# ---------------------------------------------------------------------------
# the rational view of simplices, and the names that read it, each on the
# integer route of crepant.toric that it calls


class QSimplex(NamedTuple):
    """Simplex with rational vertices, stored in sorted order."""

    vertices: tuple

    @staticmethod
    def of(*points):
        return QSimplex(tuple(sorted(tuple(map(Fraction, p)) for p in points)))

    @property
    def dim(self):
        return len(self.vertices) - 1

    def image(self, sym):
        return QSimplex(tuple(sorted(sym.apply(v) for v in self.vertices)))


def rational_cells(tri):
    """The cells of a triangulation as QSimplexes on the vertices y/scale."""
    return [QSimplex(tuple(tuple(Fraction(a, tri.scale) for a in y) for y in c)) for c in tri.cells]


def triangulation_of(simplices, d=1):
    """The triangulation by QSimplexes on the points L*x, L the lcm of d and
    the vertex denominators."""
    den = lcm(d, *(x.denominator for s in simplices for v in s.vertices for x in v))
    return Triangulation(den, [
        tuple(tuple(x.numerator * (den // x.denominator) for x in v) for v in s.vertices)
        for s in simplices
    ])


def normalized_volume(vertices, lp):
    """``toric._volume`` of a rational simplex; ValueError when it is 0."""
    den, points = _integer_rows(vertices)
    vol = toric._volume(points, den, lp)
    if vol == 0:
        raise ValueError("simplex is degenerate or lattice does not span it")
    return vol


def is_g_standard(sigma, tri, sym, lp=None):
    """``toric._standard_face`` of an invariant QSimplex with the cells of
    ``tri`` (or none) as its pieces, all on integer points at one scale, as
    a bool."""
    whole = triangulation_of([sigma, *(rational_cells(tri) if tri is not None else ())])
    face = tuple(sorted(tuple(int(x * whole.scale) for x in v) for v in sigma.vertices))
    pieces = list(whole.cells)
    pieces.remove(face)
    if tuple(sorted(sym.apply(y) for y in face)) != face:
        raise NotInvariant("simplex is not invariant under the symmetry")
    lattice = lp if lp is not None else build_lattice_pair(len(face[0]), [])
    return bool(toric._standard_face(face, pieces, sym, lattice, whole.scale))


def fixed_subspace(sym):
    """Basis of the fixed subspace: one cycle-sum vector per cycle."""
    return [tuple(Fraction(int(i in cyc)) for i in range(sym.n)) for cyc in sym.cycles()]


def _fixed_polytope(sym):
    """The fixed locus of the symmetry in the base simplex."""
    return fixed_locus_of(rational_cells(_unit_cell(sym.n))[0], sym)


def standard_pair(ls, ms=()):
    """The model pair of cycle lengths ls and transverse lengths ms: the unit
    simplex on the origin with each block of ls cycled, its pieces (one unit
    point per block dropped for the barycentres) and its fixed simplex."""
    n = sum(ls) + sum(ms)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    ends = list(itertools.accumulate(ls, initial=0))
    blocks = [range(a, b) for a, b in zip(ends, ends[1:])]
    perm = PermSymmetry.from_cycles(n, blocks)
    centres, origin = _fixed_polytope(perm).vertices, (0,) * n
    pieces = [
        QSimplex.of(origin, *centres, *(units[i] for i in range(sum(ls)) if i not in drop))
        for drop in itertools.product(*blocks)
    ]
    return SimpleNamespace(
        simplex=QSimplex.of(origin, *units), triangulation=triangulation_of(pieces),
        fixed_simplex=QSimplex.of(origin, *centres), perm=perm,
    )


# ---------------------------------------------------------------------------
# references: rational elimination, and the Fraction route of the
# standardness test that the integer one replaced


def _gauss_reduce(a: list[list]) -> list[int]:
    """In-place reduced row echelon form over the rationals.

    Every entry is converted to Fraction first, so integer input stays exact
    under division.  Returns the pivot column of each nonzero row; those rows
    come first, in order, and every later row is zero.  This is the one
    rational row reduction; the readers below interpret its result.
    """
    for i, row in enumerate(a):
        a[i] = [Fraction(x) for x in row]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots


def _solve_in_basis(vec, basis) -> list[Fraction] | None:
    """Coordinates of vec in the row span of basis, or None if outside.

    The system is consistent exactly when the reduced augmented matrix has no
    pivot in its last column; coordinates of non-pivot basis rows are zero.
    """
    rows = len(basis)
    aug = [[basis[i][j] for i in range(rows)] + [vec[j]] for j in range(len(vec))]
    pivots = _gauss_reduce(aug)
    if rows in pivots:
        return None
    coords = [Fraction(0)] * rows
    for r, c in enumerate(pivots):
        coords[c] = aug[r][rows]
    # the recombination is exact by construction; checking it is cheap
    for j, x in enumerate(vec):
        if sum(coords[i] * basis[i][j] for i in range(rows)) != x:
            return None
    return coords


def fixed_locus_of(simplex: QSimplex, sym: PermSymmetry) -> QSimplex:
    """Fixed points of the symmetry inside an invariant simplex.

    For an affine action permuting the vertices this is the convex hull of
    the per-cycle vertex averages.
    """
    dim = len(simplex.vertices[0])
    return QSimplex.of(
        *(
            tuple(sum(v[t] for v in cyc) / len(cyc) for t in range(dim))
            for cyc in _vertex_cycles(simplex, sym)
        )
    )


def _vertex_cycles(simplex: QSimplex, sym: PermSymmetry):
    """Cycles of the symmetry on the vertices of an invariant simplex."""
    verts = simplex.vertices
    images = [verts.index(sym.apply(v)) for v in verts]
    return [tuple(verts[i] for i in cyc) for cyc in permutation_cycles(images)]


def _reference_is_g_standard(sigma, tri, sym, lp=None) -> bool:
    """The standardness test on Fraction vertices, through the fixed-locus
    simplex, barycentric containment and ``normalized_volume``."""
    if sigma.image(sym).vertices != sigma.vertices:
        raise NotInvariant("simplex is not invariant under the symmetry")
    lengths = [len(cyc) for cyc in _vertex_cycles(sigma, sym)]
    fixed = fixed_locus_of(sigma, sym)
    trivial_action = all(l == 1 for l in lengths)

    # pointwise-fixed vertices must sit on the fixed locus
    for v in sigma.vertices:
        if sym.apply(v) == v and v not in fixed.vertices:
            if _solve_in_basis(v, fixed.vertices) is None:
                return False

    if tri is not None and not trivial_action:
        inside = [
            s
            for s in rational_cells(tri)
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
        lattice = lp if lp is not None else build_lattice_pair(len(sigma.vertices[0]), [])
        try:
            vol = normalized_volume(fixed.vertices, lattice)
        except ValueError:
            return False
        if vol != Fraction(1, prod(lengths)):
            return False
    return True


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _point_in_triangle_nd(p, simplex: QSimplex) -> bool:
    """Barycentric containment test for a point in a simplex of any dimension."""
    verts = simplex.vertices
    base = verts[0]
    edges = [_vsub(v, base) for v in verts[1:]]
    if not edges:
        return p == base
    c = _solve_in_basis(_vsub(p, base), edges)
    if c is None:
        return False
    return all(x >= 0 for x in c) and sum(c) <= 1


def centroid(simplex: QSimplex):
    """The average of the vertices of a simplex."""
    k = len(simplex.vertices)
    return tuple(sum(col, Fraction(0)) / k for col in zip(*simplex.vertices))


def test_build_lattice_pair():
    assert build_lattice_pair(2, [((1, 1), 2)]).order == 2
    assert build_lattice_pair(3, [((1, 2, 2), 5), ((1, 1, 3), 5)]).order == 25
    assert build_lattice_pair(3, []).order == 1
    assert build_lattice_pair(1, []).order == 1
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"lattice n must be at least 1, not {n}"):
            build_lattice_pair(n, [])
    with pytest.raises(NotSpecialLinear):
        build_lattice_pair(2, [((1, 0), 2)])


def test_from_cycles_names_a_repeated_index():
    for cycles, index in (([(0, 0)], 0), ([(0, 1), (0, 1)], 0), ([(0, 1, 2), (2, 1, 0)], 2)):
        with pytest.raises(ValueError, match=f"index {index} repeats"):
            PermSymmetry.from_cycles(3, cycles)


def test_from_cycles_names_an_out_of_range_index():
    for cycles, index in (([(0, 5)], 5), ([(0, -1)], -1)):
        with pytest.raises(ValueError, match=f"index {index} is out of range"):
            PermSymmetry.from_cycles(3, cycles)


def test_fixed_subspace():
    assert fixed_subspace(PermSymmetry.identity(2)) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    assert fixed_subspace(SWAP2) == [(Fraction(1), Fraction(1))]
    assert fixed_subspace(ROT3) == [(Fraction(1), Fraction(1), Fraction(1))]


def test_standard_pair_point():
    sp = standard_pair([1])
    assert sp.fixed_simplex.dim == 1  # origin plus the single unit point
    assert len(sp.triangulation.cells) == 1


def test_standard_pair_segment():
    sp = standard_pair([2])
    lp = build_lattice_pair(2, [])
    assert normalized_volume(sp.fixed_simplex.vertices, lp) == Fraction(1, 2)
    assert len(sp.triangulation.cells) == 2
    imgs = {s.image(sp.perm).vertices for s in rational_cells(sp.triangulation)}
    assert imgs == {s.vertices for s in rational_cells(sp.triangulation)}


def test_standard_pair_triangle():
    sp = standard_pair([3])
    lp = build_lattice_pair(3, [])
    # barycenter fixed locus, three pieces permuted cyclically
    assert (Fraction(1, 3),) * 3 in sp.fixed_simplex.vertices
    assert len(sp.triangulation.cells) == 3
    pieces = {s.vertices for s in rational_cells(sp.triangulation)}
    for s in rational_cells(sp.triangulation):
        assert s.image(sp.perm).vertices in pieces
        assert s.image(sp.perm).vertices != s.vertices
    total = sum(normalized_volume(s.vertices, lp) for s in rational_cells(sp.triangulation))
    assert total == normalized_volume(sp.simplex.vertices, lp)
    # the model simplex itself passes the standardness properties: origin
    # fixed, unit points cycled, fixed segment of normalized length 1/3
    assert is_g_standard(sp.simplex, sp.triangulation, sp.perm, lp)


def test_standard_pair_mixed():
    sp = standard_pair([2], [2])
    lp = build_lattice_pair(4, [])
    assert normalized_volume(sp.fixed_simplex.vertices, lp) == Fraction(1, 2)
    total = sum(normalized_volume(s.vertices, lp) for s in rational_cells(sp.triangulation))
    assert total == normalized_volume(sp.simplex.vertices, lp)


def test_is_g_standard_split_segment():
    lp = build_lattice_pair(2, [((1, 1), 2)])
    seg = QSimplex.of((1, 0), (0, 1))
    halves = triangulation_of(
        [
            QSimplex.of((1, 0), (Fraction(1, 2), Fraction(1, 2))),
            QSimplex.of((Fraction(1, 2), Fraction(1, 2)), (0, 1)),
        ]
    )
    assert is_g_standard(seg, halves, SWAP2, lp)


def test_is_g_standard_orbit_triangle(z5sq):
    lp, sym = z5sq
    core = QSimplex.of(
        (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)),
        (Fraction(2, 5), Fraction(1, 5), Fraction(2, 5)),
        (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)),
    )
    assert is_g_standard(core, triangulation_of([core]), sym, lp)


def test_is_g_standard_rejects_long_fixed_segment():
    # base triangle is invariant but its fixed segment has lattice length one,
    # twice the half-length the straddling model requires
    lp = build_lattice_pair(3, [((1, 1, 0), 2)])
    big = QSimplex.of((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert not is_g_standard(big, triangulation_of([big]), SWAP3, lp)


def test_a_face_that_is_not_standard_names_the_test_it_fails():
    # the segment from e_2 to e_1 at scale 3, cut at its lattice points of
    # 1,2@3: the middle piece is fixed by the swap; without it, the first
    # piece maps onto none
    lp = build_lattice_pair(2, [((1, 2), 3)])
    face = ((0, 3), (3, 0))
    ends, middle = [((0, 3), (1, 2)), ((2, 1), (3, 0))], ((1, 2), (2, 1))
    named = "invariant face ((0, 1), (1, 0)) is not standard: "
    pieces = "its pieces are not permuted with none fixed: "
    verdict = toric._standard_face(face, [ends[0], middle, ends[1]], SWAP2, lp, 3)
    assert not verdict and verdict.simplex_count == 3
    assert verdict.failures == (named + pieces + "((1/3, 2/3), (2/3, 1/3)) maps to itself",)
    verdict = toric._standard_face(face, [ends[0], ((1, 2), (3, 0))], SWAP2, lp, 3)
    assert verdict.failures == (named + pieces + "((0, 1), (1/3, 2/3)) maps to no piece",)
    assert toric._standard_face(face, ends, SWAP2, lp, 3) == toric.Certificate(True, 2, ())
    # the long fixed segment above, through verify_adjusted
    lp = build_lattice_pair(3, [((1, 1, 0), 2)])
    big = Triangulation(1, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    assert verify_adjusted(big, lp, SWAP3).failures == (
        "invariant face ((0, 0, 1), (0, 1, 0), (1, 0, 0)) is not standard: "
        "its fixed locus has volume 1, expected 1/2",
    )


def test_is_g_standard_not_invariant():
    lp = build_lattice_pair(3, [])
    skew = QSimplex.of((1, 0, 0), (Fraction(1, 2), 0, Fraction(1, 2)), (0, 0, 1))
    with pytest.raises(NotInvariant):
        is_g_standard(skew, None, SWAP3, lp)


def test_is_g_standard_refuses_a_repeated_vertex():
    # the vertex cycles of a simplex with a repeated vertex are no permutation
    twice = QSimplex(((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))))
    with pytest.raises(ValueError, match="not a permutation"):
        is_g_standard(twice, None, PermSymmetry.identity(2))


def _lattice_for(n, data):
    """The standard lattice Z^n or an overlattice with one drawn generator."""
    if n < 2 or data.draw(st.booleans()):
        return build_lattice_pair(n, [])
    m = data.draw(st.integers(2, 6))
    head = data.draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
    return build_lattice_pair(n, [(tuple(head) + ((-sum(head)) % m,), m)])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.integers(1, 4), st.integers(0, 1), st.data())
def test_in_simplex_matches_barycentric_reference(k, extra, data):
    """Points p = sum w_i v_i of the simplex on the vertices W v_i, W = sum
    w_i > 0, lie inside (all w_i > 0), on a facet (some w_i = 0), or outside
    (some w_i < 0); a shift out of the span (when the ambient dimension
    exceeds k) puts them off it."""
    n = k + extra
    coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    base = [data.draw(coords) for _ in range(k + 1)]
    edges = [[a - b for a, b in zip(v, base[0])] for v in base[1:]]
    assume(_rational_rank(edges) == k)
    kind = data.draw(st.sampled_from(["inside", "facet", "outside", "off-span"]))
    low = {"inside": 1, "facet": 0, "outside": -3, "off-span": 0}[kind]
    weights = data.draw(st.lists(st.integers(low, 3), min_size=k + 1, max_size=k + 1))
    if kind == "facet":
        weights[data.draw(st.integers(0, k))] = 0
    if kind == "outside":
        weights[data.draw(st.integers(0, k))] = -data.draw(st.integers(1, 3))
    total = sum(weights)
    assume(total > 0)
    simplex = tuple(tuple(total * x for x in v) for v in base)
    p = [sum(w * v[j] for w, v in zip(weights, base)) for j in range(n)]
    if kind == "off-span":
        assume(extra)
        p = [x + y for x, y in zip(p, data.draw(coords))]
        assume(_rational_rank(edges + [[a - b for a, b in zip(p, simplex[0])]]) > k)
    p = tuple(p)
    lp = _lattice_for(n, data)
    want = _point_in_triangle_nd(p, QSimplex(simplex))
    assert _in_simplex(p, simplex, lp) == want
    assert want == (kind in ("inside", "facet"))


def _rational_rank(rows):
    """Rank over the rationals, through the reference row reduction."""
    if not rows:
        return 0
    return len(_gauss_reduce([list(r) for r in rows]))


@st.composite
def _standard_cases(draw):
    """A standard pair with its simplex, symmetry and pieces, then edited:
    pieces dropped, reordered, or joined by simplices on points outside the
    simplex, inside it (barycentres, midpoints) or on both sides; the simplex
    may be scaled up, and the symmetry replaced by the identity."""
    ls = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    ms = draw(st.lists(st.integers(1, 2), max_size=2))
    assume(sum(ls) + sum(ms) <= 5)
    sp = standard_pair(ls, ms)
    n = sp.perm.n
    sym = sp.perm if draw(st.booleans()) else PermSymmetry.identity(n)
    sigma = sp.simplex
    if draw(st.integers(0, 3)) == 0:
        sigma = QSimplex.of(*(tuple(2 * x for x in v) for v in sigma.vertices))
    pieces = rational_cells(sp.triangulation)
    if len(pieces) > 1 and draw(st.booleans()):
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    inner = list(sigma.vertices) + list(sp.fixed_simplex.vertices)
    for u, v in itertools.combinations(sigma.vertices, 2):
        inner.append(tuple((a + b) / 2 for a, b in zip(u, v)))
    outer = [tuple(Fraction(c * int(i == j)) for j in range(n)) for i in range(n) for c in (2, -1)]
    size = len(pieces[0].vertices)
    for _ in range(draw(st.integers(0, 3))):
        pool = draw(st.sampled_from([inner, outer, inner + outer]))
        verts = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True))
        pieces.append(QSimplex.of(*verts))
    return sigma, triangulation_of(pieces), sym


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_standard_cases(), st.data())
def test_is_g_standard_matches_fraction_reference(case, data):
    sigma, tri, sym = case
    lp = data.draw(st.sampled_from([None, _lattice_for(sym.n, data)]))
    want = _reference_is_g_standard(sigma, tri, sym, lp)
    assert is_g_standard(sigma, tri, sym, lp) == want
    assert is_g_standard(sigma, None, sym, lp) == _reference_is_g_standard(sigma, None, sym, lp)


def test_adjusted_n2_full_subdivision():
    lp = build_lattice_pair(2, [((1, 4), 5)])
    tri = adjusted_triangulation(lp, SWAP2)
    assert len(tri.cells) == 5
    assert bool(verify_crepant(tri, lp))
    assert verify_adjusted(tri, lp, SWAP2)


def test_adjusted_unsupported_dimension():
    lp = build_lattice_pair(4, [((1, 1, 1, 1), 2)])
    with pytest.raises(UnsupportedDimension):
        adjusted_triangulation(lp, PermSymmetry.identity(4))


def test_adjusted_straddling_triangle_case():
    # midpoint of the opposite side is not in the lattice: the construction
    # must place an area-one triangle straddling the mirror line
    lp = build_lattice_pair(3, [((1, 1, 1), 3)])
    tri = adjusted_triangulation(lp, SWAP3)
    assert bool(verify_crepant(tri, lp))
    assert verify_adjusted(tri, lp, SWAP3)
    straddling = [
        s
        for s in rational_cells(tri)
        if s.image(SWAP3).vertices == s.vertices
    ]
    assert len(straddling) == 1
    assert toric_lefschetz(tri, lp, SWAP3) == count_fixed_elements(lp, SWAP3) == 3


def test_adjusted_z5sq(z5sq):
    lp, sym = z5sq
    tri = adjusted_triangulation(lp, sym)
    rep = verify_crepant(tri, lp)
    assert bool(rep)
    assert rep.simplex_count == 25
    invariant = [s for s in rational_cells(tri) if s.image(sym).vertices == s.vertices]
    assert len(invariant) == 1
    assert centroid(invariant[0]) == (Fraction(1, 3),) * 3
    assert toric_lefschetz(tri, lp, sym) == 1
    assert count_fixed_elements(lp, sym) == 1
    assert fixed_sublattice_index(lp, sym) == 1
    assert verify_adjusted(tri, lp, sym)


def test_verify_crepant_detects_bad_volume():
    lp = build_lattice_pair(2, [((1, 1), 2)])
    coarse = triangulation_of([QSimplex.of((1, 0), (0, 1))])
    rep = verify_crepant(coarse, lp)
    assert not rep
    assert any("volume" in f for f in rep.failures)


def test_toric_lefschetz_trivial_group():
    lp = build_lattice_pair(2, [])
    tri = adjusted_triangulation(lp, SWAP2)
    assert toric_lefschetz(tri, lp, SWAP2) == 1


def _action_in_lattice_coords(lp, sym):
    """The symmetry's action on N in lattice coordinates: row i holds the
    N-coordinates of the image of basis vector i."""
    d, binv = lp.scale, lp.basis_inverse()
    rows = []
    for y in lp.basis:
        scaled = _lattice_coords(binv, sym.apply(y))
        if any(c % d for c in scaled):
            named = ", ".join(_coordinate_text(a, d) for a in y)
            raise NotInvariant(f"symmetry maps the basis vector ({named}) out of the lattice")
        rows.append([c // d for c in scaled])
    return IntMat.from_rows(rows)


def _quotient_block(S, rows, span):
    """Action induced on N / (N intersect the span of rows), given in
    N-coordinates; NotInvariant names ``span`` when it is not invariant.

    One Smith form U K V = D of the row matrix K does both jobs: K = U^-1 D
    V^-1, so the first r rows of V^-1 (r the rank) are a basis of the span's
    saturation N intersect span, and all n rows complete it to a basis of N.
    In that basis the action is A = V^-1 S V; an invariant saturation makes
    it block triangular, and its bottom-right block is the quotient action.
    """
    n = S.rows
    _, D, V = smith_normal_form(IntMat.from_rows(rows))
    r = sum(1 for i in range(min(D.rows, D.cols)) if D.get(i, i))
    A = V.inverse_unimodular().mul(S).mul(V)
    q = n - r
    if any(A.get(i, r + j) for i in range(r) for j in range(q)):
        raise NotInvariant(f"span of {list(span)} is not invariant under the symmetry")
    if not q:
        return IntMat(0, 0, ())
    return IntMat.from_rows([[A.get(r + i, r + j) for j in range(q)] for i in range(q)])


def _all_invariant_faces(tri, sym):
    """Every invariant face of the cells, as a sorted vertex tuple, in sorted order."""
    image = {y: sym.apply(y) for y in tri.vertex_set}
    faces = {
        f
        for key in tri.cells
        for k in range(1, len(key) + 1)
        for f in itertools.combinations(key, k)
        if tuple(sorted(image[y] for y in f)) == f
    }
    return sorted(faces)


def _all_faces_orbit_records(tri, lp, sym):
    """The orbit record of every invariant face, the empty face (None)
    first: the sum as the paper writes it, which orbit_records restricts to
    the maximal invariant faces.  Each term is det(I - A_f) of the action
    on the quotient of N, from one Smith form per face (``_quotient_block``)."""
    have = set(tri.cells)
    if not all(tuple(sorted(sym.apply(y) for y in key)) in have for key in tri.cells):
        raise NotInvariantTriangulation("symmetry does not map the triangulation to itself")
    S = _action_in_lattice_coords(lp, sym)
    records = [OrbitRecord(None, lp.n, _det_one_minus(S))]
    binv = lp.basis_inverse()
    for f in _all_invariant_faces(tri, sym):
        face = tuple(tuple(Fraction(a, tri.scale) for a in y) for y in f)
        A = _quotient_block(S, [_lattice_coords(binv, y) for y in f], face)
        records.append(OrbitRecord(face, A.rows, _det_one_minus(A)))
    return records


def test_dense_orbit_contribution_vanishes(z5sq):
    lp, sym = z5sq
    tri = adjusted_triangulation(lp, sym)
    records = _all_faces_orbit_records(tri, lp, sym)
    dense = next(r for r in records if r.face is None)
    assert dense.contribution == 0


def test_enclosed_face_contribution_vanishes():
    # the fixed vertex (1/2,1/2,0) lies in the closure of the invariant fixed
    # segment, so its orbit contributes zero
    lp = build_lattice_pair(3, [((1, 1, 0), 2)])
    tri = adjusted_triangulation(lp, SWAP3)
    records = _all_faces_orbit_records(tri, lp, SWAP3)
    mid = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    vertex_rec = next(
        r for r in records if r.face is not None and r.face == (mid,)
    )
    assert vertex_rec.contribution == 0
    seg_rec = next(
        r
        for r in records
        if r.face is not None
        and len(r.face) == 2
        and mid in r.face
        and (Fraction(0), Fraction(0), Fraction(1)) in r.face
    )
    assert seg_rec.contribution == 2
    assert toric_lefschetz(tri, lp, SWAP3) == 2


@pytest.mark.parametrize("s,expected", [(1, 0)] + [(s, s + 1) for s in range(2, 13)])
def test_block_det(s, expected):
    assert block_det(s) == expected


@pytest.mark.parametrize("m", range(1, 31))
def test_mckay_sweep_n2(m):
    lp = build_lattice_pair(2, [((1, m - 1), m)] if m > 1 else [])
    tri = adjusted_triangulation(lp, SWAP2)
    lef = toric_lefschetz(tri, lp, SWAP2)
    assert lef == count_fixed_elements(lp, SWAP2) == fixed_sublattice_index(lp, SWAP2)
    assert lef == (2 if m % 2 == 0 else 1)


def test_symmetry_report_z5sq(z5sq):
    lp, sym = z5sq
    rep = symmetry_report(lp, sym)
    assert rep["equal"] and rep["crepant"] and rep["adjusted"]
    assert rep["lefschetz"] == 1
    assert rep["simplex_count"] == 25
    assert rep["invariant_maximal_simplices"] == 1


def test_triangulation_choice_independence(z5sq):
    lp, sym = z5sq
    a = adjusted_triangulation(lp, sym, "lex")
    b = adjusted_triangulation(lp, sym, "revlex")
    assert set(a.cells) != set(b.cells)
    assert toric_lefschetz(a, lp, sym) == toric_lefschetz(b, lp, sym)
    assert bool(verify_crepant(b, lp)) and verify_adjusted(b, lp, sym)


def test_serialization_round_trip(z5sq):
    lp, sym = z5sq
    tri = adjusted_triangulation(lp, sym)
    doc = triangulation_to_document(tri, lp)
    blob = json.dumps(doc, sort_keys=True)
    back, lp2 = triangulation_from_document(json.loads(blob))
    assert {s.vertices for s in rational_cells(back)} == {s.vertices for s in rational_cells(tri)}
    assert lp2.order == lp.order
    assert json.dumps(triangulation_to_document(back, lp2), sort_keys=True) == blob


def test_old_document_with_certificate_loads(z5sq):
    lp, sym = z5sq
    doc = triangulation_to_document(adjusted_triangulation(lp, sym), lp)
    assert set(doc) == {"lattice", "vertices", "simplices"}
    old = dict(
        doc,
        certificate={
            "vertices": doc["vertices"],
            "simplices": doc["simplices"],
            "assignment": list(range(len(doc["simplices"]))),
        },
    )
    back, lp2 = triangulation_from_document(json.loads(json.dumps(old)))
    assert bool(verify_crepant(back, lp2)) and verify_adjusted(back, lp2, sym)
    assert toric_lefschetz(back, lp2, sym) == 1
    assert triangulation_to_document(back, lp2) == doc


def test_randomized_instances_smoke():
    rng = random.Random(11)
    for _ in range(12):
        lp, sym = _random_lattice_instance(rng)
        rep = symmetry_report(lp, sym)
        assert rep["equal"], (lp.generators, sym.perm)
        assert rep["crepant"] and rep["adjusted"]


# ---------------------------------------------------------------------------
# differential test: the facet-pairing certificate against the pairwise check


def _det_fraction(rows):
    """Determinant by Fraction elimination, independent of the code under test."""
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


def _nullspace(rows):
    """Basis of {y : rows . y = 0} over the rationals, one vector per free column."""
    if not rows:
        return []
    a = [list(r) for r in rows]
    pivots = _gauss_reduce(a)
    out = []
    for j in range(len(a[0])):
        if j in pivots:
            continue
        y = [Fraction(0)] * len(a[0])
        y[j] = Fraction(1)
        for r, c in enumerate(pivots):
            y[c] = -a[r][j]
        out.append(y)
    return out


def _rational_inverse(rows):
    """Inverse of a square rational matrix, read off the reduction of [A | I]."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    if _gauss_reduce(aug)[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [r[n:] for r in aug]


def _integer_kernel_rows(a):
    """Basis rows of the left kernel {c : c*a = 0} inside Z^rows."""
    U, D, _ = smith_normal_form(a)
    out = []
    for i in range(a.rows):
        d = D.get(i, i) if i < min(D.rows, D.cols) else 0
        if d == 0:
            out.append(list(U.row(i)))
    return out


def sublattice_in_subspace(lp, span_rows):
    """Basis of the lattice N intersected with a rational subspace, through a
    rational complement and the integer kernel of its pairing with N."""
    n = lp.n
    if not span_rows:
        return []
    basis = _rational_basis(lp)
    complement = _nullspace(span_rows)
    if not complement:
        return basis
    cols = []
    den = 1
    for y in complement:
        col = []
        for i in range(n):
            v = sum(basis[i][j] * y[j] for j in range(n))
            col.append(v)
            den = lcm(den, v.denominator)
        cols.append(col)
    mat = IntMat.from_rows(
        [[int(cols[k][i] * den) for k in range(len(cols))] for i in range(n)]
    )
    out = []
    for c in _integer_kernel_rows(mat):
        out.append(tuple(sum(Fraction(c[i]) * basis[i][j] for i in range(n)) for j in range(n)))
    return out


def _smith_volume(vertices, lp):
    """Normalized volume through the induced lattice's normal form."""
    edges = [[x - y for x, y in zip(v, vertices[0])] for v in vertices[1:]]
    induced = [list(b) for b in sublattice_in_subspace(lp, edges)]
    if len(induced) != len(edges):
        raise ValueError("degenerate simplex")
    return abs(_det_fraction([_solve_in_basis(e, induced) for e in edges]))


def _triangles_overlap(a, b):
    """Sutherland-Hodgman clip of one triangle by the other in the chart that
    drops the last coordinate; the interiors overlap iff the clip has area."""
    poly = [v[:2] for v in a.vertices]
    if _orient(*a.vertices) < 0:
        poly.reverse()
    clip = [v[:2] for v in b.vertices]
    if _orient(*b.vertices) < 0:
        clip.reverse()
    out = poly
    for i in range(3):
        p0, p1 = clip[i], clip[(i + 1) % 3]

        def side(q):
            return (p1[0] - p0[0]) * (q[1] - p0[1]) - (p1[1] - p0[1]) * (q[0] - p0[0])

        inp, out = out, []
        for j in range(len(inp)):
            cur, nxt = inp[j], inp[(j + 1) % len(inp)]
            dc, dn = side(cur), side(nxt)
            if dc >= 0:
                out.append(cur)
            if (dc >= 0) != (dn >= 0):
                t = dc / (dc - dn)
                out.append(tuple(x + t * (y - x) for x, y in zip(cur, nxt)))
    area = sum(
        out[i][0] * out[(i + 1) % len(out)][1] - out[(i + 1) % len(out)][0] * out[i][1]
        for i in range(len(out))
    )
    return len(out) >= 3 and area != 0


def _scaled_point(x):
    """(y, L) with L the lcm of the denominators of x and y = L*x."""
    den, (y,) = _integer_rows([x])
    return tuple(y), den


def _pairwise_reference(tri, lp):
    """Quadratic crepancy check: vertices in N on the base simplex, every
    triangle unimodular by the Smith route, volumes summing to |N/M|, and no
    two interiors overlapping."""
    for s in rational_cells(tri):
        if s.dim != 2:
            return False
        for v in s.vertices:
            if sum(v) != 1 or min(v) < 0 or not lp.contains(*_scaled_point(v)):
                return False
        try:
            if _smith_volume(s.vertices, lp) != 1:
                return False
        except ValueError:
            return False
    if len(tri.cells) != lp.order:
        return False
    sims = rational_cells(tri)
    boxes = [[(min(c), max(c)) for c in list(zip(*s.vertices))[:2]] for s in sims]
    return not any(
        all(max(p[0], q[0]) < min(p[1], q[1]) for p, q in zip(boxes[a], boxes[b]))
        and _triangles_overlap(sims[a], sims[b])
        for a in range(len(sims))
        for b in range(a + 1, len(sims))
    )


def _overlapping_flip(sims):
    """Replace (a,b,d) of an adjacent pair (a,b,c), (a,b,d) forming a convex
    quadrilateral by the flip triangle (a,c,d): unimodular, so the volume sum
    is unchanged, but it overlaps (a,b,c)."""
    for i, s in enumerate(sims):
        for j, t in enumerate(sims):
            shared = set(s.vertices) & set(t.vertices)
            if i == j or len(shared) != 2:
                continue
            a, b = sorted(shared)
            (c,) = set(s.vertices) - shared
            (d,) = set(t.vertices) - shared
            if _orient(c, d, a) * _orient(c, d, b) < 0:
                return [u for k, u in enumerate(sims) if k != j] + [QSimplex.of(a, c, d)]
    return None


def _mutations(tri, lp, rng):
    sims = rational_cells(tri)
    i = rng.randrange(len(sims))
    yield "dropped", sims[:i] + sims[i + 1 :]
    yield "duplicated", sims + [sims[i]]
    s = sims[i]
    k = rng.randrange(3)
    outside = [p for p in lp.base_points() if p not in s.vertices]
    target = rng.choice(outside + [centroid(rational_cells(tri)[0])])
    moved = QSimplex.of(*s.vertices[:k], target, *s.vertices[k + 1 :])
    yield "moved", sims[:i] + sims[i + 1 :] + [moved]
    flipped = _overlapping_flip(sims)
    if flipped is not None:
        yield "overlap", flipped


def test_certificate_matches_pairwise_reference():
    rng = random.Random(20261018)
    seen = {}
    for _ in range(24):
        lp, sym = _random_lattice_instance(rng)
        tri = adjusted_triangulation(lp, sym)
        assert verify_crepant(tri, lp).ok and _pairwise_reference(tri, lp)
        for kind, sims in _mutations(tri, lp, rng):
            mutated = triangulation_of(sims)
            rep = verify_crepant(mutated, lp)
            assert rep.ok == _pairwise_reference(mutated, lp), (kind, lp.generators)
            assert not rep.ok and rep.failures, (kind, lp.generators)
            seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"dropped", "duplicated", "moved", "overlap"}
    assert seen["overlap"] >= 12


def test_certificate_names_the_facet_witness(z5sq):
    lp, sym = z5sq
    tri = adjusted_triangulation(lp, sym)
    flipped = _overlapping_flip(rational_cells(tri))
    rep = verify_crepant(triangulation_of(flipped), lp)
    assert not rep.ok
    assert not any("volume" in f for f in rep.failures)
    assert any(
        f.startswith("interior facet") and "shared by 1 simplices, expected 2" in f
        for f in rep.failures
    )


def test_volume_routes_agree_on_maximal_simplices():
    rng = random.Random(7)
    checked = 0
    for _ in range(30):
        lp, _ = _random_lattice_instance(rng)
        pts = lp.base_points()
        for _ in range(6):
            verts = rng.sample(pts, 3)
            if rng.random() < 0.3:
                # off-lattice vertices at height one exercise the scaling
                verts[0] = centroid(QSimplex.of(*verts))
            try:
                smith = _smith_volume(verts, lp)
            except ValueError:
                with pytest.raises(ValueError):
                    normalized_volume(verts, lp)
                continue
            assert normalized_volume(verts, lp) == smith
            checked += 1
    for m in range(1, 12):
        lp = build_lattice_pair(2, [((1, m - 1), m)] if m > 1 else [])
        pts = lp.base_points()
        a, b = pts[0], pts[-1]
        assert normalized_volume((a, b), lp) == _smith_volume((a, b), lp) == m
    assert checked >= 120


def _unit_cell(n):
    """The triangulation of the base simplex by the one cell on the unit
    points, invariant under every coordinate permutation."""
    return Triangulation(1, [[tuple(int(i == j) for j in range(n)) for i in range(n)]])


def test_symmetry_outside_lattice_raises():
    """The Lefschetz sum refuses a symmetry that maps N off itself, also on
    a triangulation whose only invariant face is a cell, where it once
    returned 1; the Smith reference names the same basis vector."""
    lp = build_lattice_pair(3, [((1, 0, 2), 3)])
    cell = _unit_cell(3)
    named = r"basis vector \(1/3, 0, 2/3\) out of the lattice"
    for evaluate in (orbit_records, toric_lefschetz):
        with pytest.raises(NotInvariant, match=named):
            evaluate(cell, lp, SWAP3)
    with pytest.raises(NotInvariant, match=named):
        _action_in_lattice_coords(lp, SWAP3)
    plain = build_lattice_pair(3, [])
    assert toric_lefschetz(cell, plain, SWAP3) == 1
    # the reference refuses a span that the symmetry does not keep
    S = _action_in_lattice_coords(plain, SWAP3)
    e1 = _lattice_coords(plain.basis_inverse(), (1, 0, 0))
    with pytest.raises(NotInvariant, match="is not invariant"):
        _quotient_block(S, [e1], [(Fraction(1), Fraction(0), Fraction(0))])


def test_certificate_rejects_a_fold():
    # both segments end at 1/2 from the same side: the shared point is paired
    # but the covering folds back on itself
    lp = build_lattice_pair(2, [((1, 3), 4)])
    half, quarter = (Fraction(1, 2),) * 2, (Fraction(3, 4), Fraction(1, 4))
    fold = triangulation_of([QSimplex.of((1, 0), half), QSimplex.of(quarter, half)])
    rep = verify_crepant(fold, lp)
    assert not rep.ok
    assert any("lie on the same side of their facet" in f for f in rep.failures)


# ---------------------------------------------------------------------------
# differential test: maximal invariant faces per simplex against all pairs


def _all_faces(simplices):
    """Every nonempty face of the simplices, once each, in sorted order."""
    keys = {
        sub
        for s in simplices
        for k in range(1, len(s.vertices) + 1)
        for sub in itertools.combinations(s.vertices, k)
    }
    return [QSimplex(key) for key in sorted(keys)]


def _reference_maximal_invariant_faces(simplices, sym):
    """Every invariant face, compared with every other one."""
    faces = _all_faces(simplices)
    invariant = [frozenset(f.vertices) for f in faces if f.image(sym).vertices == f.vertices]
    return [
        QSimplex(tuple(sorted(f))) for f in invariant if not any(f < g for g in invariant)
    ]


def _compare_maximal_faces(tri, lp, sym):
    """The per-simplex search finds the reference's faces, and verify_adjusted
    gives the verdict the Fraction standardness test gives on the reference's
    faces."""
    got = _maximal_invariant_faces([s.vertices for s in rational_cells(tri)], sym)
    want = _reference_maximal_invariant_faces(rational_cells(tri), sym)
    assert len(got) == len(set(got))
    assert set(got) == {f.vertices for f in want}, (lp.generators, sym.perm)
    vertex_sets = [(s, frozenset(s.vertices)) for s in rational_cells(tri)]
    verdict = True
    for f in want:
        inside = frozenset(f.vertices)
        restricted = triangulation_of([s for s, vs in vertex_sets if vs <= inside] or [f])
        verdict = verdict and _reference_is_g_standard(f, restricted, sym, lp)
    assert bool(verify_adjusted(tri, lp, sym)) == verdict


def test_maximal_invariant_faces_match_all_pairs_reference_3d():
    rng = random.Random(4242)
    ident = PermSymmetry.identity(3)
    for _ in range(200):
        lp, sym = _random_lattice_instance(rng)
        tri = adjusted_triangulation(lp, sym)
        _compare_maximal_faces(tri, lp, sym)
        _compare_maximal_faces(tri, lp, ident)
    for m in range(3, 13):
        lp = build_lattice_pair(3, [((1, 1, m - 2), m)])
        _compare_maximal_faces(adjusted_triangulation(lp, ident), lp, ident)


@pytest.mark.parametrize("m", range(2, 31))
def test_maximal_invariant_faces_match_all_pairs_reference_2d(m):
    lp = build_lattice_pair(2, [((1, m - 1), m)])
    for sym in (SWAP2, PermSymmetry.identity(2)):
        _compare_maximal_faces(adjusted_triangulation(lp, sym), lp, sym)
        _compare_maximal_faces(adjusted_triangulation(lp, sym), lp, SWAP2)


@pytest.mark.parametrize("gens, sym", [
    ([((1, 1, 198), 200)], SWAP3),
    ([((1, 1, 198), 200)], PermSymmetry.identity(3)),
    ([((1, 4, 0), 5), ((0, 1, 4), 5)], ROT3),
])
def test_invariant_faces_apply_the_symmetry_once_per_vertex(monkeypatch, gens, sym):
    lp = build_lattice_pair(3, gens)
    tri = adjusted_triangulation(lp, sym)
    calls = []
    apply = PermSymmetry.apply
    monkeypatch.setattr(PermSymmetry, "apply", lambda self, x: calls.append(x) or apply(self, x))
    faces = _maximal_invariant_faces(tri.cells, sym)
    assert faces and len(calls) == len(set(calls)) == len(tri.vertex_set)
    calls.clear()
    # the Lefschetz records: one image map of the vertices, then the basis of N
    records = orbit_records(tri, lp, sym)
    assert len(records) == len(faces)
    assert len(calls) <= 2 * len(tri.vertex_set) + lp.n


def test_apply_moves_coordinate_i_to_position_perm_i():
    sym = PermSymmetry((2, 0, 3, 1))
    assert sym.apply(("a", "b", "c", "d")) == ("b", "d", "a", "c")
    assert sym.apply([1, 2, 3, 4]) == (2, 4, 1, 3)
    assert PermSymmetry((0,)).apply([7]) == (7,) and PermSymmetry(()).apply(()) == ()


# ---------------------------------------------------------------------------
# the fundamental-domain constructor across lattice families


def _constructor_cases():
    for m in range(2, 12):
        yield build_lattice_pair(3, [((1, m - 1, 0), m), ((0, 1, m - 1), m)]), ROT3
    for m in range(2, 61):
        lp = build_lattice_pair(3, [((1, 1, m - 2), m)])
        yield lp, PermSymmetry.identity(3)
        yield lp, SWAP3
    rng = random.Random(5)
    for _ in range(150):
        yield _random_lattice_instance(rng)
    # the core vertices are the edge midpoints, so the domain is a corner triangle
    yield build_lattice_pair(3, [((1, 1, 0), 2), ((0, 1, 1), 2), ((1, 0, 1), 2)]), ROT3


def _expected_invariant_simplices(lp, sym):
    """Every simplex for the identity; otherwise one core triangle exactly
    when the fixed point on the mirrored side (or the centre) is not in N."""
    if sym.order == 1:
        return lp.order
    if sym.order == 2:
        i, j = next(c for c in sym.cycles() if len(c) == 2)
        point, scale = tuple(int(t in (i, j)) for t in range(3)), 2
    else:
        point, scale = (1, 1, 1), 3
    return 0 if lp.contains(point, scale) else 1


def test_fundamental_domain_constructor_sweep(monkeypatch):
    real_verify = toric.verify_crepant
    calls = []
    monkeypatch.setattr(toric, "verify_crepant", lambda *args: calls.append(args))
    builds = 0
    for lp, sym in _constructor_cases():
        for order in ("lex", "revlex"):
            tri = adjusted_triangulation(lp, sym, order)
            assert calls == []
            case = (lp.generators, sym.perm, order)
            rep = real_verify(tri, lp)
            assert rep.ok and rep.simplex_count == lp.order, case
            assert verify_adjusted(tri, lp, sym), case
            lef = toric_lefschetz(tri, lp, sym)
            assert lef == count_fixed_elements(lp, sym) == fixed_sublattice_index(lp, sym), case
            invariant = sum(1 for s in rational_cells(tri) if s.image(sym).vertices == s.vertices)
            assert invariant == _expected_invariant_simplices(lp, sym), case
            builds += 1
    assert builds == 2 * (10 + 2 * 59 + 150 + 1)


# ---------------------------------------------------------------------------
# differential test: the integer triangulation against the Fraction route it
# replaced, where the construction turned its points into Fraction vertices
# and every check and the document writer read them back


def _unscaled(cells, d):
    """The simplices on the points d*x as QSimplexes with the vertices x,
    each simplex once, in sorted order."""
    keys = sorted({tuple(sorted(c)) for c in cells})
    values = [Fraction(c, d) for c in range(d + 1)]  # the coordinates on the base simplex
    return [QSimplex(tuple(tuple(values[c] for c in y) for y in key)) for key in keys]


def _reference_document(simplices, lp):
    """The document of Fraction vertices, sorted as Fractions."""
    vertices = sorted({v for s in simplices for v in s.vertices})
    vindex = {v: i for i, v in enumerate(vertices)}

    def text(x):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)

    return {
        "lattice": {"n": lp.n, "generators": [[list(vec), m] for vec, m in lp.generators]},
        "vertices": [",".join(text(x) for x in v) for v in vertices],
        "simplices": [[vindex[v] for v in s.vertices] for s in simplices],
    }


def _fraction_route_values(lp, sym, simplices):
    """The report values that depend on the triangulation, with each check
    fed the Fraction simplices scaled back by the lcm of D and their
    denominators, and the invariant simplices counted on Fraction vertices."""
    back = triangulation_of(simplices, lp.scale)
    lef = toric_lefschetz(back, lp, sym)
    return {
        "crepant": verify_crepant(back, lp).ok,
        "simplex_count": len(simplices),
        "lefschetz": lef,
        "invariant_maximal_simplices": sum(
            1 for s in simplices if s.image(sym).vertices == s.vertices
        ),
        "adjusted": bool(verify_adjusted(back, lp, sym)),
        "equal": lef == count_fixed_elements(lp, sym) == fixed_sublattice_index(lp, sym),
    }


def _standing_sweep():
    """The constructor cases, with Zm^2 and the 3-cycle up to m = 17."""
    yield from _constructor_cases()
    for m in range(12, 18):
        yield build_lattice_pair(3, [((1, m - 1, 0), m), ((0, 1, m - 1), m)]), ROT3


def test_integer_triangulation_matches_fraction_route():
    builds = 0
    for lp, sym in _standing_sweep():
        for order in ("lex", "revlex"):
            case = (lp.generators, sym.perm, order)
            report = symmetry_report(lp, sym, order)
            tri = report.pop("triangulation")
            assert tri.scale == lp.scale, case
            simplices = _unscaled(tri.cells, tri.scale)
            assert rational_cells(tri) == simplices, case
            assert triangulation_of(simplices, lp.scale) == tri, case
            want = _fraction_route_values(lp, sym, simplices)
            assert {k: report[k] for k in want} == want, case
            fixed = normalized_volume(_fixed_polytope(sym).vertices, lp)
            assert report["fixed_locus_volume"] == fixed, case
            doc = triangulation_to_document(tri, lp)
            assert doc == _reference_document(simplices, lp), case
            back, lp2 = triangulation_from_document(json.loads(json.dumps(doc)))
            assert back == tri and lp2 == lp, case
            # the loaded document audits as the build did
            assert audit_triangulation(back, lp2, sym) == report, case
            builds += 1
    assert builds == 2 * (10 + 2 * 59 + 150 + 1 + 6)


# ---------------------------------------------------------------------------
# differential test: the Lefschetz sum over maximal invariant faces against
# the sum over every invariant face


def _check_maximal_records(records, tri, lp, sym):
    """The records are the all-faces reference's records of the maximal
    invariant faces, in order, and sum to the reference's sum.  Returns the
    reference."""
    reference = _all_faces_orbit_records(tri, lp, sym)
    faces = [r.face for r in reference[1:]]
    inner = {sub for f in faces for k in range(1, len(f)) for sub in itertools.combinations(f, k)}
    assert records == [r for r in reference[1:] if r.face not in inner]
    assert sum(r.contribution for r in records) == sum(r.contribution for r in reference)
    return reference


def _lefschetz_sweep():
    """Zm^2 with the 3-cycle for m <= 17, 1,1,m-2@m for m = 2..119 with the
    identity and (1 2), and the seed-5 random instances."""
    for m in range(2, 18):
        yield build_lattice_pair(3, [((1, m - 1, 0), m), ((0, 1, m - 1), m)]), ROT3
    for m in range(2, 120):
        lp = build_lattice_pair(3, [((1, 1, m - 2), m)])
        yield lp, PermSymmetry.identity(3)
        yield lp, SWAP3
    rng = random.Random(5)
    for _ in range(150):
        yield _random_lattice_instance(rng)


def test_maximal_face_sum_matches_all_faces_reference():
    builds = faces = zeros = 0
    for lp, sym in _lefschetz_sweep():
        for order in ("lex", "revlex"):
            case = (lp.generators, sym.perm, order)
            report = symmetry_report(lp, sym, order)
            tri = report["triangulation"]
            records = orbit_records(tri, lp, sym)
            reference = _check_maximal_records(records, tri, lp, sym)
            assert report["lefschetz"] == sum(r.contribution for r in records), case
            assert report["crepant"] and report["adjusted"] and report["equal"], case
            # the cycle-type term of every invariant face, maximal or not,
            # is the Smith reference's, zero or not
            lengths = [len(c) for c in sym.cycles()]
            for f, r in zip(_all_invariant_faces(tri, sym), reference[1:], strict=True):
                assert toric._face_contribution(f, lengths, sym.apply) == r.contribution, (case, f)
                faces += 1
                zeros += r.contribution == 0
            builds += 1
    assert builds == 2 * (16 + 2 * 118 + 150)
    # 37,550 of the 59,564 terms are zero, so both branches of the rule run
    assert (faces, zeros) == (59564, 37550)


def test_a_non_maximal_record_fails_the_differential_check(monkeypatch, z5sq):
    real = toric._maximal_invariant_faces
    cases = [
        (build_lattice_pair(3, [((1, 1, 0), 2)]), SWAP3),
        (build_lattice_pair(3, [((1, 1, 18), 20)]), PermSymmetry.identity(3)),
        z5sq,
    ]
    for lp, sym in cases:
        tri = adjusted_triangulation(lp, sym)
        records = orbit_records(tri, lp, sym)
        _check_maximal_records(records, tri, lp, sym)
        maximal = [r.face for r in records]
        extra = next(
            (r for r in _all_faces_orbit_records(tri, lp, sym)[1:] if r.face not in maximal), None
        )
        if extra is None:
            # the empty face is the only non-maximal invariant face
            assert sym == ROT3 and _all_faces_orbit_records(tri, lp, sym)[0].contribution == 0
            continue
        key = tuple(tuple(int(x * tri.scale) for x in v) for v in extra.face)
        monkeypatch.setattr(toric, "_maximal_invariant_faces", lambda c, s: sorted(real(c, s) + [key]))
        fresh = adjusted_triangulation(lp, sym)
        mutated = orbit_records(fresh, lp, sym)
        monkeypatch.setattr(toric, "_maximal_invariant_faces", real)
        assert extra in mutated and len(mutated) == len(records) + 1
        # its term is zero, so only the face check can see it
        assert sum(r.contribution for r in mutated) == sum(r.contribution for r in records)
        with pytest.raises(AssertionError):
            _check_maximal_records(mutated, fresh, lp, sym)


def _flip_edge(cells, edge):
    """The cells with ``edge``, the diagonal of a convex quadrilateral made
    of two cells, replaced by the other diagonal; None for any other edge."""
    users = [c for c in cells if set(edge) <= set(c)]
    if len(users) != 2:
        return None
    (a, b), (s, t) = edge, users
    (c,) = set(s) - set(edge)
    (d,) = set(t) - set(edge)
    if _orient(a, b, c) * _orient(a, b, d) >= 0 or _orient(c, d, a) * _orient(c, d, b) >= 0:
        return None
    return [u for u in cells if u not in users] + [(a, c, d), (b, c, d)]


def test_load_reads_flips_of_the_revlex_triangulation(tmp_path, capsys):
    """One flip leaves a crepant triangulation the symmetry does not keep;
    flipping the image edge too gives an invariant one that the constructor
    does not build, with the same L."""
    from crepant.cli import main

    lp = build_lattice_pair(3, [((0, 1, 4), 5), ((1, 0, 4), 5)])
    tri = adjusted_triangulation(lp, SWAP3, "revlex")
    edge = ((0, 0, 5), (1, 3, 1))
    one = _flip_edge(list(tri.cells), edge)
    both = _flip_edge(one, ((0, 0, 5), (3, 1, 1)))
    path = tmp_path / "flip.json"
    for cells, invariant in ((one, False), (both, True)):
        flipped = Triangulation(tri.scale, cells)
        path.write_text(json.dumps(triangulation_to_document(flipped, lp)))
        assert main(["toric", "--load", str(path), "--perm", "(1 2)"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["crepant"] and results["simplices"] == lp.order == 25
        if invariant:
            _check_maximal_records(orbit_records(flipped, lp, SWAP3), flipped, lp, SWAP3)
            built = [set(adjusted_triangulation(lp, SWAP3, o).cells) for o in ("lex", "revlex")]
            assert set(flipped.cells) not in built
            assert verify_adjusted(flipped, lp, SWAP3)
            assert results["lefschetz"] == count_fixed_elements(lp, SWAP3) == 5
        else:
            with pytest.raises(NotInvariantTriangulation):
                orbit_records(flipped, lp, SWAP3)
            assert results["lefschetz"] is None
        assert main(["toric", "--load", str(path), "--perm", "id"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["lefschetz"] == 25


def test_the_lefschetz_sum_builds_no_record_and_no_fraction(monkeypatch, z5sq):
    """toric_lefschetz sums the integer terms of the integer faces: with
    OrbitRecord and Fraction made to raise in crepant.toric, it gives
    the sum of the records on fresh triangulations and still raises
    NotInvariantTriangulation and NotInvariant."""
    cases = []
    for lp, sym in (z5sq, *_line_family((20, 400))):
        for order in ("lex", "revlex"):
            tri = adjusted_triangulation(lp, sym, order)
            want = sum(r.contribution for r in orbit_records(tri, lp, sym))
            cases.append((Triangulation(tri.scale, tri.cells), lp, sym, want))
    lp5 = build_lattice_pair(3, [((0, 1, 4), 5), ((1, 0, 4), 5)])
    revlex = adjusted_triangulation(lp5, SWAP3, "revlex")
    one_flip = Triangulation(revlex.scale, _flip_edge(list(revlex.cells), ((0, 0, 5), (1, 3, 1))))
    cell, off = _unit_cell(3), build_lattice_pair(3, [((1, 0, 2), 3)])

    def refuse(*args):
        raise AssertionError("the Lefschetz sum built a record or a Fraction")

    monkeypatch.setattr(toric, "OrbitRecord", refuse)
    monkeypatch.setattr(toric, "Fraction", refuse)
    for tri, lp, sym, want in cases:
        assert toric_lefschetz(tri, lp, sym) == want, (lp.generators, sym.perm)
    with pytest.raises(NotInvariantTriangulation, match="does not map the triangulation"):
        toric_lefschetz(one_flip, lp5, SWAP3)
    with pytest.raises(NotInvariant, match=r"basis vector \(1/3, 0, 2/3\) out of the lattice"):
        toric_lefschetz(cell, off, SWAP3)
    with pytest.raises(AssertionError, match="built a record"):
        orbit_records(cell, build_lattice_pair(3, []), SWAP3)


def test_load_skips_the_lefschetz_number_of_a_degenerate_cell(tmp_path, capsys):
    """The maximal-face sum needs nondegenerate cells: a cell on three
    collinear points adds 1 to it and 0 to the sum over every invariant
    face, so a document that fails verify_crepant reports no L."""
    from crepant.cli import main

    lp = build_lattice_pair(3, [((1, 1, 18), 20)])
    ident = PermSymmetry.identity(3)
    tri = adjusted_triangulation(lp, ident)
    # the points of N off the corners lie on the mirror line through e_3
    line = [y for y in tri.vertex_set if y[0] == y[1]][:3]
    bad = Triangulation(tri.scale, tri.cells + (tuple(line),))
    reference = sum(r.contribution for r in _all_faces_orbit_records(bad, lp, ident))
    assert toric_lefschetz(bad, lp, ident) == reference + 1 == lp.order + 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(triangulation_to_document(bad, lp)))
    assert main(["toric", "--load", str(path), "--perm", "id"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["lefschetz"] is None and not results["crepant"]
    assert any(f.startswith("degenerate simplex") for f in results["failures"])


# ---------------------------------------------------------------------------
# differential tests: the integer model of N/M against the Fraction routes
# it replaced


def _rational_basis(lp):
    """The basis of N as rows of Fractions, the integer rows over the scale."""
    return [tuple(Fraction(a, lp.scale) for a in y) for y in lp.basis]


def row_lattice_basis(rows) -> list[list[Fraction]]:
    """Basis of the lattice generated by rational row vectors.

    Scales to an integer matrix, takes the Smith decomposition U*A*V = D, and
    reads the basis off the nonzero rows of D*V^-1.
    """
    if not rows:
        return []
    den, scaled = _integer_rows(rows)
    _, D, V = smith_normal_form(IntMat.from_rows(scaled))
    DVinv = D.mul(V.inverse_unimodular())
    basis = []
    for i in range(DVinv.rows):
        r = DVinv.row(i)
        if any(r):
            basis.append([Fraction(x, den) for x in r])
    return basis


def _rational_det(rows) -> Fraction:
    """Determinant of a square rational matrix, by Bareiss elimination on the
    rows scaled by their common denominator D, divided by D^n."""
    den, scaled = _integer_rows(rows)
    return Fraction(IntMat.from_rows(scaled).det(), den ** len(rows))


def _reference_lattice_pair(n, gens):
    """(D, integer basis rows, order, basis inverse) by the rational route the
    one Smith form replaced: the rational row basis of the unit vectors and
    the generators, the order from its determinant, and the inverse from a
    second Smith form U K V = S of K = D*B, as V (D S^-1) U."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows += [[Fraction(a, m) for a in vec] for vec, m in gens]
    basis = row_lattice_basis(rows)
    order = 1 / abs(_rational_det(basis))
    d, K = _integer_rows(basis)
    U, S, V = smith_normal_form(IntMat.from_rows(K))
    s = [S.get(k, k) for k in range(n)]
    inverse = V.mul(IntMat.from_rows([[d // s[k] * x for x in U.row(k)] for k in range(n)]))
    return d, [tuple(r) for r in K], order, inverse.to_rows()


def _reference_coords(lp, x, binv=None):
    """N-coordinates of x through the rational inverse of the basis."""
    binv = binv or _rational_inverse(_rational_basis(lp))
    return [sum(Fraction(x[i]) * binv[i][j] for i in range(lp.n)) for j in range(lp.n)]


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _reference_base_points(lp):
    """Every point of denominator D on the base simplex, kept when its
    N-coordinates are integers."""
    d = lp.scale
    binv = _rational_inverse(_rational_basis(lp))
    pts = []
    for comp in _compositions(d, lp.n):
        x = tuple(Fraction(c, d) for c in comp)
        if all(c.denominator == 1 for c in _reference_coords(lp, x, binv)):
            pts.append(x)
    return sorted(pts)


def _reference_cosets(lp):
    """Representatives of N/M in the half-open unit cube, by a search mod 1."""
    reps = {tuple(Fraction(0) for _ in range(lp.n))}
    frontier = list(reps)
    gens = [tuple(Fraction(a, m) for a in vec) for vec, m in lp.generators]
    while frontier:
        nxt = []
        for r in frontier:
            for g in gens:
                s = tuple((x + y) % 1 for x, y in zip(r, g))
                if s not in reps:
                    reps.add(s)
                    nxt.append(s)
        frontier = nxt
    return reps


def _reference_fixed_count(lp, sym):
    return sum(1 for rep in _reference_cosets(lp) if tuple(v % 1 for v in sym.apply(rep)) == rep)


def _reference_action(lp, sym):
    rows = []
    for b in _rational_basis(lp):
        c = _reference_coords(lp, sym.apply(b))
        if any(x.denominator != 1 for x in c):
            raise NotInvariant("basis vector leaves the lattice")
        rows.append([int(x) for x in c])
    return IntMat.from_rows(rows)


def _reference_quotient_action(lp, S, span_vectors):
    """The action on N / (N intersect span): the saturated span from
    sublattice_in_subspace, completed to a basis of N by a second Smith form."""
    n = lp.n
    sat = sublattice_in_subspace(lp, list(span_vectors))
    r = len(sat)
    K = IntMat.from_rows([[int(x) for x in _reference_coords(lp, v)] for v in sat])
    _, _, V = smith_normal_form(K)
    W = IntMat.from_rows([[int(x) for x in row] for row in _rational_inverse(V.to_rows())])
    A = W.mul(S).mul(V)
    q = n - r
    if any(A.get(i, r + j) for i in range(r) for j in range(q)):
        raise NotInvariant("span is not invariant")
    return [[A.get(r + i, r + j) for j in range(q)] for i in range(q)]


def _reference_records(tri, lp, sym):
    """(face vertices, quotient rank, contribution) of every invariant face."""
    S = _reference_action(lp, sym)

    def contribution(a):
        q = len(a)
        return _det_fraction([[int(i == j) - a[i][j] for j in range(q)] for i in range(q)])

    out = [(None, lp.n, contribution(S.to_rows()))]
    for f in _all_faces(rational_cells(tri)):
        if f.image(sym).vertices == f.vertices:
            a = _reference_quotient_action(lp, S, f.vertices)
            out.append((f.vertices, len(a), contribution(a)))
    return out


def _symmetries(n):
    syms = [PermSymmetry.identity(n), PermSymmetry.from_cycles(n, [(0, 1)])]
    return syms + ([ROT3] if n == 3 else [])


@st.composite
def _lattice_pairs(draw):
    """Lattice pairs with n in {2, 3} and |N/M| up to 150."""
    n = draw(st.sampled_from([2, 3]))
    gens = []
    for bound in (150, 12)[: draw(st.integers(1, 2))]:
        m = draw(st.integers(1, bound))
        head = draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
        gens.append((tuple(head) + ((-sum(head)) % m,), m))
    lp = build_lattice_pair(n, gens)
    assume(lp.order <= 150)
    return lp


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_lattice_pairs())
def test_integer_lattice_model_matches_fraction_references(lp):
    d = lp.scale
    assert lp.base_points() == _reference_base_points(lp)
    assert {tuple(Fraction(c, d) for c in r) for r in lp.residues()} == _reference_cosets(lp)
    want = [[int(x) for x in row] for row in _rational_inverse(_rational_basis(lp))]
    assert lp.basis_inverse() == want
    for sym in _symmetries(lp.n):
        assert count_fixed_elements(lp, sym) == _reference_fixed_count(lp, sym)
        if not sym.preserves(lp):
            with pytest.raises(NotInvariant) as reference:
                _action_in_lattice_coords(lp, sym)
            for evaluate in (orbit_records, toric_lefschetz):
                with pytest.raises(NotInvariant) as refused:
                    evaluate(_unit_cell(lp.n), lp, sym)
                assert str(refused.value) == str(reference.value)
            continue
        assert _action_in_lattice_coords(lp, sym) == _reference_action(lp, sym)
        tri = adjusted_triangulation(lp, sym)
        got = [(r.face, r.quotient_rank, r.contribution) for r in orbit_records(tri, lp, sym)]
        want = _reference_records(tri, lp, sym)
        maximal = {f.vertices for f in _reference_maximal_invariant_faces(rational_cells(tri), sym)}
        case = (lp.generators, sym.perm)
        assert got == [r for r in want if r[0] in maximal], case
        assert sum(r[2] for r in got) == sum(r[2] for r in want), case


# pairs the one Smith form is checked on by name: D = 3 below the modulus 6,
# a large prime-power-free order, no generators, and dimensions 4 and 5
_NAMED_PAIRS = [
    (3, [((1, 1, 398), 400)]),
    (3, [((2, 4, 0), 6)]),
    (2, [((1, 19), 20)]),
    (3, []),
    (4, [((1, 1, 1, 1), 4)]),
    (4, [((1, 1, 0, 0), 2), ((0, 0, 1, 1), 2), ((1, 2, 0, 3), 6)]),
    (5, [((1, 1, 1, 1, 1), 5)]),
    (5, [((1, 1, 1, 1, 2), 6), ((1, 5, 0, 0, 0), 6)]),
]


@st.composite
def _generator_lists(draw):
    """n in {2, ..., 5} and 0 to 3 generators, some of modulus 1 and some
    not in lowest terms: k*a @ k*m shares the factor k with its modulus."""
    n = draw(st.integers(2, 5))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.integers(1, 12))
        head = draw(st.lists(st.integers(-m, m), min_size=n - 1, max_size=n - 1))
        k = draw(st.integers(1, 3))
        gens.append((tuple(k * a for a in head) + (k * (-sum(head) % m),), k * m))
    return n, gens


def _check_one_smith_form(n, gens):
    """build_lattice_pair and basis_inverse() take one Smith form together
    and agree with the rational reference."""
    want = _reference_lattice_pair(n, gens)
    real, calls = toric.smith_normal_form, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toric, "smith_normal_form", lambda a: calls.append(a) or real(a))
        lp = build_lattice_pair(n, gens)
        inverse = lp.basis_inverse()
    assert len(calls) == 1
    assert (lp.scale, list(lp.basis), lp.order, inverse) == want


@settings(max_examples=150, deadline=None)
@given(_generator_lists())
def test_one_smith_form_matches_the_rational_lattice_pair(case):
    _check_one_smith_form(*case)


@pytest.mark.parametrize("n,gens", _NAMED_PAIRS)
def test_one_smith_form_matches_the_rational_lattice_pair_on_named_pairs(n, gens):
    _check_one_smith_form(n, gens)


def test_fixed_locus_volume_matches_normalized_volume_in_dimensions_4_and_5():
    # symmetry_report builds no triangulation for n >= 4, so the volume it
    # reports is checked here through the routine it calls
    values = []
    for n, gens in _NAMED_PAIRS[4:]:
        lp = build_lattice_pair(n, gens)
        units = [tuple(lp.scale * int(i == j) for j in range(n)) for i in range(n)]
        for perm in itertools.permutations(range(n)):
            sym = PermSymmetry(perm)
            if sym.preserves(lp):
                vol = _cycle_average_volume(units, sym.cycles(), lp, lp.scale)
                assert vol == normalized_volume(_fixed_polytope(sym).vertices, lp), (gens, perm)
                values.append(vol)
    assert len(values) > 50 and len(set(values)) > 2


def test_lattice_pair_with_a_wrong_order_raises():
    lp = build_lattice_pair(3, [((1, 2, 2), 5), ((1, 1, 3), 5)])
    for order in (5, 24, 26, 125):
        bad = lp.replace(order=order)
        with pytest.raises(LatticeError, match=f"not the order {order}"):
            bad.residues()
        with pytest.raises(LatticeError):
            bad.contains((1, 2, 2), 5)
        with pytest.raises(LatticeError):
            count_fixed_elements(bad, ROT3)
    # a generator outside the lattice the basis spans
    units = build_lattice_pair(2, [])
    with pytest.raises(LatticeError, match="not in"):
        units.replace(generators=(((1, 1), 2),), order=2).residues()


def test_contains_reads_scaled_points():
    lp = build_lattice_pair(3, [((1, 1, 5), 7)])
    assert lp.contains((1, 1, 5), 7) and lp.contains((2, 2, 10), 14) and lp.contains((0, 0, 3), 3)
    assert not lp.contains((1, 1, 4), 7)
    # 7x = (3/2, 1, 5) is not integral, though (1, 1, 5) is the residue of a point of N
    assert not lp.contains((3, 2, 10), 14)


def test_document_vertex_outside_the_lattice_is_named(tmp_path, capsys):
    from crepant.cli import main

    lp = build_lattice_pair(3, [((1, 1, 5), 7)])
    doc = triangulation_to_document(adjusted_triangulation(lp, SWAP3), lp)
    k = doc["vertices"].index("1/7,1/7,5/7")
    cases = [
        ("2/7,1/7,4/7", "(2/7, 1/7, 4/7)", "not in the overlattice"),
        ("1/3,1/3,1/3", "(1/3, 1/3, 1/3)", "not in the overlattice"),
        ("1/7,1/7,1/7", "(1/7, 1/7, 1/7)", "outside the base simplex"),
    ]
    for text, vertex, what in cases:
        bad = dict(doc, vertices=doc["vertices"][:k] + [text] + doc["vertices"][k + 1 :])
        tri, lp2 = triangulation_from_document(json.loads(json.dumps(bad)))
        rep = verify_crepant(tri, lp2)
        assert not rep.ok
        assert f"vertex {vertex} {what}" in rep.failures
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["toric", "--load", str(path), "--perm", "(1 2)"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert f"vertex {vertex} {what}" in report["results"]["failures"]


# ---------------------------------------------------------------------------
# the paper's identity on random lattices, for every symmetry and order


@st.composite
def _invariant_lattices(draw):
    """For each of id, (1 2) and (1 2 3), an n = 3 lattice closed under it
    with |N/M| up to 150, drawn from the same generators."""
    # the orbit of a vector under (1 2 3) spans up to m^2 elements
    m = draw(st.one_of(st.integers(2, 13), st.integers(14, 150)))
    vecs = []
    for _ in range(draw(st.integers(1, 2))):
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        vecs.append((a, b, (-a - b) % m))
    out = []
    for sym in _symmetries(3):
        gens = []
        for v in vecs:
            for _ in range(sym.order):
                gens.append((v, m))
                v = sym.apply(v)
        lp = build_lattice_pair(3, gens)
        if lp.order <= 150:
            out.append((lp, sym))
    assume(out)
    return out


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_invariant_lattices())
def test_lefschetz_equals_fixed_count_and_index_on_random_lattices(cases):
    for lp, sym in cases:
        for order in ("lex", "revlex"):
            rep = symmetry_report(lp, sym, order)
            case = (lp.generators, sym.perm, order)
            assert rep["crepant"] and rep["adjusted"], case
            assert rep["simplex_count"] == lp.order, case
            assert rep["lefschetz"] == rep["fixed_count"] == rep["sublattice_index"], case
            assert rep["equal"], case


# ---------------------------------------------------------------------------
# differential tests: the walking point location and the edge-map flip
# against the scans they replaced, and verify_adjusted on the crepancy
# certificate against the full check


def _scan_insert_points(triangles, points):
    """Incremental insertion that scans every triangle for each point: the
    first triangle in list order that holds the point is split in place, and
    an edge split rebuilds the list, directing the edge as in that triangle."""
    tris = list(triangles)
    for p in points:
        if any(p in t for t in tris):
            continue
        for idx, t in enumerate(tris):
            where = toric._point_in_triangle(p, t)
            if where == "in":
                a, b, c = t
                tris[idx : idx + 1] = [(a, b, p), (b, c, p), (c, a, p)]
                break
            if where == "edge":
                a, b, c = t
                edge = next(e for e in ((a, b), (b, c), (c, a)) if _orient(*e, p) == 0)
                new = []
                for t2 in tris:
                    if edge[0] in t2 and edge[1] in t2:
                        opp2 = next(v for v in t2 if v not in edge)
                        new.append((edge[0], p, opp2))
                        new.append((edge[1], p, opp2))
                    else:
                        new.append(t2)
                tris = new
                break
        else:
            raise ValueError(f"point {p} is outside the region being triangulated")
    return tris


def _scan_flip_one_diagonal(tris):
    """The flip that tries every pair (i, j) of triangles in order."""
    sets = [frozenset(t) for t in tris]
    for i, j in itertools.combinations(range(len(tris)), 2):
        shared = sets[i] & sets[j]
        if len(shared) == 2:
            a, b = sorted(shared)
            (c,) = sets[i] - shared
            (d,) = sets[j] - shared
            if _orient(a, b, c) * _orient(a, b, d) < 0 and _orient(c, d, a) * _orient(c, d, b) < 0:
                rest = [t for k, t in enumerate(tris) if k not in (i, j)]
                return rest + [(c, d, a), (c, d, b)]
    return tris


def _scan_insert(triangles, points):
    """The scan on the points of the domain, as ``adjusted_triangulation``
    filtered them before the walk; no edge map."""
    inside = [p for p in points if any(toric._point_in_triangle(p, t) != "out" for t in triangles)]
    return _scan_insert_points(triangles, inside), None


def _saved_document(tri, lp):
    """The text that ``toric --save`` writes."""
    return json.dumps(triangulation_to_document(tri, lp), sort_keys=True, indent=1)


def _line_family(sizes):
    for m in sizes:
        lp = build_lattice_pair(3, [((1, 1, m - 2), m)])
        yield lp, PermSymmetry.identity(3)
        yield lp, SWAP3


def _all_subsets_maximal_invariant_faces(simplices, sym):
    """The per-simplex candidates, less every proper subset of every
    candidate, whatever the sizes of the other candidates."""
    image = {v: sym.apply(v) for v in {v for s in simplices for v in s}}
    largest = set()
    for s in simplices:
        keep = frozenset(s)
        while True:
            stay = frozenset(v for v in keep if image[v] in keep)
            if stay == keep:
                break
            keep = stay
        if keep:
            largest.add(keep)
    smaller = {
        frozenset(sub) for g in largest for sub in toric._subsets(tuple(g)) if len(sub) < len(g)
    }
    return sorted(tuple(sorted(f)) for f in largest - smaller), len(largest)


def test_maximal_invariant_faces_match_the_all_subsets_reference():
    """Subsets of candidate sizes only, against every subset, on the standing
    sweep and the line-id family, lex and revlex."""
    line_id = [(lp, sym) for lp, sym in _line_family((400, 800, 1600, 3200)) if sym != SWAP3]
    cases = [*_lefschetz_sweep(), *line_id]
    hidden = 0
    for lp, sym in cases:
        for order in ("lex", "revlex"):
            cells = adjusted_triangulation(lp, sym, order).cells
            want, candidates = _all_subsets_maximal_invariant_faces(cells, sym)
            assert toric._maximal_invariant_faces(cells, sym) == want, (lp.generators, sym.perm)
            hidden += candidates - len(want)
    assert len(cases) == 16 + 2 * 118 + 150 + 4
    assert hidden > 0  # some candidates lie inside others, so the subsets matter


def test_walk_and_edge_map_flip_match_the_scans_in_list_order(monkeypatch):
    """The triangle lists themselves, in order and vertex order, since the
    revlex flip takes the least pair in list order."""
    real_insert, real_flip = toric._insert_points, toric._flip_one_diagonal
    seen = {"insert": 0, "flip": 0, "flipped": 0}

    def insert(triangles, points):
        tris, edges = real_insert(triangles, points)
        assert tris == _scan_insert(triangles, points)[0]
        assert set(map(frozenset, tris)) == {frozenset(t) for ts in edges.values() for t in ts}
        seen["insert"] += 1
        return tris, edges

    def flip(tris, edges):
        out = real_flip(tris, edges)
        assert out == _scan_flip_one_diagonal(tris)
        seen["flip"] += 1
        seen["flipped"] += out != tris
        return out

    monkeypatch.setattr(toric, "_insert_points", insert)
    monkeypatch.setattr(toric, "_flip_one_diagonal", flip)
    for lp, sym in _lefschetz_sweep():
        for order in ("lex", "revlex"):
            adjusted_triangulation(lp, sym, order)
    assert seen == {"insert": 2 * (16 + 2 * 118 + 150), "flip": 16 + 2 * 118 + 150, "flipped": 115}


def test_walk_and_edge_map_flip_save_the_scans_documents(monkeypatch):
    """Byte-identical saved documents, lex and revlex, on the standing sweep
    and on the line family up to m = 3200."""
    z5sq = build_lattice_pair(3, [((1, 2, 2), 5), ((1, 1, 3), 5)]), ROT3
    cases = [*_lefschetz_sweep(), *_line_family((400, 800, 1600, 3200)), z5sq]
    built = {}
    for lp, sym in cases:
        for order in ("lex", "revlex"):
            tri = adjusted_triangulation(lp, sym, order)
            built[lp.generators, sym.perm, order] = _saved_document(tri, lp)
    monkeypatch.setattr(toric, "_insert_points", _scan_insert)
    monkeypatch.setattr(toric, "_flip_one_diagonal", lambda tris, edges: _scan_flip_one_diagonal(tris))
    for lp, sym in cases:
        for order in ("lex", "revlex"):
            case = (lp.generators, sym.perm, order)
            assert _saved_document(adjusted_triangulation(lp, sym, order), lp) == built[case], case
    # the independence check still sees two triangulations of z5sq-cycle
    lp = z5sq[0]
    assert built[lp.generators, ROT3.perm, "lex"] != built[lp.generators, ROT3.perm, "revlex"]


def test_the_sweep_holds_rotation_domains_with_a_reflex_corner():
    """A rotation domain (w, v, rho v, rho w) can have a reflex corner, where
    a walk over the whole domain could leave it: the walk stays inside the
    convex triangle of the domain's fan that holds the point.  The
    differential tests above reach such domains."""
    reflex = 0
    for lp, sym in _lefschetz_sweep():
        if sym == ROT3:
            pts = sorted(lp.scaled_base_points())
            polygon, _ = toric._fundamental_domain(pts, sym, lp.scale)
            domain = [v for k, v in enumerate(polygon) if v != polygon[k - 1]]
            turns = {_orient(domain[k - 2], domain[k - 1], domain[k]) for k in range(len(domain))}
            reflex += turns == {-1, 1}
    assert reflex == 17


def _certified_sweep():
    """Each build of the standing sweep with verify_crepant passed, and the
    same cells in a fresh, uncertified Triangulation."""
    for lp, sym in _lefschetz_sweep():
        for order in ("lex", "revlex"):
            tri = adjusted_triangulation(lp, sym, order)
            assert verify_crepant(tri, lp).ok
            yield lp, sym, tri, Triangulation(tri.scale, tri.cells)


def test_certificate_skip_matches_the_full_check(monkeypatch):
    """verify_adjusted passes every invariant cell that verify_crepant has
    certified without judging it; the full check judges it standard too."""
    real = toric._standard_face
    judged = []
    monkeypatch.setattr(toric, "_standard_face", lambda f, *a: judged.append(f) or real(f, *a))
    cells = 0
    for lp, sym, tri, fresh in _certified_sweep():
        case = (lp.generators, sym.perm)
        invariant = [f for f in tri._invariant_faces(sym) if len(f) == lp.n]
        del judged[:]
        assert verify_adjusted(tri, lp, sym), case
        assert not set(judged) & set(invariant), case
        del judged[:]
        assert verify_adjusted(fresh, lp, sym), case
        assert set(invariant) <= set(judged), case
        for f in invariant:
            assert real(f, [f], sym, lp, tri.scale), (case, f)
            cells += 1
    # every cell for the identity, one core triangle or none otherwise
    assert cells == 14610


def test_a_certificate_for_one_lattice_does_not_vouch_for_another():
    """The cells of 1,1,2@4 are unimodular for it but have volume 4 in Z4^2,
    which holds it: certified for the first, they are judged for the second."""
    small = build_lattice_pair(3, [((1, 1, 2), 4)])
    large = build_lattice_pair(3, [((1, 3, 0), 4), ((0, 1, 3), 4)])
    ident = PermSymmetry.identity(3)
    tri = adjusted_triangulation(small, ident)
    assert verify_crepant(tri, small).ok and verify_adjusted(tri, small, ident)
    assert not verify_crepant(tri, large).ok
    assert not verify_adjusted(tri, large, ident)
    # a certificate for the large lattice would hide it: the test can fail
    tri.__dict__["_unimodular"].add(large)
    assert verify_adjusted(tri, large, ident)


def test_an_uncertified_corrupted_cell_still_fails():
    """One cell of 1,1,18@20 with a vertex moved to double its volume: the
    triangulation fails verify_crepant, so verify_adjusted judges every
    cell and finds it; a certificate would hide it."""
    lp = build_lattice_pair(3, [((1, 1, 18), 20)])
    ident = PermSymmetry.identity(3)
    tri = adjusted_triangulation(lp, ident)
    a, b, c = tri.cells[0]
    unit = abs(_bareiss_det(tri.cells[0]))
    q = next(q for q in lp.scaled_base_points() if abs(_bareiss_det((a, b, q))) == 2 * unit)
    bad = Triangulation(tri.scale, ((a, b, q),) + tri.cells[1:])
    assert not verify_crepant(bad, lp).ok
    assert "_unimodular" not in bad.__dict__
    assert not verify_adjusted(bad, lp, ident)
    bad.__dict__["_unimodular"] = {lp}
    assert verify_adjusted(bad, lp, ident)


def test_the_certificate_skip_stops_at_n_3(monkeypatch):
    """At n = 4 the unimodular unit cell with the cycles (0 1)(2 3) has a
    fixed locus of volume 1/2, not 1/4: it is not standard, and a skip forced
    at n = 4 would pass it."""
    lp = build_lattice_pair(4, [])
    tri = Triangulation(1, [[tuple(int(i == j) for j in range(4)) for i in range(4)]])
    (cell,) = tri.cells
    sym = PermSymmetry.from_cycles(4, [(0, 1), (2, 3)])
    assert verify_crepant(tri, lp).ok and lp in tri.__dict__["_unimodular"]
    cycles = toric._vertex_cycles(cell, sym.apply)
    assert _cycle_average_volume(cell, cycles, lp, 1) == Fraction(1, 2)
    assert tri._invariant_faces(sym) == [cell]
    assert not verify_adjusted(tri, lp, sym)
    real = toric._standard_face
    monkeypatch.setattr(toric, "_standard_face", lambda f, *a: len(f) == lp.n or real(f, *a))
    assert verify_adjusted(tri, lp, sym)


def test_the_fixed_face_skip_matches_the_full_check(monkeypatch):
    """verify_adjusted passes an invariant face with every vertex fixed in a
    certified triangulation without judging it, in any dimension; judged on
    a fresh, uncertified triangulation with the same cells, which judges
    every face, each such face is standard.  On the standing sweep and on
    the line family at m = 400, 1600 and 3200, lex and revlex."""
    real = toric._standard_face
    judged = {}
    monkeypatch.setattr(
        toric, "_standard_face", lambda f, *a: judged.setdefault(f, real(f, *a))
    )

    def large_line_builds():
        for lp, sym in _line_family((400, 1600, 3200)):
            for order in ("lex", "revlex"):
                tri = adjusted_triangulation(lp, sym, order)
                assert verify_crepant(tri, lp).ok
                yield lp, sym, tri, Triangulation(tri.scale, tri.cells)

    kinds = {"edge": 0, "vertex": 0}
    for lp, sym, tri, fresh in itertools.chain(_certified_sweep(), large_line_builds()):
        case = (lp.generators, sym.perm)
        faces = tri._invariant_faces(sym)
        judged.clear()
        assert verify_adjusted(tri, lp, sym), case
        skipped = [f for f in faces if f not in judged]
        # the n <= 3 rule passes the invariant cells, the new rule the rest
        new = [f for f in skipped if len(f) < lp.n]
        assert all(sym.apply(y) == y for f in new for y in f), case
        judged.clear()
        assert verify_adjusted(fresh, lp, sym), case
        assert set(judged) == set(fresh._invariant_faces(sym)) == set(faces), case
        assert all(judged[f] for f in skipped), case
        for f in new:
            kinds["edge" if len(f) == 2 else "vertex"] += 1
    # the edges on the mirror of (1 2), and the centre of a 3-cycle in N
    assert kinds == {"edge": 12540, "vertex": 64}


def _reference_det(rows):
    """IntMat.det as it was: Bareiss elimination with the pivot search in a
    for-else."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(0, 5))
    # few distinct entries, zero among them, so that zero pivots are common
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6))
    return [tuple(draw(entry) for _ in range(n)) for _ in range(n)]


@settings(max_examples=400, deadline=None)
@given(_square_matrices())
def test_bareiss_det_matches_the_old_intmat_det(rows):
    want = _reference_det(rows)
    assert _bareiss_det(rows) == IntMat.from_rows(rows).det() == want == _det_fraction(rows)


@pytest.mark.parametrize("rows", [
    [(0, 1, 0), (1, 0, 0), (0, 0, 1)],  # zero first pivot, one swap
    [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
    [(1, 1, 1), (1, 1, 2), (0, 1, 1)],  # a pivot that turns zero on the way
    [(0, 1, 2), (0, 3, 4), (0, 5, 6)],  # a zero column
    [(2, 4), (1, 2)],
])
def test_bareiss_det_zero_pivots(rows):
    assert _bareiss_det(rows) == _reference_det(rows) == IntMat.from_rows(rows).det()


# ---------------------------------------------------------------------------
# lattice pairs, symmetries and triangulations as read-only records


def test_lattice_pairs_and_symmetries_compare_and_hash_by_value():
    gens = [((1, 2, 2), 5), ((1, 1, 3), 5)]
    a, b = build_lattice_pair(3, gens), build_lattice_pair(3, gens)
    a.residues()  # a value kept on a, not on b, takes no part
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != a.replace(order=26) and a != build_lattice_pair(3, gens[:1])
    cycle = PermSymmetry.from_cycles(3, [(0, 1, 2)])
    assert cycle == PermSymmetry((1, 2, 0)) and hash(cycle) == hash(PermSymmetry((1, 2, 0)))
    assert {cycle: 1}[PermSymmetry((1, 2, 0))] == 1
    assert cycle != PermSymmetry.identity(3) and cycle != (1, 2, 0)


def test_records_check_their_fields_when_built_and_replaced():
    with pytest.raises(ValueError, match="not a permutation"):
        PermSymmetry((0, 2))
    with pytest.raises(ValueError, match="not a permutation"):
        PermSymmetry.identity(3).replace(perm=(0, 0, 1))
    assert PermSymmetry.identity(3).replace(perm=(2, 0, 1)).apply((7, 8, 9)) == (8, 9, 7)
    # cells are sorted on the way in, each cell's points and the cells alike
    cells = [[(1, 1, 0), (0, 0, 2)], [(0, 2, 0), (0, 0, 2)]]
    tri = Triangulation(2, cells)
    want = (((0, 0, 2), (0, 2, 0)), ((0, 0, 2), (1, 1, 0)))
    assert tri.cells == want and tri.replace(cells=cells[::-1]).cells == want
    assert tri == Triangulation(2, want) and tri != Triangulation(1, want)
