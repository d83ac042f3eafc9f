import json
import random
from fractions import Fraction

import pytest

from crepant.cli import _random_lattice_instance
from crepant.exactmath import _solve_in_basis
from crepant.toric import (
    DegenerateOrbit,
    NotInvariant,
    NotSpecialLinear,
    PermSymmetry,
    QSimplex,
    Triangulation,
    UnsupportedDimension,
    adjusted_triangulation,
    block_det,
    build_lattice_pair,
    count_fixed_elements,
    fixed_sublattice_index,
    fixed_subspace,
    is_g_standard,
    normalized_volume,
    orbit_records,
    standard_pair,
    symmetry_report,
    toric_lefschetz,
    triangulation_from_document,
    triangulation_to_document,
    verify_adjusted,
    verify_crepant,
    sublattice_in_subspace,
    _action_in_lattice_coords,
    _det_fraction,
    _orient,
    _quotient_action,
)

SWAP2 = PermSymmetry.from_cycles(2, [(0, 1)])
SWAP3 = PermSymmetry.from_cycles(3, [(0, 1)])
ROT3 = PermSymmetry.from_cycles(3, [(0, 1, 2)])


def test_build_lattice_pair():
    assert build_lattice_pair(2, [((1, 1), 2)]).order == 2
    assert build_lattice_pair(3, [((1, 2, 2), 5), ((1, 1, 3), 5)]).order == 25
    assert build_lattice_pair(3, []).order == 1
    with pytest.raises(NotSpecialLinear):
        build_lattice_pair(2, [((1, 0), 2)])


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
    assert len(sp.triangulation.simplices) == 1


def test_standard_pair_segment():
    sp = standard_pair([2])
    lp = build_lattice_pair(2, [])
    assert normalized_volume(sp.fixed_simplex.vertices, lp) == Fraction(1, 2)
    assert len(sp.triangulation.simplices) == 2
    imgs = {s.image(sp.perm).vertices for s in sp.triangulation.simplices}
    assert imgs == {s.vertices for s in sp.triangulation.simplices}


def test_standard_pair_triangle():
    sp = standard_pair([3])
    lp = build_lattice_pair(3, [])
    # barycenter fixed locus, three pieces permuted cyclically
    assert (Fraction(1, 3),) * 3 in sp.fixed_simplex.vertices
    assert len(sp.triangulation.simplices) == 3
    pieces = {s.vertices for s in sp.triangulation.simplices}
    for s in sp.triangulation.simplices:
        assert s.image(sp.perm).vertices in pieces
        assert s.image(sp.perm).vertices != s.vertices
    total = sum(normalized_volume(s.vertices, lp) for s in sp.triangulation.simplices)
    assert total == normalized_volume(sp.simplex.vertices, lp)
    # the model simplex itself passes the standardness properties: origin
    # fixed, unit points cycled, fixed segment of normalized length 1/3
    assert is_g_standard(sp.simplex, sp.triangulation, sp.perm, lp)


def test_standard_pair_mixed():
    sp = standard_pair([2], [2])
    lp = build_lattice_pair(4, [])
    assert normalized_volume(sp.fixed_simplex.vertices, lp) == Fraction(1, 2)
    total = sum(normalized_volume(s.vertices, lp) for s in sp.triangulation.simplices)
    assert total == normalized_volume(sp.simplex.vertices, lp)


def test_is_g_standard_split_segment():
    lp = build_lattice_pair(2, [((1, 1), 2)])
    seg = QSimplex.of((1, 0), (0, 1))
    halves = Triangulation.of(
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
    assert is_g_standard(core, Triangulation.of([core]), sym, lp)


def test_is_g_standard_rejects_long_fixed_segment():
    # base triangle is invariant but its fixed segment has lattice length one,
    # twice the half-length the straddling model requires
    lp = build_lattice_pair(3, [((1, 1, 0), 2)])
    big = QSimplex.of((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert not is_g_standard(big, Triangulation.of([big]), SWAP3, lp)


def test_is_g_standard_not_invariant():
    lp = build_lattice_pair(3, [])
    skew = QSimplex.of((1, 0, 0), (Fraction(1, 2), 0, Fraction(1, 2)), (0, 0, 1))
    with pytest.raises(NotInvariant):
        is_g_standard(skew, None, SWAP3, lp)


def test_adjusted_n2_full_subdivision():
    lp = build_lattice_pair(2, [((1, 4), 5)])
    tri = adjusted_triangulation(lp, SWAP2)
    assert len(tri.simplices) == 5
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
        for s in tri.simplices
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
    invariant = [s for s in tri.simplices if s.image(sym).vertices == s.vertices]
    assert len(invariant) == 1
    assert invariant[0].centroid() == (Fraction(1, 3),) * 3
    assert toric_lefschetz(tri, lp, sym) == 1
    assert count_fixed_elements(lp, sym) == 1
    assert fixed_sublattice_index(lp, sym) == 1
    assert verify_adjusted(tri, lp, sym)


def test_verify_crepant_detects_bad_volume():
    lp = build_lattice_pair(2, [((1, 1), 2)])
    coarse = Triangulation.of([QSimplex.of((1, 0), (0, 1))])
    rep = verify_crepant(coarse, lp)
    assert not rep
    assert any("volume" in f for f in rep.failures)


def test_toric_lefschetz_trivial_group():
    lp = build_lattice_pair(2, [])
    tri = adjusted_triangulation(lp, SWAP2)
    assert toric_lefschetz(tri, lp, SWAP2) == 1


def test_dense_orbit_contribution_vanishes(z5sq):
    lp, sym = z5sq
    tri = adjusted_triangulation(lp, sym)
    records = orbit_records(tri, lp, sym)
    dense = next(r for r in records if r.face is None)
    assert dense.contribution == 0


def test_enclosed_face_contribution_vanishes():
    # the fixed vertex (1/2,1/2,0) lies in the closure of the invariant fixed
    # segment, so its orbit contributes zero
    lp = build_lattice_pair(3, [((1, 1, 0), 2)])
    tri = adjusted_triangulation(lp, SWAP3)
    records = orbit_records(tri, lp, SWAP3)
    mid = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    vertex_rec = next(
        r for r in records if r.face is not None and r.face.vertices == (mid,)
    )
    assert vertex_rec.contribution == 0
    seg_rec = next(
        r
        for r in records
        if r.face is not None
        and r.face.dim == 1
        and mid in r.face.vertices
        and (Fraction(0), Fraction(0), Fraction(1)) in r.face.vertices
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
    assert {s.vertices for s in a.simplices} != {s.vertices for s in b.simplices}
    assert toric_lefschetz(a, lp, sym) == toric_lefschetz(b, lp, sym)
    assert bool(verify_crepant(b, lp)) and verify_adjusted(b, lp, sym)


def test_serialization_round_trip(z5sq):
    lp, sym = z5sq
    tri = adjusted_triangulation(lp, sym)
    doc = triangulation_to_document(tri, lp)
    blob = json.dumps(doc, sort_keys=True)
    back, lp2 = triangulation_from_document(json.loads(blob))
    assert {s.vertices for s in back.simplices} == {s.vertices for s in tri.simplices}
    assert lp2.order == lp.order
    assert json.dumps(triangulation_to_document(back, lp2), sort_keys=True) == blob


def _random_instance(rng):
    order = rng.choice([2, 3])
    sym = SWAP3 if order == 2 else ROT3
    while True:
        m = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randint(0, m - 1), rng.randint(0, m - 1)
            vec = [a, b, (-(a + b)) % m]
            for _ in range(order):
                gens.append((tuple(vec), m))
                nxt = [0, 0, 0]
                for i, v in enumerate(vec):
                    nxt[sym.perm[i]] = v
                vec = nxt
        try:
            lp = build_lattice_pair(3, gens)
        except NotSpecialLinear:
            continue
        if lp.order <= 49 and sym.preserves(lp):
            return lp, sym


def test_randomized_instances_smoke():
    rng = random.Random(11)
    for _ in range(12):
        lp, sym = _random_instance(rng)
        rep = symmetry_report(lp, sym)
        assert rep["equal"], (lp.generators, sym.perm)
        assert rep["crepant"] and rep["adjusted"]


# ---------------------------------------------------------------------------
# differential test: the facet-pairing certificate against the pairwise check


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


def _pairwise_reference(tri, lp):
    """Quadratic crepancy check: vertices in N on the base simplex, every
    triangle unimodular by the Smith route, volumes summing to |N/M|, and no
    two interiors overlapping."""
    for s in tri.simplices:
        if s.dim != 2:
            return False
        for v in s.vertices:
            if sum(v) != 1 or min(v) < 0 or not lp.contains(v):
                return False
        try:
            if _smith_volume(s.vertices, lp) != 1:
                return False
        except ValueError:
            return False
    if len(tri.simplices) != lp.order:
        return False
    sims = tri.simplices
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
    sims = list(tri.simplices)
    i = rng.randrange(len(sims))
    yield "dropped", sims[:i] + sims[i + 1 :]
    yield "duplicated", sims + [sims[i]]
    s = sims[i]
    k = rng.randrange(3)
    outside = [p for p in lp.base_points() if p not in s.vertices]
    target = rng.choice(outside + [tri.simplices[0].centroid()])
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
            mutated = Triangulation.of(sims)
            rep = verify_crepant(mutated, lp)
            assert rep.ok == _pairwise_reference(mutated, lp), (kind, lp.generators)
            assert not rep.ok and rep.failures, (kind, lp.generators)
            assert rep.contact_flags == ()
            seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"dropped", "duplicated", "moved", "overlap"}
    assert seen["overlap"] >= 12


def test_certificate_names_the_facet_witness(z5sq):
    lp, sym = z5sq
    tri = adjusted_triangulation(lp, sym)
    flipped = _overlapping_flip(list(tri.simplices))
    rep = verify_crepant(Triangulation.of(flipped), lp)
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
                verts[0] = QSimplex.of(*verts).centroid()
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


def test_symmetry_outside_lattice_raises():
    lp = build_lattice_pair(3, [((1, 0, 2), 3)])
    with pytest.raises(NotInvariant):
        _action_in_lattice_coords(lp, SWAP3)
    plain = build_lattice_pair(3, [])
    S = _action_in_lattice_coords(plain, SWAP3)
    with pytest.raises(NotInvariant):
        _quotient_action(plain, S, [(Fraction(1), Fraction(0), Fraction(0))])


def test_certificate_rejects_a_fold():
    # both segments end at 1/2 from the same side: the shared point is paired
    # but the covering folds back on itself
    lp = build_lattice_pair(2, [((1, 3), 4)])
    half, quarter = (Fraction(1, 2),) * 2, (Fraction(3, 4), Fraction(1, 4))
    fold = Triangulation.of([QSimplex.of((1, 0), half), QSimplex.of(quarter, half)])
    rep = verify_crepant(fold, lp)
    assert not rep.ok
    assert any("lie on the same side of their facet" in f for f in rep.failures)
