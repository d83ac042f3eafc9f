"""Acceptance criteria, one test per criterion.

Every comparison is exact integer equality; each test prints a single
PASS line naming the criterion once its assertions hold.
"""

import json
import random

import pytest

from crepant import fixtures, groups, orbifold, toric
from crepant.cli import _random_lattice_instance, main
from test_toric import centroid, rational_cells


def _announce(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_acceptance_1_quintic_swap(quintic_swap_sheet):
    sheet = quintic_swap_sheet
    assert orbifold.equivariant_lefschetz(sheet) == 56
    inch = [c for c in sheet.classes if c.in_ch]
    identity = [c for c in inch if c.fixed_dim == 3]
    one_dim = [c for c in inch if c.fixed_dim == 1]
    zero_dim = [c for c in inch if c.fixed_dim == 0]
    assert [c.lefschetz_quotient for c in identity] == [8]
    assert len(one_dim) == 12 and all(c.lefschetz_quotient == 2 for c in one_dim)
    assert len(zero_dim) == 12 and all(c.lefschetz_quotient == 2 for c in zero_dim)
    assert 8 + 12 * 2 + 12 * 2 == 56
    _announce(1, "quintic with swap involution: Lefschetz 56 = 8 + 12*2 + 12*2")


def test_acceptance_2_quintic_second_involution(quintic_double_sheet):
    sheet = quintic_double_sheet
    assert orbifold.equivariant_lefschetz(sheet) == 8
    nonid = [c for c in sheet.classes if c.in_ch and c.fixed_dim != 3]
    assert len(nonid) == 4
    _announce(2, "quintic with double-swap involution: Lefschetz 8 with 4 non-identity classes")


def test_acceptance_3_complete_intersection():
    sheet = orbifold.complete_intersection_sheet()
    assert orbifold.equivariant_lefschetz(sheet) == 16
    assert sum(1 for c in sheet.classes if c.in_ch) == 9
    _announce(3, "complete-intersection example: Lefschetz 16 with 9 compatible classes")


def test_acceptance_4_ade_counts(tetra_group):
    for n in (2, 4, 6, 8, 10):
        group = fixtures.cyclic_group(n)
        inv = groups.invariant_class_count(
            groups.outer_action(group, fixtures.cyclic_swap_symmetry())
        )
        assert inv == 2 == orbifold.dynkin_lefschetz(orbifold.a_chain(n - 1))
    for r in range(3, 9):
        group = fixtures.binary_dihedral(r)
        inv = groups.invariant_class_count(
            groups.outer_action(group, fixtures.binary_dihedral_symmetry(r))
        )
        assert inv == r - 1 == orbifold.dynkin_lefschetz(orbifold.d_diagram(r))
    classes = groups.conjugacy_classes(tetra_group)
    inv = groups.invariant_class_count(
        groups.outer_action(tetra_group, fixtures.binary_tetrahedral_symmetry())
    )
    assert classes.count == 7 and inv == 3
    assert inv == orbifold.dynkin_lefschetz(orbifold.e6_diagram())
    q8, tri = fixtures.d4_triality()
    inv = groups.invariant_class_count(groups.outer_action(q8, tri))
    assert inv == 2 == orbifold.dynkin_lefschetz(orbifold.d4_rotation())
    _announce(4, "ADE invariant-class counts match resolution Lefschetz numbers")


def test_acceptance_5_mckay_sweep_n2():
    sym = toric.PermSymmetry.from_cycles(2, [(0, 1)])
    for m in range(1, 31):
        lp = toric.build_lattice_pair(2, [((1, m - 1), m)] if m > 1 else [])
        tri = toric.adjusted_triangulation(lp, sym)
        lef = toric.toric_lefschetz(tri, lp, sym)
        fixed = toric.count_fixed_elements(lp, sym)
        group = fixtures.cyclic_group(m)
        inv = groups.invariant_class_count(
            groups.outer_action(group, fixtures.cyclic_swap_symmetry())
        )
        assert lef == fixed == inv, m
    _announce(5, "dimension-2 sweep: toric Lefschetz = fixed elements = invariant classes, n <= 30")


def test_acceptance_6_toric_n3(z5sq):
    lp, sym = z5sq
    rep = toric.symmetry_report(lp, sym)
    assert rep["lefschetz"] == 1 == rep["fixed_count"] == rep["sublattice_index"]
    assert rep["crepant"] and rep["simplex_count"] == 25
    assert rep["invariant_maximal_simplices"] == 1
    tri = toric.adjusted_triangulation(lp, sym)
    core = next(s for s in rational_cells(tri) if s.image(sym).vertices == s.vertices)
    assert centroid(core) == tuple([__import__("fractions").Fraction(1, 3)] * 3)

    rng = random.Random(2026)
    for _ in range(50):
        inst, isym = _random_lattice_instance(rng)
        audit = toric.symmetry_report(inst, isym)
        assert audit["equal"], (inst.generators, isym.perm)
        assert audit["crepant"] and audit["adjusted"], (inst.generators, isym.perm)
    _announce(6, "dimension-3: invariant core at the center plus 50 randomized audits")


def test_acceptance_7_block_det():
    assert toric.block_det(1) == 0
    for s in range(2, 13):
        assert toric.block_det(s) == s + 1
    _announce(7, "shift-block determinants: 0 at size 1, s + 1 for 2 <= s <= 12")


def test_acceptance_8_double_count(quintic_swap_sheet, quintic_double_sheet):
    for sheet in (quintic_swap_sheet, quintic_double_sheet):
        # orbifold_euler raises InconsistentSheet if the class sum and the
        # commuting-pair double count disagree
        value = orbifold.orbifold_euler(sheet)
        ident = orbifold.identity_action_variant(sheet)
        assert orbifold.equivariant_lefschetz(ident) == orbifold.orbifold_euler(ident) == value
    _announce(8, "orbifold Euler double count agrees; identity action reduces the Lefschetz sum to it")


def test_acceptance_9_triangulation_independence(z5sq):
    sym2 = toric.PermSymmetry.from_cycles(2, [(0, 1)])
    for m in range(1, 31):
        lp = toric.build_lattice_pair(2, [((1, m - 1), m)] if m > 1 else [])
        a = toric.adjusted_triangulation(lp, sym2, "lex")
        b = toric.adjusted_triangulation(lp, sym2, "revlex")
        assert toric.toric_lefschetz(a, lp, sym2) == toric.toric_lefschetz(b, lp, sym2)
    lp, sym = z5sq
    a = toric.adjusted_triangulation(lp, sym, "lex")
    b = toric.adjusted_triangulation(lp, sym, "revlex")
    assert set(a.cells) != set(b.cells)
    assert toric.toric_lefschetz(a, lp, sym) == toric.toric_lefschetz(b, lp, sym) == 1
    assert bool(toric.verify_crepant(b, lp))
    _announce(9, "distinct adjusted triangulations give equal Lefschetz numbers")


def test_acceptance_10_parity_discrepancy_surfaced(capsys):
    rc = main(["verify", "--only", "parity43"])
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rc == 0
    assert rep["checks"]["parity43"] == "open-question"
    rows = rep["results"]["parity43"]["rows"]
    for row in rows:
        assert row["engine"] == (2 if row["n"] % 2 == 0 else 1)
        assert row["quoted"] == (1 if row["n"] % 2 == 0 else 2)
    assert all(status != "fail" for status in rep["checks"].values())
    _announce(10, "coordinate-flip parity discrepancy recorded as open-question, not fail")
