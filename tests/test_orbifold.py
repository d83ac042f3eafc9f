import json
from fractions import Fraction

import pytest

from crepant import orbifold as ob
from crepant.fixtures import (
    complete_intersection_symmetry,
    quintic_symmetry,
)
from crepant.groups import compatible_class_filter, outer_action
from crepant.orbifold import (
    ChainReport,
    ClassRecord,
    GSpaceSheet,
    InconsistentSheet,
    MissingValue,
    StratumRecord,
    a_chain,
    chain_check,
    complete_intersection_sheet,
    d4_rotation,
    d_diagram,
    derived_quotient_lefschetz,
    dynkin_lefschetz,
    e6_diagram,
    equivariant_lefschetz,
    fermat_euler,
    full_support_euler,
    identity_action_variant,
    mckay_check,
    orbifold_euler,
    pair_euler,
    point_sheet,
    quintic_sheet,
    sheet_from_document,
    sheet_to_document,
    twisted_fixed_euler,
)


def test_fermat_euler_table():
    # five points, the genus-six plane curve, the degree-five surface as a
    # five-fold cover of the plane, then the threefold
    assert [fermat_euler(5, m) for m in range(2, 6)] == [5, -10, 55, -200]
    assert [full_support_euler(5, m) for m in range(1, 6)] == [0, 5, -25, 125, -625]


def test_point_sheet():
    sheet = point_sheet()
    assert orbifold_euler(sheet) == 1
    assert equivariant_lefschetz(sheet) == 1
    many = point_sheet(6, 3)
    assert orbifold_euler(many) == 3  # one per conjugacy class


def test_quintic_swap_values(quintic_swap_sheet):
    sheet = quintic_swap_sheet
    assert sheet.group_order == 125
    assert equivariant_lefschetz(sheet) == 56
    inch = [c for c in sheet.classes if c.in_ch]
    assert len(inch) == 25
    assert sum(1 for c in inch if c.fixed_dim == 1) == 12
    assert sum(1 for c in inch if c.fixed_dim == 0) == 12
    ident = next(c for c in inch if c.fixed_dim == 3)
    assert ident.lefschetz_quotient == 8
    assert all(c.lefschetz_quotient == 2 for c in inch if c.fixed_dim in (0, 1))


def test_quintic_double_count(quintic_swap_sheet):
    # both expressions of the orbifold Euler characteristic agree exactly
    assert orbifold_euler(quintic_swap_sheet) == 200


def test_quintic_swap_two_pairs(quintic_double_sheet):
    sheet = quintic_double_sheet
    assert equivariant_lefschetz(sheet) == 8
    inch = [c for c in sheet.classes if c.in_ch]
    assert len(inch) == 5
    nonid = [c for c in inch if c.fixed_dim != 3]
    assert len(nonid) == 4
    assert all(c.lefschetz_quotient == 2 for c in nonid)
    assert orbifold_euler(sheet) == 200


def test_quintic_chain_stages(quintic_swap_sheet, quintic_double_sheet):
    for sheet, expect in ((quintic_swap_sheet, 56), (quintic_double_sheet, 8)):
        rep = chain_check(sheet)
        assert rep.status == "equal"
        assert rep.stage_strata == rep.stage_classes == expect


def test_chain_skips_non_invariant_strata(quintic_swap_sheet):
    rep = chain_check(quintic_swap_sheet)
    assert rep.skipped_strata  # the swap moves most stabilizer supports
    for label in rep.skipped_strata:
        assert rep.detail["per_stratum"][label] == 0


def test_chain_additivity_under_stratum_split(quintic_swap_sheet):
    sheet = quintic_swap_sheet
    rep = chain_check(sheet)
    target = next(s for s in sheet.strata if s.h_invariant and s.label != "free")
    pieces = (
        StratumRecord(
            target.label + "-a",
            target.stabilizer_order,
            target.euler_stratum - 1,
            target.lefschetz_stratum - 1,
            True,
            target.con_h,
        ),
        StratumRecord(
            target.label + "-b", target.stabilizer_order, 1, 1, True, target.con_h
        ),
    )
    strata = tuple(s for s in sheet.strata if s.label != target.label) + pieces
    split = GSpaceSheet(
        sheet.group_order, sheet.classes, strata, sheet.commuting_pairs, {}
    )
    rep2 = chain_check(split)
    assert rep2.stage_strata == rep.stage_strata


def test_identity_reduction(quintic_swap_sheet):
    ident = identity_action_variant(quintic_swap_sheet)
    assert equivariant_lefschetz(ident) == orbifold_euler(ident) == 200
    rep = chain_check(ident)
    assert rep.status == "equal"


def test_derived_lefschetz_matches_quoted(quintic_swap_sheet, quintic_double_sheet):
    # the twisted-sector engine independently reproduces every quoted value,
    # including the identity-class contributions
    pats = ob._quintic_patterns()
    for sheet, variant in (
        (quintic_swap_sheet, "swap"),
        (quintic_double_sheet, "swap-two-pairs"),
    ):
        inv = ob._quintic_involution(variant)
        for c in sheet.classes:
            if not c.in_ch:
                continue
            p = tuple(int(ch) for ch in c.label)
            assert derived_quotient_lefschetz(pats, p, inv, 5) == c.lefschetz_quotient


def test_sheet_in_ch_matches_group_filter(quintic_group, quintic_swap_sheet):
    action = outer_action(quintic_group, quintic_symmetry("swap"))
    assert len(compatible_class_filter(quintic_group, action)) == sum(
        1 for c in quintic_swap_sheet.classes if c.in_ch
    )


def test_ci_sheet(ci_group):
    sheet = complete_intersection_sheet()
    assert sheet.group_order == 81 == ci_group.order
    assert equivariant_lefschetz(sheet) == 16
    inch = [c for c in sheet.classes if c.in_ch]
    assert len(inch) == 9
    assert sum(1 for c in inch if c.fixed_dim == 0) == 8
    with pytest.raises(MissingValue):
        orbifold_euler(sheet)  # euler data is intentionally absent


def test_sheet_validation_errors():
    bad = GSpaceSheet(
        4,
        (ClassRecord("a", 1, 4, True, 1, 1), ClassRecord("b", 2, 4, True, 1, 1)),
    )
    with pytest.raises(InconsistentSheet):
        bad.validate()


def test_double_count_disagreement_raises():
    classes = (ClassRecord("e", 1, 1, True, 1, 1),)
    sheet = GSpaceSheet(1, classes, None, {("e", "e"): 3})
    with pytest.raises(InconsistentSheet):
        orbifold_euler(sheet)


def test_missing_lefschetz_raises():
    classes = (ClassRecord("e", 1, 1, True, 1, None),)
    with pytest.raises(MissingValue):
        equivariant_lefschetz(GSpaceSheet(1, classes))


def test_sheet_round_trip(quintic_swap_sheet):
    doc = sheet_to_document(quintic_swap_sheet)
    blob = json.dumps(doc, sort_keys=True)
    back = sheet_from_document(json.loads(blob))
    assert json.dumps(sheet_to_document(back), sort_keys=True) == blob
    assert equivariant_lefschetz(back) == 56


def test_pair_euler_identity():
    ident = (0, 0, 0, 0, 0)
    assert pair_euler(5, ident, ident) == -200
    assert pair_euler(5, ident, (0, 0, 0, 1, 4)) == fermat_euler(5, 3) + 2 * fermat_euler(5, 1)


def test_twisted_engine_fixed_point_of_plain_swap():
    # the pure swap on the five-variable Fermat: one isolated fixed point on
    # the two swapped coordinates plus a surface in the mirror hyperplane
    supports = [frozenset(t) for t in [(0, 1)]]
    val = twisted_fixed_euler(5, 5, (0, 0, 0, 0, 0), (1, 0, 2, 3, 4), supports)
    assert val == 1  # the point (1, -1, 0, 0, 0)


@pytest.mark.parametrize(
    "graph,expected",
    [
        (a_chain(3), 2),
        (a_chain(4), 1),
        (a_chain(5), 2),
        (d_diagram(5), 4),
        (d_diagram(8), 7),
        (e6_diagram(), 3),
        (d4_rotation(), 2),
        (a_chain(4, reversal=False), 5),
    ],
)
def test_dynkin_lefschetz(graph, expected):
    assert dynkin_lefschetz(graph) == expected


def test_dynkin_automorphism_must_preserve_edges():
    graph = a_chain(3)
    broken = ob.DynkinGraph(graph.nodes, graph.edges, {"a1": "a1", "a2": "a3", "a3": "a2"})
    with pytest.raises(ValueError):
        dynkin_lefschetz(broken)


def test_mckay_check_report():
    rep = mckay_check(3, e6_diagram())
    assert rep["equal"] and rep["resolution_lefschetz"] == 3
    rep2 = mckay_check(4, e6_diagram())
    assert not rep2["equal"]


def test_burnside_average_must_be_integral():
    # an averaged fixed-set count over a set that is not a group need not be
    # an integer; the block and the sum are named instead of returning junk
    assert ob._curve_quotient_euler([(0, 0, 0), (0, 1, 2)], (0, 1, 2), 5) == -5
    with pytest.raises(InconsistentSheet, match=r"block \(0, 1, 2\): .* sum -5"):
        ob._curve_quotient_euler([(0, 0, 0), (0, 0, 1)], (0, 1, 2), 5)
