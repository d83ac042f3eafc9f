import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant import orbifold as ob
from crepant.exactmath import CycloInt
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


# ---------------------------------------------------------------------------
# the residue engine against the CycloInt engine it replaced


def _reference_twisted_fixed_euler(d, q, exponents, src, supports):
    """The twisted-sector count with every root of unity a dense CycloInt:
    eigenvalues compared pairwise, powers by repeated products."""
    cycles = ob._cycles_of(src)
    support_sets = [frozenset(t) for t in supports]

    candidates = []
    for cyc in cycles:
        l = len(cyc)
        e = sum(exponents[i] for i in cyc) % q
        for k in range(l):
            candidates.append(CycloInt.zeta(q * l, e + q * k))
    eigenvalues = []
    for c in candidates:
        if not any(c == seen for seen in eigenvalues):
            eigenvalues.append(c)

    total = 0
    for lam in eigenvalues:
        compatible = []
        for cyc in cycles:
            l = len(cyc)
            rho = CycloInt.zeta(q, sum(exponents[i] for i in cyc) % q)
            if lam**l == rho:
                compatible.append(cyc)
        if not compatible:
            continue
        kappa_zero = {}
        for cyc in compatible:
            unit = CycloInt.from_int(1, lam.conductor)
            kappa = unit**d
            x = unit
            for step in range(1, len(cyc)):
                x = lam * x * CycloInt.zeta(q, (-exponents[cyc[step - 1]]) % q)
                kappa = kappa + x**d
            kappa_zero[cyc] = kappa.is_zero()
        for T in support_sets:
            inside = [cyc for cyc in compatible if set(cyc) <= T]
            for r in range(1, len(inside) + 1):
                for B in itertools.combinations(inside, r):
                    if frozenset().union(*[set(c) for c in B]) != T:
                        continue
                    zeros = sum(1 for cyc in B if kappa_zero[cyc])
                    nonzeros = len(B) - zeros
                    if zeros == 0:
                        total += full_support_euler(d, nonzeros)
                    elif nonzeros == 0 and len(B) == 1:
                        total += 1
    return total


def _recorded_calls(monkeypatch, build):
    """Distinct argument tuples of every twisted_fixed_euler call made by build()."""
    calls = {}
    engine = ob.twisted_fixed_euler

    def recording(d, q, exponents, src, supports):
        key = (d, q, tuple(exponents), tuple(src), tuple(frozenset(t) for t in supports))
        if key not in calls:
            calls[key] = engine(d, q, exponents, src, supports)
        return calls[key]

    monkeypatch.setattr(ob, "twisted_fixed_euler", recording)
    build()
    monkeypatch.undo()
    return calls


def _assert_matches_reference(calls):
    for (d, q, exponents, src, supports), value in calls.items():
        expected = _reference_twisted_fixed_euler(d, q, exponents, src, supports)
        assert value == expected, (d, q, exponents, src, supports)


def test_residue_engine_matches_reference_on_quintic_sheets(monkeypatch):
    calls = _recorded_calls(
        monkeypatch, lambda: [quintic_sheet(v) for v in ("swap", "swap-two-pairs")]
    )
    assert len(calls) == 850  # 425 twisted-sector counts per sheet, all distinct
    assert any(calls.values())
    _assert_matches_reference(calls)


def test_residue_engine_matches_reference_on_derived_lefschetz(monkeypatch):
    pats = ob._quintic_patterns()

    def build():
        for variant in ("swap", "swap-two-pairs"):
            inv = ob._quintic_involution(variant)
            for p in pats:
                derived_quotient_lefschetz(pats, p, inv, 5)

    calls = _recorded_calls(monkeypatch, build)
    assert len(calls) > 1000
    _assert_matches_reference(calls)


# one permutation of each cycle type of five points, then arbitrary ones
_CYCLE_TYPE_REPS = [
    (0, 1, 2, 3, 4),
    (1, 0, 2, 3, 4),
    (1, 0, 3, 2, 4),
    (1, 2, 0, 3, 4),
    (1, 2, 0, 4, 3),
    (1, 2, 3, 0, 4),
    (1, 2, 3, 4, 0),
]


@st.composite
def _twisted_inputs(draw):
    src = draw(st.one_of(st.sampled_from(_CYCLE_TYPE_REPS), st.permutations(range(5))))
    cycles = ob._cycles_of(src)
    # supports: unions of cycles (the ones that can contribute) and arbitrary sets
    unions = st.lists(st.sampled_from(cycles), min_size=1, unique=True).map(
        lambda cs: frozenset().union(*cs)
    )
    arbitrary = st.frozensets(st.integers(0, 4), min_size=1, max_size=5)
    return (
        draw(st.integers(2, 9)),
        draw(st.integers(2, 7)),
        tuple(draw(st.lists(st.integers(-9, 18), min_size=5, max_size=5))),
        src,
        draw(st.lists(st.one_of(unions, arbitrary), max_size=4)),
    )


@settings(max_examples=300, deadline=None)
@given(_twisted_inputs())
def test_residue_engine_matches_reference_on_random_inputs(args):
    q, d, exponents, src, supports = args
    expected = _reference_twisted_fixed_euler(d, q, exponents, src, supports)
    assert twisted_fixed_euler(d, q, exponents, src, supports) == expected


@pytest.mark.parametrize("src", _CYCLE_TYPE_REPS)
def test_residue_engine_matches_reference_on_a_grid(src):
    # every union of cycles as a support, every q and d of the random test,
    # and seeded exponent vectors that hypothesis would rarely pick
    cycles = ob._cycles_of(src)
    supports = [
        frozenset().union(*cs)
        for r in range(1, len(cycles) + 1)
        for cs in itertools.combinations(cycles, r)
    ]
    rng = random.Random(len(cycles) * 10 + len(cycles[0]))
    for q in range(2, 10):
        for d in range(2, 8):
            for _ in range(3):
                exponents = [rng.randrange(q) for _ in range(5)]
                expected = _reference_twisted_fixed_euler(d, q, exponents, src, supports)
                assert twisted_fixed_euler(d, q, exponents, src, supports) == expected, (
                    q, d, exponents
                )


def test_quintic_sheet_makes_no_cyclotomic_products(monkeypatch):
    calls = []
    original = CycloInt.__mul__

    def counting_mul(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(CycloInt, "__mul__", counting_mul)
    monkeypatch.setattr(CycloInt, "__rmul__", counting_mul)
    assert CycloInt.zeta(5) * CycloInt.zeta(5, 4) == 1 and len(calls) == 1  # patch is live
    calls.clear()
    quintic_sheet("swap")
    assert calls == []
