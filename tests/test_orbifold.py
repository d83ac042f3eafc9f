import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant import orbifold as ob
from crepant.exactmath import CycloInt, fields, permutation_cycles, zeta_sum_is_zero
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
    dynkin_lefschetz,
    e6_diagram,
    equivariant_lefschetz,
    fermat_euler,
    full_support_euler,
    identity_action_variant,
    mckay_check,
    orbifold_euler,
    point_sheet,
    quintic_sheet,
    sheet_from_document,
    sheet_to_document,
    twisted_fixed_euler,
)
from test_exactmath import _reference_power


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


def derived_quotient_lefschetz(patterns, class_pattern, inv, d, memo):
    """Independent computation of L(h, X^g/G) by averaging twisted sectors.

    The fixed set of g is the union of sections over its eigenvalue blocks of
    size at least two; the Lefschetz number of h on the quotient is the
    average over the group of the Euler characteristics of the twisted fixed
    loci inside that union.  The engine is called through the module, once
    per (pattern, involution, support set) in ``memo``.
    """
    blocks = [b for b in ob._partition_blocks(class_pattern) if len(b) >= 2]
    supports = []
    for b in blocks:
        for size in range(2, len(b) + 1):
            supports.extend(frozenset(T) for T in itertools.combinations(b, size))
    support_set = frozenset(supports)
    total = 0
    for g in patterns:
        key = (g, tuple(inv), support_set)
        if key not in memo:
            memo[key] = ob.twisted_fixed_euler(d, d, g, inv, supports)
        total += memo[key]
    return Fraction(total, len(patterns))


def test_derived_lefschetz_matches_quoted(quintic_swap_sheet, quintic_double_sheet):
    # the twisted-sector engine independently reproduces every quoted value,
    # including the identity-class contributions
    pats = ob._quintic_patterns()
    memo = {}
    for sheet, variant in (
        (quintic_swap_sheet, "swap"),
        (quintic_double_sheet, "swap-two-pairs"),
    ):
        inv = ob._quintic_involution(variant)
        for c in sheet.classes:
            if not c.in_ch:
                continue
            p = tuple(int(ch) for ch in c.label)
            assert derived_quotient_lefschetz(pats, p, inv, 5, memo) == c.lefschetz_quotient


# ---------------------------------------------------------------------------
# the per-type quintic build against per-class, per-pair and per-support loops

_QUINTIC_VARIANTS = ("swap", "swap-two-pairs")


@pytest.fixture(scope="module")
def quintic_sheets(quintic_swap_sheet, quintic_double_sheet):
    return {"swap": quintic_swap_sheet, "swap-two-pairs": quintic_double_sheet}


def _pattern(label):
    return tuple(int(ch) for ch in label)


def pair_euler(d, pattern_a, pattern_b):
    """Euler characteristic of the double fixed set of two commuting diagonal
    maps, for one pair alone: one Fermat section per block of the common
    refinement of the two eigenvalue patterns."""
    blocks = {}
    for ab in zip(pattern_a, pattern_b):
        blocks[ab] = blocks.get(ab, 0) + 1
    return sum(fermat_euler(d, size) for size in blocks.values())


@pytest.mark.parametrize("variant", _QUINTIC_VARIANTS)
def test_commuting_pairs_match_pair_euler_on_every_pair(quintic_sheets, variant):
    pairs = quintic_sheets[variant].commuting_pairs
    labels = [ob._pattern_label(p) for p in ob._quintic_patterns()]
    # insertion order is (label_a, label_b) with both in pattern order
    assert list(pairs) == [(a, b) for a in labels for b in labels]
    for (a, b), value in pairs.items():
        assert value == pair_euler(5, _pattern(a), _pattern(b)), (a, b)


@pytest.mark.parametrize("variant", _QUINTIC_VARIANTS)
def test_built_sheet_lists_every_ordered_pair_and_loads_back(quintic_sheets, variant):
    sheet = quintic_sheets[variant]
    labels = [c.label for c in sheet.classes]
    assert len(sheet.commuting_pairs) == len(labels) ** 2 == 15_625
    assert set(sheet.commuting_pairs) == {(a, b) for a in labels for b in labels}
    loaded = ob.sheet_from_document(json.loads(json.dumps(ob.sheet_to_document(sheet))))
    assert loaded.commuting_pairs == sheet.commuting_pairs
    # a built table holds one row per pattern type, a loaded one a row per label;
    # both weigh their rows to the sum over all pairs, |G| times the class sum
    assert len(sheet.commuting_pairs._rows) == 27 and len(loaded.commuting_pairs._rows) == 125
    for table in (sheet.commuting_pairs, loaded.commuting_pairs):
        assert table.total() == sum(table.values()) == 125 * 200


def test_a_plain_mapping_becomes_a_pair_table_by_label():
    classes = (ClassRecord("e", 1, 2, True, 1, 1), ClassRecord("g", 1, 2, True, 1, 1))
    pairs = {("e", "e"): 4, ("e", "g"): 0, ("g", "e"): 0, ("g", "g"): 0}
    table = GSpaceSheet(2, classes, None, pairs).commuting_pairs
    assert isinstance(table, ob.PairTable) and table == pairs and list(table) == list(pairs)
    assert len(table) == 4 and table["e", "e"] == 4 and ("g", "h") not in table
    assert table.total() == 4
    assert repr(table) == f"PairTable({pairs!r})"
    assert GSpaceSheet(2, classes, None, table).commuting_pairs is table


def _reference_class_record(patterns, p, inv, d):
    """(in_ch, euler_quotient, fixed_dim) of the class of p, computed for that
    class alone: section values from its own blocks, and for the identity the
    average of its commuting-pair row."""
    in_ch = ob._conjugate_pattern(p, inv, d) == p
    blocks = [b for b in ob._partition_blocks(p) if len(b) >= 2]
    if not any(p):
        row = sum(pair_euler(d, p, g) for g in patterns)
        assert row % len(patterns) == 0
        return in_ch, row // len(patterns), 3
    euler = 0
    for b in blocks:
        if len(b) == 2:
            # the d section points form one orbit per coset of the difference image
            differences = {(g[b[0]] - g[b[1]]) % d for g in patterns}
            euler += d // len(differences)
        else:
            assert len(b) == 3
            euler += ob._curve_quotient_euler(patterns, b, d)
    return in_ch, euler, max(len(b) - 2 for b in blocks) if blocks else None


@pytest.mark.parametrize("variant", _QUINTIC_VARIANTS)
def test_class_records_match_per_class_recomputation(quintic_sheets, variant):
    patterns = ob._quintic_patterns()
    inv = ob._quintic_involution(variant)
    classes = quintic_sheets[variant].classes
    assert [c.label for c in classes] == [ob._pattern_label(p) for p in patterns]
    for c, p in zip(classes, patterns):
        expected = _reference_class_record(patterns, p, inv, 5)
        assert (c.in_ch, c.euler_quotient, c.fixed_dim) == expected, c.label


def _reference_quintic_strata(patterns, inv, d):
    """The stratum records with a stabilizer, a coset loop and a conjugation
    test per support."""

    def normalize(p):
        return tuple((x - p[0]) % d for x in p)

    records = []
    for size in (2, 3):
        for T in itertools.combinations(range(5), size):
            stab = [p for p in patterns if len({p[i] for i in T}) == 1]
            reps, seen = [], set()
            for p in patterns:
                if p in seen:
                    continue
                reps.append(p)
                seen.update(normalize(tuple((x + y) % d for x, y in zip(p, s))) for s in stab)
            lef = sum(ob.twisted_fixed_euler(d, d, g, inv, [frozenset(T)]) for g in reps)
            con = sum(1 for p in stab if normalize(tuple(p[inv[i]] for i in range(5))) == p)
            h_inv = {inv[i] for i in T} == set(T)
            label = "stab" + "".join(map(str, T))
            records.append(StratumRecord(label, len(stab), full_support_euler(d, size), lef, h_inv, con))
    free = [frozenset(T) for size in (4, 5) for T in itertools.combinations(range(5), size)]
    lef_free = sum(ob.twisted_fixed_euler(d, d, g, inv, free) for g in patterns)
    euler_free = sum(full_support_euler(d, len(T)) for T in free)
    records.append(StratumRecord("free", 1, euler_free, lef_free, True, 1))
    return tuple(records)


@pytest.mark.parametrize("variant", _QUINTIC_VARIANTS)
def test_strata_match_per_support_coset_loop(quintic_sheets, variant):
    expected = _reference_quintic_strata(
        ob._quintic_patterns(), ob._quintic_involution(variant), 5
    )
    assert quintic_sheets[variant].strata == expected


def test_engine_counts_a_repeated_support_once_per_listing():
    # supports form a multiset: a support listed k times counts k times,
    # on every cycle type and with supports that are not unions of cycles
    nonzero = 0
    for src in _CYCLE_TYPE_REPS:
        cycles = permutation_cycles(src)
        unions = [frozenset().union(*cycles[: r + 1]) for r in range(len(cycles))]
        for exponents in ((0, 0, 0, 0, 0), (1, 4, 0, 2, 3), (2, 2, 1, 0, 0)):
            for T in unions + [frozenset({0, 2})]:
                once = twisted_fixed_euler(5, 5, exponents, src, [T])
                thrice = twisted_fixed_euler(5, 5, exponents, src, [T, T, T])
                assert thrice == 3 * once
                assert thrice == _reference_twisted_fixed_euler(5, 5, exponents, src, [T, T, T])
                nonzero += once != 0
    assert nonzero > 20


def test_engine_refuses_a_non_permutation_source():
    # src maps two coordinates to 1, so it has no cycles; this walked forever once
    with pytest.raises(ValueError, match="not a permutation"):
        twisted_fixed_euler(5, 5, [0, 0, 0], [1, 1, 2], [frozenset({0, 1})])


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
    # a sheet is validated once, when it is built
    with pytest.raises(InconsistentSheet):
        GSpaceSheet(
            4,
            (ClassRecord("a", 1, 4, True, 1, 1), ClassRecord("b", 2, 4, True, 1, 1)),
        )


def test_sheets_check_and_convert_their_fields_when_built_and_replaced():
    classes = (ClassRecord("e", 1, 2, True, 1, 1), ClassRecord("g", 1, 2, True, 1, 1))
    sheet = GSpaceSheet(2, classes, None, {(a.label, b.label): 1 for a in classes for b in classes})
    assert isinstance(sheet.commuting_pairs, ob.PairTable) and sheet.metadata == {}
    with pytest.raises(InconsistentSheet, match="class sizes sum to 2, not 3"):
        sheet.replace(group_order=3)
    with pytest.raises(InconsistentSheet, match="label appears more than once"):
        sheet.replace(classes=classes[:1] * 2)
    with pytest.raises(InconsistentSheet, match="con_h must not be negative"):
        sheet.replace(strata=(StratumRecord("s", 1, None, 1, True, -1),))
    assert sheet.replace(metadata={"space": "two points"}).commuting_pairs == sheet.commuting_pairs
    # a defaulted dict is a fresh one per record, as before
    assert ClassRecord("a", 1, 1, True).provenance == {}
    assert ClassRecord("a", 1, 1, True).provenance is not ClassRecord("a", 1, 1, True).provenance
    point = (ClassRecord("e", 1, 1, True),)
    assert GSpaceSheet(1, point).metadata is not GSpaceSheet(1, point).metadata
    assert ClassRecord("a", 1, 1, True) == ClassRecord("a", 1, 1, True, provenance={})


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


@pytest.mark.parametrize("kind", [ClassRecord, StratumRecord])
def test_every_record_field_annotation_has_a_reader(kind):
    assert {f.type for f in fields(kind)} <= set(ob._FIELD_READERS)


_optional_int = st.one_of(st.none(), st.integers(-500, 500))


@st.composite
def _valid_sheets(draw):
    """Sheets that pass validation, with strata absent, empty or present and
    with the commuting-pair table absent or complete (a sheet has at least one
    class, so a valid table is never empty)."""
    order = draw(st.integers(1, 12))
    divisors = [k for k in range(1, order + 1) if order % k == 0]
    sizes = []
    for size in draw(st.lists(st.sampled_from(divisors), max_size=4)):
        if sum(sizes) + size <= order:
            sizes.append(size)
    sizes += [1] * (order - sum(sizes))  # size one divides every order
    count = len(sizes)
    labels = draw(st.lists(st.text(max_size=3), min_size=count, max_size=count, unique=True))
    tags = st.dictionaries(
        st.sampled_from([f.name for f in fields(ClassRecord)]),
        st.sampled_from(ob.PROVENANCE_TAGS),
    )
    classes = tuple(
        ClassRecord(
            label,
            size,
            order // size,
            draw(st.booleans()),
            draw(_optional_int),
            draw(_optional_int),
            draw(tags),
            draw(st.one_of(st.none(), st.integers(0, 3))),
        )
        for label, size in zip(labels, sizes)
    )
    strata = None
    if draw(st.booleans()):
        strata = []
        for label in draw(st.lists(st.text(max_size=3), max_size=3, unique=True)):
            stabilizer = draw(st.sampled_from(divisors))
            strata.append(
                StratumRecord(
                    label,
                    stabilizer,
                    draw(_optional_int),
                    draw(_optional_int),
                    draw(st.booleans()),
                    draw(st.integers(0, stabilizer)),
                )
            )
        strata = tuple(strata)
    pairs = None
    if draw(st.booleans()):
        pairs = {(a, b): draw(st.integers(-500, 500)) for a in labels for b in labels}
    metadata = draw(st.dictionaries(st.text(max_size=3), st.one_of(st.integers(), st.text())))
    return GSpaceSheet(order, classes, strata, pairs, metadata)


@settings(max_examples=200, deadline=None)
@given(_valid_sheets())
def test_generated_sheets_round_trip_through_json(sheet):
    blob = json.dumps(sheet_to_document(sheet), sort_keys=True)
    back = sheet_from_document(json.loads(blob))
    assert back == sheet
    assert json.dumps(sheet_to_document(back), sort_keys=True) == blob


def _reference_identity_action_variant(sheet):
    """The identity variant by positional construction of every record."""
    classes = tuple(
        ClassRecord(
            c.label,
            c.size,
            c.centralizer_order,
            True,
            c.euler_quotient,
            c.euler_quotient,
            dict(c.provenance),
            c.fixed_dim,
        )
        for c in sheet.classes
    )
    strata = None
    if sheet.strata is not None:
        strata = tuple(
            StratumRecord(
                s.label,
                s.stabilizer_order,
                s.euler_stratum,
                s.euler_stratum,
                True,
                s.stabilizer_order,
            )
            for s in sheet.strata
        )
    return GSpaceSheet(
        sheet.group_order, classes, strata, sheet.commuting_pairs, dict(sheet.metadata)
    )


def test_identity_variant_matches_positional_construction(quintic_swap_sheet, quintic_double_sheet):
    for sheet in (
        quintic_swap_sheet,
        quintic_double_sheet,
        complete_intersection_sheet(),
        point_sheet(6, 3),
    ):
        ident = identity_action_variant(sheet)
        assert ident == _reference_identity_action_variant(sheet)
        assert ident.metadata is not sheet.metadata
        assert all(a.provenance is not b.provenance for a, b in zip(ident.classes, sheet.classes))


@settings(max_examples=100, deadline=None)
@given(_valid_sheets())
def test_identity_variant_matches_positional_construction_on_generated_sheets(sheet):
    assert identity_action_variant(sheet) == _reference_identity_action_variant(sheet)


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


def test_quintic_patterns_are_closed_under_coordinate_permutations():
    patterns = ob._quintic_patterns()
    assert len(patterns) == 125 == len(set(patterns))
    normal = set(patterns)
    for sigma in itertools.permutations(range(5)):
        for p in patterns:
            assert ob._normalize_pattern(tuple(p[i] for i in sigma), 5) in normal


def test_section_value_of_a_block_depends_on_its_size_alone():
    # the sheet takes one Burnside quotient per block size; on all 20 blocks
    # of two or three coordinates it equals the quotient of the block itself
    patterns = ob._quintic_patterns()
    blocks = [b for r in (2, 3) for b in itertools.combinations(range(5), r)]
    assert len(blocks) == 20
    by_size = {r: ob._curve_quotient_euler(patterns, tuple(range(r)), 5) for r in (2, 3)}
    assert by_size == {2: 1, 3: 2}
    for b in blocks:
        assert ob._curve_quotient_euler(patterns, b, 5) == by_size[len(b)], b


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
    cycles = permutation_cycles(src)
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
            if _reference_power(lam, l) == rho:
                compatible.append(cyc)
        if not compatible:
            continue
        kappa_zero = {}
        for cyc in compatible:
            unit = CycloInt.from_int(1, lam.conductor)
            kappa = _reference_power(unit, d)
            x = unit
            for step in range(1, len(cyc)):
                x = lam * x * CycloInt.zeta(q, (-exponents[cyc[step - 1]]) % q)
                kappa = kappa + _reference_power(x, d)
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
    # 61 + 11 twisted-sector counts, one per twisted class of the first
    # support of each centralizer type and of the free stratum
    assert len(calls) == 72
    assert any(calls.values())
    _assert_matches_reference(calls)

    def reference_strata():
        for v in _QUINTIC_VARIANTS:
            _reference_quintic_strata(ob._quintic_patterns(), ob._quintic_involution(v), 5)

    # the per-coset counts of the reference strata, 425 per sheet, all distinct
    calls = _recorded_calls(monkeypatch, reference_strata)
    assert len(calls) == 850
    _assert_matches_reference(calls)


def _per_call_twisted_fixed_euler(d, q, exponents, src, supports):
    """The residue engine with its setup (cycles, masks, full-support Euler
    numbers) rebuilt on every call."""
    cycles = permutation_cycles(src)
    masks = [sum(1 << i for i in cyc) for cyc in cycles]
    wanted = {}
    for t in supports:
        mask = sum(1 << i for i in frozenset(t))
        if mask and sum(m for m in masks if m & mask == m) == mask:
            wanted[mask] = wanted.get(mask, 0) + 1
    useful = [c for c, m in enumerate(masks) if any(m & t == m for t in wanted)]
    if not useful:
        return 0
    n_root = q * math.lcm(*(len(cycles[c]) for c in useful))
    unit_q = n_root // q
    sums = {c: sum(exponents[i] for i in cycles[c]) % q for c in useful}
    eigenvalues = set()
    for c in useful:
        l = len(cycles[c])
        scale = n_root // (q * l)
        eigenvalues.update((sums[c] + q * k) * scale for k in range(l))
    fse = [full_support_euler(d, r) for r in range(len(useful) + 1)]
    total = 0
    for lam in eigenvalues:
        inside = [
            c for c in useful if (len(cycles[c]) * lam - sums[c] * unit_q) % n_root == 0
        ]
        kappa_zero = {}
        for c in inside:
            x, terms = 0, [0]
            for i in cycles[c][:-1]:
                x += lam - exponents[i] * unit_q
                terms.append(d * x)
            kappa_zero[c] = zeta_sum_is_zero(n_root, terms)
        for r in range(1, len(inside) + 1):
            for B in itertools.combinations(inside, r):
                count = wanted.get(sum(masks[c] for c in B), 0)
                if not count:
                    continue
                zeros = sum(1 for c in B if kappa_zero[c])
                if zeros == 0:
                    total += count * fse[r]
                elif r == 1:
                    total += count
    return total


def test_setup_once_per_involution_matches_the_per_call_engine(monkeypatch):
    """Every engine call of both quintic sheets, in call order, gives the
    value of the engine that rebuilds its setup per call."""
    calls = []
    engine = ob.twisted_fixed_euler

    def recording(*args):
        value = engine(*args)
        calls.append((args, value))
        return value

    monkeypatch.setattr(ob, "twisted_fixed_euler", recording)
    for variant in _QUINTIC_VARIANTS:
        quintic_sheet(variant)
    assert len(calls) == 61 + 11 and any(value for _, value in calls)
    for args, value in calls:
        assert value == _per_call_twisted_fixed_euler(*args), args
    # the setup is shared by the calls of one involution, and bounded
    assert ob._cycle_setup.cache_info().currsize <= ob._cycle_setup.cache_info().maxsize


@pytest.mark.parametrize("variant, classes", [("swap", 61), ("swap-two-pairs", 11)])
def test_quintic_sheet_counts_each_twisted_class_once(monkeypatch, variant, classes):
    calls = []
    engine = ob.twisted_fixed_euler
    monkeypatch.setattr(ob, "twisted_fixed_euler", lambda *args: calls.append(args) or engine(*args))
    quintic_sheet(variant)
    assert len(calls) == classes


def _twisted_class(g, cycles, d):
    """The reference class key: the sums of g along the cycles mod d, least
    over the d scalar shifts of g."""
    sums = [sum(g[i] for i in c) for c in cycles]
    return min(tuple((s + k * len(c)) % d for s, c in zip(sums, cycles)) for k in range(d))


def _engine_vectors_by_support(monkeypatch, variant):
    """The vectors the sheet build hands the engine, keyed by its supports."""
    by_support = {}
    engine = ob.twisted_fixed_euler

    def recording(d, q, g, src, supports):
        by_support.setdefault(tuple(supports), []).append(tuple(g))
        return engine(d, q, g, src, supports)

    monkeypatch.setattr(ob, "twisted_fixed_euler", recording)
    quintic_sheet(variant)
    monkeypatch.undo()
    return by_support


@pytest.mark.parametrize("variant", _QUINTIC_VARIANTS)
def test_class_listing_matches_the_class_key_enumeration(monkeypatch, variant):
    # the first h-invariant support of each centralizer type (the sorted
    # lengths of the cycles inside it) walks all d^k cycle-sum vectors and the
    # free stratum all patterns; the engine sees one vector per class of the
    # reference key, and the reference classes are all of the size the sheet
    # gives each class
    d, inv, patterns = 5, ob._quintic_involution(variant), ob._quintic_patterns()
    cycles = permutation_cycles(inv)
    by_support = _engine_vectors_by_support(monkeypatch, variant)
    free = tuple(frozenset(T) for r in (4, 5) for T in itertools.combinations(range(5), r))
    walks, shapes = {free: (patterns, cycles)}, set()
    for T in itertools.chain(*(itertools.combinations(range(5), r) for r in (2, 3))):
        inside = [c for c in cycles if set(c) <= set(T)]
        shape = tuple(sorted(len(c) for c in inside))
        if {inv[i] for i in T} == set(T) and shape not in shapes:
            shapes.add(shape)
            vectors = []
            for sums in itertools.product(range(d), repeat=len(inside)):
                g = [0] * 5
                for c, x in zip(inside, sums):
                    g[c[0]] = x
                vectors.append(tuple(g))
            walks[(frozenset(T),)] = (vectors, inside)
    assert len(shapes) == {"swap": 4, "swap-two-pairs": 2}[variant]
    assert set(by_support) == set(walks)
    for supports, (vectors, cycs) in walks.items():
        reference = {}
        for g in vectors:
            key = _twisted_class(g, cycs, d)
            reference[key] = reference.get(key, 0) + 1
        listed = [_twisted_class(g, cycs, d) for g in by_support[supports]]
        assert sorted(listed) == sorted(reference), supports
        assert set(reference.values()) == {len(vectors) // len(listed)}, supports


def test_a_class_key_without_one_cycle_sum_changes_the_strata(monkeypatch):
    # the mutant listing forgets the last cycle, so it merges classes whose counts differ
    listing = ob._class_representatives
    monkeypatch.setattr(
        ob,
        "_class_representatives",
        lambda keyed, lengths, d: listing(((s[:-1], x) for s, x in keyed), lengths[:-1], d),
    )
    differs = []
    for v in _QUINTIC_VARIANTS:
        expected = _reference_quintic_strata(ob._quintic_patterns(), ob._quintic_involution(v), 5)
        differs.append(quintic_sheet(v).strata != expected)
    assert any(differs)


def test_residue_engine_matches_reference_on_derived_lefschetz(monkeypatch):
    pats = ob._quintic_patterns()

    def build():
        memo = {}
        for variant in ("swap", "swap-two-pairs"):
            inv = ob._quintic_involution(variant)
            for p in pats:
                derived_quotient_lefschetz(pats, p, inv, 5, memo)

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
    cycles = permutation_cycles(src)
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
    cycles = permutation_cycles(src)
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


@pytest.mark.parametrize("src", _CYCLE_TYPE_REPS)
def test_twisted_count_takes_one_value_per_twisted_class(src):
    # a diagonal t conjugates g*h to (g + t - h.t)*h and g + c is the same map,
    # so over all 31 nonempty supports the count depends on the class key alone
    cycles = permutation_cycles(src)
    supports = [frozenset(T) for r in range(1, 6) for T in itertools.combinations(range(5), r)]
    values = {}
    for g in ob._quintic_patterns():
        value = twisted_fixed_euler(5, 5, g, src, supports)
        values.setdefault(_twisted_class(g, cycles, 5), set()).add(value)
    assert all(len(v) == 1 for v in values.values()), values


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
