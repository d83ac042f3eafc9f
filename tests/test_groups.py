from dataclasses import replace
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant.exactmath import CycloInt, cyclo_div_exact
from crepant.fixtures import (
    binary_dihedral,
    binary_dihedral_symmetry,
    binary_tetrahedral,
    binary_tetrahedral_symmetry,
    complete_intersection_group,
    complete_intersection_symmetry,
    cyclic_flip_symmetry,
    cyclic_group,
    cyclic_swap_symmetry,
    d4_triality,
    quintic_group,
    quintic_symmetry,
)
from crepant.groups import (
    CapExceeded,
    ElementNotInGroup,
    GroupElement,
    IncompatibleElements,
    NotNormalizing,
    _adjugate,
    centralizer,
    close_group,
    compatible_class_filter,
    conjugacy_classes,
    invariant_class_count,
    outer_action,
)


def test_identity_closure():
    g = close_group([GroupElement.identity(3)])
    assert g.order == 1
    assert conjugacy_classes(g).count == 1


def test_closure_cap():
    with pytest.raises(CapExceeded):
        cyclic_group(30, cap=10)


def test_closure_generator_order_independent():
    a = GroupElement.from_matrix([[CycloInt.zeta(4), 0], [0, CycloInt.zeta(4, 3)]])
    b = cyclic_swap_symmetry()
    g1 = close_group([a, b])
    g2 = close_group([b, a])
    assert [e.key() for e in g1.elements] == [e.key() for e in g2.elements]


def test_quintic_group_order(quintic_group):
    assert quintic_group.order == 125
    assert quintic_group.is_abelian()
    cc = conjugacy_classes(quintic_group)
    assert cc.count == 125
    # volume preserving: every determinant is one
    for e in quintic_group.elements:
        assert e.det().is_one()


def test_ci_group_order(ci_group):
    assert ci_group.order == 81
    # determinants are roots of unity but not all one: the group sits in the
    # general linear torus, with volume preservation holding on the quotient
    for e in ci_group.elements:
        assert e.det().root_of_unity_order() is not None


@pytest.mark.parametrize("r", range(3, 9))
def test_binary_dihedral_classes(r):
    g = binary_dihedral(r)
    assert g.order == 4 * (r - 2)
    assert conjugacy_classes(g).count == r + 1
    act = outer_action(g, binary_dihedral_symmetry(r))
    assert invariant_class_count(act) == r - 1


def test_binary_tetrahedral(tetra_group):
    assert tetra_group.order == 24
    assert conjugacy_classes(tetra_group).count == 7
    act = outer_action(tetra_group, binary_tetrahedral_symmetry())
    assert invariant_class_count(act) == 3


def test_d4_triality():
    q8, t = d4_triality()
    assert q8.order == 8
    assert conjugacy_classes(q8).count == 5
    assert invariant_class_count(outer_action(q8, t)) == 2


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 1), (4, 2), (5, 1), (6, 2)])
def test_cyclic_swap_invariants(n, expected):
    g = cyclic_group(n)
    act = outer_action(g, cyclic_swap_symmetry())
    assert invariant_class_count(act) == expected
    for e in g.elements:  # torus elements of the special linear group
        assert e.det().is_one()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_cyclic_flip_engine_count(n):
    # brute force gives 2 for even n and 1 for odd n; the quoted parity is the
    # reverse and the comparison is surfaced as an open question elsewhere
    g = cyclic_group(n)
    act = outer_action(g, cyclic_flip_symmetry())
    assert invariant_class_count(act) == (2 if n % 2 == 0 else 1)


def test_class_equation(tetra_group):
    cc = conjugacy_classes(tetra_group)
    total = 0
    for cl in cc.classes:
        cent = centralizer(tetra_group, cl[0])
        assert len(cl) * cent.order == tetra_group.order
        total += len(cl)
    assert total == tetra_group.order


def test_centralizer_examples(quintic_group):
    # abelian group: centralizer is everything
    assert centralizer(quintic_group, 3).order == 125
    # quaternion group: an order-four element has centralizer of order four
    q8, _ = d4_triality()
    orders = q8.element_orders()
    idx = next(i for i, o in enumerate(orders) if o == 4)
    assert centralizer(q8, idx).order == 4


def test_centralizer_element_not_in_group(quintic_group):
    with pytest.raises(ElementNotInGroup):
        centralizer(quintic_group, cyclic_swap_symmetry())


def test_outer_action_identity(quintic_group):
    act = outer_action(quintic_group, GroupElement.identity(5))
    assert act.element_perm == tuple(range(125))
    assert invariant_class_count(act) == 125
    assert len(compatible_class_filter(quintic_group, act)) == 125


def test_outer_action_not_normalizing():
    g = cyclic_group(5)
    with pytest.raises(NotNormalizing):
        outer_action(g, GroupElement.from_matrix([[1, 1], [0, 1]]))


def test_quintic_compatible_classes(quintic_group):
    act = outer_action(quintic_group, quintic_symmetry("swap"))
    filt = compatible_class_filter(quintic_group, act)
    assert len(filt) == 25
    act2 = outer_action(quintic_group, quintic_symmetry("swap-two-pairs"))
    assert len(compatible_class_filter(quintic_group, act2)) == 5


def test_ci_compatible_classes(ci_group):
    act = outer_action(ci_group, complete_intersection_symmetry())
    assert len(compatible_class_filter(ci_group, act)) == 9


def test_compatible_filter_with_stabilizers(tetra_group):
    # the quaternion subgroup is invariant under the outer symmetry; inside it
    # the class of an order-four element is a two-element set that the
    # symmetry moves, so the (ambient-invariant) order-four class is filtered
    # out when the subgroup is supplied as a stabilizer
    h = binary_tetrahedral_symmetry()
    act = outer_action(tetra_group, h)
    orders = tetra_group.element_orders()
    q8 = tetra_group.subgroup([i for i, o in enumerate(orders) if o in (1, 2, 4)])
    assert q8.order == 8
    unconstrained = compatible_class_filter(tetra_group, act)
    constrained = compatible_class_filter(tetra_group, act, [q8])
    assert len(unconstrained) == 3
    assert len(constrained) == 2
    assert constrained < unconstrained


def test_compatible_filter_rejects_foreign_stabilizer(tetra_group, quintic_group):
    from crepant.groups import StabilizerNotSubgroup

    h = binary_tetrahedral_symmetry()
    act = outer_action(tetra_group, h)
    with pytest.raises(StabilizerNotSubgroup):
        compatible_class_filter(tetra_group, act, [quintic_group])


def test_invariant_count_stable_under_central_twist(tetra_group):
    # multiplying the symmetry by a central element does not change the action
    h = binary_tetrahedral_symmetry()
    minus_one = next(
        e
        for e in tetra_group.elements
        if e.entries[0][0] == -1 and e.entries[0][1].is_zero() and e.entries[1][1] == -1
    )
    twisted = h.lift(3).mul(minus_one)
    act1 = outer_action(tetra_group, h)
    act2 = outer_action(tetra_group, twisted)
    assert act1.element_perm == act2.element_perm
    assert invariant_class_count(act1) == invariant_class_count(act2)


def test_con_count_equal_on_conjugate_subgroups(tetra_group):
    # invariant-class counts agree on conjugate cyclic subgroups
    h = binary_tetrahedral_symmetry()
    act = outer_action(tetra_group, h)
    order3 = [i for i, o in enumerate(tetra_group.element_orders()) if o == 3]

    def cyclic_subgroup(i):
        members = {tetra_group.identity_index}
        x = i
        while x not in members:
            members.add(x)
            x = tetra_group.mul(x, i)
        return tetra_group.subgroup(members)

    def con(sub):
        sub_idx = frozenset(tetra_group.index_of(e) for e in sub.elements)
        if {act.element_perm[i] for i in sub_idx} != sub_idx:
            return None
        count = 0
        sub_classes = conjugacy_classes(sub)
        ambient = [tetra_group.index_of(e) for e in sub.elements]
        for cl in sub_classes.classes:
            amb = {ambient[i] for i in cl}
            if {act.element_perm[i] for i in amb} == amb:
                count += 1
        return count

    base = cyclic_subgroup(order3[0])
    values = set()
    for j in range(tetra_group.order):
        conj = tetra_group.subgroup(
            {tetra_group.conj(tetra_group.index_of(e), j) for e in base.elements}
        )
        c = con(conj)
        if c is not None:
            values.add(c)
    assert len(values) == 1


def test_mul_rejects_mismatched_elements():
    with pytest.raises(IncompatibleElements, match="conductor 3 .* conductor 4"):
        GroupElement.identity(2, 3).mul(GroupElement.identity(2, 4))
    with pytest.raises(IncompatibleElements, match="2x2 .* 3x3"):
        GroupElement.identity(2).mul(GroupElement.identity(3))


# ---------------------------------------------------------------------------
# differential tests: the generator-only closure and outer action against the
# quadratic routines they replaced


def _reference_close_group(generators, normalizer=None):
    """Closure filling the table with |G|^2 matrix products.

    Returns (elements, table, identity index, inverses) in key order.
    """
    m = lcm(*(g.conductor for g in generators))
    gens = [g.lift(m) for g in generators]
    ident = GroupElement.identity(gens[0].n, m)
    if normalizer is not None:
        gens = [normalizer(g) for g in gens]
        ident = normalizer(ident)
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                p = x.mul(g)
                if normalizer is not None:
                    p = normalizer(p)
                if p.key() not in seen:
                    seen[p.key()] = p
                    nxt.append(p)
        frontier = nxt
    elements = sorted(seen.values(), key=lambda e: e.key())
    index = {e.key(): i for i, e in enumerate(elements)}
    table = []
    for a in elements:
        row = []
        for b in elements:
            p = a.mul(b)
            if normalizer is not None:
                p = normalizer(p)
            row.append(index[p.key()])
        table.append(tuple(row))
    identity = index[ident.key()]
    inverse = tuple(row.index(identity) for row in table)
    return elements, tuple(table), identity, inverse


def _reference_conjugacy_classes(group):
    """Classes as orbits under conjugation by every element."""
    remaining = set(range(group.order))
    classes = []
    while remaining:
        a = min(remaining)
        orbit = {group.conj(a, b) for b in range(group.order)}
        remaining -= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda cl: group.elements[cl[0]].key())
    return tuple(classes)


def _reference_outer_action(group, h):
    """(element_perm, classes, class_perm) from conjugating every element."""
    m = lcm(group.elements[0].conductor, h.conductor)
    hh = h.lift(m)
    det = hh.det()
    adj = _adjugate(hh)
    perm = []
    for e in group.elements:
        num = hh.mul(e.lift(m)).mul(adj)
        ent = []
        for row in num.entries:
            out_row = []
            for x in row:
                q = cyclo_div_exact(x, det)
                if q is None:
                    raise NotNormalizing("conjugate has non-integral entries")
                out_row.append(q)
            ent.append(out_row)
        cand = GroupElement.from_matrix(ent)
        if group.normalizer is not None:
            cand = group.normalizer(cand)
        try:
            perm.append(group.index_of(cand))
        except ElementNotInGroup:
            raise NotNormalizing("conjugate falls outside the group") from None
    classes = _reference_conjugacy_classes(group)
    class_perm = []
    for cl in classes:
        image = {perm[i] for i in cl}
        class_perm.append(next(k for k, c in enumerate(classes) if image == set(c)))
    return tuple(perm), classes, tuple(class_perm)


def _assert_matches_reference(group, symmetries):
    gens = [group.elements[i] for i in group.generators]
    elements, table, identity, inverse = _reference_close_group(gens, group.normalizer)
    assert [e.key() for e in group.elements] == [e.key() for e in elements]
    assert group.table == table
    assert group.identity_index == identity
    assert group._inverse == inverse
    for h in symmetries:
        try:
            expected = _reference_outer_action(group, h)
        except NotNormalizing:
            with pytest.raises(NotNormalizing):
                outer_action(group, h)
            continue
        act = outer_action(group, h)
        assert (act.element_perm, act.classes.classes, act.class_perm) == expected


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclic_matches_reference(n):
    _assert_matches_reference(cyclic_group(n), [cyclic_swap_symmetry(), cyclic_flip_symmetry()])


@pytest.mark.parametrize("r", range(3, 9))
def test_binary_dihedral_matches_reference(r):
    _assert_matches_reference(binary_dihedral(r), [binary_dihedral_symmetry(r)])


def test_binary_tetrahedral_matches_reference(tetra_group):
    h = binary_tetrahedral_symmetry()
    assert h.det() == 2  # conjugation divides by a non-unit determinant
    _assert_matches_reference(tetra_group, [h])


def test_d4_triality_matches_reference():
    q8, t = d4_triality()
    _assert_matches_reference(q8, [t])


def test_quintic_matches_reference(quintic_group):
    _assert_matches_reference(
        quintic_group, [quintic_symmetry("swap"), quintic_symmetry("swap-two-pairs")]
    )


def test_lt_matches_reference(ci_group):
    _assert_matches_reference(ci_group, [complete_intersection_symmetry()])


def test_subgroup_matches_reference(tetra_group):
    h = binary_tetrahedral_symmetry()
    orders = tetra_group.element_orders()
    q8 = tetra_group.subgroup([i for i, o in enumerate(orders) if o in (1, 2, 4)])
    _assert_matches_reference(q8, [h])
    # an order-six cyclic subgroup, which h moves
    six = next(i for i, o in enumerate(orders) if o == 6)
    members, x = {tetra_group.identity_index}, six
    while x not in members:
        members.add(x)
        x = tetra_group.mul(x, six)
    c6 = tetra_group.subgroup(members)
    assert c6.order == 6
    _assert_matches_reference(c6, [h])


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 3),
    m=st.integers(1, 8),
    exponents=st.lists(st.lists(st.integers(0, 7), min_size=3, max_size=3), min_size=1, max_size=3),
    perm=st.permutations([0, 1, 2]),
)
def test_diagonal_groups_match_reference(dim, m, exponents, perm):
    zero = CycloInt.from_int(0, m)
    gens = [
        GroupElement.from_matrix(
            [[CycloInt.zeta(m, e[i]) if i == j else zero for j in range(dim)] for i in range(dim)]
        )
        for e in exponents
    ]
    images = [p for p in perm if p < dim]
    h = GroupElement.from_matrix([[int(images[j] == i) for j in range(dim)] for i in range(dim)])
    symmetries = [h] + ([cyclic_swap_symmetry()] if dim == 2 else [])
    _assert_matches_reference(close_group(gens), symmetries)


def test_not_normalizing_names_second_generator():
    # -1 is central, so only the second generator's conjugate leaves the group
    minus_one = GroupElement.from_matrix([[-1, 0], [0, -1]])
    a = GroupElement.from_matrix([[CycloInt.zeta(4), 0], [0, CycloInt.zeta(4, 3)]])
    g = close_group([minus_one, a])
    h = GroupElement.from_matrix([[1, 1], [0, 1]])
    first = g.elements[g.generators[0]]
    assert first == minus_one
    with pytest.raises(NotNormalizing, match=f"generator {g.generators[1]} "):
        outer_action(g, h)
    with pytest.raises(NotNormalizing):
        _reference_outer_action(g, h)


def test_outer_action_rejects_corrupted_table(tetra_group):
    # redirect one generator edge x -> x*g back to x: the homomorphism check
    # on the edges, or the bijection check, must notice every such table
    h = binary_tetrahedral_symmetry()
    for x in range(tetra_group.order):
        for g in tetra_group.generators:
            rows = [list(r) for r in tetra_group.table]
            rows[x][g] = x
            corrupted = replace(tetra_group, table=tuple(map(tuple, rows)))
            with pytest.raises(NotNormalizing):
                outer_action(corrupted, h)


# ---------------------------------------------------------------------------
# deterministic work counters: matrix products grow with |G|*|gens|


def _subgroup_q8():
    tetra = binary_tetrahedral()
    orders = tetra.element_orders()
    return tetra.subgroup([i for i, o in enumerate(orders) if o in (1, 2, 4)])


@pytest.mark.parametrize(
    "build,h",
    [
        (lambda: cyclic_group(30), cyclic_swap_symmetry()),
        (lambda: binary_dihedral(6), binary_dihedral_symmetry(6)),
        (binary_tetrahedral, binary_tetrahedral_symmetry()),
        (quintic_group, quintic_symmetry("swap")),
        (complete_intersection_group, complete_intersection_symmetry()),
        (_subgroup_q8, binary_tetrahedral_symmetry()),
    ],
)
def test_matrix_products_counted(monkeypatch, build, h):
    calls = []
    original = GroupElement.mul

    def counting_mul(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(GroupElement, "mul", counting_mul)
    group = build()
    if build is not _subgroup_q8:  # a subgroup's generators come from the table
        assert len(calls) == group.order * len(group.generators)
    calls.clear()
    outer_action(group, h)
    assert len(calls) == 2 * len(group.generators)  # h * g * adj(h) per generator
