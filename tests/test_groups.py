import itertools
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant import groups
from crepant.cli import parse_matrix
from crepant.exactmath import CycloInt, cyclo_div_exact
from crepant.fixtures import (
    _perm_matrix,
    _tetra_t,
    _tetra_u,
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
    StabilizerNotSubgroup,
    _adjugate,
    _det,
    centralizer,
    close_group,
    compatible_class_filter,
    conjugacy_classes,
    invariant_class_count,
    outer_action,
)
from test_exactmath import _collect_lift, _entries, _root_of_unity_order


def _table(group):
    """The |G|² multiplication table, table[i][j] = index of i·j, from the rows."""
    return tuple(tuple(group.row(b)) for b in range(group.order))


def _element_orders(group):
    """The order of every element, by powers along its column."""
    out = []
    for i in range(group.order):
        k, x, col = 1, i, group.column(i)
        while x != group.identity_index:
            x = col[x]
            k += 1
        out.append(k)
    return out


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
        assert e.det() == 1


def test_ci_group_order(ci_group):
    assert ci_group.order == 81
    # determinants are roots of unity but not all one: the group sits in the
    # general linear torus, with volume preservation holding on the quotient
    for e in ci_group.elements:
        assert _root_of_unity_order(e.det()) is not None


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
        assert e.det() == 1


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
    orders = _element_orders(q8)
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
    orders = _element_orders(tetra_group)
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
    order3 = [i for i, o in enumerate(_element_orders(tetra_group)) if o == 3]

    def cyclic_subgroup(i):
        members = {tetra_group.identity_index}
        x = i
        while x not in members:
            members.add(x)
            x = tetra_group.row(x)[i]
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
    table = _table(tetra_group)
    for j in range(tetra_group.order):
        j_inv = tetra_group.inv(j)
        conj = tetra_group.subgroup(
            {table[table[j][tetra_group.index_of(e)]][j_inv] for e in base.elements}
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


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([1, 4, 5, 12]),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 11)), min_size=18, max_size=18),
)
def test_mul_matches_the_dense_product(m, spec):
    """The product that skips zero entries equals the sum over every k."""
    entries = [CycloInt.zeta(m, k) * c for c, k in spec]
    a, b = (
        GroupElement(3, m, tuple(tuple(entries[s + r : s + r + 3]) for r in (0, 3, 6)))
        for s in (0, 9)
    )
    zero = CycloInt.from_int(0, m)
    dense = tuple(
        tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(3)), zero) for j in range(3))
        for i in range(3)
    )
    assert a.mul(b).entries == dense


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
    table = _table(group)
    remaining = set(range(group.order))
    classes = []
    while remaining:
        a = min(remaining)
        orbit = {table[table[b][a]][group.inv(b)] for b in range(group.order)}
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


def _assert_rows_and_columns(group, table):
    """Every row, every column, the generator columns and the Schreier tree
    of the group against a full multiplication table."""
    assert [tuple(group.row(b)) for b in range(group.order)] == list(table)
    assert [tuple(group.column(j)) for j in range(group.order)] == list(zip(*table))
    assert group.columns == tuple(tuple(row[g] for row in table) for g in group.generators)
    reached = sorted(b for b, _, _ in group.tree)
    assert reached == sorted(set(range(group.order)) - {group.identity_index})
    assert all(table[p][group.generators[k]] == b for b, p, k in group.tree)


def _assert_centralizers_match_table(group, table, inverse, classes):
    """Each distinct centralizer of a class representative: its elements, and
    its rows, columns, tree and inverses against the table restricted to it."""
    seen = set()
    for cl in classes:
        members = tuple(c for c in range(group.order) if table[c][cl[0]] == table[cl[0]][c])
        if members in seen:
            continue
        seen.add(members)
        sub = centralizer(group, cl[0])
        assert [e.key() for e in sub.elements] == [group.elements[i].key() for i in members]
        pos = {g: k for k, g in enumerate(members)}
        sub_table = tuple(tuple(pos[table[i][j]] for j in members) for i in members)
        assert _table(sub) == sub_table
        assert sub._inverse == tuple(pos[inverse[i]] for i in members)
        assert sub.identity_index == pos[group.identity_index]
        _assert_rows_and_columns(sub, sub_table)


def _assert_matches_reference(group, symmetries):
    gens = [group.elements[i] for i in group.generators]
    elements, table, identity, inverse = _reference_close_group(gens, group.normalizer)
    assert [e.key() for e in group.elements] == [e.key() for e in elements]
    assert _table(group) == table
    assert group.identity_index == identity
    assert group._inverse == inverse
    _assert_rows_and_columns(group, table)
    classes = _reference_conjugacy_classes(group)
    assert conjugacy_classes(group).classes == classes
    _assert_centralizers_match_table(group, table, inverse, classes)
    for h in symmetries:
        try:
            expected = _reference_outer_action(group, h)
        except NotNormalizing:
            with pytest.raises(NotNormalizing):
                outer_action(group, h)
            continue
        act = outer_action(group, h)
        assert (act.element_perm, act.classes.classes, act.class_perm) == expected


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclic_matches_reference(n):
    _assert_matches_reference(cyclic_group(n), [cyclic_swap_symmetry(), cyclic_flip_symmetry()])


@pytest.mark.parametrize("n", [3, 5, 6, 8, 60])
def test_non_integral_conjugate_raises_like_reference(n):
    # det 2: the one divisor prepared per call must refuse the same entries
    # that dividing entry by entry refuses
    h = GroupElement.from_matrix([[1, 1], [0, 2]])
    with pytest.raises(NotNormalizing, match="non-integral entries"):
        outer_action(cyclic_group(n), h)
    with pytest.raises(NotNormalizing, match="non-integral entries"):
        _reference_outer_action(cyclic_group(n), h)


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
    orders = _element_orders(tetra_group)
    q8 = tetra_group.subgroup([i for i, o in enumerate(orders) if o in (1, 2, 4)])
    _assert_matches_reference(q8, [h])
    # an order-six cyclic subgroup, which h moves
    six = next(i for i, o in enumerate(orders) if o == 6)
    members, x = {tetra_group.identity_index}, six
    while x not in members:
        members.add(x)
        x = tetra_group.row(x)[six]
    c6 = tetra_group.subgroup(members)
    assert c6.order == 6
    _assert_matches_reference(c6, [h])


def test_subgroup_accepts_exactly_the_closed_subsets(tetra_group):
    # every cyclic subgroup and the whole group, with one or two elements
    # added or removed: subgroup() refuses a subset exactly when the table
    # does not close it, and builds the rest as the table restricted to it
    table, n = _table(tetra_group), tetra_group.order
    bases = {frozenset(range(n))}
    for x in range(n):
        powers, y = {tetra_group.identity_index}, x
        while y not in powers:
            powers.add(y)
            y = table[y][x]
        bases.add(frozenset(powers))
    closed = 0
    for base in bases:
        for toggle in itertools.chain(itertools.combinations(range(n), 1),
                                      itertools.combinations(range(n), 2)):
            members = sorted(base.symmetric_difference(toggle))
            if members and all(table[i][j] in members for i in members for j in members):
                closed += 1
                sub = tetra_group.subgroup(members)
                pos = {g: k for k, g in enumerate(members)}
                assert [e.key() for e in sub.elements] == [
                    tetra_group.elements[i].key() for i in members
                ]
                _assert_rows_and_columns(
                    sub, tuple(tuple(pos[table[i][j]] for j in members) for i in members)
                )
            else:
                with pytest.raises(StabilizerNotSubgroup):
                    tetra_group.subgroup(members)
    assert closed == 16  # the closed subsets found, so both branches run


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


@st.composite
def _generator_lists(draw):
    """One or two random diagonal or monomial generators over the m-th roots
    of unity, then possibly one more that adds nothing: a duplicate, the
    identity, or the product of the two."""
    dim = draw(st.integers(2, 3))
    monomial = draw(st.booleans())
    m = draw(st.integers(1, (6 if dim == 2 else 3) if monomial else 6))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        e = draw(st.lists(st.integers(0, m - 1), min_size=dim, max_size=dim))
        sigma = draw(st.permutations(range(dim))) if monomial else range(dim)
        gens.append(GroupElement.from_matrix(
            [[CycloInt.zeta(m, e[j]) if i == sigma[j] else 0 for j in range(dim)]
             for i in range(dim)],
            conductor=m,
        ))
    extra = draw(st.sampled_from(["none", "duplicate", "identity", "span"]))
    if extra == "duplicate":
        gens.append(gens[-1])
    elif extra == "identity":
        gens.append(GroupElement.identity(dim, m))
    elif extra == "span":
        gens.append(gens[0].mul(gens[-1]))
    return gens


@settings(max_examples=40, deadline=None)
@given(_generator_lists())
def test_closure_matches_reference_in_every_generator_order(gens):
    elements, table, identity, inverse = _reference_close_group(gens)
    keys = [e.key() for e in elements]
    for order in itertools.permutations(gens):
        group = close_group(order)
        assert [e.key() for e in group.elements] == keys
        assert _table(group) == table
        assert group.identity_index == identity
        assert group._inverse == inverse
        assert group.generators == tuple(keys.index(g.key()) for g in order)
        _assert_rows_and_columns(group, table)


@pytest.mark.parametrize("build,order", [(quintic_group, 125), (complete_intersection_group, 81)])
def test_closure_cap_is_the_largest_order_allowed(build, order):
    with pytest.raises(CapExceeded, match=f"cap of {order - 1}"):
        build(cap=order - 1)
    assert build(cap=order).order == order


@pytest.mark.parametrize("cap", [50, 10_000])
def test_infinite_generator_after_finite_ones_hits_the_cap(cap):
    shear = GroupElement.from_matrix([[1, 1], [0, 1]])
    for finite in ([GroupElement.from_matrix([[-1, 0], [0, -1]])], [_tetra_u(), _tetra_t()]):
        with pytest.raises(CapExceeded, match=f"cap of {cap}"):
            close_group([*finite, shear], cap=cap)


@st.composite
def _normalized_groups(draw):
    """A random diagonal or monomial group of dimension 2 or 3 with entries in
    the m-th roots of unity, and a permutation matrix h that normalizes it:
    the generators are closed under conjugation by h."""
    dim = draw(st.integers(2, 3))
    monomial = draw(st.booleans())
    m = draw(st.integers(1, 4 if monomial else 8))
    h = _perm_matrix(tuple(draw(st.permutations(range(dim)))))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        e = draw(st.lists(st.integers(0, m - 1), min_size=dim, max_size=dim))
        sigma = draw(st.permutations(range(dim))) if monomial else range(dim)
        g = GroupElement.from_matrix(
            [[CycloInt.zeta(m, e[j]) if i == sigma[j] else 0 for j in range(dim)]
             for i in range(dim)],
            conductor=m,
        )
        c = g
        while True:  # the orbit of g under conjugation by h
            gens.append(c)
            c = h.lift(m).mul(c).mul(_transpose(h).lift(m))
            if c == g:
                break
    return close_group(gens), h


def _transpose(g):
    return GroupElement(g.n, g.conductor, tuple(zip(*g.entries)))


@settings(max_examples=40, deadline=None)
@given(_normalized_groups())
def test_class_equation_on_random_groups(case):
    group, _ = case
    classes = conjugacy_classes(group)
    assert sorted(i for cl in classes.classes for i in cl) == list(range(group.order))
    for cl in classes.classes:
        x = cl[0]
        row, col = group.row(x), group.column(x)
        commuting = sum(1 for y in range(group.order) if row[y] == col[y])
        assert len(cl) * commuting == group.order
    assert centralizer(group, classes.classes[-1][0]).order * len(classes.classes[-1]) == group.order


@settings(max_examples=40, deadline=None)
@given(_normalized_groups())
def test_outer_action_is_the_conjugation_bijection_on_random_groups(case):
    group, h = case
    act = outer_action(group, h)
    assert sorted(act.element_perm) == list(range(group.order))
    assert sorted(act.class_perm) == list(range(act.classes.count))
    m = group.elements[0].conductor
    hh, hh_inv = h.lift(m), _transpose(h).lift(m)
    for i, e in enumerate(group.elements):
        assert hh.mul(e).mul(hh_inv) == group.elements[act.element_perm[i]]


def test_index_of_compares_across_conductors():
    group = binary_dihedral(5)  # conductor 6
    swap = cyclic_swap_symmetry()  # conductor 1
    assert group.elements[group.index_of(swap)] == swap
    for k, e in enumerate(group.elements):
        assert group.index_of(e.lift(4 * e.conductor)) == k
    with pytest.raises(ElementNotInGroup):
        group.index_of(binary_dihedral_symmetry(5))  # an order-12 root, outside


@pytest.mark.parametrize("r", range(3, 13))
def test_outer_action_looks_conjugates_up_at_the_group_conductor(monkeypatch, r):
    group, h = binary_dihedral(r), binary_dihedral_symmetry(r)
    m = group.elements[0].conductor
    assert h.conductor == 2 * m
    act = outer_action(group, h)
    assert set(group.__dict__["_key_cache"]) == {m}  # no index at h's conductor
    # the lift path: every candidate looked up at h's conductor
    monkeypatch.setattr(groups, "_descend", lambda g, m: None)
    lifted_group = binary_dihedral(r)
    lifted = outer_action(lifted_group, h)
    assert set(lifted_group.__dict__["_key_cache"]) == {m, h.conductor}
    assert (lifted.element_perm, lifted.class_perm) == (act.element_perm, act.class_perm)


def test_descent_takes_signed_roots_down_and_leaves_the_rest():
    z = CycloInt.zeta
    # -1 at conductor 4 is zeta_4^2, and -zeta_1^0 at conductor 1
    g = GroupElement.from_matrix([[0, z(4, 2)], [z(4, 3), 0]])
    assert groups._descend(g, 2) is None  # zeta_4^3 is not at conductor 2
    flip = GroupElement.from_matrix([[0, z(4, 2)], [z(4, 0), 0]])
    down = groups._descend(flip, 1)
    assert down.conductor == 1 and down == flip and down.key() == down.replace().key()
    assert groups._descend(GroupElement.from_matrix([[z(12, 2) + 1]]), 6) is None
    down = groups._descend(GroupElement.from_matrix([[z(12, 10)]]), 6)
    assert down.conductor == 6 and down == GroupElement.from_matrix([[z(6, 5)]])


def test_outer_action_refuses_a_conjugate_outside_the_group_on_both_paths():
    flip = GroupElement.from_matrix([[0, 1], [1, 0]])
    minus_one = GroupElement.from_matrix([[-1, 0], [0, -1]])
    z = CycloInt.zeta
    # diag(i, -i) conjugates the flip to -flip: at conductor 1, so looked up there
    h4 = GroupElement.from_matrix([[z(4), 0], [0, z(4, 3)]])
    group = close_group([flip])
    with pytest.raises(NotNormalizing, match="falls outside the group"):
        outer_action(group, h4)
    assert set(group.__dict__["_key_cache"]) == {1}
    bigger = close_group([flip, minus_one])
    assert sorted(outer_action(bigger, h4).element_perm) == list(range(4))
    assert set(bigger.__dict__["_key_cache"]) == {1}
    # diag(zeta_8, zeta_8^-1) conjugates it to [[0, -i], [i, 0]], not at conductor 1
    h8 = GroupElement.from_matrix([[z(8), 0], [0, z(8, 7)]])
    with pytest.raises(NotNormalizing, match="falls outside the group"):
        outer_action(bigger, h8)
    assert set(bigger.__dict__["_key_cache"]) == {1, 8}


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


def test_outer_action_rejects_corrupted_columns(tetra_group):
    # redirect one generator edge x -> x*g back to x, which leaves the column
    # no permutation; or send x to x*g*g and x*g to itself, which keeps it
    # one: the checks on the columns, on every edge and on the bijection must
    # notice every such column
    h = binary_tetrahedral_symmetry()
    for x in range(tetra_group.order):
        for k in range(len(tetra_group.generators)):
            for swap in (False, True):
                columns = [list(col) for col in tetra_group.columns]
                y = columns[k][x]
                if swap:
                    columns[k][x], columns[k][y] = columns[k][y], y
                else:
                    columns[k][x] = x
                corrupted = tetra_group.replace(columns=tuple(map(tuple, columns)))
                with pytest.raises(NotNormalizing):
                    outer_action(corrupted, h)


# ---------------------------------------------------------------------------
# commutativity from the generators, and classes kept on the group


def _all_pairs_abelian(group):
    table = _table(group)
    pairs = itertools.combinations(range(group.order), 2)
    return all(table[i][j] == table[j][i] for i, j in pairs)


def _fixture_groups():
    yield close_group([GroupElement.identity(3)])
    yield quintic_group()
    yield complete_intersection_group()
    yield binary_tetrahedral()
    yield d4_triality()[0]
    yield _subgroup_q8()
    for r in range(3, 9):
        yield binary_dihedral(r)
    for n in range(1, 13):
        yield cyclic_group(n)


def test_is_abelian_matches_all_pairs_on_fixtures_and_centralizers():
    seen = set()
    for group in _fixture_groups():
        assert group.is_abelian() == _all_pairs_abelian(group)
        for cl in conjugacy_classes(group).classes:
            sub = centralizer(group, cl[0])
            assert sub.is_abelian() == _all_pairs_abelian(sub)
            seen.add(sub.is_abelian())
        seen.add(group.is_abelian())
    assert seen == {True, False}


@settings(max_examples=40, deadline=None)
@given(_normalized_groups())
def test_is_abelian_matches_all_pairs_on_random_groups(case):
    group, _ = case
    assert group.is_abelian() == _all_pairs_abelian(group)
    x = conjugacy_classes(group).classes[-1][0]
    assert centralizer(group, x).is_abelian() == _all_pairs_abelian(centralizer(group, x))


def test_outer_action_reuses_the_classes_of_its_group():
    group = binary_dihedral(5)
    classes = conjugacy_classes(group)
    assert conjugacy_classes(group) is classes
    assert outer_action(group, binary_dihedral_symmetry(5)).classes is classes
    # an equal group built anew computes its own classes, with the same result
    fresh = group.replace()
    assert conjugacy_classes(fresh) is not classes
    assert conjugacy_classes(fresh) == classes
    assert classes.classes == _reference_conjugacy_classes(group)


# ---------------------------------------------------------------------------
# deterministic work counters: Dimino closure makes one matrix product per
# coset representative and generator and one per other element of a new
# coset, never more than |G|*|gens|


def _subgroup_q8():
    tetra = binary_tetrahedral()
    orders = _element_orders(tetra)
    return tetra.subgroup([i for i, o in enumerate(orders) if o in (1, 2, 4)])


# the exact count of each fixture, by its order
_DIMINO_PRODUCTS = {30: 30, 16: 19, 24: 31, 125: 142, 81: 104}


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
        assert len(calls) == _DIMINO_PRODUCTS[group.order]
        assert len(calls) <= group.order * len(group.generators)
    calls.clear()
    outer_action(group, h)
    assert len(calls) == 2 * len(group.generators)  # h * g * adj(h) per generator


# ---------------------------------------------------------------------------
# the tuple kernel against the operator route: products, scalings,
# determinants and adjugates of group elements entry by entry through the
# CycloInt operators, and whole groups and outer actions built either way


def _operator_mul(a, b):
    """a·b over the nonzero entries, with CycloInt products and sums."""
    if a.conductor != b.conductor or a.n != b.n:
        raise IncompatibleElements("mismatched elements")
    zero = CycloInt.from_int(0, a.conductor)
    support = [[(j, x) for j, x in enumerate(row) if x.coeffs] for row in b.entries]
    rows = []
    for row in a.entries:
        out = [None] * a.n
        for k, x in enumerate(row):
            if x.coeffs:
                for j, y in support[k]:
                    out[j] = x * y if out[j] is None else out[j] + x * y
        rows.append(tuple(zero if x is None else x for x in out))
    return GroupElement(a.n, a.conductor, tuple(rows))


def _operator_scale(g, c):
    c = c.lift(g.conductor)
    return GroupElement(
        g.n, g.conductor, tuple(tuple(c * x if x.coeffs else x for x in row) for row in g.entries)
    )


def _operator_det(entries, conductor):
    n = len(entries)
    if n == 0:
        return CycloInt.from_int(1, conductor)
    if n == 1:
        return entries[0][0]
    out = CycloInt.from_int(0, conductor)
    for j in range(n):
        if entries[0][j].is_zero():
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in entries[1:])
        term = entries[0][j] * _operator_det(minor, conductor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _operator_adjugate(g):
    cof = []
    for i in range(g.n):
        row = []
        for j in range(g.n):
            minor = tuple(r[:i] + r[i + 1 :] for k, r in enumerate(g.entries) if k != j)
            d = _operator_det(minor, g.conductor)
            row.append(d if (i + j) % 2 == 0 else -d)
        cof.append(tuple(row))
    return GroupElement(g.n, g.conductor, tuple(cof))


@st.composite
def _matrices(draw, m, n):
    rows = tuple(tuple(draw(_entries(m)) for _ in range(n)) for _ in range(n))
    return GroupElement(n, m, rows)


def _same(a, b):
    """Equal elements entry by entry, with equal keys, at one conductor."""
    assert (a.n, a.conductor) == (b.n, b.conductor)
    assert [[x.coeffs for x in r] for r in a.entries] == [[x.coeffs for x in r] for r in b.entries]
    assert a.key() == b.key() == tuple(x.coeffs for r in a.entries for x in r)


_CONDUCTORS = st.sampled_from([1, 2, 3, 4, 5, 8, 9, 12, 20])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=_CONDUCTORS, n=st.integers(1, 4))
def test_kernel_product_matches_the_operators(data, m, n):
    a, b = data.draw(_matrices(m, n)), data.draw(_matrices(m, n))
    _same(a.mul(b), _operator_mul(a, b))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=_CONDUCTORS, n=st.integers(1, 4))
def test_kernel_scale_matches_the_operators(data, m, n):
    g = data.draw(_matrices(m, n))
    d = data.draw(st.sampled_from([k for k in range(1, m + 1) if m % k == 0]))
    c = data.draw(_entries(d))  # a scalar of a smaller conductor is lifted first
    _same(g.scale(c), _operator_scale(g, c))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=_CONDUCTORS, n=st.integers(0, 4))
def test_kernel_det_and_adjugate_match_the_operators(data, m, n):
    g = data.draw(_matrices(m, n))
    got, want = _det(g.entries, m), _operator_det(g.entries, m)
    assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)
    if n:
        _same(_adjugate(g), _operator_adjugate(g))


# every group-census item, the SL3 generators there with a conductor-1 symmetry
_CENSUS = [
    "quintic", "lt", "binary-tetrahedral", "d4-triality",
    *(f"cyclic-{n}" for n in (24, 32, 41, 48, 54)),
    *(f"binary-dihedral-{r}" for r in (8, 12)),
    "sl3-diag-9",
]


def _census_case(label):
    """The group of a group-census item and the symmetries it is acted on by."""
    if label == "quintic":
        return quintic_group(), [quintic_symmetry(v) for v in ("swap", "swap-two-pairs")]
    if label == "lt":
        return complete_intersection_group(), [complete_intersection_symmetry()]
    if label == "binary-tetrahedral":
        return binary_tetrahedral(), [binary_tetrahedral_symmetry()]
    if label == "d4-triality":
        q8, t = d4_triality()
        return q8, [t]
    if label == "sl3-diag-9":
        gens = [parse_matrix("[[1,0,0],[0,z9^4,0],[0,0,z9^5]]"),
                parse_matrix("[[z9^5,0,0],[0,1,0],[0,0,z9^4]]")]
        return close_group(gens), [parse_matrix("[[0,0,1],[1,0,0],[0,1,0]]")]
    n = int(label.rsplit("-", 1)[1])
    if label.startswith("cyclic"):
        return cyclic_group(n), [cyclic_swap_symmetry(), cyclic_flip_symmetry()]
    return binary_dihedral(n), [binary_dihedral_symmetry(n)]


def _built(label):
    group, symmetries = _census_case(label)
    actions = [outer_action(group, h) for h in symmetries]
    return (
        [e.key() for e in group.elements],
        _table(group),
        group.identity_index,
        group._inverse,
        group.generators,
        [(a.element_perm, a.class_perm) for a in actions],
    )


@pytest.mark.parametrize("label", _CENSUS)
def test_census_group_is_the_same_under_the_operator_route(monkeypatch, label):
    kernel = _built(label)
    calls = []

    def counted(fn):
        return lambda *args: calls.append(fn) or fn(*args)

    monkeypatch.setattr(GroupElement, "mul", counted(_operator_mul))
    monkeypatch.setattr(GroupElement, "scale", counted(_operator_scale))
    monkeypatch.setattr(groups, "_det", counted(_operator_det))
    monkeypatch.setattr(groups, "_adjugate", counted(_operator_adjugate))
    monkeypatch.setattr(CycloInt, "lift", counted(_collect_lift))
    assert _built(label) == kernel
    assert {_operator_mul, _operator_det, _operator_adjugate, _collect_lift} <= set(calls)
    if label == "quintic":  # scalar normalization scales
        assert _operator_scale in calls

