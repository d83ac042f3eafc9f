from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant.exactmath import (
    CycloInt,
    ExactnessError,
    IntMat,
    LatticeError,
    cyclo_div_exact,
    cyclo_mul,
    cyclotomic_polynomial,
    lattice_index,
    row_lattice_basis,
    smith_normal_form,
    zeta_sum_is_zero,
)
from crepant.exactmath import _poly_divmod, _poly_mul


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    # derived by dividing x^6 - 1 by the product of the lower cyclotomics
    assert cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("m", range(1, 31))
def test_cyclotomic_product_identity(m):
    prod = (1,)
    for d in range(1, m + 1):
        if m % d == 0:
            prod = _poly_mul(prod, cyclotomic_polynomial(d))
    expected = [0] * (m + 1)
    expected[0], expected[m] = -1, 1
    assert list(prod) == expected


def test_root_of_unity_products():
    z5 = CycloInt.zeta(5)
    assert cyclo_mul(z5, z5**4).is_one()
    z4 = CycloInt.zeta(4)
    assert cyclo_mul(z4, z4) == -1
    # lift both factors to conductor 9 and reduce
    assert cyclo_mul(CycloInt.zeta(3), CycloInt.zeta(9)) == CycloInt.zeta(9, 4)


def test_cyclo_equality_across_conductors():
    assert CycloInt.zeta(6, 2) == CycloInt.zeta(3, 1)
    assert CycloInt.zeta(3).lift(6) == CycloInt.zeta(3)
    assert CycloInt.from_int(2, 5) == CycloInt.from_int(2, 7)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]),
    ka=st.integers(0, 11),
    kb=st.integers(0, 11),
    kc=st.integers(0, 11),
)
def test_cyclo_ring_axioms(m, ka, kb, kc):
    a, b, c = CycloInt.zeta(m, ka), CycloInt.zeta(m, kb), CycloInt.zeta(m, kc)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * CycloInt.from_int(1) == a
    assert (a + b) * c == a * c + b * c


def test_cyclo_reduction_idempotent():
    z9 = CycloInt.zeta(9, 7)
    lifted = z9.lift(18).try_reduce(9)
    assert lifted == z9


def test_exact_division():
    z5 = CycloInt.zeta(5)
    assert cyclo_div_exact(CycloInt.from_int(1, 5), z5) == z5**4
    assert cyclo_div_exact(CycloInt.from_int(3, 5), CycloInt.from_int(2, 5)) is None


def test_snf_examples():
    _, d1, _ = smith_normal_form(IntMat.identity(2))
    assert [d1.get(i, i) for i in range(2)] == [1, 1]

    a = IntMat.from_rows([[2, 0], [0, 3]])
    u, d, v = smith_normal_form(a)
    assert u.mul(a).mul(v).entries == d.entries
    assert [d.get(i, i) for i in range(2)] == [1, 6]

    b = IntMat.from_rows([[2, 4], [6, 8]])
    _, db, _ = smith_normal_form(b)
    assert [db.get(i, i) for i in range(2)] == [2, 4]
    assert abs(b.det()) == 8


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_properties(rows):
    a = IntMat.from_rows(rows)
    u, d, v = smith_normal_form(a)
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    assert u.mul(a).mul(v).entries == d.entries
    diag = [d.get(i, i) for i in range(min(a.rows, a.cols))]
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    # off-diagonal must vanish
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.get(i, j) == 0
    # recomposition recovers the input
    back = u.inverse_unimodular().mul(d).mul(v.inverse_unimodular())
    assert back.entries == a.entries


def test_lattice_index_examples():
    assert lattice_index([[2, 0], [0, 3]], [[1, 0], [0, 1]]) == 6
    rows = [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)],
        [Fraction(1, 5), Fraction(1, 5), Fraction(3, 5)],
    ]
    basis = row_lattice_basis(rows)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert lattice_index(eye, basis) == 25
    assert lattice_index(basis, basis) == 1


def test_lattice_index_tower_multiplicative():
    a = [[4, 0], [0, 6]]
    b = [[2, 0], [0, 3]]
    c = [[1, 0], [0, 1]]
    assert lattice_index(a, c) == lattice_index(a, b) * lattice_index(b, c)


def test_lattice_index_errors():
    with pytest.raises(LatticeError):
        lattice_index([[1, 0]], [[0, 1]])
    with pytest.raises(LatticeError):
        lattice_index([[1, 0], [0, 1]], [[2, 0], [0, 2]])


def test_poly_divmod_rejects_non_monic_divisor():
    assert _poly_divmod((-1, 0, 1), (-1, 1)) == ((1, 1), ())
    with pytest.raises(ExactnessError, match=r"\(1, 2\) is not monic"):
        _poly_divmod((1, 0, 1), (1, 2))


# ---------------------------------------------------------------------------
# vanishing of sums of roots of unity


@pytest.mark.parametrize("m", range(2, 31))
def test_all_mth_roots_sum_to_zero(m):
    assert zeta_sum_is_zero(m, range(m))
    assert zeta_sum_is_zero(m, range(-m, 2 * m))  # exponents are read mod m


@pytest.mark.parametrize("m", range(2, 31))
def test_qth_roots_inside_mth_roots_sum_to_zero(m):
    for q in range(2, m + 1):
        if m % q == 0:
            assert zeta_sum_is_zero(m, [j * (m // q) for j in range(q)])
            # one root short of the subgroup: what is left is minus that root
            assert not zeta_sum_is_zero(m, [j * (m // q) for j in range(1, q)])


@pytest.mark.parametrize("m", range(1, 31))
def test_single_root_never_vanishes(m):
    for k in range(m):
        assert not zeta_sum_is_zero(m, [k])
    assert not zeta_sum_is_zero(1, [0, 0])


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 30),
    extra=st.lists(st.integers(-40, 40), max_size=6),
    cosets=st.lists(st.tuples(st.integers(2, 30), st.integers(-40, 40)), max_size=3),
)
def test_zeta_sum_matches_cycloint_sum(m, extra, cosets):
    # rotated subgroups of roots sum to zero, so multisets built from them
    # (with or without extra roots) probe both answers
    exponents = list(extra)
    for q, shift in cosets:
        if m % q == 0:
            exponents += [shift + j * (m // q) for j in range(q)]
    total = CycloInt.from_int(0, m)
    for k in exponents:
        total = total + CycloInt.zeta(m, k)
    assert zeta_sum_is_zero(m, exponents) == total.is_zero()
