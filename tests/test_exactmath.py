from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant.exactmath import (
    CycloDivisor,
    CycloInt,
    ExactnessError,
    IntMat,
    LatticeError,
    cyclo_div_exact,
    cyclotomic_polynomial,
    lattice_index,
    permutation_cycles,
    smith_normal_form,
    zeta_sum_is_zero,
)
from crepant.exactmath import (
    _collect,
    _cyclo,
    _expansions,
    _poly_divmod,
    _poly_mul,
    _product,
    _rational_value,
    _sum_of_products,
)
from test_toric import (
    _det_fraction,
    _gauss_reduce,
    _nullspace,
    _rational_det,
    _rational_inverse,
    _solve_in_basis,
    row_lattice_basis,
    unimodular_inverse,
)


# ---------------------------------------------------------------------------
# reference: cyclotomic integers in the dense power basis


def _reduce_mod_cyclotomic(coeffs: list[int], m: int) -> tuple[int, ...]:
    """Reduce a coefficient list modulo the m-th cyclotomic polynomial."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    coeffs = list(coeffs) + [0] * max(deg - len(coeffs), 0)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(len(phi)):
                coeffs[i - deg + j] -= c * phi[j]
            coeffs[i] = 0
    return tuple(coeffs[:deg])


@dataclass(frozen=True)
class DenseCyclo:
    """Element of Z[zeta_m] as its reduction modulo Phi_m in the power basis
    1, zeta_m, ..., zeta_m^(phi(m)-1): the representation CycloInt had before
    the Zumbroich basis, kept as a slow, independent reference."""

    conductor: int
    coeffs: tuple[int, ...]

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self):
        if len(self.coeffs) != len(cyclotomic_polynomial(self.conductor)) - 1:
            raise ValueError("coefficient length must equal the cyclotomic degree")

    @staticmethod
    def from_int(value: int, m: int = 1) -> "DenseCyclo":
        return DenseCyclo(m, _reduce_mod_cyclotomic([value], m))

    @staticmethod
    def zeta(m: int, k: int = 1) -> "DenseCyclo":
        c = [0] * (k % m + 1)
        c[k % m] = 1
        return DenseCyclo(m, _reduce_mod_cyclotomic(c, m))

    @staticmethod
    def from_sparse(x: CycloInt) -> "DenseCyclo":
        out = DenseCyclo.from_int(0, x.conductor)
        for k, c in x.coeffs:
            out = out + DenseCyclo.zeta(x.conductor, k) * DenseCyclo.from_int(c)
        return out

    def to_sparse(self) -> CycloInt:
        out = CycloInt.from_int(0, self.conductor)
        for k, c in enumerate(self.coeffs):
            out = out + CycloInt.zeta(self.conductor, k) * c
        return out

    def lift(self, m: int) -> "DenseCyclo":
        step = m // self.conductor
        c = [0] * ((len(self.coeffs) - 1) * step + 1)
        for i, x in enumerate(self.coeffs):
            c[i * step] += x
        return DenseCyclo(m, _reduce_mod_cyclotomic(c, m))

    def _pair(self, other):
        if isinstance(other, int):
            other = DenseCyclo.from_int(other)
        m = lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return DenseCyclo(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return DenseCyclo(self.conductor, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        a, b = self._pair(other)
        return DenseCyclo(a.conductor, _reduce_mod_cyclotomic(_poly_mul(a.coeffs, b.coeffs), a.conductor))

    def __eq__(self, other):
        if isinstance(other, int):
            other = DenseCyclo.from_int(other)
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def galois(self, k: int) -> "DenseCyclo":
        m = self.conductor
        c = [0] * m
        for i, x in enumerate(self.coeffs):
            c[(i * k) % m] += x
        return DenseCyclo(m, _reduce_mod_cyclotomic(c, m))

    def div_exact(self, b: "DenseCyclo") -> "DenseCyclo | None":
        """self / b by the norm and Galois cofactor, coefficient by coefficient."""
        a, b = self._pair(b)
        m = a.conductor
        cof = DenseCyclo.from_int(1, m)
        for k in range(2, m + 1):
            if gcd(k, m) == 1:
                cof = cof * b.galois(k)
        norm = (b * cof).coeffs
        if any(norm[1:]) or not norm[0]:
            raise ZeroDivisionError("zero or non-rational norm")
        num = (a * cof).coeffs
        if any(x % norm[0] for x in num):
            return None
        return DenseCyclo(m, tuple(x // norm[0] for x in num))

    def try_reduce(self, m: int) -> "DenseCyclo | None":
        """Rewrite at conductor m when the value lies in Z[zeta_m], else None,
        by solving for its coordinates in the power basis of that subfield."""
        common = lcm(m, self.conductor)
        deg = len(cyclotomic_polynomial(m)) - 1
        target = [DenseCyclo.zeta(m, j).lift(common).coeffs for j in range(deg)]
        coords = _solve_in_basis(self.lift(common).coeffs, target)
        if coords is None or any(c.denominator != 1 for c in coords):
            return None
        return DenseCyclo(m, tuple(int(c) for c in coords))


def _try_reduce(x: CycloInt, m: int) -> CycloInt | None:
    """x rewritten at conductor m when it lies in that subfield, else None."""
    r = DenseCyclo.from_sparse(x).try_reduce(m)
    return None if r is None else r.to_sparse()


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
    assert z5 * _reference_power(z5, 4) == 1
    z4 = CycloInt.zeta(4)
    assert z4 * z4 == -1
    # lift both factors to conductor 9 and reduce
    assert CycloInt.zeta(3) * CycloInt.zeta(9) == CycloInt.zeta(9, 4)


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
    lifted = _try_reduce(z9.lift(18), 9)
    assert lifted == z9


def test_exact_division():
    z5 = CycloInt.zeta(5)
    assert cyclo_div_exact(CycloInt.from_int(1, 5), z5) == _reference_power(z5, 4)
    assert cyclo_div_exact(CycloInt.from_int(3, 5), CycloInt.from_int(2, 5)) is None


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15]),
    a=st.lists(st.integers(-3, 3), min_size=16, max_size=16),
    b=st.lists(st.integers(-3, 3), min_size=16, max_size=16),
)
def test_prepared_divisor_matches_plain_division(m, a, b):
    deg = len(cyclotomic_polynomial(m)) - 1
    a, b = DenseCyclo(m, tuple(a[:deg])).to_sparse(), DenseCyclo(m, tuple(b[:deg])).to_sparse()
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            CycloDivisor(b)
        return
    divisor = CycloDivisor(b)
    norm = CycloInt.from_int(1, m)
    for k in range(1, m + 1):
        if gcd(k, m) == 1:
            norm = norm * b.galois(k)
    assert norm == divisor.norm  # the product of all conjugates
    assert cyclo_div_exact(a * b, divisor) == a
    assert cyclo_div_exact(a * b, b) == a
    plus_one = cyclo_div_exact(a * b + 1, divisor)
    assert plus_one == cyclo_div_exact(a * b + 1, b)
    assert plus_one is None or plus_one * b == a * b + 1


# ---------------------------------------------------------------------------
# the Zumbroich basis against the dense reference

# conductors up to 60: prime powers, a prime with a long basis (41), and
# products of two and three primes (30 = 2*3*5, 42, 60)
DIFF_CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20, 21, 24, 25, 27, 30, 36,
                   41, 42, 45, 60]


@pytest.mark.parametrize("m", range(1, 61))
def test_zumbroich_table_expands_every_root_in_an_integral_basis(m):
    table = _expansions(m)
    basis = [k for k in range(m) if table[k] == ((k, 1),)]
    # phi(m) basis elements whose power-basis vectors are unimodular: a Z-basis
    assert len(basis) == len(cyclotomic_polynomial(m)) - 1
    assert IntMat.from_rows([DenseCyclo.zeta(m, k).coeffs for k in basis]).det() in (1, -1)
    for k, terms in enumerate(table):
        assert len({s for _, s in terms}) == 1 and [e for e, _ in terms] == sorted(
            e for e, _ in terms if e in basis
        )
        total = DenseCyclo.from_int(0, m)
        for e, s in terms:
            total = total + DenseCyclo.zeta(m, e) * s
        assert total == DenseCyclo.zeta(m, k)


@pytest.mark.parametrize("m", DIFF_CONDUCTORS)
def test_root_of_unity_divisor_matches_the_galois_product(m):
    # the closed-form cofactor of +-zeta_m^k against the product of the other
    # conjugates, and the norm against the product of all of them
    units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
    probe = CycloInt.zeta(m, 1) * 3 + 2
    for k in range(m):
        for s in (1, -1):
            b = CycloInt.zeta(m, k) * s
            cofactor = CycloInt.from_int(1, m)
            for j in units[1:]:
                cofactor = cofactor * b.galois(j)
            divisor = CycloDivisor(b)
            assert divisor.cofactor == cofactor and (b * cofactor) == divisor.norm, (m, k, s)
            assert divisor.norm == (1 if m > 2 else s * (-1) ** k)
            assert cyclo_div_exact(probe * b, divisor) == probe


@st.composite
def _dense_values(draw, m):
    """A reference value at conductor m: a coefficient vector, a multiple of
    a root of unity, or an integer."""
    kind = draw(st.sampled_from(["vector", "root", "int"]))
    if kind == "root":
        return DenseCyclo.zeta(m, draw(st.integers(0, m - 1))) * draw(st.sampled_from([1, -1, 2]))
    if kind == "int":
        return DenseCyclo.from_int(draw(st.integers(-3, 3)), m)
    deg = len(cyclotomic_polynomial(m)) - 1
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    return DenseCyclo(m, tuple(draw(st.lists(entries, min_size=deg, max_size=deg))))


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.sampled_from(DIFF_CONDUCTORS))
def test_sparse_ring_operations_match_dense_reference(data, m):
    d = data.draw(st.sampled_from(_divisors(m)))
    a, b = data.draw(_dense_values(m)), data.draw(_dense_values(d))
    sa, sb = a.to_sparse(), b.to_sparse()
    for x, ref in ((sa, a), (sb, b)):
        assert CycloInt(x.conductor, x.coeffs).coeffs == x.coeffs  # canonical form
        assert DenseCyclo.from_sparse(x) == ref
    k = data.draw(st.sampled_from([k for k in range(1, m + 1) if gcd(k, m) == 1]))
    step = data.draw(st.integers(1, 4))
    results = [
        (sa + sb, a + b),
        (sa - sb, a - b),
        (sa * sb, a * b),
        (2 * sb, b * 2),
        (3 + sb, b + 3),
        (-sa, -a),
        (sa.galois(k), a.galois(k)),
        (sb.lift(d * step), b.lift(d * step)),
    ]
    for got, ref in results:
        assert got.conductor == ref.conductor
        assert CycloInt(got.conductor, got.coeffs).coeffs == got.coeffs
        assert DenseCyclo.from_sparse(got) == ref
    assert (sa == sb) == (a == b)
    assert (sb.lift(m) == sa) == (b == a)
    assert sa == sa.lift(m * step) and sa.lift(m * step) == sa
    assert sa * sb == sb * sa and sa - sa == 0


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.sampled_from(DIFF_CONDUCTORS))
def test_exact_division_matches_dense_reference(data, m):
    d = data.draw(st.sampled_from(_divisors(m)))
    a, b = data.draw(_dense_values(m)), data.draw(_dense_values(d))
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            cyclo_div_exact(a.to_sparse(), b.to_sparse())
        return
    for num in (a * b, a * b + 1, a):
        got = cyclo_div_exact(num.to_sparse(), b.to_sparse())
        ref = num.div_exact(b)
        assert (got is None) == (ref is None)
        assert got is None or DenseCyclo.from_sparse(got) == ref


def _root_of_unity_order(x):
    """Multiplicative order of x if it is a root of unity, else None."""
    root = x.as_root_of_unity()
    if root is None:
        return None
    s, k = root
    m = x.conductor
    # -zeta_m^k = zeta_2m^(m + 2k)
    return m // gcd(k, m) if s == 1 else 2 * m // gcd(m + 2 * k, 2 * m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 10, 12, 15, 30, 41, 60])
def test_root_of_unity_lookup_matches_repeated_products(m):
    def by_products(x):
        y = x
        for e in range(1, lcm(2, m) + 1):
            if y == 1:
                return e
            y = y * x
        return None

    values = [CycloInt.zeta(m, k) * s for k in range(m) for s in (1, -1)]
    values += [CycloInt.from_int(c, m) for c in (0, 2, -3)] + [CycloInt.zeta(m) + 1]
    for x in values:
        assert _root_of_unity_order(x) == by_products(x)
        root = x.as_root_of_unity()
        assert (root is None) == (by_products(x) is None)
        if root is not None:
            s, k = root
            assert x == CycloInt.zeta(m, k) * s and 0 <= k < m


# ---------------------------------------------------------------------------
# reference: the product without its cache


def _reference_power(b: CycloInt, e: int) -> CycloInt:
    """b**e as e products through ``_reference_mul``, from 1 at b's conductor."""
    out = CycloInt.from_int(1, b.conductor)
    for _ in range(e):
        out = _reference_mul(out, b)
    return out


def _reference_mul(a: CycloInt, b: CycloInt | int) -> CycloInt:
    """a * b computed afresh: a lookup for two signed roots of unity, a
    scaling for a rational factor, otherwise the convolution collected in the
    Zumbroich basis."""
    if isinstance(b, int):
        b = CycloInt.from_int(b, a.conductor)
    m = lcm(a.conductor, b.conductor)
    a, b = a.lift(m), b.lift(m)
    if len(a.coeffs) == 1 == len(b.coeffs):
        (i, c), (j, d) = a.coeffs[0], b.coeffs[0]
        return _cyclo(m, tuple((e, c * d * s) for e, s in _expansions(m)[(i + j) % m]))
    for x, y in ((a, b), (b, a)):
        n = _rational_value(m, x.coeffs)
        if n is not None:
            return _cyclo(m, tuple((k, n * c) for k, c in y.coeffs) if n else ())
    return _cyclo(m, _collect(m, ((i + j, c * d) for i, c in a.coeffs for j, d in b.coeffs)))


@st.composite
def _sparse_values(draw, m):
    """A value at conductor m: a rational integer, a signed root of unity, or
    a dense sum of a few roots."""
    kind = draw(st.sampled_from(["int", "root", "dense"]))
    if kind == "int":
        return CycloInt.from_int(draw(st.integers(-3, 3)), m)
    if kind == "root":
        return CycloInt.zeta(m, draw(st.integers(0, m - 1))) * draw(st.sampled_from([1, -1]))
    terms = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(-2, 2)), max_size=6))
    return sum((CycloInt.zeta(m, k) * c for k, c in terms), CycloInt.from_int(0, m))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 60))
def test_cached_product_matches_the_uncached_reference(data, m):
    d = data.draw(st.sampled_from(_divisors(m)))
    a, b = data.draw(_sparse_values(m)), data.draw(_sparse_values(d))
    n = data.draw(st.integers(-3, 3))
    cases = [
        (a * b, _reference_mul(a, b)),
        (b * a, _reference_mul(b, a)),
        (a.__rmul__(b), _reference_mul(b, a)),
        (n * b, _reference_mul(b, n)),
        (b * n, _reference_mul(b, n)),
    ]
    power = CycloInt.from_int(1, d)
    for e in range(4):
        cases.append((power, _reference_power(b, e)))
        power = power * b
    for got, ref in cases:
        assert (got.conductor, got.coeffs) == (ref.conductor, ref.coeffs)
        assert CycloInt(got.conductor, got.coeffs).coeffs == got.coeffs  # canonical
    assert a * b * b == _reference_mul(_reference_mul(a, b), b)  # a repeated product
    assert 0 < _product.cache_info().maxsize < float("inf")  # a bounded cache


# ---------------------------------------------------------------------------
# the tuple kernel against the operator route: sums of products on canonical
# coefficient tuples, and lifts of signed roots of unity by one table entry


# conductors of the group fixtures, and lifts that add a new odd prime
_KERNEL_CONDUCTORS = (1, 2, 3, 4, 5, 8, 9, 12, 20)
_LIFTS = ((1, 3), (2, 6), (3, 15), (4, 12), (5, 15), (8, 24), (9, 45), (12, 60), (20, 60))


@st.composite
def _entries(draw, m):
    """A matrix entry at conductor m: zero, a rational integer, a root of
    unity, a negated root, or a signed sum of two or three roots like the
    omega entries of the binary tetrahedral group."""
    kind = draw(st.sampled_from(["zero", "int", "root", "negated", "sum"]))
    if kind == "zero":
        return CycloInt.from_int(0, m)
    if kind == "int":
        return CycloInt.from_int(draw(st.integers(-3, 3)), m)
    root = CycloInt.zeta(m, draw(st.integers(0, m - 1)))
    if kind != "sum":
        return root if kind == "root" else -root
    terms = draw(st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from([1, -1])),
                          min_size=2, max_size=3))
    return sum((CycloInt.zeta(m, k) * s for k, s in terms), CycloInt.from_int(0, m))


def _collect_lift(x: CycloInt, conductor: int) -> CycloInt:
    """CycloInt.lift by collecting every term at the larger conductor."""
    if conductor == x.conductor:
        return x
    if conductor % x.conductor:
        raise ValueError("can only lift to a multiple of the conductor")
    step = conductor // x.conductor
    return _cyclo(conductor, _collect(conductor, ((k * step, c) for k, c in x.coeffs)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.sampled_from(_KERNEL_CONDUCTORS), size=st.integers(0, 4))
def test_sum_of_products_matches_the_operators(data, m, size):
    pairs = [(data.draw(_entries(m)), data.draw(_entries(m))) for _ in range(size)]
    got = _sum_of_products(m, [(a.coeffs, b.coeffs) for a, b in pairs])
    want = sum((a * b for a, b in pairs), CycloInt.from_int(0, m))
    assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)
    assert CycloInt(m, got.coeffs).coeffs == got.coeffs  # canonical


def test_sum_of_products_cancels_to_the_shared_zero():
    w, w2 = CycloInt.zeta(3), CycloInt.zeta(3, 2)
    one = CycloInt.from_int(1, 3)
    # w*w2 + w2*w - 2 = 0, and the empty sum is the same zero of conductor 3
    got = _sum_of_products(3, [(w.coeffs, w2.coeffs), (w2.coeffs, w.coeffs),
                               ((-2 * one).coeffs, one.coeffs)])
    assert got.coeffs == () and got.conductor == 3
    assert _sum_of_products(3, ()) is _sum_of_products(3, ())


@settings(max_examples=200, deadline=None)
@given(data=st.data(), lift=st.sampled_from(_LIFTS))
def test_lift_matches_collecting_every_term(data, lift):
    m, big = lift
    x = data.draw(_entries(m))
    for target in (m, big):
        got, want = x.lift(target), _collect_lift(x, target)
        assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)


@pytest.mark.parametrize("m, big", _LIFTS)
def test_lift_of_every_signed_root_is_one_table_entry(m, big):
    for k in range(m):
        for s in (1, -1):
            x = CycloInt.zeta(m, k) * s
            assert x.lift(big).coeffs == _collect_lift(x, big).coeffs
            assert x.lift(big).as_root_of_unity() is not None


def test_constructor_refuses_non_canonical_coefficients():
    assert CycloInt(5, ((1, 2), (3, -1))) == 2 * CycloInt.zeta(5) - CycloInt.zeta(5, 3)
    assert CycloInt(5, ()).is_zero()
    # 0 is no basis exponent at 5 (1 = -z - z^2 - z^3 - z^4); order, repeats,
    # zero coefficients and exponents past the conductor are refused too
    for bad in (((0, 1),), ((2, 1), (1, 1)), ((1, 1), (1, 1)), ((1, 0),), ((5, 1),)):
        with pytest.raises(ValueError, match="Zumbroich basis"):
            CycloInt(5, bad)


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
    back = unimodular_inverse(u).mul(d).mul(unimodular_inverse(v))
    assert back.entries == a.entries


def _elementary_operation(rows, op, i, j, k):
    """Add k times row j to row i (i != j), swap rows i and j, or negate row i."""
    if op == "add" and i != j:
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    elif op == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    elif op == "negate":
        rows[i] = [-a for a in rows[i]]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_invariants_survive_unimodular_operations(r, c, data):
    """U A V has the Smith invariants of A for unimodular U and V, drawn as
    products of elementary row and column operations."""
    rows = data.draw(
        st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=r, max_size=r)
    )
    mixed = [list(row) for row in rows]
    for _ in range(data.draw(st.integers(0, 8))):
        on_columns = data.draw(st.booleans())
        size = c if on_columns else r
        op = data.draw(st.sampled_from(["add", "swap", "negate"]))
        i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        k = data.draw(st.integers(-3, 3))
        if on_columns:
            cols = [list(col) for col in zip(*mixed)]
            _elementary_operation(cols, op, i, j, k)
            mixed = [list(row) for row in zip(*cols)]
        else:
            _elementary_operation(mixed, op, i, j, k)

    def invariants(m):
        _, d, _ = smith_normal_form(IntMat.from_rows(m))
        return [d.get(t, t) for t in range(min(r, c))]

    assert invariants(mixed) == invariants(rows)


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


def _reference_lattice_index(sub_basis, super_basis) -> int:
    """The index through rational coordinates of each sub vector in the super
    basis, refused vector by vector, and their determinant."""
    if len(sub_basis) != len(super_basis):
        raise LatticeError("bases have different ranks")
    coords = []
    for v in sub_basis:
        c = _solve_in_basis(v, super_basis)
        if c is None:
            raise LatticeError("bases do not span the same subspace")
        if any(x.denominator != 1 for x in c):
            raise LatticeError("sub lattice is not contained in super lattice")
        coords.append([int(x) for x in c])
    d = _det_fraction(coords) if coords else 1
    if d == 0:
        raise LatticeError("sub basis is degenerate")
    return abs(int(d))


def _lattice_index_outcome(index, sub, sup):
    try:
        return index(sub, sup)
    except LatticeError as exc:
        return str(exc)


def test_lattice_index_names_each_error():
    cases = [
        ([[1, 0]], [[1, 0], [0, 1]], "bases have different ranks"),
        ([[1, 0]], [[0, 1]], "bases do not span the same subspace"),
        ([[Fraction(1, 2), 0]], [[1, 0]], "sub lattice is not contained in super lattice"),
        ([[1, 0], [2, 0]], [[1, 0], [0, 1]], "sub basis is degenerate"),
    ]
    for sub, sup, message in cases:
        with pytest.raises(LatticeError, match=message):
            lattice_index(sub, sup)
        assert _lattice_index_outcome(_reference_lattice_index, sub, sup) == message
    assert lattice_index([], []) == 1 == _reference_lattice_index([], [])


@st.composite
def _lattice_index_pairs(draw):
    """A super basis of k rows in Q^n (k <= n <= 4), sometimes degenerate, and
    a sub basis of k rows made from it: integer combinations (contained),
    combinations with a half (often not contained), rows with a random
    extra part (often off the span), dependent combinations, or one row too
    many or too few."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))
    sup = [[draw(entry) for _ in range(n)] for _ in range(k)]
    kind = draw(st.sampled_from(["integer", "half", "off-span", "dependent", "rank"]))
    rows = k + draw(st.sampled_from([-1, 1])) if kind == "rank" else k
    weights = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(rows)]
    if kind == "dependent" and rows > 1:
        weights[-1] = [2 * w for w in weights[0]]
    sub = [[sum(w * r[j] for w, r in zip(ws, sup)) for j in range(n)] for ws in weights]
    if kind == "half":
        sub[0] = [Fraction(x) + Fraction(y, 2) for x, y in zip(sub[0], sup[-1])]
    if kind == "off-span":
        sub[-1] = [x + draw(st.integers(-1, 1)) for x in sub[-1]]
    return sub, sup


@settings(max_examples=300, deadline=None)
@given(_lattice_index_pairs())
def test_lattice_index_matches_rational_reference(pair):
    sub, sup = pair
    got = _lattice_index_outcome(lattice_index, sub, sup)
    want = _lattice_index_outcome(_reference_lattice_index, sub, sup)
    if isinstance(want, int):
        assert got == want
        return
    # both refuse; with two defects the reference names the one its first
    # failing vector shows (and over a degenerate super basis it reads
    # containment off one of many solutions), so the integer route must name
    # one that holds
    assert isinstance(got, str)
    holds = {want}
    if len(sub) == len(sup):
        if _reference_rank(sub) < len(sub):
            holds.add("sub basis is degenerate")
        solved = [_solve_in_basis(v, sup) for v in sub]
        if any(c is None for c in solved):
            holds.add("bases do not span the same subspace")
        if any(c is not None and any(x.denominator != 1 for x in c) for c in solved):
            holds.add("sub lattice is not contained in super lattice")
    assert got in holds, (got, want)


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
    dense = DenseCyclo.from_int(0, m)
    for k in exponents:
        total = total + CycloInt.zeta(m, k)
        dense = dense + DenseCyclo.zeta(m, k)
    assert zeta_sum_is_zero(m, exponents) == total.is_zero() == dense.is_zero()


# ---------------------------------------------------------------------------
# the rational-elimination kernel and its readers


@st.composite
def _rational_matrices(draw, square=False):
    """Matrices up to 5x5: integer-only or rational, often singular.

    Integer-only matrices keep plain int entries, so the kernel must convert
    them itself; a copied row scaled by a constant makes the rank drop.
    """
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    integral = draw(st.booleans())
    entry = (
        st.integers(-4, 4)
        if integral
        else st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=6))
    )
    mat = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        scale = draw(entry)
        mat[i] = [scale * x for x in mat[j]] if i != j else [0] * cols
    return mat


def _reference_rank(mat):
    """Rank over the rationals: nonzero Smith invariants of the scaled matrix."""
    den = lcm(*(Fraction(x).denominator for r in mat for x in r))
    _, d, _ = smith_normal_form(IntMat.from_rows([[int(x * den) for x in r] for r in mat]))
    return sum(1 for i in range(min(d.rows, d.cols)) if d.get(i, i))


def _all_fractions(values):
    return all(type(x) is Fraction for x in values)


@settings(max_examples=150, deadline=None)
@given(_rational_matrices(), st.data())
def test_solve_in_basis_recombines_or_refuses(basis, data):
    cols = len(basis[0])
    if data.draw(st.booleans()):
        weights = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
        vec = [sum(w * row[j] for w, row in zip(weights, basis)) for j in range(cols)]
    else:
        vec = data.draw(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols))
    coords = _solve_in_basis(vec, basis)
    inside = _reference_rank(basis + [vec]) == _reference_rank(basis)
    assert (coords is not None) == inside
    if coords is not None:
        assert len(coords) == len(basis) and _all_fractions(coords)
        assert [sum(c * row[j] for c, row in zip(coords, basis)) for j in range(cols)] == vec


@settings(max_examples=150, deadline=None)
@given(_rational_matrices())
def test_nullspace_is_annihilated_and_has_full_size(mat):
    null = _nullspace(mat)
    cols = len(mat[0])
    assert len(null) == cols - _reference_rank(mat)
    for y in null:
        assert len(y) == cols and _all_fractions(y)
        assert all(sum(a * b for a, b in zip(row, y)) == 0 for row in mat)
    if null:
        assert _reference_rank(null) == len(null)


@settings(max_examples=150, deadline=None)
@given(_rational_matrices(square=True))
def test_rational_inverse_and_integer_route_determinant(mat):
    n = len(mat)
    det = _rational_det(mat)
    assert type(det) is Fraction
    assert det == _det_fraction(mat)
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            _rational_inverse(mat)
        return
    inv = _rational_inverse(mat)
    assert all(_all_fractions(row) for row in inv)
    product = [[sum(inv[i][k] * mat[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_kernel_keeps_integer_input_exact():
    # plain ints with a non-integral quotient: 1/3 must stay a Fraction
    a = [[3, 1], [6, 5]]
    pivots = _gauss_reduce(a)
    assert pivots == [0, 1]
    assert a == [[1, 0], [0, 1]] and all(_all_fractions(r) for r in a)
    assert _solve_in_basis([1, 0], [[3, 0], [0, 1]]) == [Fraction(1, 3), 0]
    assert _all_fractions(_solve_in_basis([1, 0], [[3, 0], [0, 1]]))
    assert _try_reduce(CycloInt.from_int(3, 6), 3) == 3


def test_permutation_cycles_start_at_least_index():
    assert permutation_cycles([]) == []
    assert permutation_cycles([0, 1]) == [(0,), (1,)]
    assert permutation_cycles([2, 0, 1, 4, 3, 5]) == [(0, 2, 1), (3, 4), (5,)]


def test_permutation_cycles_refuses_a_non_permutation():
    # each of these walked forever once: the walk never returned to its start
    for images, bad in (([1, 1], 1), ([0, 0], 1), ([2, 0, 0], 1), ([1, 2, 5], 2), ([1, None], 1)):
        with pytest.raises(ValueError, match=f"index {bad} maps to"):
            permutation_cycles(images)


def test_intmat_checks_its_entry_count_when_built_and_replaced():
    with pytest.raises(ValueError, match="entry count must be rows\\*cols"):
        IntMat(2, 2, (1, 2, 3))
    m = IntMat(2, 2, (1, 2, 3, 4))
    with pytest.raises(ValueError, match="entry count"):
        m.replace(rows=3)
    assert m.replace(rows=1, cols=4) == IntMat(1, 4, (1, 2, 3, 4)) != m
    assert m == IntMat.from_rows([[1, 2], [3, 4]]) and hash(m) == hash(IntMat.identity(2).mul(m))
