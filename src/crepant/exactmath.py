"""Exact arithmetic foundation.

Arbitrary-precision integers and rationals, integer-matrix normal forms,
rational elimination, permutation cycles, and cyclotomic integers with
decidable equality.  Nothing in this module (or in anything built on it)
uses floating point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

__all__ = [
    "IntMat",
    "CycloInt",
    "cyclotomic_polynomial",
    "zeta_sum_is_zero",
    "permutation_cycles",
    "smith_normal_form",
    "lattice_index",
    "LatticeError",
    "ExactnessError",
]


class LatticeError(ValueError):
    """Rank mismatch or non-containment between lattices."""


class ExactnessError(ArithmeticError):
    """A result that must stay in the integers would leave them.

    Raised for division by a non-monic polynomial and for a cyclotomic
    remainder, a field norm or a unimodular inverse that is not integral.
    """


# ---------------------------------------------------------------------------
# dense integer polynomials, low degree first


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(num, den) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Division of integer polynomials; den must be monic."""
    if not den or den[-1] != 1:
        raise ExactnessError(f"divisor {den!r} is not monic")
    rem = list(num)
    quo = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(rem) - len(den), -1, -1):
        c = rem[i + len(den) - 1]
        if c:
            quo[i] = c
            for j, y in enumerate(den):
                rem[i + j] -= c * y
    return _poly_trim(quo), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the m-th cyclotomic polynomial.

    Computed by exact division of x^m - 1 by the cyclotomic polynomials of
    the proper divisors of m.
    """
    if m < 1:
        raise ValueError("conductor must be positive")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    num = _poly_trim(num)
    den: tuple[int, ...] = (1,)
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    quo, rem = _poly_divmod(num, den)
    if rem:
        raise ExactnessError(
            f"x^{m}-1 leaves remainder {rem!r} on division by the lower cyclotomics"
        )
    return quo


@lru_cache(maxsize=None)
def _phi_degree(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


def _reduce_mod_cyclotomic(coeffs: list[int], m: int) -> tuple[int, ...]:
    """Reduce a coefficient list modulo the m-th cyclotomic polynomial."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(len(phi)):
                coeffs[i - deg + j] -= c * phi[j]
            coeffs[i] = 0
    out = coeffs[:deg]
    out += [0] * (deg - len(out))
    return tuple(out)


def zeta_sum_is_zero(m: int, exponents) -> bool:
    """Whether the sum of zeta_m^k over the multiset of exponents k is zero.

    The sum is the value at zeta_m of the polynomial whose coefficient of
    X^j counts the exponents congruent to j mod m; it vanishes exactly when
    the m-th cyclotomic polynomial, the minimal polynomial of zeta_m,
    divides that polynomial, i.e. when its reduction is zero.
    """
    coeffs = [0] * m
    for k in exponents:
        coeffs[k % m] += 1
    return not any(_reduce_mod_cyclotomic(coeffs, m))


@dataclass(frozen=True)
class CycloInt:
    """Element of the ring of integers of the m-th cyclotomic field.

    Stored as the unique reduction modulo the m-th cyclotomic polynomial at
    the construction conductor.  Equality lifts both operands to the lcm of
    their conductors, so values of different conductors compare correctly.
    """

    conductor: int
    coeffs: tuple[int, ...]

    # equality is structural only after lifting; disable dataclass hashing
    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self):
        if len(self.coeffs) != _phi_degree(self.conductor):
            raise ValueError("coefficient length must equal the cyclotomic degree")

    @staticmethod
    def from_int(value: int, conductor: int = 1) -> CycloInt:
        c = [0] * _phi_degree(conductor)
        c[0] = value
        return CycloInt(conductor, _reduce_mod_cyclotomic(c + [0], conductor))

    @staticmethod
    def zeta(m: int, k: int = 1) -> CycloInt:
        """The root of unity zeta_m^k."""
        k %= m
        c = [0] * (k + 1)
        c[k] = 1
        return CycloInt(m, _reduce_mod_cyclotomic(c, m))

    def lift(self, conductor: int) -> CycloInt:
        """Rewrite at a larger conductor (must be a multiple of the current one)."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        step = conductor // self.conductor
        c = [0] * ((len(self.coeffs) - 1) * step + 1 if self.coeffs else 1)
        for i, x in enumerate(self.coeffs):
            if x:
                c[i * step] += x
        return CycloInt(conductor, _reduce_mod_cyclotomic(c, conductor))

    def _pair(self, other) -> tuple[CycloInt, CycloInt]:
        if isinstance(other, int):
            other = CycloInt.from_int(other)
        m = lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def __add__(self, other) -> CycloInt:
        a, b = self._pair(other)
        return CycloInt(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CycloInt:
        return CycloInt(self.conductor, tuple(-x for x in self.coeffs))

    def __sub__(self, other) -> CycloInt:
        a, b = self._pair(other)
        return CycloInt(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __mul__(self, other) -> CycloInt:
        a, b = self._pair(other)
        prod = list(_poly_mul(a.coeffs, b.coeffs))
        prod += [0] * (_phi_degree(a.conductor) - len(prod))
        return CycloInt(a.conductor, _reduce_mod_cyclotomic(prod, a.conductor))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> CycloInt:
        if e < 0:
            raise ValueError("negative powers are not ring operations")
        out = CycloInt.from_int(1, self.conductor)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycloInt.from_int(other)
        if not isinstance(other, CycloInt):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def is_one(self) -> bool:
        return self == 1

    def try_reduce(self, conductor: int) -> CycloInt | None:
        """Rewrite at another conductor when the value lies in that subfield.

        Solves the integer linear system expressing the value in the power
        basis of the target field inside the compositum; returns None when the
        value is not in the target field or is not integral there.
        """
        if conductor == self.conductor:
            return self
        common = lcm(conductor, self.conductor)
        target = [CycloInt.zeta(conductor, j).lift(common).coeffs for j in range(_phi_degree(conductor))]
        coords = _solve_in_basis(self.lift(common).coeffs, target)
        if coords is None or any(c.denominator != 1 for c in coords):
            return None
        return CycloInt(conductor, tuple(int(c) for c in coords))

    def galois(self, k: int) -> CycloInt:
        """Image under the field automorphism zeta -> zeta^k, gcd(k, m) = 1."""
        m = self.conductor
        if gcd(k, m) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        c = [0] * m
        for i, x in enumerate(self.coeffs):
            c[(i * k) % m] += x
        return CycloInt(m, _reduce_mod_cyclotomic(c, m))

    def root_of_unity_order(self) -> int | None:
        """Multiplicative order if this is a root of unity, else None.

        Roots of unity in the m-th cyclotomic field have order dividing
        lcm(2, m), so the search is finite.
        """
        bound = lcm(2, self.conductor)
        x = self
        for e in range(1, bound + 1):
            if x.is_one():
                return e
            x = x * self
        return None

    def __repr__(self):
        return f"CycloInt(m={self.conductor}, {list(self.coeffs)})"


class CycloDivisor:
    """A nonzero cyclotomic integer b prepared for exact division.

    a / b = a * c / N(b) for the Galois cofactor c, the product of the
    conjugates of b other than b itself, and the field norm N(b) = b * c.
    Both are computed once here, so dividing many entries by one determinant
    costs one product each.
    """

    __slots__ = ("conductor", "cofactor", "norm")

    def __init__(self, b: CycloInt):
        m = b.conductor
        cof = CycloInt.from_int(1, m)
        for k in range(2, m + 1):
            if gcd(k, m) == 1:
                cof = cof * b.galois(k)
        norm = b * cof
        if any(norm.coeffs[1:]):
            raise ExactnessError(f"norm of {b!r} is not rational: {norm!r}")
        if norm.coeffs[0] == 0:
            raise ZeroDivisionError("division by zero cyclotomic integer")
        self.conductor = m
        self.cofactor = cof
        self.norm = norm.coeffs[0]


def cyclo_div_exact(a: CycloInt, b: CycloInt | CycloDivisor) -> CycloInt | None:
    """a / b when the quotient is a cyclotomic integer, else None.

    A CycloDivisor b must have a conductor that a's conductor divides.
    """
    if isinstance(b, CycloInt):
        b = CycloDivisor(b.lift(lcm(a.conductor, b.conductor)))
    num = a.lift(b.conductor) * b.cofactor
    if any(x % b.norm for x in num.coeffs):
        return None
    return CycloInt(b.conductor, tuple(x // b.norm for x in num.coeffs))


# ---------------------------------------------------------------------------
# integer matrices


@dataclass(frozen=True)
class IntMat:
    """Immutable integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count must be rows*cols")

    @staticmethod
    def from_rows(rows) -> IntMat:
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return IntMat(len(rows), n, tuple(x for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> IntMat:
        return IntMat(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: IntMat) -> IntMat:
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = [other.entries[j :: other.cols] for j in range(other.cols)]
        rows = [self.row(i) for i in range(self.rows)]
        return IntMat(
            self.rows, other.cols, tuple(sum(map(operator.mul, r, c)) for r in rows for c in cols)
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
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

    def inverse_unimodular(self) -> IntMat:
        """Inverse of a unimodular matrix by integer row reduction of [A | I].

        Euclidean row steps clear each column below its pivot; with
        determinant +-1 every pivot ends as +-1, so back substitution stays in
        the integers.  A pivot of any other size raises ExactnessError.
        """
        d = self.det()
        if d not in (1, -1):
            raise ValueError("matrix is not unimodular")
        n = self.rows
        a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.to_rows())]
        for c in range(n):
            while True:
                p = min((i for i in range(c, n) if a[i][c]), key=lambda i: abs(a[i][c]))
                a[c], a[p] = a[p], a[c]
                rest = [i for i in range(c + 1, n) if a[i][c]]
                if not rest:
                    break
                for i in rest:
                    q = a[i][c] // a[c][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[c])]
            if a[c][c] not in (1, -1):
                raise ExactnessError(f"pivot {a[c][c]} in column {c} of a unimodular matrix")
            if a[c][c] == -1:
                a[c] = [-x for x in a[c]]
        for c in range(n - 1, -1, -1):
            for i in range(c):
                q = a[i][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[c])]
        return IntMat(n, n, tuple(x for r in a for x in r[n:]))


# ---------------------------------------------------------------------------
# rational elimination


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


def _solve_in_basis(vec: Sequence, basis: Sequence[Sequence]) -> list[Fraction] | None:
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


def _integer_rows(rows: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """The common denominator D of rational rows (ints or Fractions) and the
    integer rows D*r."""
    den = lcm(*(x.denominator for r in rows for x in r))
    return den, [[x.numerator * (den // x.denominator) for x in r] for r in rows]


def _rational_det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix.

    Scaling every entry by the common denominator D keeps the arithmetic in
    integers (Bareiss elimination in ``IntMat.det``); the determinant of the
    scaled n-by-n matrix is D^n times the one sought.
    """
    den, scaled = _integer_rows(rows)
    return Fraction(IntMat.from_rows(scaled).det(), den ** len(rows))


# ---------------------------------------------------------------------------
# integer normal forms


def _snf_pivot(a: list[list[int]], t: int) -> tuple[int, int] | None:
    """Smallest-absolute-value nonzero entry in the trailing block, row major ties."""
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return (best[1], best[2]) if best else None


def smith_normal_form(a: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Return (U, D, V) with U*a*V = D, U and V unimodular, D diagonal with
    each diagonal entry dividing the next.

    Pivoting always selects the smallest-absolute-value nonzero entry of the
    remaining block (ties broken in row-major order) so U and V are
    reproducible.
    """
    m, n = a.rows, a.cols
    A = a.to_rows()
    U = IntMat.identity(m).to_rows()
    V = IntMat.identity(n).to_rows()

    def row_op(i, k, q):  # row_i -= q*row_k
        A[i] = [x - q * y for x, y in zip(A[i], A[k])]
        U[i] = [x - q * y for x, y in zip(U[i], U[k])]

    def col_op(j, k, q):  # col_j -= q*col_k
        for r in A:
            r[j] -= q * r[k]
        for r in V:
            r[j] -= q * r[k]

    def row_swap(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        for r in A:
            r[j], r[k] = r[k], r[j]
        for r in V:
            r[j], r[k] = r[k], r[j]

    t = 0
    while t < min(m, n):
        pos = _snf_pivot(A, t)
        if pos is None:
            break
        row_swap(t, pos[0])
        col_swap(t, pos[1])
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                row_op(i, t, q)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                col_op(j, t, q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide every entry of the trailing block
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # fold the offending row in and re-reduce
            continue
        t += 1

    for i in range(min(m, n)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    return IntMat.from_rows(U), IntMat.from_rows(A), IntMat.from_rows(V)


# ---------------------------------------------------------------------------
# rational lattice bases


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


def lattice_index(sub_basis, super_basis) -> int:
    """Order of (super lattice)/(sub lattice), given row bases over the rationals.

    Both bases must span the same rational subspace and the sub lattice must be
    contained in the super lattice; the index is |det| of the change of basis.
    """
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
    d = IntMat.from_rows(coords).det() if coords else 1
    if d == 0:
        raise LatticeError("sub basis is degenerate")
    return abs(d)


# ---------------------------------------------------------------------------
# permutations


def permutation_cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycles of the permutation i -> images[i].

    Each cycle starts at its least index and the cycles come in the order of
    those indices, so fixed points appear as one-element cycles.
    """
    seen: set[int] = set()
    out = []
    for i in range(len(images)):
        if i in seen:
            continue
        cyc = [i]
        j = images[i]
        while j != i:
            cyc.append(j)
            j = images[j]
        seen.update(cyc)
        out.append(tuple(cyc))
    return out
