"""Exact arithmetic foundation.

Arbitrary-precision integers and rationals, integer-matrix normal forms,
permutation cycles, and cyclotomic integers with decidable equality.  A
rational matrix is scaled to an integer one by its common denominator, so
every lattice question (an index, a determinant) is answered by Bareiss
elimination or the Smith normal form.  A cyclotomic integer is a
sparse map from exponent to coefficient in the Zumbroich basis of its
conductor, in which every root of unity is one table entry.  Nothing in this
module (or in anything built on it) uses floating point.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import gcd, lcm, prod
from types import SimpleNamespace
from typing import Sequence

__all__ = [
    "Record",
    "fields",
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


# ---------------------------------------------------------------------------
# cyclotomic integers in the Zumbroich basis
#
# For each prime power q = p^e exactly dividing m, write a residue c mod q as
# a + b*q/p with 0 <= a < q/p.  The powers zeta_q^c with b = 0 (p = 2) or
# b != 0 (p odd) form an integral basis of Z[zeta_q], and Z[zeta_m] is the
# tensor product of the Z[zeta_q]; so zeta_m^k is a basis element exactly
# when every residue k mod q qualifies.  This is the basis GAP uses for its
# cyclotomics (T. Breuer, "Integral bases for subfields of cyclotomic
# fields", AAECC 8, 1997).  A residue that does not qualify is minus one
# basis element (p = 2: zeta_q^{q/2} = -1) or minus the sum of its p - 1
# companions (p odd: 1 + zeta_p + ... + zeta_p^{p-1} = 0), factor by factor.


def _prime_powers(m: int) -> list[tuple[int, int]]:
    """(p, p^e) for each prime p dividing m, p^e the largest power dividing m."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m, q = m // p, q * p
            out.append((p, q))
        p += 1
    if m > 1:
        out.append((m, m))
    return out


@lru_cache(maxsize=None)
def _expansions(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The Zumbroich expansion of zeta_m^k for k = 0, ..., m-1, built on first use.

    Each is a tuple of (basis exponent, coefficient) pairs sorted by exponent,
    whose coefficients all equal one sign; a basis element expands to itself.
    The factors are recombined by the idempotents of Z/m = product of Z/q.
    """
    factors = []
    for p, q in _prime_powers(m):
        step = q // p
        local = []
        for c in range(q):
            b, a = divmod(c, step)
            if (b == 0) == (p == 2):
                local.append((1, (c,)))
            elif p == 2:
                local.append((-1, (a,)))
            else:
                local.append((-1, tuple(a + j * step for j in range(1, p))))
        idempotent = (m // q) * pow(m // q, -1, q)  # 1 mod q, 0 mod m/q
        factors.append((q, idempotent, local))
    table = []
    for k in range(m):
        sign, exps = 1, [0]
        for q, idempotent, local in factors:
            s, residues = local[k % q]
            sign *= s
            exps = [(e + c * idempotent) % m for e in exps for c in residues]
        table.append(tuple((e, sign) for e in sorted(exps)))
    return tuple(table)


@lru_cache(maxsize=None)
def _root_index(m: int) -> dict:
    """(s, k) for each root of unity s * zeta_m^k, s = +-1 and 0 <= k < m, keyed
    by its expansion; s = 1 wherever -zeta_m^k is also some zeta_m^j."""
    table = _expansions(m)
    index = {_negated(terms): (-1, k) for k, terms in enumerate(table)}
    index.update((terms, (1, k)) for k, terms in enumerate(table))
    return index


def _negated(coeffs: tuple) -> tuple:
    return tuple((e, -c) for e, c in coeffs)


def _collect(m: int, terms) -> tuple[tuple[int, int], ...]:
    """Canonical coefficients of the sum of c * zeta_m^k over the (k, c) in terms.

    Terms are summed per residue k mod m first, so each residue is expanded
    once however many terms share it: a product of two values with t terms
    each costs t*t additions plus at most m expansions.
    """
    raw: dict[int, int] = {}
    for k, c in terms:
        k %= m
        raw[k] = raw.get(k, 0) + c
    table = _expansions(m)
    acc: dict[int, int] = {}
    for k, c in raw.items():
        if c:
            for e, s in table[k]:
                acc[e] = acc.get(e, 0) + c * s
    return tuple(sorted(item for item in acc.items() if item[1]))


def zeta_sum_is_zero(m: int, exponents) -> bool:
    """Whether the sum of zeta_m^k over the multiset of exponents k is zero,
    i.e. whether the Zumbroich expansions of its terms cancel.

    The same test as the CycloInt sum being zero, read off the expansion
    table without building values: these sums have a few terms each, and
    the twisted-sector engine asks for thousands of them.
    """
    table = _expansions(m)
    acc: dict[int, int] = {}
    for k in exponents:
        for e, s in table[k % m]:
            acc[e] = acc.get(e, 0) + s
    return not any(acc.values())


class CycloInt:
    """Element of Z[zeta_m], the ring of integers of the m-th cyclotomic field.

    ``coeffs`` lists the nonzero coordinates in the Zumbroich basis at the
    construction conductor m, as (exponent k, coefficient) pairs sorted by k,
    for the sum of coefficient * zeta_m^k.  The basis is integral, so the form
    is unique: zero is the empty tuple, and two values at one conductor are
    equal exactly when their tuples are.  A root of unity is one table entry,
    so products of roots of unity are lookups.  Equality lifts both operands
    to the lcm of their conductors, so values of different conductors compare
    correctly.  No operation modifies a value after construction.
    """

    __slots__ = ("conductor", "coeffs")

    # equality is structural only after lifting; instances are unhashable
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, conductor: int, coeffs=()):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        coeffs = tuple((k, c) for k, c in coeffs)
        table = _expansions(conductor)
        prev = -1
        for k, c in coeffs:
            if not prev < k < conductor or table[k] != ((k, 1),) or not c:
                raise ValueError(
                    f"{coeffs!r} is not a sorted tuple of nonzero coordinates in the "
                    f"Zumbroich basis at conductor {conductor}"
                )
            prev = k
        self.conductor = conductor
        self.coeffs = coeffs

    @staticmethod
    def from_int(value: int, conductor: int = 1) -> CycloInt:
        one = _expansions(conductor)[0] if value else ()
        return _cyclo(conductor, tuple((e, value * s) for e, s in one))

    @staticmethod
    def zeta(m: int, k: int = 1) -> CycloInt:
        """The root of unity zeta_m^k."""
        return _cyclo(m, _expansions(m)[k % m])

    def lift(self, conductor: int) -> CycloInt:
        """Rewrite at a larger conductor (must be a multiple of the current one).

        A signed root of unity s * zeta_m^k is s * zeta_M^(k*M/m), one entry of
        the expansion table at M; any other value is collected term by term.
        """
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError("can only lift to a multiple of the conductor")
        step = conductor // self.conductor
        root = _root_index(self.conductor).get(self.coeffs)
        if root is not None:
            terms = _expansions(conductor)[root[1] * step]
            return _cyclo(conductor, terms if root[0] == 1 else _negated(terms))
        return _cyclo(conductor, _collect(conductor, ((k * step, c) for k, c in self.coeffs)))

    def _pair(self, other) -> tuple[CycloInt, CycloInt]:
        if isinstance(other, int):
            return self, CycloInt.from_int(other, self.conductor)
        if other.conductor == self.conductor:
            return self, other
        m = lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def __add__(self, other) -> CycloInt:
        a, b = self._pair(other)
        return _cyclo(a.conductor, _collect(a.conductor, a.coeffs + b.coeffs))

    __radd__ = __add__

    def __neg__(self) -> CycloInt:
        return _cyclo(self.conductor, _negated(self.coeffs))

    def __sub__(self, other) -> CycloInt:
        a, b = self._pair(other)
        return a + -b

    def __mul__(self, other) -> CycloInt:
        a, b = self._pair(other)
        return _product(a.conductor, a.coeffs, b.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycloInt.from_int(other, self.conductor)
        if not isinstance(other, CycloInt):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def galois(self, k: int) -> CycloInt:
        """Image under the field automorphism zeta -> zeta^k, gcd(k, m) = 1."""
        m = self.conductor
        if gcd(k, m) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        return _cyclo(m, _collect(m, ((i * k, c) for i, c in self.coeffs)))

    def as_root_of_unity(self) -> tuple[int, int] | None:
        """(s, k) with self = s * zeta_m^k, s = +-1 and 0 <= k < m, or None if
        this is not a root of unity.

        Every root of unity of the m-th cyclotomic field is +-zeta_m^k, so one
        lookup of the coefficients decides.
        """
        return _root_index(self.conductor).get(self.coeffs)

    def __repr__(self):
        return f"CycloInt(m={self.conductor}, {dict(self.coeffs)})"


def _rational_value(m: int, coeffs: tuple) -> int | None:
    """n if the canonical coefficients at conductor m are the rational integer n, else None."""
    if not coeffs:
        return 0
    one = _expansions(m)[0]
    if len(coeffs) != len(one) or coeffs[0][0] != one[0][0]:
        return None
    if coeffs == one:
        return 1
    n = coeffs[0][1] * one[0][1]
    return n if coeffs == tuple((e, n * s) for e, s in one) else None


def _cyclo(m: int, coeffs: tuple) -> CycloInt:
    """A CycloInt from coefficients already in canonical form, unchecked."""
    x = object.__new__(CycloInt)
    x.conductor = m
    x.coeffs = coeffs
    return x


@lru_cache(maxsize=1 << 12)
def _product(m: int, x: tuple, y: tuple) -> CycloInt:
    """The product of the values with canonical coefficients x and y at conductor m,
    cached: the tuples determine the values, and group closure multiplies the
    same few roots of unity over and over."""
    roots = _root_index(m)
    if x in roots and y in roots:  # two signed roots of unity, one lookup
        (s, i), (t, j) = roots[x], roots[y]
        terms = _expansions(m)[(i + j) % m]
        return _cyclo(m, terms if s == t else _negated(terms))
    if len(x) == 1 == len(y):  # two multiples of basis roots
        (i, c), (j, d) = x[0], y[0]
        terms = _expansions(m)[(i + j) % m]
        return _cyclo(m, terms if c * d == 1 else tuple((e, c * d * s) for e, s in terms))
    # a rational integer has up to phi(m) terms (1 = -sum of the other
    # p-th roots), so a product with one is a scaling, not a convolution
    for u, v in ((x, y), (y, x)):
        n = _rational_value(m, u)
        if n is not None:
            return _cyclo(m, tuple((k, n * c) for k, c in v) if n else ())
    return _cyclo(m, _collect(m, ((i + j, c * d) for i, c in x for j, d in y)))


def _sum_of_products(m: int, pairs: Sequence[tuple[tuple, tuple]]) -> CycloInt:
    """The sum of x * y over the (x, y) pairs of canonical coefficient tuples
    at conductor m.

    Every product comes from the ``_product`` cache, so a single pair is its
    cached value and the empty sum is the cached zero of the conductor; more
    pairs are summed by one ``_collect``.  Matrix products, scalings and
    determinants of group elements run here on their entries' tuples, with
    no operator dispatch per entry.
    """
    if len(pairs) == 1:
        x, y = pairs[0]
        return _product(m, x, y)
    if not pairs:
        return _product(m, (), ())
    return _cyclo(m, _collect(m, [t for x, y in pairs for t in _product(m, x, y).coeffs]))


class CycloDivisor:
    """A nonzero cyclotomic integer b prepared for exact division.

    a / b = a * c / N(b) for the Galois cofactor c, the product of the
    conjugates of b other than b itself, and the field norm N(b) = b * c.
    Both are computed once here, so dividing many entries by one determinant
    costs one product each.  For b = s * zeta_m^k, m > 2, the units j and m - j
    pair off, so N(b) = 1 and the cofactor is 1/b = s * zeta_m^-k, one lookup.
    """

    __slots__ = ("conductor", "cofactor", "norm")

    def __init__(self, b: CycloInt):
        m = b.conductor
        root = b.as_root_of_unity() if m > 2 else None
        if root is not None:
            cof = _cyclo(m, tuple((e, root[0] * c) for e, c in _expansions(m)[-root[1] % m]))
        else:
            cof = CycloInt.from_int(1, m)
            for k in range(2, m + 1):
                if gcd(k, m) == 1:
                    cof = cof * b.galois(k)
        norm = b * cof
        n = _rational_value(m, norm.coeffs)
        if n is None:
            raise ExactnessError(f"norm of {b!r} is not rational: {norm!r}")
        if n == 0:
            raise ZeroDivisionError("division by zero cyclotomic integer")
        self.conductor = m
        self.cofactor = cof
        self.norm = n


def cyclo_div_exact(a: CycloInt, b: CycloInt | CycloDivisor) -> CycloInt | None:
    """a / b when the quotient is a cyclotomic integer, else None.

    The Zumbroich basis is integral, so the quotient is integral exactly when
    every coordinate of a * cofactor is divisible by the norm.  A CycloDivisor
    b must have a conductor that a's conductor divides.
    """
    if isinstance(b, CycloInt):
        b = CycloDivisor(b.lift(lcm(a.conductor, b.conductor)))
    num = a.lift(b.conductor) * b.cofactor
    if any(c % b.norm for _, c in num.coeffs):
        return None
    return _cyclo(b.conductor, tuple((k, c // b.norm) for k, c in num.coeffs))


# ---------------------------------------------------------------------------
# read-only records


class Record:
    """Base of the read-only value records of every layer.

    A record's fields are the names its class body annotates, in order, and a
    field's default is the class attribute of that name, if there is one.
    The one constructor binds positional, then keyword arguments to the
    fields and fills them into the instance ``__dict__``, which may also keep
    values computed on first use; a missing, unknown or repeated field raises
    TypeError.  A subclass that checks or normalises its fields does so in
    ``_post_init``, which the constructor calls once they are bound.
    Equality, hashing and ``repr`` read the fields only.  Assigning or
    deleting an attribute raises AttributeError, and ``replace`` builds a
    changed copy through the constructor, so its checks run again.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _post_init = None

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if self._post_init is not None:
            self._post_init()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call that does not give every field by position."""
        names, kind = cls._fields, cls.__name__
        if len(args) > len(names):
            raise TypeError(f"{kind} takes {len(names)} fields, not {len(args)}")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{name!r} is not a {kind} field")
            if names.index(name) < len(args):
                raise TypeError(f"{kind} got field {name!r} twice")
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{kind} is missing field {name!r}")
        return [values[f] for f in names]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def _field_values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self) -> str:
        items = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._field_values()))
        return f"{type(self).__qualname__}({items})"

    def replace(self, **changes):
        """A record of the same class with the given fields changed."""
        return type(self)(**dict(zip(self._fields, self._field_values()), **changes))


def fields(record) -> tuple:
    """The fields of a record class or instance in order, each with its
    ``name`` and its ``type``, the annotation as written."""
    cls = record if isinstance(record, type) else type(record)
    return tuple(SimpleNamespace(name=f, type=cls.__annotations__[f]) for f in cls._fields)


# ---------------------------------------------------------------------------
# integer matrices


class IntMat(Record):
    """Integer matrix (a read-only ``Record``), row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def _post_init(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count must be rows*cols")

    @staticmethod
    def from_rows(rows) -> IntMat:
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return _intmat(len(rows), n, tuple(x for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> IntMat:
        return _intmat(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

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
        return _intmat(
            self.rows, other.cols, tuple(sum(map(operator.mul, r, c)) for r in rows for c in cols)
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination (``_bareiss_det``)."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        return _bareiss_det(self.to_rows())

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
        return _intmat(n, n, tuple(x for r in a for x in r[n:]))


def _intmat(rows: int, cols: int, entries: tuple[int, ...]) -> IntMat:
    """An IntMat whose entries are rows*cols long by construction, unchecked."""
    a = object.__new__(IntMat)
    a.__dict__.update(rows=rows, cols=cols, entries=entries)
    return a


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, given by its rows, by
    fraction-free (Bareiss) elimination; 1 for the empty matrix."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


# ---------------------------------------------------------------------------
# rational matrices through integer ones


def _json_int(value, what: str) -> int:
    """A JSON integer; a float, a string or a boolean is refused, naming what."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _integer_rows(rows: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """The common denominator D of rational rows (ints or Fractions) and the
    integer rows D*r."""
    den = lcm(*(x.denominator for r in rows for x in r))
    return den, [[x.numerator * (den // x.denominator) for x in r] for r in rows]


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


def _smith_invariants(rows: Sequence[Sequence[int]]) -> list[int]:
    """The nonzero Smith invariants of an integer matrix given by its rows;
    there are as many as its rank."""
    _, D, _ = smith_normal_form(IntMat.from_rows(rows))
    return [x for x in (D.get(i, i) for i in range(min(D.rows, D.cols))) if x]


def lattice_index(sub_basis, super_basis) -> int:
    """Order of (super lattice)/(sub lattice), given row bases over the rationals.

    Both bases must span the same rational subspace and the sub lattice must be
    contained in the super lattice.  Scaled to integers by one common
    denominator, a lattice of rank r has r nonzero Smith invariants whose
    product is its index in its saturation; so the stacked bases generate the
    super lattice exactly when they have its rank and its product, and the
    index is the quotient of the two products.
    """
    if len(sub_basis) != len(super_basis):
        raise LatticeError("bases have different ranks")
    _, rows = _integer_rows([*sub_basis, *super_basis])
    k = len(sub_basis)
    sub, sup, both = (_smith_invariants(r) for r in (rows[:k], rows[k:], rows))
    if len(both) > len(sup):
        raise LatticeError("bases do not span the same subspace")
    if prod(both) != prod(sup):
        raise LatticeError("sub lattice is not contained in super lattice")
    if len(sub) < k:
        raise LatticeError("sub basis is degenerate")
    return prod(sub) // prod(sup)


# ---------------------------------------------------------------------------
# permutations


def permutation_cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycles of the permutation i -> images[i].

    Each cycle starts at its least index and the cycles come in the order of
    those indices, so fixed points appear as one-element cycles.  Raises
    ValueError naming the first index whose image leaves range(len(images))
    or repeats an image already met.
    """
    n = len(images)
    seen: set[int] = set()
    out = []
    for i in range(n):
        if i in seen:
            continue
        cyc = [i]
        seen.add(i)
        j = images[i]
        while j != i:
            if j not in range(n) or j in seen:
                raise ValueError(f"not a permutation of range({n}): index {cyc[-1]} maps to {j!r}")
            cyc.append(j)
            seen.add(j)
            j = images[j]
        out.append(tuple(cyc))
    return out
