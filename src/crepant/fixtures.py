"""Built-in matrix group fixtures and their outer symmetries.

Each builder returns concrete generators (and where relevant a normalizing
symmetry) for the groups exercised throughout the package: cyclic and binary
dihedral subgroups of SL2, the binary tetrahedral group, the order-125
quintic symmetry quotient, and the order-81 complete-intersection group.
"""

from __future__ import annotations

from .exactmath import CycloInt
from .groups import FiniteMatrixGroup, GroupElement, close_group

__all__ = [
    "cyclic_group",
    "cyclic_swap_symmetry",
    "cyclic_flip_symmetry",
    "binary_dihedral",
    "binary_dihedral_symmetry",
    "binary_tetrahedral",
    "binary_tetrahedral_symmetry",
    "d4_triality",
    "quintic_group",
    "quintic_symmetry",
    "complete_intersection_group",
    "complete_intersection_symmetry",
]


def _z(m, k=1):
    return CycloInt.zeta(m, k)


def _mat(rows):
    return GroupElement.from_matrix(rows)


def cyclic_group(n: int, cap: int = 10_000) -> FiniteMatrixGroup:
    """Order-n cyclic subgroup of the SL2 torus: diag(z, z^-1) for z an n-th root."""
    if n == 1:
        return close_group([GroupElement.identity(2)], cap=cap)
    g = _mat([[_z(n, 1), 0], [0, _z(n, n - 1)]])
    return close_group([g], cap=cap)


def cyclic_swap_symmetry() -> GroupElement:
    """The symplectic coordinate swap [[0,1],[-1,0]]."""
    one = CycloInt.from_int(1)
    return _mat([[0, one], [-one, 0]])


def cyclic_flip_symmetry() -> GroupElement:
    """The plain coordinate swap [[0,1],[1,0]]."""
    one = CycloInt.from_int(1)
    return _mat([[0, one], [one, 0]])


def binary_dihedral(r: int, cap: int = 10_000) -> FiniteMatrixGroup:
    """Binary dihedral group of order 4(r-2), generated by the torus element
    diag(z, z^-1) of order 2(r-2) and the symplectic swap."""
    if r < 3:
        raise ValueError("binary dihedral fixtures need r >= 3")
    n = 2 * (r - 2)
    a = _mat([[_z(n, 1), 0], [0, _z(n, n - 1)]])
    return close_group([a, cyclic_swap_symmetry()], cap=cap)


def binary_dihedral_symmetry(r: int) -> GroupElement:
    """diag(w, w^-1) for w of order 4(r-2): the index-two overgroup symmetry."""
    n = 4 * (r - 2)
    return _mat([[_z(n, 1), 0], [0, _z(n, n - 1)]])


# Binary tetrahedral model over the Eisenstein integers: the quaternion
# subgroup is generated by u and v below, and t conjugates u -> v -> uv.
def _tetra_u() -> GroupElement:
    one = CycloInt.from_int(1)
    return _mat([[0, -one], [one, 0]])


def _tetra_v() -> GroupElement:
    w, w2 = _z(3, 1), _z(3, 2)
    return _mat([[w, w2], [w2, -w]])


def _tetra_t() -> GroupElement:
    w, w2 = _z(3, 1), _z(3, 2)
    return _mat([[w2, CycloInt.from_int(1, 3)], [CycloInt.from_int(0, 3), w]])


def binary_tetrahedral(cap: int = 10_000) -> FiniteMatrixGroup:
    return close_group([_tetra_u(), _tetra_t()], cap=cap)


def binary_tetrahedral_symmetry() -> GroupElement:
    """Order-two outer symmetry: fixes the quaternion part, inverts the
    order-three generator.  Trace zero with square a scalar, so it acts as an
    involution on classes."""
    theta = _z(3, 1) - _z(3, 2)
    one = CycloInt.from_int(1, 3)
    return _mat([[one, theta], [theta, -one]])


def d4_triality(cap: int = 10_000) -> tuple[FiniteMatrixGroup, GroupElement]:
    """The quaternion group together with its order-three rotation symmetry."""
    group = close_group([_tetra_u(), _tetra_v()], cap=cap)
    return group, _tetra_t()


def quintic_group(cap: int = 10_000) -> FiniteMatrixGroup:
    """Faithfully-acting diagonal symmetry quotient of the quintic, order 125.

    The diagonal matrices diag(w^a0..w^a4) with exponent sum divisible by
    five, modulo scalars, realized as the subgroup with a2 = 0: it has order
    125 and meets the scalars only in the identity, so it maps onto the
    quotient isomorphically.  Both quintic involutions fix coordinate 2, so
    they normalize it and act on it by plain conjugation.
    """
    gens = []
    for pattern in [(1, 4, 0, 0, 0), (1, 0, 0, 4, 0), (1, 0, 0, 0, 4)]:
        zero = CycloInt.from_int(0, 5)
        rows = [
            [(_z(5, pattern[i]) if i == j else zero) for j in range(5)] for i in range(5)
        ]
        gens.append(GroupElement.from_matrix(rows))
    return close_group(gens, cap=cap)


def _perm_matrix(images: tuple[int, ...]) -> GroupElement:
    """Permutation matrix sending basis vector i to basis vector images[i]."""
    n = len(images)
    one, zero = CycloInt.from_int(1), CycloInt.from_int(0)
    rows = [[one if images[j] == i else zero for j in range(n)] for i in range(n)]
    return GroupElement.from_matrix(rows)


def quintic_symmetry(variant: str = "swap") -> GroupElement:
    """Coordinate involutions of the quintic: one swap, or two disjoint swaps."""
    if variant == "swap":
        return _perm_matrix((1, 0, 2, 3, 4))
    if variant == "swap-two-pairs":
        return _perm_matrix((1, 0, 2, 4, 3))
    raise ValueError(f"unknown quintic symmetry variant: {variant}")


def complete_intersection_group(cap: int = 10_000) -> FiniteMatrixGroup:
    """Order-81 diagonal group acting on the pair of cubic equations in six
    variables; entries are ninth roots of unity."""
    zero = CycloInt.from_int(0, 9)

    def diag(exps):
        return GroupElement.from_matrix(
            [[(_z(9, exps[i]) if i == j else zero) for j in range(6)] for i in range(6)]
        )

    # exponent patterns (3a1+mu, 3a2+mu, mu, 3a4-mu, 3a5-mu, -mu) mod 9
    g1 = diag((3, 6, 0, 0, 0, 0))  # a1 = 1, a2 = 2, mu = 0
    g2 = diag((0, 0, 0, 3, 6, 0))  # a4 = 1, a5 = 2, mu = 0
    g3 = diag((1, 4, 1, 8, 2, 8))  # a1 = 0, a2 = 1, a4 = 0, a5 = 1, mu = 1
    return close_group([g1, g2, g3], cap=cap)


def complete_intersection_symmetry() -> GroupElement:
    """The involution swapping the two variables inside each cubic block."""
    return _perm_matrix((1, 0, 2, 4, 3, 5))
