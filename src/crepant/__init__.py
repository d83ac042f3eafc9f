"""Exact computation of equivariant McKay/Lefschetz data for finite group actions.

The library exposes four layers: exact arithmetic (cyclotomic integers,
integer normal forms, lattice indices), finite matrix groups with their
conjugacy structure and outer symmetries, symmetry-adjusted crepant
triangulations of abelian quotient singularities, and orbifold datasheet
evaluators.  See the module docstrings for details; the command-line surface
lives in crepant.cli.
"""

from .exactmath import (
    CycloInt,
    IntMat,
    cyclotomic_polynomial,
    lattice_index,
    smith_normal_form,
)
from .groups import (
    ConjClassSet,
    FiniteMatrixGroup,
    GroupElement,
    OuterAction,
    centralizer,
    close_group,
    compatible_class_filter,
    conjugacy_classes,
    invariant_class_count,
    outer_action,
)
from .orbifold import (
    ClassRecord,
    DynkinGraph,
    GSpaceSheet,
    StratumRecord,
    chain_check,
    complete_intersection_sheet,
    dynkin_lefschetz,
    equivariant_lefschetz,
    mckay_check,
    orbifold_euler,
    quintic_sheet,
)
from .toric import (
    LatticePair,
    PermSymmetry,
    Triangulation,
    adjusted_triangulation,
    audit_triangulation,
    block_det,
    build_lattice_pair,
    count_fixed_elements,
    symmetry_report,
    toric_lefschetz,
    verify_crepant,
)

__version__ = "0.1.0"
