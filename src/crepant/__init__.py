"""Exact computation of equivariant McKay/Lefschetz data for finite group actions.

The library exposes four layers: exact arithmetic (cyclotomic integers,
integer normal forms, lattice indices), finite matrix groups with their
conjugacy structure and outer symmetries, symmetry-adjusted crepant
triangulations of abelian quotient singularities, and orbifold datasheet
evaluators.  See the module docstrings for details; the command-line surface
lives in crepant.cli.

Every layer loads on first use.  ``import crepant`` puts ``exactmath``,
``groups``, ``toric``, ``orbifold`` and ``fixtures`` in ``sys.modules`` and on
the package at once, through ``importlib.util.LazyLoader``, but runs none of
them: a layer's body runs when one of its attributes is first read, so a
command compiles only the layers it calls.  The public names of the package
are read from their layer on first use (PEP 562 ``__getattr__``).
"""

import importlib.util
import sys

# the public names of the package, by the layer that defines them
_EXPORTS = {
    "exactmath": "CycloInt IntMat cyclotomic_polynomial lattice_index smith_normal_form",
    "groups": "ConjClassSet FiniteMatrixGroup GroupElement OuterAction centralizer close_group"
    " compatible_class_filter conjugacy_classes invariant_class_count outer_action",
    "orbifold": "ClassRecord DynkinGraph GSpaceSheet StratumRecord chain_check"
    " complete_intersection_sheet dynkin_lefschetz equivariant_lefschetz mckay_check"
    " orbifold_euler quintic_sheet",
    "toric": "LatticePair PermSymmetry Triangulation adjusted_triangulation audit_triangulation"
    " block_det build_lattice_pair count_fixed_elements symmetry_report toric_lefschetz"
    " verify_crepant",
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_LAYER_OF])


def _lazy(layer: str):
    """The module of a layer, whose body runs on its first attribute read; a
    module already in ``sys.modules`` is kept, so each layer has one object."""
    name = f"{__name__}.{layer}"
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


exactmath, groups, toric, orbifold, fixtures = map(
    _lazy, ("exactmath", "groups", "toric", "orbifold", "fixtures")
)


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)


def __dir__():
    return sorted([*globals(), *_LAYER_OF])


__version__ = "0.1.0"
