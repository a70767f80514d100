"""Exact torsion-lifting criteria for monomial complex reflection groups.

Decides which elements and subgroups of G(de, e, r) lift to finite-order
(torsion) subgroups of the quasi-abelianized braid group B/[P,P], and
reproduces the related classifications (torsion-free quotients, odd-order
lifting, free actions on the reflection arrangement, Frobenius and Cayley
constructions) with independent brute-force cross-checks.

The public names below are imported from their modules on first access
(PEP 562), so ``import braidlift.cli`` loads only what a command runs.
"""

from importlib import import_module

_EXPORTS = {
    "arrangement": (
        "Coord", "Hyperplane", "Swap", "act",
        "acts_faithfully_on_arrangement", "format_hyperplane", "hyperplanes", "orbit_count",
        "orbits", "scalar_on_normal", "stabilizes",
    ),
    "classify": (
        "EXCEPTIONAL_BIEBERBACH", "FrobeniusSpec", "PermutationGroup", "as_symmetric_subgroup",
        "bieberbach_bruteforce", "cayley_embedding", "free_action_general",
        "frobenius_coset_action", "has_free_cycle_type", "has_free_monomial_type",
        "has_odd_lift_property", "is_bieberbach_series",
    ),
    "errors": (
        "ENUMERATION_GUARD", "BraidLiftError", "GuardExceeded", "InvariantViolation",
        "MismatchError", "NoIntegralSolution", "ParseError",
    ),
    "lattice": (
        "Cocycle", "LatticeVector", "coboundary", "fixed_lattice_rank", "permute_vector",
        "small_generating_set", "trivialize_cocycle",
    ),
    "lifting": (
        "LiftReport", "LiftWitness", "element_lifts_fast", "element_lifts_oracle",
        "subgroup_lifts",
    ),
    "monomial": (
        "GroupDescriptor", "MonomialElement", "Subgroup",
        "center", "center_order", "class_representatives", "closure", "diagonal",
        "enumerate_elements", "format_element", "from_permutation", "identity", "pad",
        "parse_element", "standard_generators",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    # An unknown name raises AttributeError, so ``from braidlift import
    # lattice`` falls back to importing the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
