"""Exact Chow rings of matroids, their symmetric chain decompositions, and
Burnside / character-ring positivity checks."""

from .matroid import (
    Matroid, MatroidError, AxiomViolation, NotAMatroid, BadParameters,
    NotAFlat, matroid_from_flats, matroid_from_bases, uniform, boolean,
    graphic, simplify,
)
from .perm import (
    PermGroup, GroupTooLarge, NotFullSymmetricGroup, group_from_generators,
    matroid_automorphisms, symmetric_group, orbit, stabilizer,
    are_conjugate_subgroups, is_young_subgroup,
)
from .chow import (
    ChowRing, chow_ring, lefschetz_omega,
    default_coefficient_rule,
)

__version__ = "0.1.0"
