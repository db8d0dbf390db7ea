"""Coverings of bordered surfaces: induced representations and Hardy-space isometry checks.

The package has an exact combinatorial layer (surface-group presentations,
covering actions, Schreier transversals and rewriting), an exact-linear-
algebra layer (extension of representations to the double, induced
representations, transported pairing and signature matrices), and a numerical
layer that verifies the indefinite Hardy-space isometry on the family of
power maps between annuli.
"""

__version__ = "0.2.0"

from .groups import (
    DoubledPresentation,
    GroupPresentation,
    InvalidSurfaceError,
    Word,
    apply_involution,
    boundary_loop,
    double_group,
    mirror_monodromy,
    surface_group,
)
from .covering import (
    CoveringAction,
    Transversal,
    build_covering,
    compose_coverings,
    coset_of,
    expand_schreier_word,
    identity_covering,
    schreier_rewrite,
    schreier_transversal,
    schreier_walk,
    sigma,
    subgroup_relators,
)
from .induction import (
    BlockMonomial,
    Check,
    CheckReport,
    ExtensionError,
    MatrixRep,
    SignatureData,
    build_G2,
    build_J2_diagonal,
    check_representation,
    extend_to_double,
    induce_representation,
    pairing_signature_matrices,
    verify_symmetry_conditions,
)
from .cyclic import (
    CyclicPipeline,
    annulus_pipeline,
    boundary_subgroup_rep,
    cyclic_cover,
)
from .hardy import (
    AnnulusCovering,
    IsometryResult,
    make_annulus_cover,
    verify_isometry,
)

__all__ = [name for name in dir() if not name.startswith("_")]
