"""Exact geometric-invariant-theory computations for diagonal torus actions.

The package decides Hilbert-Mumford semistability on supports, analyses
wall/chamber genericity of linearizations, presents extended weighted
blow-ups as graded torus quotients, runs the iterated partial
desingularization producing a Deligne-Mumford relative semistable locus,
and checks the combinatorial stability of quasimaps from twisted nodal
curves.  All arithmetic is exact.
"""

from .errors import ComputationDeclined, InputError, InternalError, TorusGitError
from .lattice import (
    IntMatrix,
    SmithDecomposition,
    cone_has_point_with,
    hilbert_basis_bounded,
    kernel_basis,
    smith_normal_form,
)
from .torus import (
    CombinedLinearization,
    DiagonalizableGroup,
    FinitePartElement,
    HmMinimum,
    SignedSquare,
    Support,
    TorusAction,
    combine_linearizations,
    cone_over_projective,
    effectivize,
    hm_pairing,
    is_semistable,
    is_stable,
    limit_cone,
    minimal_hm_values,
    normalized_hm_min,
    semistable_supports,
    stabilizer,
    two_step_semistable,
)
from .walls import (
    WallArrangement,
    compute_walls,
    find_generic_character,
    is_generic,
    verify_ss_equals_s,
)
from .rees import (
    EBPresentation,
    ExceptionalDivisor,
    MonomialWeightedCenter,
    exceptional_divisor,
    extended_weighted_blowup,
    saturated_locus,
    weighted_blowup_locus,
)
from .desing import DesingTower, desingularize, max_stabilizer_centers, verify_tower
from .quasimap import (
    DivisorConfig,
    DvrMapData,
    TwistedCurveGraph,
    Vertex,
    check_binary_forms,
    check_pencil_degrees,
    check_twisted_conic,
    class_beta,
    dvr_lift,
    epsilon_ample_equivalent,
    is_stable_quasimap,
    omega_log_degree,
)
from .luna import cubics_example, cubics_slice, slice_at_fixed_point

__all__ = [name for name in dir() if not name.startswith("_")]
