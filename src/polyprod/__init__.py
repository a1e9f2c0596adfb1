"""Exact homology and graded-series invariants of polyhedral products.

The package computes integral homology of the product and smash models of
Z(K;(X,A)) over arbitrary cellular pair models, evaluates the additive
decomposition formulas (subset splitting, full-subcomplex formula, per-face
join decomposition, skeleton sphere wedges), and carries the face-ring and
characteristic-matrix invariants on the algebraic side.  Everything is
integer-exact: no floating point, no probabilistic rank.
"""

from .complexes import (
    Diagnostic,
    ShiftedVerdict,
    SimplicialComplex,
    ensure_valid,
    join_complex,
    skeleton,
    validate,
)
from .errors import (
    ArityMismatch,
    BoundaryNotSquareZero,
    BudgetExceeded,
    DimensionMismatch,
    FaceNotInComplex,
    GhostVertex,
    InputError,
    InvalidCharacteristic,
    NonpolynomialQuotient,
    NotASubcomplex,
    NotDownwardClosed,
    NotPure,
    NotShifted,
    PairNotCertified,
    PolyprodError,
    RankDeficient,
    SearchBoundExceeded,
    SeriesError,
    TorsionInShiftedSubcomplex,
)
from .homology import (
    ChainComplex,
    HomologySummary,
    SmithNormalForm,
    augmented,
    check_boundaries,
    direct_sum,
    empty_chain_complex,
    invariant_factors,
    kunneth_product,
    make_chain_complex,
    quotient_complex,
    reduced_simplicial_homology,
    simplicial_chain_complex,
    smith_normal_form,
    trivial_summary,
)
from .pairs import (
    PairModel,
    circle_space,
    cone_pair,
    pair_chain,
    pair_cone,
    pair_disk_sphere,
    pair_space_basepoint,
    point_space,
    rp2_pair,
    rp2_space,
    s0_space,
    simplicial_space,
    sphere_pair,
    sphere_space,
    validate_pair,
)
from .products import (
    DEFAULT_CELL_BUDGET,
    SphereList,
    SplitSummand,
    SplittingResult,
    contractible_A_series,
    contractible_X_summary,
    hochster_homology,
    moment_angle_blocks,
    moment_angle_chain,
    poincare_polynomial,
    porter_decomposition,
    smash_moment_angle_chain,
    sphere_wedge_report,
    stable_splitting,
    wedge_lemma_decomposition,
)
from .series import RationalSeries
from .stanley_reisner import (
    DJComparison,
    IdealPresentation,
    dj_additive_check,
    generalized_sr_series,
    sr_hilbert_series,
    sr_presentation,
)
from .toric import (
    CharacteristicMatrix,
    ToricPresentation,
    ToricReport,
    kernel_lattice_basis,
    kernel_rank,
    toric_betti,
    toric_presentation,
    validate_characteristic,
)

__version__ = "0.1.0"
