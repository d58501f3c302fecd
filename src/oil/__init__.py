"""Numerical laboratory for Toeplitz extensions, Stinespring dilations,
and linear deformations on finite Fourier windows."""

from .hardy import (
    GuardBandError,
    Symbol,
    Window,
    WindowedOperator,
    guard_slice,
    hankel_operator,
    hardy_projection,
    make_symbol,
    multiplication_operator,
    numerical_rank,
    projection_commutator,
    rotation_equivariance_residual,
    splitting_defect,
    symbol_conjugate,
    symbol_product,
    toeplitz_compress,
)
from .spectral import (
    IdealSpec,
    SingularSpectrum,
    SummabilityVerdict,
    decay_exponent,
    dixmier_estimate,
    fit_exponent,
    schatten_norm,
    singular_values,
    summability_classify,
    tail_doubling_ratio,
)
from .stinespring import (
    CpMap,
    DilationData,
    defect_identity_residuals,
    dilation_build,
    random_cp_contraction,
    square_root_membership,
)
from .extensions import (
    IsometryPair,
    complement_compression,
    extension_sum,
    interleaving_isometries,
    inverse_identity_residuals,
    toeplitz_invertibility_report,
)
from .deformation import (
    DeformationParams,
    LemmaReport,
    SweepReport,
    chopping_asymptotic_bound,
    deformation_defect_residuals,
    deformation_operator,
    deformed_compression,
    epsilon_sweep,
    haar_unitary,
    lambda_sequence,
    lemma_lower_bound_report,
    quadratic_identity_residual,
    signed_deformation_from_order,
)

__version__ = "0.1.0"
