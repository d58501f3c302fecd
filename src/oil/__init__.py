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
    splitting_defect,
    symbol_conjugate,
    symbol_product,
    toeplitz_compress,
)
from .spectral import (
    IdealSpec,
    SingularSpectrum,
    SummabilityVerdict,
    fit_exponent,
    schatten_norm,
    singular_values,
    summability_classify,
)
from .stinespring import (
    CpMap,
    DilationData,
    defect_identity_residuals,
    dilation_build,
    random_cp_contraction,
)
from .extensions import (
    IsometryPair,
    extension_sum,
    interleaving_isometries,
    inverse_identity_residuals,
)
from .deformation import (
    DeformationParams,
    LemmaReport,
    SweepReport,
    deformation_defect_residuals,
    deformation_operator,
    deformed_compression,
    epsilon_sweep,
    haar_unitary,
    lambda_sequence,
    lemma_lower_bound_report,
    quadratic_identity_residual,
)

__version__ = "0.1.0"
