"""Harmonic self-maps of the unit disk: areas of concentric-disk images,
contraction and boundary-flux verification, and the pointwise identities
behind them.  Pure Python on numpy: the pair sums behind the area and the
tangent-gap double integral run through FFTs in ``diskarea.pair_sums``, with
the dense O(M^2) area sum kept as the ``kernel-direct`` estimator.
"""

from .area import (
    EXACT_FAMILY,
    GREEN_QUADRATURE,
    GREEN_SPECTRAL,
    JACOBIAN_GRID,
    KERNEL_DIRECT,
    KERNEL_FFT,
    METHODS,
    REGISTRY,
    AreaEstimate,
    area_green_quadrature,
    area_green_spectral,
    area_jacobian_grid,
    area_kernel,
    area_kernel_direct,
    area_kernel_fft,
    estimate_area,
    exact_family_area,
    family_coeffs,
)
from .circle_maps import (
    HOMEOMORPHISM,
    NONDECREASING_STEP,
    TWO_PI,
    BoundaryMap,
    boundary_values,
    conjugate_map,
    eval_lift,
    from_json,
    make_identity,
    make_mobius_boundary,
    make_random_homeomorphism,
    make_rotation,
    make_step_map,
    mollify_map,
    to_json,
)
from .poisson import (
    FourierCoeffs,
    NumericalFailureError,
    UniformGrid,
    eval_harmonic,
    eval_harmonic_step,
    fourier_from_boundary,
    poisson_kernel,
    poisson_kernel_deriv,
    sample_count,
    wirtinger_on_circle,
)
from .proof_checks import (
    MonotoneProfile,
    check_gap_double_integral,
    check_mirror_pair_identity,
    check_profile_family,
    check_reduction_chain,
    check_tangent_gap_signs,
    cos_identity_residual,
    mirror_pair_residual,
    profile_gap_integral,
    random_profile,
    reflect_profile,
    strict_interior_positivity,
    tangent_gap,
)
from .verify import (
    HypothesisViolationError,
    VerdictRecord,
    boundary_jacobian_integral,
    check_area_contraction,
    holomorphic_convexity_check,
    schwarz_bound,
    schwarz_bound_check,
    univalence_margin,
)

__version__ = "0.1.0"
