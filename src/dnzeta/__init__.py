"""Zeta-regularized determinants of Dirichlet-to-Neumann maps.

The package computes log det' of the Dirichlet-to-Neumann operator on
surfaces with boundary three independent ways and checks that they
agree:

- explicit mode sums for the disc, annulus, and flat cylinder
  (dn_explicit), fed through a regularized-product engine that turns
  eigenvalue asymptotics into zeta values at 0 (zeta_reg, specfun);
- dynamical zeta functions (Ruelle and Selberg) built from the length
  spectrum of a hyperbolic surface group (hyperbolic, zeta_dyn) and the
  determinant identities that tie them to the spectral side
  (det_engine);
- finite Fourier truncations of the disc operator itself, used to
  verify the conformal variation law numerically (numeric_dn).

The command line front end lives in dnzeta.cli (installed as the
`dnzeta` script) and exposes each route plus a `verify` subcommand that
re-runs the headline identities stated in dnzeta.claims.
"""

from dnzeta.errors import (
    BarnesZeroError,
    ConvergenceError,
    DnZetaError,
    DomainError,
    EnumerationBudgetError,
    InvalidSequenceError,
    PoleError,
    TruncationError,
)
from dnzeta.reports import DetReport
from dnzeta.specfun import (
    EvalResult,
    eta_constant,
    hyp2f1,
    log_barnes_g,
    log_gamma,
    riemann_zeta,
    zeta_derivative,
)
from dnzeta.zeta_reg import (
    EigenSequence,
    RegularizedDet,
    combine,
    log_det,
    required_tail_length,
    scale,
    zeta_at_zero,
)
from dnzeta.dn_explicit import (
    AnnulusGeometry,
    CylinderGeometry,
    annulus_block,
    annulus_det_prime,
    annulus_eigenvalues,
    cylinder_det_prime,
    cylinder_poisson_check,
    cylinder_scattering_mode0,
    disc_det_prime,
    uniformizing_map,
)
from dnzeta.hyperbolic import (
    GroupPresentation,
    LengthSpectrum,
    MobiusTransform,
    SpectrumEntry,
    enumerate_primitive_classes,
    spectrum_from_json,
    spectrum_to_json,
    translation_length,
)
from dnzeta.zeta_dyn import (
    ZetaValue,
    check_rz_identity,
    ruelle,
    ruelle_limit_order,
    selberg,
    selberg_boundary,
)
from dnzeta.det_engine import (
    HeatCoefficients,
    SurfaceTopology,
    dirichlet_det,
    functional_equation_rhs,
    log_dirichlet_det,
    sarnak_det,
    theorem2_value,
    theorem4_pipeline,
    zero_volume,
    zero_volume_cylinder_numeric,
)
from dnzeta.numeric_dn import (
    ConformalFactor,
    DiscGeometry,
    boundary_length,
    derivative_identity_check,
    k_convergence_table,
    multiplication_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusGeometry",
    "BarnesZeroError",
    "ConformalFactor",
    "ConvergenceError",
    "CylinderGeometry",
    "DetReport",
    "DiscGeometry",
    "DnZetaError",
    "DomainError",
    "EigenSequence",
    "EnumerationBudgetError",
    "EvalResult",
    "GroupPresentation",
    "HeatCoefficients",
    "InvalidSequenceError",
    "LengthSpectrum",
    "MobiusTransform",
    "PoleError",
    "RegularizedDet",
    "SpectrumEntry",
    "SurfaceTopology",
    "TruncationError",
    "ZetaValue",
    "annulus_block",
    "annulus_det_prime",
    "annulus_eigenvalues",
    "boundary_length",
    "check_rz_identity",
    "combine",
    "cylinder_det_prime",
    "cylinder_poisson_check",
    "cylinder_scattering_mode0",
    "derivative_identity_check",
    "dirichlet_det",
    "disc_det_prime",
    "enumerate_primitive_classes",
    "eta_constant",
    "functional_equation_rhs",
    "hyp2f1",
    "k_convergence_table",
    "log_barnes_g",
    "log_det",
    "log_dirichlet_det",
    "log_gamma",
    "multiplication_matrix",
    "required_tail_length",
    "riemann_zeta",
    "ruelle",
    "ruelle_limit_order",
    "sarnak_det",
    "scale",
    "selberg",
    "selberg_boundary",
    "spectrum_from_json",
    "spectrum_to_json",
    "theorem2_value",
    "theorem4_pipeline",
    "translation_length",
    "uniformizing_map",
    "zero_volume",
    "zero_volume_cylinder_numeric",
    "zeta_at_zero",
    "zeta_derivative",
]
