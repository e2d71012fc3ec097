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

from types import ModuleType as _ModuleType

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
    log_barnes_g,
    log_gamma,
)
from dnzeta.zeta_reg import (
    EigenSequence,
    RegularizedDet,
    log_det,
    required_tail_length,
    zeta_at_zero,
)
from dnzeta.dn_explicit import (
    AnnulusGeometry,
    CylinderGeometry,
    DiscGeometry,
    annulus_det_prime,
    annulus_eigenvalues,
    cylinder_det_prime,
    disc_det_prime,
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
    ruelle,
    ruelle_limit_order,
    selberg,
    selberg_boundary,
)
from dnzeta.det_engine import (
    SurfaceTopology,
    dirichlet_det,
    functional_equation_rhs,
    log_dirichlet_det,
    sarnak_det,
    theorem2_value,
    theorem4_pipeline,
    zero_volume,
)
from dnzeta.numeric_dn import (
    ConformalFactor,
    k_convergence_table,
)

__version__ = "0.1.0"

# The public names are those the imports above bind, less the submodules
# that importing them binds too.
__all__ = sorted(name for name, obj in globals().items() if not (name.startswith("_") or isinstance(obj, _ModuleType)))
