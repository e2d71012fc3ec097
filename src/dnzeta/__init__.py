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

Each public name is imported from its module on first use, so `import
dnzeta` loads no submodule and a route that needs no numpy never loads
it: numpy costs more than the explicit routes' whole cold start.
"""

import importlib as _importlib

# The public names, by the module that defines them.  __all__ is read
# from this table, and __getattr__ imports a name's module when the
# name is first read.
_HOMES = {
    "errors": (
        "BarnesZeroError", "ConvergenceError", "DnZetaError", "DomainError", "EnumerationBudgetError",
        "InvalidSequenceError", "PoleError", "TruncationError",
    ),
    "reports": ("DetReport",),
    "specfun": ("EvalResult", "eta_constant", "log_barnes_g", "log_gamma"),
    "zeta_reg": ("EigenSequence", "RegularizedDet", "log_det", "required_tail_length", "zeta_at_zero"),
    "dn_explicit": (
        "AnnulusGeometry", "CylinderGeometry", "DiscGeometry", "annulus_det_prime", "annulus_eigenvalues",
        "cylinder_det_prime", "disc_det_prime",
    ),
    "hyperbolic": (
        "GroupPresentation", "LengthSpectrum", "MobiusTransform", "SpectrumEntry", "enumerate_primitive_classes",
        "spectrum_from_json", "spectrum_to_json", "translation_length",
    ),
    "zeta_dyn": ("ZetaValue", "ruelle", "ruelle_limit_order", "selberg", "selberg_boundary"),
    "det_engine": (
        "SurfaceTopology", "dirichlet_det", "functional_equation_rhs", "log_dirichlet_det", "sarnak_det",
        "theorem2_value", "theorem4_pipeline", "zero_volume",
    ),
    "numeric_dn": ("ConformalFactor", "k_convergence_table"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
