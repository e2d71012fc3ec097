"""Every `dnzeta verify` check fails when the code it certifies is broken.

Each row of MUTATIONS patches one attribute of the package, runs only
the suites it names, and asserts the exact set of checks that then
fail.  A function that dnzeta.claims imports by name is patched where
claims looks it up ("claims:log_barnes_g"), so only the checks that
call it directly can see the break.  A check that no row can fail
compares the code with itself; test_every_check_fails_under_some_mutation
refuses it.
"""

import dataclasses
import importlib

import pytest

from dnzeta import claims


def _plus(offset):
    """An EvalResult-valued function with offset(z) added to its value."""
    def mutate(f):
        def mutated(z):
            result = f(z)
            return dataclasses.replace(result, value=result.value + offset(z))
        return mutated
    return mutate


def _times(factor):
    return lambda f: lambda *args: factor * f(*args)


def _weights_times(factor):
    """A column builder whose weights are scaled by factor: every Euler product's terms scale with them."""
    def mutate(f):
        def mutated(used, boundary):
            lengths, weights = f(used, boundary)
            return lengths, factor * weights
        return mutated
    return mutate


def _lengths_times(factor):
    """A class walk whose every length is scaled by factor."""
    return lambda f: lambda *args: [(factor * length, word) for length, word in f(*args)]


def _multiplicity_one(f):
    """A spectrum builder whose every entry counts once: gamma without gamma^-1."""
    def mutated(*args):
        spectrum = f(*args)
        entries = tuple(dataclasses.replace(e, multiplicity=1) for e in spectrum.entries)
        return dataclasses.replace(spectrum, entries=entries)
    return mutated


def _bridge_rho_times(post_init):
    def mutated(self):
        post_init(self)
        object.__setattr__(self, "bridge_rho", 1.001 * self.bridge_rho)
    return mutated


ANNULUS_AND_DISC = {
    *(f"annulus rho={rho:g}: det'/ell = 2pi/ln(rho)" for rho in claims.ANNULUS_MODULI),
    *(f"disc radius={radius:g}: det' = boundary length" for radius in claims.DISC_RADII),
}
CONTINUATIONS = {
    "u_n = 4 n^0.5 (1 + eps_n), m=1, heads=1 vs 40-digit continuation",
    "u_n = 0.5 n^1 (1 + eps_n), m=2, heads=2 vs 40-digit continuation",
    "u_n = 0.2 n^3 (1 + eps_n), m=3, heads=0 vs 40-digit continuation",
}
LAMBERT = {"R = Z(lam)/Z(lam+1), cyclic spectrum", "R = Z(lam)/Z(lam+1), Schottky pair within tail bounds"}
BRIDGE_PIPELINE = "annulus pipeline at the bridge modulus = ell/pi (10 random ell)"
SCATTERING = {f"scattering route ell={ell:g}: (2/pi) lim = 2 ell^2/pi" for ell in claims.SCATTERING_LENGTHS}
THEOREM4 = "theorem4 closed display and surgery composition vs 40-digit values"
DIRICHLET = "log dirichlet det at lambda=0.3,1,1.75,2.6 vs 40-digit values"

# (target "module:attribute.path", mutation of the original, suites, checks that fail)
MUTATIONS = (
    ("zeta_reg:_ZETA_PRIME_0", lambda x: x + 1e-6, ("appendix", "bridge", "lemma"), ANNULUS_AND_DISC | CONTINUATIONS | {
        BRIDGE_PIPELINE, "eps_n = e^-n sequence vs Euler-Maclaurin continuation oracle",
    }),
    # ln c zeta(0) vanishes at c = 1: the unit disc and the eps_n = e^-n row cannot see this break
    ("zeta_reg:_ZETA_0", lambda x: x + 1e-6, ("appendix", "bridge", "lemma"), ANNULUS_AND_DISC - {
        "disc radius=1: det' = boundary length",
    } | CONTINUATIONS | {BRIDGE_PIPELINE}),
    ("dn_explicit:CylinderGeometry.__post_init__", _bridge_rho_times, ("bridge",), {BRIDGE_PIPELINE}),
    ("claims:_cylinder_spectrum", _multiplicity_one, ("bridge",), SCATTERING),
    ("hyperbolic:_primitive_classes", _lengths_times(1.01), ("bridge",), SCATTERING),
    ("claims:log_gamma", _plus(lambda z: 1e-6 * z), ("functional",), {
        "Gamma recurrence", "Barnes G recurrence", "log Gamma(1/2) = ln(pi)/2",
    }),
    ("claims:log_barnes_g", _plus(lambda z: 1e-6), ("functional",), {
        "log G(1/2) = ln2/24 + 1/8 - ln(pi)/4 - (3/2) ln A",
    }),
    ("claims:log_barnes_g", _plus(lambda z: 1e-6 * z), ("functional",), {
        "Barnes G recurrence", "log G(1/2) = ln2/24 + 1/8 - ln(pi)/4 - (3/2) ln A",
    }),
    # eta and 2 log G(lam) both carry zeta'(-1), and it cancels between them in
    # log_dirichlet_det, so the Dirichlet row cannot see this break
    ("specfun:_ZETA_PRIME_MINUS1", lambda x: x + 1e-6, ("functional", "theorem4"), {
        "log G(1/2) = ln2/24 + 1/8 - ln(pi)/4 - (3/2) ln A", THEOREM4,
    }),
    # e^{-2 eta chi} of det'(Delta_M) cancels against det(Delta)^2 in the surgery composition
    ("det_engine:eta_constant", lambda f: lambda: f() + 1e-6, ("theorem4",), {DIRICHLET}),
    ("zeta_dyn:_FACTOR_FLOOR", lambda x: 1e-6, ("functional",), LAMBERT),
    ("zeta_dyn:_columns", _weights_times(1.01), ("functional",), LAMBERT),
    ("det_engine:_log_functional_bracket", _times(-1.0), ("functional",), {
        "functional bracket reflection antisymmetry", "functional equation at the symmetry point",
    }),
    # claims imports log_dirichlet_det by name, so only the surgery composition,
    # which reads det(Delta) through det_engine, sees this break
    ("det_engine:log_dirichlet_det", _times(1.001), ("theorem4",), {THEOREM4}),
    ("numeric_dn:_log_lengths", lambda f: lambda *args: [1.001 * v for v in f(*args)], ("numericdn",), {
        "conformal derivative identity residual at K=64",
    }),
    # (lam - 1) ln 2 pi vanishes at lam = 1, where the surgery composition reads the Dirichlet determinant
    ("det_engine:_LN_2PI", lambda x: x + 1e-6, ("theorem4",), {DIRICHLET}),
)


def _owner(target):
    module, path = target.split(":")
    owner = importlib.import_module(f"dnzeta.{module}")
    *outer, name = path.split(".")
    for attr in outer:
        owner = getattr(owner, attr)
    return owner, name


@pytest.mark.parametrize(
    "target, mutate, suites, failing",
    MUTATIONS,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(MUTATIONS)],
)
def test_mutation_fails_exactly_its_checks(monkeypatch, target, mutate, suites, failing):
    owner, name = _owner(target)
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    checks = [check for suite in suites for check in claims.SUITES[suite]()]
    assert {c.name for c in checks if not c.passed} == failing


def test_every_check_fails_under_some_mutation():
    names = {check.name for suite in claims.SUITES.values() for check in suite()}
    assert names == set().union(*(row[3] for row in MUTATIONS))
