"""Tests for the package's public surface."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import dnzeta
from dnzeta.det_engine import SurfaceTopology, log_dirichlet_det, theorem2_value, theorem4_pipeline
from dnzeta.dn_explicit import AnnulusGeometry, CylinderGeometry, DiscGeometry
from dnzeta.errors import DomainError
from dnzeta.hyperbolic import LengthSpectrum, SpectrumEntry
from dnzeta.numeric_dn import ConformalFactor, k_convergence_table
from dnzeta.zeta_dyn import ruelle, selberg, selberg_boundary
from dnzeta.zeta_reg import EigenSequence

PACKAGE = Path(dnzeta.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"


def test_every_public_name_resolves():
    # A deleted name must not survive as a stale string in __all__.
    missing = [name for name in dnzeta.__all__ if not hasattr(dnzeta, name)]
    assert missing == []
    assert len(set(dnzeta.__all__)) == len(dnzeta.__all__)


def _sources():
    """(path, syntax tree) of every package module but __init__, and of every bench script."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(BENCH.glob("*.py"))
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in files]


def _reached_names():
    """Names each file imports by name, reads as <layer>.<name>, or calls by name.

    Returns (imported or read as an attribute anywhere, {module: names called in it}).
    """
    layers = {path.stem for path in PACKAGE.glob("*.py")}
    reached = set()
    called = {}
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                reached.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in layers:
                    reached.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.setdefault(path.stem, set()).add(node.func.id)
    return reached, called


def test_every_public_function_is_reached():
    # Every function in __all__ backs a claim, a CLI path or a benchmark
    # workload: some module of the package (not __init__) or some bench
    # script imports it or reads it off its layer, or its own module calls it.
    # Test files do not count; a name only tests reach should go.
    reached, called = _reached_names()
    unreached = []
    for name in dnzeta.__all__:
        obj = getattr(dnzeta, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rpartition(".")[2]
        if name not in reached and name not in called.get(home, set()):
            unreached.append(name)
    assert unreached == []


def test_every_public_member_is_read():
    # The same rule one level down: each public method or property a
    # class in __all__ defines is read as .<name> somewhere in the
    # package or bench, not only in tests.
    read = {
        node.attr for _, tree in _sources() for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    unread = []
    for name in dnzeta.__all__:
        cls = getattr(dnzeta, name)
        if not inspect.isclass(cls):
            continue
        for member, value in vars(cls).items():
            is_method = inspect.isfunction(value) or isinstance(value, (property, staticmethod, classmethod))
            if is_method and not member.startswith("_") and member not in read:
                unread.append(f"{name}.{member}")
    assert unread == []


def test_every_default_is_set():
    # A default of a public function or dataclass parameter that no call
    # in the package (not __init__) or bench passes, by keyword or by
    # position, is a constant in disguise: a value only tests change.
    calls = {}
    for _, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for name in dnzeta.__all__:
        obj = getattr(dnzeta, name)
        if not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)):
            continue
        for index, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is inspect.Parameter.empty:
                continue
            positional = param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if not any(
                any(kw.arg in (param.name, None) for kw in call.keywords)
                or (positional and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)))
                for call in calls.get(name, ())
            ):
                unset.append(f"{name}.{param.name}")
    assert unset == []


_HUGE = 10**400  # an int past the largest double, as JSON may write one
_SPECTRUM = LengthSpectrum(entries=(SpectrumEntry(1.0, 1, 0),), cutoff=2.0, complete_up_to=2.0)
_PANTS = SurfaceTopology(0, 3)


@pytest.mark.parametrize("call", [
    lambda: AnnulusGeometry(_HUGE),
    lambda: AnnulusGeometry("3"),
    lambda: DiscGeometry(True),
    lambda: DiscGeometry(_HUGE),
    lambda: CylinderGeometry(_HUGE),
    lambda: SurfaceTopology(True, 1),
    lambda: SurfaceTopology(0, _HUGE),
    lambda: theorem2_value(_PANTS, supplied_limit=_HUGE),
    lambda: theorem2_value(_PANTS, supplied_limit=True),
    lambda: theorem4_pipeline(1.0, 1.0, _PANTS, _HUGE),
    lambda: log_dirichlet_det(_HUGE, 1.0, _PANTS, 1.0),
    lambda: log_dirichlet_det(True, 1.0, _PANTS, 1.0),
    lambda: EigenSequence(power=True, prefactor=1.0),
    lambda: EigenSequence(power=_HUGE, prefactor=1.0),
    lambda: EigenSequence(power=1.0, prefactor=1.0, head=((2.0, 1.5),)),
    lambda: ConformalFactor(("0", "0.3", "0")),
    lambda: ConformalFactor((False, True, False)),
    lambda: k_convergence_table(DiscGeometry(1.0), ConformalFactor((0.0, 0.3, 0.0)), [0.0, 0.5, 1.0], (True,)),
    lambda: ruelle(_SPECTRUM, "1.5", 0.0),
    lambda: selberg(_SPECTRUM, True, 0.0),
    lambda: selberg_boundary(["1.0"], _SPECTRUM, 1.5, 0.0),
    lambda: selberg_boundary([_HUGE], _SPECTRUM, 1.5, 0.0),
], ids=[
    "annulus-huge", "annulus-str", "disc-bool", "disc-huge", "cylinder-huge", "genus-bool",
    "boundary-count-huge", "limit-huge", "limit-bool", "theorem4-ell-huge",
    "dirichlet-lam-huge", "dirichlet-lam-bool", "power-bool", "power-huge", "head-count-float",
    "factor-str", "factor-bool", "k-bool", "ruelle-lam-str", "selberg-lam-bool",
    "boundary-length-str", "boundary-length-huge",
])
def test_every_route_refuses_what_is_not_a_number(call):
    # One rule (errors._is_number): an int or a float, not a bool, a str or
    # an int past the largest double; these raised OverflowError or
    # TypeError, or were converted and accepted.
    with pytest.raises(DomainError):
        call()
