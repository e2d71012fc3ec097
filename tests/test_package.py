"""Tests for the package's public surface."""

import argparse
import ast
import dataclasses
import inspect
import math
import re
from pathlib import Path

import pytest

import dnzeta
from dnzeta import claims, cli, zeta_dyn
from dnzeta.det_engine import (
    SurfaceTopology,
    functional_equation_rhs,
    log_dirichlet_det,
    theorem2_value,
    theorem4_pipeline,
)
from dnzeta.dn_explicit import (
    AnnulusGeometry,
    CylinderGeometry,
    DiscGeometry,
    annulus_eigenvalues,
)
from dnzeta.errors import DomainError, InvalidSequenceError
from dnzeta.hyperbolic import (
    GroupPresentation,
    LengthSpectrum,
    MobiusTransform,
    SpectrumEntry,
    enumerate_primitive_classes,
    spectrum_from_json,
    spectrum_to_json,
)
from dnzeta.numeric_dn import ConformalFactor, k_convergence_table
from dnzeta.reports import DetReport
from dnzeta.specfun import EvalResult, log_barnes_g, log_gamma
from dnzeta.zeta_dyn import ZetaValue, ruelle, selberg
from dnzeta.zeta_reg import EigenSequence, RegularizedDet, log_det, required_tail_length

PACKAGE = Path(dnzeta.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"
README = PACKAGE.parents[1] / "README.md"


def test_every_public_name_resolves():
    # A deleted name must not survive as a stale string in __all__.
    missing = [name for name in dnzeta.__all__ if not hasattr(dnzeta, name)]
    assert missing == []
    assert len(set(dnzeta.__all__)) == len(dnzeta.__all__)


def test_every_readme_python_block_runs():
    # A README snippet that uses a deleted or renamed public name fails here.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _sources():
    """(path, syntax tree) of every package module but __init__, and of every bench script."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(BENCH.glob("*.py"))
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in files]


def _reaches():
    """(file, layer, name) for each name a file imports from a module of the
    package, or reads off one as <layer>.<name>; `from dnzeta import name`
    has layer "dnzeta"."""
    layers = {path.stem for path in PACKAGE.glob("*.py")}
    found = set()
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                found.update((path, node.module.rpartition(".")[2], alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in layers:
                    found.add((path, node.value.id, node.attr))
    return found


def test_every_public_function_is_reached():
    # Every function in __all__ backs a claim, a CLI path or a benchmark
    # workload: some other module of the package (not __init__) or some
    # bench script imports it from its module, or reads it off its layer.
    # A call from its own module does not count: a name only its module
    # uses is a private helper or an expression to inline.  Test files do
    # not count either; a name only tests reach should go.
    reaches = _reaches()
    unreached = []
    for name in dnzeta.__all__:
        obj = getattr(dnzeta, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rpartition(".")[2]
        if not any(
            attr == name and layer in (home, "dnzeta") and path != PACKAGE / f"{home}.py"
            for path, layer, attr in reaches
        ):
            unreached.append(name)
    assert unreached == []


def _bench_names(sources):
    """Names the bench scripts define themselves: each def, and the dest of each add_argument."""
    names = set()
    for path, tree in sources:
        if path.parent != BENCH:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                dest = [kw.value.value for kw in node.keywords if kw.arg == "dest"]
                flags = [a.value for a in node.args if isinstance(a, ast.Constant) and str(a.value).startswith("--")]
                names.update(dest or [flag[2:].replace("-", "_") for flag in flags[:1]])
    return names


def test_every_public_member_is_read():
    # The same rule one level down: each public method or property a
    # class in __all__ defines is read as .<name> somewhere in the
    # package or bench, not only in tests.  As for functions, a read in
    # the class's own module does not count: a member only its module
    # reads is a private helper.  Nor does a bench read of a name the
    # bench defines itself, a method (Workload.evaluate) or an option
    # (args.trace): it reads the bench's own object, whatever the
    # package calls the same way.
    sources = _sources()
    own = _bench_names(sources)
    read = {
        (path, node.attr)
        for path, tree in sources
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and not (path.parent == BENCH and node.attr in own)
    }
    unread = []
    for name in dnzeta.__all__:
        cls = getattr(dnzeta, name)
        if not inspect.isclass(cls):
            continue
        home = PACKAGE / f"{cls.__module__.rpartition('.')[2]}.py"
        for member, value in vars(cls).items():
            is_method = inspect.isfunction(value) or isinstance(value, (property, staticmethod, classmethod))
            if is_method and not member.startswith("_") and not any(
                attr == member and path != home for path, attr in read
            ):
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
_HUGER = 10**5000  # past the 4300 digits str() of an int may write
_SPECTRUM = LengthSpectrum(entries=(SpectrumEntry(1.0, 1, 0),), cutoff=2.0, complete_up_to=2.0)
_PANTS = SurfaceTopology(0, 3)
_DILATION = MobiusTransform(math.e, 0.0, 0.0, 1.0 / math.e)
_GENERATOR = '{"a": 2.718281828459045, "b": 0.0, "c": 0.0, "d": 0.36787944117144233}'
_FACTOR = ConformalFactor((0.0, 0.3, 0.0))


def _file(name: str, text: str) -> str:
    """name, written with text into the working directory (the test's tmp_path)."""
    Path(name).write_text(text, encoding="utf-8")
    return name


def _spectrum_run(out: str, max_word_len: int = 2):
    return cli._run_spectrum(argparse.Namespace(
        generators=_file("g.json", f'{{"generators": [{_GENERATOR}]}}'), cutoff=None, max_word_len=max_word_len,
        out=out))


def _selberg_boundary(boundary_lengths, spectrum, lam, delta_hint):
    """log Z_g0(lambda) as the CLI's selberg-g0 kind reaches it: a one-point grid."""
    [value] = zeta_dyn._zeta_grid("selberg_boundary", spectrum, [lam], delta_hint, boundary_lengths)
    return value


def _zeta_run(boundary: str):
    return cli._run_zeta(argparse.Namespace(
        lam="1.5", spectrum=_file("s.json", spectrum_to_json(_SPECTRUM)), kind="selberg-g0", boundary=boundary,
        delta_hint=0.0))


# Refused with DomainError.
_REFUSED = {
    "annulus-huge": lambda: AnnulusGeometry(_HUGE),
    "annulus-str": lambda: AnnulusGeometry("3"),
    "annulus-huger": lambda: AnnulusGeometry(_HUGER),
    "annulus-mode-bool": lambda: annulus_eigenvalues(AnnulusGeometry(2.0), True),
    "annulus-mode-float": lambda: annulus_eigenvalues(AnnulusGeometry(2.0), 1.5),
    "annulus-mode-str": lambda: annulus_eigenvalues(AnnulusGeometry(2.0), "1"),
    "annulus-mode-huge": lambda: annulus_eigenvalues(AnnulusGeometry(2.0), _HUGE),
    "annulus-mode-huge-negative": lambda: annulus_eigenvalues(AnnulusGeometry(2.0), -_HUGE),
    "disc-bool": lambda: DiscGeometry(True),
    "disc-huge": lambda: DiscGeometry(_HUGE),
    "cylinder-huge": lambda: CylinderGeometry(_HUGE),
    "genus-bool": lambda: SurfaceTopology(True, 1),
    "genus-huger": lambda: SurfaceTopology(_HUGER, 1),
    "boundary-count-huge": lambda: SurfaceTopology(0, _HUGE),
    "limit-huge": lambda: theorem2_value(_PANTS, supplied_limit=_HUGE),
    "limit-bool": lambda: theorem2_value(_PANTS, supplied_limit=True),
    "theorem4-ell-huge": lambda: theorem4_pipeline(1.0, 1.0, _PANTS, _HUGE),
    "dirichlet-lam-huge": lambda: log_dirichlet_det(_HUGE, 1.0, _PANTS, 1.0),
    "dirichlet-lam-bool": lambda: log_dirichlet_det(True, 1.0, _PANTS, 1.0),
    "functional-lam-str": lambda: functional_equation_rhs("0.25", SurfaceTopology(0, 2), lambda z: 0j),
    "power-bool": lambda: EigenSequence(power=True, prefactor=1.0),
    "power-huge": lambda: EigenSequence(power=_HUGE, prefactor=1.0),
    "power-huger": lambda: EigenSequence(power=_HUGER, prefactor=1.0),
    "head-count-float": lambda: EigenSequence(power=1.0, prefactor=1.0, head=((2.0, 1.5),)),
    "tail-bound-str": lambda: required_tail_length("1", 1.0),
    "tail-bound-bool": lambda: required_tail_length(True, 1.0),
    "tail-rate-huge": lambda: required_tail_length(1.0, _HUGE),
    "log-gamma-str": lambda: log_gamma("2.5"),
    "log-gamma-bool": lambda: log_gamma(True),
    "log-gamma-huge": lambda: log_gamma(_HUGE),
    "log-barnes-g-bool": lambda: log_barnes_g(True),
    "factor-str": lambda: ConformalFactor(("0", "0.3", "0")),
    "factor-bool": lambda: ConformalFactor((False, True, False)),
    "k-bool": lambda: k_convergence_table(DiscGeometry(1.0), _FACTOR, [0.0, 0.5, 1.0], (True,)),
    "t-grid-str": lambda: k_convergence_table(DiscGeometry(1.0), _FACTOR, ["0", "0.5", "1"], (16,)),
    "t-grid-bool": lambda: k_convergence_table(DiscGeometry(1.0), _FACTOR, [False, True, 2], (16,)),
    "omega-not-a-factor": lambda: k_convergence_table(DiscGeometry(1.0), (0.0, 0.3, 0.0), [0.0, 0.5, 1.0], (16,)),
    "matrix-entry-huger": lambda: MobiusTransform(_HUGER, 0, 0, 1),
    "generator-not-a-transform": lambda: GroupPresentation(((2.0, 0.0, 0.0, 0.5),)),
    "labels-not-strings": lambda: GroupPresentation((_DILATION, claims.schottky_pair().generators[1]), (1, 2)),
    "labels-not-distinct": lambda: GroupPresentation((_DILATION, claims.schottky_pair().generators[1]), ("a", "a")),
    "max-word-len-bool": lambda: enumerate_primitive_classes(GroupPresentation((_DILATION,)), 5.0, max_word_len=True),
    "multiplicity-huger": lambda: SpectrumEntry(1.0, _HUGER),
    "entries-not-entries": lambda: LengthSpectrum(entries=((1.0, 1),), cutoff=2.0, complete_up_to=2.0),
    "spectrum-entries-not-a-list": lambda: spectrum_from_json('{"cutoff": 2.0, "complete_up_to": 2.0, "entries": {}}'),
    "spectrum-entry-not-an-object": lambda: spectrum_from_json('{"cutoff": 2.0, "complete_up_to": 2.0, "entries": [1]}'),
    "spectrum-entry-missing-field": lambda: spectrum_from_json(
        '{"cutoff": 2.0, "complete_up_to": 2.0, "entries": [{"length": 1.0}]}'),
    "spectrum-json-too-deep": lambda: spectrum_from_json(
        '{"cutoff": 2.0, "complete_up_to": 2.0, "entries": ' + "[" * 1200 + "]" * 1200 + "}"),
    "ruelle-lam-str": lambda: ruelle(_SPECTRUM, "1.5", 0.0),
    "selberg-lam-bool": lambda: selberg(_SPECTRUM, True, 0.0),
    "boundary-length-str": lambda: _selberg_boundary(["1.0"], _SPECTRUM, 1.5, 0.0),
    "boundary-length-huge": lambda: _selberg_boundary([_HUGE], _SPECTRUM, 1.5, 0.0),
    "cli-lambda-grid-inf": lambda: cli._parse_lambda_spec("1:inf:0.5"),
    "cli-generator-not-an-object": lambda: cli._load_generators(_file("g.json", '{"generators": [1]}')),
    "cli-label-not-a-string": lambda: cli._load_generators(
        _file("g.json", f'{{"generators": [{_GENERATOR[:-1]}, "label": 5}}]}}')),
    "cli-labels-some": lambda: cli._load_generators(
        _file("g.json", f'{{"generators": [{_GENERATOR[:-1]}, "label": "a"}}, {_GENERATOR}]}}')),
    "cli-generators-json-too-deep": lambda: cli._load_generators(
        _file("g.json", '{"generators": ' + "[" * 1200 + "]" * 1200 + "}")),
    "cli-out-unwritable": lambda: _spectrum_run("missing-dir/s.json"),
    "cli-max-word-len-0": lambda: _spectrum_run("s.json", 0),
    "cli-boundary-malformed": lambda: _zeta_run("1.0,x"),
    # Finite inputs whose result leaves the float range, refused by the result type.
    "log-gamma-value-inf": lambda: log_gamma(1e306),
    "log-barnes-g-square-inf": lambda: log_barnes_g(1.4e154),
    "dirichlet-lam-past-barnes": lambda: log_dirichlet_det(1e160, 1.0, _PANTS, 1.0),
    "functional-lam-far-up": lambda: functional_equation_rhs(0.5 + 1e200j, _PANTS, lambda s: 0.0),
    "log-det-inf": lambda: log_det(EigenSequence(power=1e300, prefactor=1.0, tail_multiplicity=10**10)),
    "head-count-sum-huge": lambda: EigenSequence(power=1.0, prefactor=1.0, head=((1.0, 10**308), (2.0, 10**308))),
    "k-basis-past-budget": lambda: k_convergence_table(DiscGeometry(1.0), _FACTOR, [0.0, 0.5, 1.0], (10**12,)),
}
# Range checks of zeta_reg, refused with InvalidSequenceError.
_INVALID_SEQUENCES = {
    "tail-rate-negative": lambda: required_tail_length(1.0, -1.0),
    "tail-bound-inf": lambda: required_tail_length(math.inf, 1.0),
    "sequence-rate-zero": lambda: EigenSequence(power=1.0, prefactor=1.0, decay_rate=0.0),
    "sequence-bound-negative": lambda: EigenSequence(power=1.0, prefactor=1.0, decay_bound=-1.0),
}


# Each result type with its number fields' names in refusals, bars (>= 0) last.
_RESULTS = {
    "DetReport": (lambda **kw: DetReport(**{"value": 1.0, "ratio": 1.0, "method": "closed_form", **kw}),
                  {"value": "det'", "ratio": "det' / boundary length"},
                  {"error_estimate": "the error bar of det'"}),
    "EvalResult": (lambda **kw: EvalResult(**{"value": 0j, "abs_error_estimate": 0.0, **kw}),
                   {"value": "log Gamma or log G"},
                   {"abs_error_estimate": "the error bar of log Gamma or log G"}),
    "RegularizedDet": (lambda **kw: RegularizedDet(**{"log_value": 0.0, "zeta_at_zero": 0.0, "truncation_error": 0.0, **kw}),
                       {"log_value": "log det'", "zeta_at_zero": "zeta(0)"},
                       {"truncation_error": "the truncation bound of log det'"}),
    "ZetaValue": (lambda **kw: ZetaValue(**{"log_value": 0j, "tail_bound": 0.0, "convergence_abscissa_used": 0.0, **kw}),
                  {"log_value": "the log of the zeta product", "convergence_abscissa_used": "the convergence abscissa used"},
                  {"tail_bound": "the tail bound of the zeta product"}),
}


@pytest.mark.parametrize("result", _RESULTS)
def test_every_result_type_refuses_a_number_past_the_float_range(result):
    # One rule for what a result may hold: each number field finite, each bar
    # also >= 0, refused with DomainError by its name (ValueError, or nothing, before).
    make, values, bars = _RESULTS[result]
    make()
    cases = [(field, name, x) for field, name in values.items() for x in (math.inf, math.nan)]
    cases += [(field, name, x) for field, name in bars.items() for x in (math.inf, math.nan, -1e-300)]
    for field, name, x in cases:
        with pytest.raises(DomainError, match=f"^{re.escape(name)} must be "):
            make(**{field: x})
    assert make(**dict.fromkeys(values, -1.0)) is not None  # a value may be negative


@pytest.mark.parametrize(
    "call, refusal",
    [(call, DomainError) for call in _REFUSED.values()]
    + [(call, InvalidSequenceError) for call in _INVALID_SEQUENCES.values()],
    ids=[*_REFUSED, *_INVALID_SEQUENCES],
)
def test_every_route_refuses_what_is_not_a_number(call, refusal, tmp_path, monkeypatch):
    # The rules of errors (a number is an int or a float, not a bool, a str
    # or an int past the largest double; finite reals, counts and finite
    # complex numbers on top of it) and the input checks no other test
    # reaches.  The number cases raised OverflowError, TypeError or
    # ValueError (formatting an int past 4300 digits), or were converted and
    # accepted.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(refusal):
        call()
