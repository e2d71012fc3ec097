"""Command line surface: computations, verification suites, file I/O.

Subcommands mirror the library modules: closed-form geometry reports
(annulus, disc, cylinder), length-spectrum enumeration to a file,
dynamical zeta evaluation over lambda grids, the normalized-determinant
and doubling pipelines (detdn, theorem4), and the self-verification
suites of dnzeta.claims (verify).

Output contract.  JSON is the canonical machine format and carries a
"schema": 1 field plus a 12-hex config fingerprint; CSV is provided for
lambda grids only; plain is for humans.  A subcommand builds its JSON
document once, and _emit renders only the format asked for from it: a
json call formats no plain line or csv row, and a plain or csv call
writes no JSON.  Every emitted number keeps the error estimate its
module reports.  Output is byte-deterministic for a fixed configuration;
-v writes diagnostics to stderr as JSON lines.

Exit codes: 0 success, 1 validation error (bad flags, malformed input
files, inadmissible parameter combinations), 2 numerical contract
violation (a computation refused its own tolerance or a verify check
failed), reported with the violated invariant's name.

main(argv) may be called repeatedly in one process: the parser tree is
built on the first call and reused by every later one.  When the first
argument names a subcommand, that subcommand's own parser (the one the
tree would hand the rest to) parses the rest directly; anything else
goes through the whole tree: leading shared flags, -h, an unknown name,
an empty argv, and any string the subcommand's parser leaves over, so
the top-level usage, help and "unrecognized arguments" error stay the
tree's.  zeta reads its spectrum file on every call, and parses each text
of at most 64 KiB (ASCII) once per process: the parsed spectra of the 32
such texts used last are kept, at most 2 MiB of text, so a rewritten file
is parsed again and a larger text is parsed on every call.  JSON
documents are written by _json rather than json.dumps: with indent set,
json runs its pure-Python encoder on Python 3.10 and 3.11, which is
slower than writing the same bytes here directly.

Imports.  The module imports at its top only the numpy-free layers the
geometry reports, detdn and theorem4 run on (errors, dn_explicit,
det_engine), and dnzeta.claims, whose suite names argparse needs when
the tree is built.  hyperbolic and zeta_dyn load numpy, which costs more
than the rest of a cold start; spectrum and zeta import them when they
run, so no other subcommand loads numpy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from typing import TYPE_CHECKING

from .claims import SUITES
from .det_engine import SurfaceTopology, theorem2_value, theorem4_pipeline
from .dn_explicit import (
    AnnulusGeometry,
    CylinderGeometry,
    DiscGeometry,
    annulus_det_prime,
    annulus_eigenvalues,
    cylinder_det_prime,
    disc_det_prime,
)
from .errors import DnZetaError, DomainError, _count

if TYPE_CHECKING:
    from .hyperbolic import GroupPresentation, LengthSpectrum

# --kind -> the kind of product zeta_dyn._zeta_grid evaluates over the grid
_KINDS = {"ruelle": "ruelle", "selberg": "selberg", "selberg-g0": "selberg_boundary"}
# Most rows one invocation lists (lambda grid points, annulus modes).
_MAX_ROWS = 10_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves
    # 2 for numerical violations, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_encode_str = json.encoder.encode_basestring_ascii


def _json(value, newline: str = "\n") -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2), for str keys only, without json's Python encoder."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{_encode_str(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(doc: dict, args, fmt: str, fingerprint: str) -> None:
    """Write doc in fmt: plain lines and csv rows are rendered from it only when printed."""
    if fmt == "json":
        sys.stdout.write(_json(dict(doc, schema=1, fingerprint=fingerprint)) + "\n")
    elif fmt == "plain":
        lines = _DISPATCH[args.subcommand][1](doc, args)
        sys.stdout.write("\n".join(lines + [f"fingerprint: {fingerprint}"]) + "\n")
    else:
        sys.stdout.write(f"# fingerprint: {fingerprint}\n" + _csv_zeta(doc))


def _note(record: dict) -> None:
    """Write one -v diagnostic record to stderr as a JSON line; callers build it only under -v."""
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


def _report_doc(report) -> dict:
    return {
        "value": report.value,
        "ratio": report.ratio,
        "method": report.method,
        "error_estimate": report.error_estimate,
        "inputs": report.inputs,
    }


def _report_lines(report: dict) -> list[str]:
    lines = [
        f"value = {_fmt(report['value'])}",
        f"ratio = {_fmt(report['ratio'])}",
        f"method = {report['method']}",
        f"error_estimate = {_fmt(report['error_estimate'])}",
    ]
    inputs = report["inputs"]
    for key in sorted(inputs):
        lines.append(f"input {key} = {inputs[key]}")
    return lines


def _parse_lambda_spec(text: str) -> list[complex]:
    """Single value (real or complex) or inclusive grid A:B:STEP."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"lambda grid must be A:B:STEP, got {text!r}")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError as exc:
            raise DomainError(f"lambda grid must be numeric, got {text!r}") from exc
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(step)):
            raise DomainError(f"lambda grid must be finite, got {text!r}")
        if step <= 0.0:
            raise DomainError(f"lambda grid step must be positive, got {step}")
        if b < a - 1e-12:
            raise DomainError(f"lambda grid end {b} lies before start {a}")
        ratio = (b - a) / step
        if not ratio <= _MAX_ROWS - 1:
            raise DomainError(f"lambda grid {text!r} has more than {_MAX_ROWS} points")
        count = int(round(ratio))
        if abs(a + count * step - b) > 1e-12 * max(1.0, abs(b)):
            count = int(math.floor(ratio))
        return [complex(a + i * step, 0.0) for i in range(count + 1)]
    try:
        return [complex(float(text), 0.0)]
    except ValueError:
        pass
    try:
        return [complex(text)]
    except ValueError as exc:
        raise DomainError(f"could not parse lambda value {text!r}") from exc


def _topology_from_chi(chi: int) -> SurfaceTopology:
    # genus-0 bordered model: chi = 2 - N, so N = 2 - chi boundaries.
    if chi > 1:
        raise DomainError(f"--chi must be at most 1, as a bordered surface has at least one boundary, got {chi}")
    return SurfaceTopology(genus=0, boundary_components=2 - chi)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


# The longest spectrum text zeta parses once per process (see the module
# docstring); only an ASCII text is cached, so 32 of them hold at most
# 2 MiB.  A parse error propagates and is not cached.  Sharing one
# LengthSpectrum between calls is safe: it and its entries are frozen, the
# zeta grid only reads it, and the parse is a function of the text alone.
# spectrum_from_json is looked up on the module at each miss, so a wrapper
# put there sees every parse.
_CACHED_TEXT = 64 * 1024


@functools.lru_cache(maxsize=32)
def _parsed_spectrum(text: str) -> LengthSpectrum:
    from . import hyperbolic

    return hyperbolic.spectrum_from_json(text)


def _load_generators(path: str) -> GroupPresentation:
    from .hyperbolic import GroupPresentation, MobiusTransform

    try:
        data = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # also past Python's 4300-digit limit or nesting depth
        raise DomainError(f"malformed generators JSON in {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("generators"), list):
        raise DomainError('generators file must be {"generators": [{"a":..,"b":..,"c":..,"d":..}, ...]}')
    gens, labels = [], []
    for i, item in enumerate(data["generators"]):
        if not isinstance(item, dict):
            raise DomainError(f"generator {i} must be an object, got {item!r}")
        try:
            gens.append(MobiusTransform(item["a"], item["b"], item["c"], item["d"]))
        except KeyError as exc:
            raise DomainError(f"generator {i} missing entry: {exc}") from exc
        label = item.get("label", "")
        if not isinstance(label, str):
            raise DomainError(f"generator {i} label must be a JSON string, got {json.dumps(label)}")
        labels.append(label)
    if any(labels) and not all(labels):
        raise DomainError("either label every generator or none")
    return GroupPresentation(tuple(gens), tuple(labels) if all(labels) else ())


# ---------------------------------------------------------------- subcommands
#
# Each _run_<name>(args) returns its document and exit code;
# _plain_<name>(doc, args) renders its plain lines from that document, and
# reads args only for a value the document does not carry.


def _run_annulus(args) -> tuple[dict, int]:
    if args.modes is not None and not 0 <= args.modes < _MAX_ROWS:
        raise DomainError(f"--modes must lie in 0..{_MAX_ROWS - 1}, got {args.modes}")
    geom = AnnulusGeometry(args.rho)
    report = annulus_det_prime(geom)
    listed = range(args.modes + 1) if args.modes is not None else ()
    modes = [{"n": n, "eigenvalues": list(annulus_eigenvalues(geom, n))} for n in listed]
    doc = {
        "subcommand": "annulus",
        "geometry": {"rho": geom.rho, "alpha": geom.alpha, "boundary_length": geom.boundary_length},
        "report": _report_doc(report),
    }
    if modes:
        doc["modes"] = modes
    return doc, 0


def _plain_annulus(doc, args) -> list[str]:
    geom = doc["geometry"]
    lines = [f"rho = {_fmt(geom['rho'])}", f"boundary_length = {_fmt(geom['boundary_length'])}"]
    lines += _report_lines(doc["report"])
    for row in doc.get("modes", ()):
        eigs = ", ".join(_fmt(v) for v in row["eigenvalues"])
        lines.append(f"mode {row['n']}: {eigs}")
    return lines


def _run_disc(args) -> tuple[dict, int]:
    report = disc_det_prime(DiscGeometry(args.radius))
    return {"subcommand": "disc", "radius": args.radius, "report": _report_doc(report)}, 0


def _plain_disc(doc, args) -> list[str]:
    return [f"radius = {_fmt(doc['radius'])}"] + _report_lines(doc["report"])


def _run_cylinder(args) -> tuple[dict, int]:
    geom = CylinderGeometry(args.ell)
    report = cylinder_det_prime(geom)
    doc = {
        "subcommand": "cylinder",
        "geometry": {"ell": geom.ell, "bridge_rho": geom.bridge_rho},
        "report": _report_doc(report),
    }
    return doc, 0


def _plain_cylinder(doc, args) -> list[str]:
    geom = doc["geometry"]
    lines = [f"ell = {_fmt(geom['ell'])}", f"bridge_rho = {_fmt(geom['bridge_rho'])}"]
    return lines + _report_lines(doc["report"])


def _run_spectrum(args) -> tuple[dict, int]:
    from .hyperbolic import _displacement_floor, enumerate_primitive_classes, spectrum_to_json

    group = _load_generators(args.generators)
    if args.cutoff is not None:
        cutoff = float(args.cutoff)
    else:
        # the depth is checked first, so a bad one is refused by its own name, not as the
        # l_max derived from it, nor by an OverflowError from the product past a double
        cutoff = _count(args.max_word_len, "max_word_len", 1) * _displacement_floor(group.generators)
    spectrum = enumerate_primitive_classes(group, cutoff, max_word_len=args.max_word_len)
    if getattr(args, "verbose", 0):
        _note({"subcommand": "spectrum", **spectrum._work})
    text = spectrum_to_json(spectrum)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write {args.out}: {exc}") from exc
    summary = {
        "subcommand": "spectrum",
        "classes": len(spectrum.entries),
        "total_multiplicity": sum(e.multiplicity for e in spectrum.entries),
        "cutoff": spectrum.cutoff,
        "complete_up_to": spectrum.complete_up_to,
        "out": args.out,
    }
    return summary, 0


def _plain_spectrum(doc, args) -> list[str]:
    return [f"{k} = {v}" for k, v in sorted(doc.items()) if k != "subcommand"]


def _run_zeta(args) -> tuple[dict, int]:
    from . import hyperbolic, zeta_dyn

    grid = _parse_lambda_spec(args.lam)
    try:
        text = _read_text(args.spectrum)
    except UnicodeDecodeError as exc:
        raise DomainError(f"invalid spectrum JSON in {args.spectrum}: {exc}") from exc
    # the file is read on every call, so a rewritten one is parsed again
    parse = _parsed_spectrum if len(text) <= _CACHED_TEXT and text.isascii() else hyperbolic.spectrum_from_json
    spectrum = parse(text)
    boundary = ()
    if args.kind == "selberg-g0":
        if not args.boundary:
            raise DomainError("--boundary l1,l2,... is required for kind selberg-g0")
        try:
            boundary = [float(x) for x in args.boundary.split(",")]
        except ValueError as exc:
            raise DomainError(f"malformed --boundary list {args.boundary!r}") from exc
    elif args.boundary is not None:
        raise DomainError("--boundary applies to kind selberg-g0 only")

    rows = []
    verbose = getattr(args, "verbose", 0)
    # one pass over the grid; a refused lambda raises in its turn, after the
    # -v records of the rows before it
    for lam, zv in zip(grid, zeta_dyn._zeta_grid(_KINDS[args.kind], spectrum, grid, args.delta_hint, boundary)):
        rows.append((lam, zv))
        if verbose:
            _note({"subcommand": "zeta", "lambda": {"re": lam.real, "im": lam.imag}, **zv._work})

    doc = {
        "subcommand": "zeta",
        "kind": args.kind,
        "delta_hint": args.delta_hint,
        "rows": [
            {
                "lambda": {"re": lam.real, "im": lam.imag},
                "log_value": {"re": zv.log_value.real, "im": zv.log_value.imag},
                "tail_bound": zv.tail_bound,
                "convergence_abscissa_used": zv.convergence_abscissa_used,
            }
            for lam, zv in rows
        ],
    }
    return doc, 0


def _plain_zeta(doc, args) -> list[str]:
    lines = [f"kind = {doc['kind']}", f"spectrum = {args.spectrum}"]
    for row in doc["rows"]:
        lam, log_value = row["lambda"], row["log_value"]
        lines.append(
            f"lambda {_fmt(lam['re'])}{lam['im']:+.17g}j: log_re={_fmt(log_value['re'])} "
            f"log_im={_fmt(log_value['im'])} tail_bound={_fmt(row['tail_bound'])}"
        )
    return lines


def _csv_zeta(doc) -> str:
    csv = ["re_lambda,im_lambda,log_abs,arg,tail_bound"]
    for row in doc["rows"]:
        lam, log_value = row["lambda"], row["log_value"]
        csv.append(",".join(map(_fmt, (lam["re"], lam["im"], log_value["re"], log_value["im"], row["tail_bound"]))))
    return "\n".join(csv) + "\n"


def _run_detdn(args) -> tuple[dict, int]:
    report = theorem2_value(_topology_from_chi(args.chi), ell=args.ell, supplied_limit=args.limit)
    return {"subcommand": "detdn", "chi": args.chi, "report": _report_doc(report)}, 0


def _plain_detdn(doc, args) -> list[str]:
    return [f"chi = {doc['chi']}"] + _report_lines(doc["report"])


def _run_theorem4(args) -> tuple[dict, int]:
    topo = _topology_from_chi(args.chi)
    report = theorem4_pipeline(args.zg1, args.zg01, topo, args.ell)
    return {"subcommand": "theorem4", "chi": args.chi, "report": _report_doc(report)}, 0


def _plain_theorem4(doc, args) -> list[str]:
    return [f"chi = {doc['chi']}", f"ell = {_fmt(args.ell)}"] + _report_lines(doc["report"])


def _run_verify(args) -> tuple[dict, int]:
    order = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    verbose = getattr(args, "verbose", 0)
    for name in order:
        if verbose:
            _note({"subcommand": "verify", "suite": name})
        checks.extend(SUITES[name]())
    all_passed = all(c.passed for c in checks)
    doc = {
        "subcommand": "verify",
        "suite": args.suite,
        "checks": [c._asdict() for c in checks],
        "passed": all_passed,
    }
    return doc, 0 if all_passed else 2


def _plain_verify(doc, args) -> list[str]:
    checks = doc["checks"]
    lines = []
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"{status}  {c['name']}  max_err={c['max_err']:.3e}  tol={c['tolerance']:.3e}")
    lines.append(f"suite {doc['suite']}: {sum(c['passed'] for c in checks)}/{len(checks)} passed")
    return lines


# ---------------------------------------------------------------- wiring


# Built once per process, on the first main() call, and reused after
# that.  Returns the tree and the name -> subparser map of its
# _SubParsersAction; main() parses an argv that starts with a name with
# that subparser alone, the same call the tree makes, so errors and help
# are the same on both paths.  Reuse carries no state between calls:
# each parse returns a fresh Namespace; the shared flags default to
# SUPPRESS, so --format and -v from one call never reach the next;
# subparser progs are "dnzeta <name>", independent of terminal width;
# and help width, print_help and _Parser.error look up COLUMNS,
# sys.stdout and sys.stderr when they run, not when the parser is built.
@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    # Shared flags accept both positions (dnzeta --format json annulus /
    # dnzeta annulus --format json); SUPPRESS keeps an absent later flag
    # from clobbering an earlier one with its default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"), default=argparse.SUPPRESS,
                        help="output format (default: json; verify defaults to plain)")
    common.add_argument("-v", "--verbose", action="count", default=argparse.SUPPRESS,
                        help="diagnostics on stderr; stdout stays deterministic")
    parser = _Parser(prog="dnzeta", description=__doc__.split("\n\n")[0], parents=[common])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("annulus", help="det' report for the flat annulus 1 < |z| < rho")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--modes", type=int, default=None, help="list eigenvalue pairs for modes 0..K")

    p = add_parser("disc", help="det' report for the flat disc")
    p.add_argument("--radius", type=float, required=True)

    p = add_parser("cylinder", help="det' report for the hyperbolic cylinder")
    p.add_argument("--ell", type=float, required=True)

    p = add_parser("spectrum", help="enumerate a primitive length spectrum to a JSON file")
    p.add_argument("--generators", required=True, metavar="FILE")
    p.add_argument("--max-word-len", type=int, required=True)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--cutoff", type=float, default=None,
                   help="length cutoff (default: max-word-len times half the shortest generator displacement)")

    p = add_parser("zeta", help="dynamical zeta values over a lambda grid")
    p.add_argument("--spectrum", required=True, metavar="FILE")
    p.add_argument("--kind", choices=_KINDS, required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="A[:B:STEP]")
    p.add_argument("--boundary", default=None, metavar="l1,l2",
                   help="boundary geodesic lengths (selberg-g0 only)")
    p.add_argument("--delta-hint", type=float, default=0.0,
                   help="trusted convergence abscissa; tail bounds are only as honest as this hint")

    p = add_parser("detdn", help="normalized determinant det'(N)/ell by Euler characteristic")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--ell", type=float, default=None)
    p.add_argument("--limit", type=float, default=None)

    p = add_parser("theorem4", help="doubling pipeline: closed form vs gluing rearrangement")
    p.add_argument("--zg1", type=float, required=True, help="Z'_G(1) of the doubled surface")
    p.add_argument("--zg01", type=float, required=True, help="Z_G0(1) of the boundary system")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--ell", type=float, required=True)

    p = add_parser("verify", help="self-verification suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), required=True)
    return parser, sub.choices


# subcommand -> (_run_<name>, _plain_<name>)
_DISPATCH = {
    "annulus": (_run_annulus, _plain_annulus),
    "disc": (_run_disc, _plain_disc),
    "cylinder": (_run_cylinder, _plain_cylinder),
    "spectrum": (_run_spectrum, _plain_spectrum),
    "zeta": (_run_zeta, _plain_zeta),
    "detdn": (_run_detdn, _plain_detdn),
    "theorem4": (_run_theorem4, _plain_theorem4),
    "verify": (_run_verify, _plain_verify),
}
# Writes the fingerprint's canonical text, the text of json.dumps(payload,
# sort_keys=True, separators=(",", ":")), which builds a new encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _format_and_fingerprint(args) -> tuple[str, str]:
    """Output format and the 12-hex fingerprint of the run parameters, carried by every output."""
    paths = {"generators": "input", "spectrum": "input", "out": "output"}
    payload = {"subcommand": args.subcommand, "params": {}, "input": None, "output": None}
    for key, value in vars(args).items():
        if key in paths:
            payload[paths[key]] = value
        elif key not in ("subcommand", "format", "verbose"):
            payload["params"][key] = value
    fmt = getattr(args, "format", "plain" if args.subcommand == "verify" else "json")
    if fmt == "csv" and args.subcommand != "zeta":
        raise DomainError("csv output applies to lambda grids only")
    payload["format"] = fmt
    return fmt, hashlib.sha256(_CANONICAL.encode(payload).encode("utf-8")).hexdigest()[:12]


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser, subparsers = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv and argv[0] in subparsers else None
    try:
        if name is not None:
            args, rest = subparsers[name].parse_known_args(argv[1:])
            args.subcommand = name
        if name is None or rest:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        fmt, fingerprint = _format_and_fingerprint(args)
        if getattr(args, "verbose", 0):
            _note({"subcommand": args.subcommand, "fingerprint": fingerprint})
        doc, code = _DISPATCH[args.subcommand][0](args)
        _emit(doc, args, fmt, fingerprint)
        return code
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except DnZetaError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
