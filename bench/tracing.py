"""Span tracer installed around dnzeta's public functions from outside the package.

Every public function of a traced module, and the ``__post_init__`` of
every public dataclass it defines, is replaced by a wrapper that records
a span (name, layer, start, end, parent, request id, raised).  The
wrapper is bound in every ``dnzeta`` module namespace that holds the
original object, because ``cli`` and ``dn_explicit`` import functions by
name.  ``numpy.linalg.eigh`` gets a span of its own so the cost of the
eigensolver shows apart from the ``numeric_dn`` code around it.

Spans stay in memory and are reduced to per-layer numbers after the
run.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("specfun", "zeta_reg", "dn_explicit", "hyperbolic", "zeta_dyn", "det_engine", "numeric_dn", "cli")

# Computed operation count of a dense symmetric eigendecomposition with
# eigenvectors (Golub & Van Loan, symmetric QR): about 9 n^3 flops.
_EIGH_FLOPS_PER_N3 = 9.0

_NAME, _LAYER, _START, _END, _PARENT, _REQUEST, _RAISED = range(7)


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._used_entries: dict[int, tuple[object, int]] = {}

    # ------------------------------------------------------------ recording

    def count(self, key: str, amount: float) -> None:
        if self._patches:  # only while installed, like the spans
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def _wrap(self, layer: str, name: str, fn, hook=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, False]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_RAISED] = True
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap the public surface of every traced layer."""
        if self._patches:
            return
        replacements: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dnzeta.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, f"{layer}.{attr}", obj, _HOOKS.get(f"{layer}.{attr}"))
                    replacements[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    name = f"{layer}.{attr}.__post_init__"
                    original = vars(obj)["__post_init__"]
                    self._patch(obj, "__post_init__", self._wrap(layer, name, original, _HOOKS.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "dnzeta" or mod_name.startswith("dnzeta.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        import numpy.linalg

        self._patch(numpy.linalg, "eigh", self._wrap("eigh", "numpy.linalg.eigh", numpy.linalg.eigh, _eigh_hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._used_entries.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ------------------------------------------------------------ output

    def write(self, path: str, n_spans: int) -> None:
        """The first n_spans spans as JSON lines, times in seconds from the first start."""
        spans = self.spans[:n_spans]
        t0 = spans[0][_START] if spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(spans):
                row = {"id": i, "name": s[_NAME], "start": s[_START] - t0, "end": s[_END] - t0,
                       "parent": s[_PARENT], "request": s[_REQUEST], "raised": s[_RAISED]}
                handle.write(json.dumps(row) + "\n")

    # ------------------------------------------------------------ reduction

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer totals over the recorded spans, divided by `passes`."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        errors = dict.fromkeys(LAYERS, 0)
        inclusive: dict[str, float] = {}
        for i, span in enumerate(spans):
            name, layer = span[_NAME], span[_LAYER]
            duration = span[_END] - span[_START]
            inclusive[name] = inclusive.get(name, 0.0) + duration
            if layer not in calls:
                continue
            if not name.endswith(".__post_init__"):  # constructors add time, not calls
                calls[layer] += 1
            self_s[layer] += duration - child_time[i]
            parent = span[_PARENT]
            if span[_RAISED] and (parent < 0 or spans[parent][_LAYER] != layer):
                errors[layer] += 1
        c = self.counters
        eigh_s = inclusive.get("numpy.linalg.eigh", 0.0)
        enum_s = inclusive.get("hyperbolic.enumerate_primitive_classes", 0.0)
        io_s = inclusive.get("hyperbolic.spectrum_to_json", 0.0) + inclusive.get("hyperbolic.spectrum_from_json", 0.0)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.errors"] = errors[layer] + c.get(f"{layer}.errors", 0)
        out["zeta_reg.tail_terms"] = c.get("zeta_reg.tail_terms", 0)
        out["zeta_reg.ns_per_term"] = _ratio(self_s["zeta_reg"] * 1e9, out["zeta_reg.tail_terms"])
        out["specfun.us_per_call"] = _ratio(self_s["specfun"] * 1e6, calls["specfun"])
        out["hyperbolic.classes_kept"] = c.get("hyperbolic.classes_kept", 0)
        out["hyperbolic.us_per_class"] = _ratio(enum_s * 1e6, out["hyperbolic.classes_kept"])
        out["hyperbolic.screen_s"] = inclusive.get("hyperbolic.GroupPresentation.__post_init__", 0.0)
        out["hyperbolic.io_s"] = io_s
        out["hyperbolic.io_bytes"] = c.get("hyperbolic.io_bytes", 0)
        out["zeta_dyn.ladder_factors"] = sum(
            1 for s in spans if s[_NAME] == "zeta_dyn.ruelle" and s[_PARENT] >= 0 and spans[s[_PARENT]][_NAME] == "zeta_dyn.selberg"
        )
        out["zeta_dyn.entry_terms"] = c.get("zeta_dyn.entry_terms", 0)
        out["zeta_dyn.ns_per_term"] = _ratio(self_s["zeta_dyn"] * 1e9, out["zeta_dyn.entry_terms"])
        out["numeric_dn.eigh_calls"] = sum(1 for s in spans if s[_LAYER] == "eigh")
        out["numeric_dn.eigh_s"] = eigh_s
        out["numeric_dn.eigh_gflop"] = c.get("numeric_dn.eigh_gflop", 0.0)
        out["numeric_dn.gflops"] = _ratio(out["numeric_dn.eigh_gflop"], eigh_s)
        out["cli.stdout_bytes"] = c.get("cli.stdout_bytes", 0)
        rates = {k for k in out if k.endswith(("ns_per_term", "us_per_call", "us_per_class", ".gflops"))}
        return {k: (v if k in rates else v / passes) for k, v in out.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------- counters


def _log_det_hook(tracer: Tracer, args, result) -> None:
    tracer.count("zeta_reg.tail_terms", len(args[0].corrections))


def _enumerate_hook(tracer: Tracer, args, result) -> None:
    tracer.count("hyperbolic.classes_kept", sum(e.multiplicity for e in result.entries))


def _to_json_hook(tracer: Tracer, args, result) -> None:
    tracer.count("hyperbolic.io_bytes", len(result))


def _from_json_hook(tracer: Tracer, args, result) -> None:
    tracer.count("hyperbolic.io_bytes", len(args[0]))


def _ruelle_hook(tracer: Tracer, args, result) -> None:
    # Entries inside the completeness window, the ones a factor sums over.
    spectrum = args[0]
    cached = tracer._used_entries.get(id(spectrum))
    if cached is None or cached[0] is not spectrum:
        window = spectrum.complete_up_to + 1e-9
        cached = (spectrum, sum(1 for e in spectrum.entries if e.length <= window))
        tracer._used_entries[id(spectrum)] = cached
    tracer.count("zeta_dyn.entry_terms", cached[1])


def _eigh_hook(tracer: Tracer, args, result) -> None:
    n = args[0].shape[0]
    tracer.count("numeric_dn.eigh_gflop", _EIGH_FLOPS_PER_N3 * n**3 * 1e-9)


def _main_hook(tracer: Tracer, args, result) -> None:
    if result:
        tracer.count("cli.errors", 1)


_HOOKS = {
    "zeta_reg.log_det": _log_det_hook,
    "hyperbolic.enumerate_primitive_classes": _enumerate_hook,
    "hyperbolic.spectrum_to_json": _to_json_hook,
    "hyperbolic.spectrum_from_json": _from_json_hook,
    "zeta_dyn.ruelle": _ruelle_hook,
    "cli.main": _main_hook,
}
