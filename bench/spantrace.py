"""Span recorder for the traced benchmark run.

Run as a script, it executes the countreg command line with a span around
every call into the layer functions listed in ``TARGETS`` and writes the
spans to a JSON file when the command ends::

    PYTHONPATH=src python3 bench/spantrace.py SPANS.json -- fit --data d.csv --config run.json

countreg modules import their helpers by name (``from .fit import fit_nb``),
so a wrapper is installed in every countreg module namespace that holds the
function, the defining module included; call-time imports such as
``from .special import ln_gamma`` then see the wrapper too.  Nothing under
``src/`` is changed.  The spans stay in memory as parallel arrays
(name, start, end, parent) until the command returns.

Imported as a module, it provides the self-time arithmetic and the layer
metrics that ``run.py`` derives from a spans file.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Layer (countreg module) -> functions that get a span.  The two private
# likelihood names are listed because fit.py evaluates the truncated NB part
# only through them.
TARGETS = {
    "data": ("read_csv", "encode", "encode_columns"),
    "simulate": ("generate", "recovery_study"),
    "fit": ("fit_poisson", "fit_nb", "fit_hnb"),
    "likelihood": (
        "link_mean",
        "link_hurdle",
        "poisson_loglik",
        "poisson_score",
        "nb_loglik",
        "nb_score",
        "_truncated_nb_loglik_terms",
        "_truncated_nb_score",
        "hnb_loglik",
        "hnb_loglik_parts",
        "hnb_score",
    ),
    # Not ln_gamma_ratio(_grid): hnb_mean_var calls them about 8 times per
    # row, and a span per call would cost about as much as the call.
    "special": ("ln_gamma", "digamma"),
    "distributions": ("hnb_mean_var",),
    "diagnostics": ("pearson", "deviance_residuals", "frequency_table"),
    "inference": ("wald_table", "irr", "aic", "compare"),
}
ROOT = "cli.main"
LAYERS = ("cli",) + tuple(TARGETS)
# Log-likelihood and score evaluations; the others in TARGETS["likelihood"]
# are links and the hnb_loglik -> hnb_loglik_parts delegation.
EVALS = frozenset(
    f"likelihood.{name}"
    for name in (
        "poisson_loglik",
        "poisson_score",
        "nb_loglik",
        "nb_score",
        "_truncated_nb_loglik_terms",
        "_truncated_nb_score",
        "hnb_loglik",
        "hnb_score",
    )
)


def _fit_attrs(model):
    return {"iterations": int(model.iterations), "warnings": len(model.warnings)}


class SpanRecorder:
    """Spans of one single-threaded process, in order of their start."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` with a span named ``name`` around each call.

        ``attrs`` maps the return value to extra fields kept on the span.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self._stack, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if attrs is not None:
                self.attrs[idx] = attrs(result)
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "attrs": {str(idx): value for idx, value in self.attrs.items()},
        }


def install(recorder: SpanRecorder):
    """Wrap every function in ``TARGETS`` wherever countreg holds it.

    Returns a function that puts the originals back.
    """
    import countreg  # noqa: F401 - loads every countreg module

    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "countreg"]
    undo = []
    for layer, functions in TARGETS.items():
        defining = sys.modules[f"countreg.{layer}"]
        for fn_name in functions:
            original = getattr(defining, fn_name)
            wrapper = recorder.wrap(
                f"{layer}.{fn_name}", original, _fit_attrs if layer == "fit" else None
            )
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))

    def restore():
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    return restore


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in start]
    for idx, par in enumerate(parent):
        if par >= 0:
            children[par].append(idx)
    out = []
    for idx, kids in enumerate(children):
        lo, hi = start[idx], end[idx]
        covered, cursor = 0.0, lo
        for kid in sorted(kids, key=start.__getitem__):
            a, b = max(start[kid], cursor), min(end[kid], hi)
            if b > a:
                covered += b - a
            cursor = max(cursor, b)
        out.append(hi - lo - covered)
    return out


def layer_metrics(spans: dict) -> dict:
    """Per-layer counts and times from one traced command's spans.

    ``<layer>.self_s`` sums self time over the layer's spans, so the layers
    add up to the root span.  ``<layer>.<function>.s`` is the inclusive time
    of the function's calls, and ``.calls`` their number.  Fits and
    likelihood evaluations are counted where they are entered from another
    layer, so a Poisson start fit inside ``fit_nb`` is part of that fit.
    """
    names = [spans["names"][i] for i in spans["name"]]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    selfs = self_times(start, end, parent)
    layer_of = [name.split(".", 1)[0] for name in names]
    roots = [i for i, par in enumerate(parent) if par < 0]
    if len(roots) != 1 or names[roots[0]] != ROOT:
        raise ValueError(f"expected one {ROOT} root span, found {[names[i] for i in roots]}")

    def entered(idx):
        par = parent[idx]
        return par < 0 or layer_of[par] != layer_of[idx]

    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    for idx, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + end[idx] - start[idx]

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for idx, layer in enumerate(layer_of):
        m[f"{layer}.self_s"] += selfs[idx]

    fits = [i for i, layer in enumerate(layer_of) if layer == "fit" and entered(i)]
    fit_attrs = [spans["attrs"].get(str(i), {}) for i in fits]
    m["fit.calls"] = len(fits)
    m["fit.iterations"] = sum(a.get("iterations", 0) for a in fit_attrs)
    m["fit.warnings"] = sum(a.get("warnings", 0) for a in fit_attrs)
    evals = sum(1 for i, name in enumerate(names) if name in EVALS and entered(i))
    m["likelihood.evals"] = evals
    m["likelihood.evals_per_iteration"] = evals / m["fit.iterations"] if m["fit.iterations"] else 0.0

    for name in (
        "data.read_csv",
        "data.encode",
        "simulate.generate",
        "special.digamma",
        "special.ln_gamma",
        "distributions.hnb_mean_var",
        "diagnostics.pearson",
        "diagnostics.deviance_residuals",
        "diagnostics.frequency_table",
    ):
        m[f"{name}.s"] = inclusive.get(name, 0.0)
    for name in ("simulate.generate", "special.digamma", "special.ln_gamma", "distributions.hnb_mean_var"):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["simulate.recovery_study.self_s"] = sum(
        s for s, name in zip(selfs, names) if name == "simulate.recovery_study"
    )
    m["inference.s"] = sum(
        end[i] - start[i] for i, layer in enumerate(layer_of) if layer == "inference" and entered(i)
    )
    m["trace.main_s"] = end[roots[0]] - start[roots[0]]
    m["trace.spans"] = len(names)
    return m


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spantrace.py SPANS.json -- COUNTREG-ARGS...", file=sys.stderr)
        return 1
    recorder = SpanRecorder()
    install(recorder)
    from countreg.cli import main as countreg_main

    try:
        code = recorder.wrap(ROOT, countreg_main)(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(recorder.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
