"""In-process tracer for the per-layer run.

The tracer wraps the public functions and methods of every ``ptscatter``
module from the outside: each name is patched in the namespace of the module
that calls it (``ptscatter.cli.numeric_coefficients``,
``ptscatter.potentials.gamma_ratio``, ...) and each public method on the
class that defines it.  Nothing under ``src/`` changes, and ``uninstall``
puts every original back.

A span is recorded for every wrapped call that crosses from one layer (module)
into another: trace id (one per CLI invocation), span id, parent span, layer,
name, start, end, self time and the exception type if one escaped.  Calls
inside a layer add no span, since their time belongs to that layer either way.
A layer's self time is its span time minus the time covered by its child
spans.  Spans are kept in compact arrays in memory and written out when the
run ends.

Besides spans, a few counters are taken at the same functions (the hooks in
``Tracer.__init__``); ``LocalPotential.evaluate`` is counted, not spanned,
because it runs once per integration sub-step.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import re
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "core", "specfun", "potentials", "numeric", "separable", "symmetry", "current")
SPAN_COLUMNS = {"trace": "i", "span": "q", "parent": "q", "layer": "b", "name": "i",
                "start": "d", "end": "d", "self": "d", "error": "i"}


def _layer(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def computed_steps(v, cfg) -> int:
    """RK4 steps of one sweep: each segment between breakpoints (support edges
    and matching points included) is cut into ceil(length / step) steps."""
    x0, x1 = v.x_left - cfg.match_margin, v.x_right + cfg.match_margin
    pts = sorted({x0, v.x_left, v.x_right, x1} | {b for b in v.breakpoints if x0 < b < x1})
    return sum(max(1, math.ceil((c - a) / cfg.step)) for a, c in zip(pts[:-1], pts[1:]))


class Tracer:
    """Spans and counters for one traced pass over a workload's invocations."""

    def __init__(self, package):
        self.package = package
        self.counts: Counter = Counter()
        self.trace_id = 0
        self.names: list = []
        self.errors: list = []
        self.spans = {key: array(code) for key, code in SPAN_COLUMNS.items()}
        self._stack: list = []     # open spans: [span id, layer, time covered by children]
        self._next_id = 0
        self._patches: list = []
        self._default_cfg = package.numeric.IntegrationConfig()
        self._hooks = {
            "integrate_batch": self._on_integrate_batch,
            "as_wavenumber": self._on_as_wavenumber,
            "check_s_relations": self._on_relations,
            "multi_well_transfer": self._on_lattice_row,
            "square_well_potential": self._count_evaluations,
            "lattice_potential": self._count_evaluations,
            "scarf_potential": self._count_evaluations,
            "centrifugal_potential": self._count_evaluations,
            "sampled_potential": self._count_evaluations,
        }
        self._signatures: dict = {}

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap every public function and method reachable from the package modules."""
        for name in LAYERS:
            module = getattr(self.package, name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith("ptscatter."):
                    self._patch(module, attr, self._wrap(obj, obj.__name__))
                elif (isinstance(obj, type) and obj.__module__ == module.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj)

    def _wrap_class(self, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self._wrap(obj.__func__, qual, _layer(cls)))
            elif isinstance(obj, property):
                new = property(self._wrap(obj.fget, qual, _layer(cls)), obj.fset, obj.fdel, obj.__doc__)
            elif isinstance(obj, types.FunctionType):
                new = self._wrap(obj, qual, _layer(cls))
            else:
                continue
            self._patch(cls, attr, new)

    def _patch(self, target, attr, new):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, new)

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name, layer=None):
        layer = layer or _layer(fn)
        hook = self._hooks.get(fn.__name__)
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if parent is not None and parent[1] == layer:
                # a call inside the layer: its time is the layer's either way
                if hook is None:
                    return fn(*args, **kwargs)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    hook(fn, args, kwargs, None, exc)
                    raise
                return hook(fn, args, kwargs, result, None)
            tracer.counts[(layer, "calls")] += 1
            frame = [tracer._next_id, layer, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, parent, name_id, t0, type(exc).__name__)
                if hook:
                    hook(fn, args, kwargs, None, exc)
                raise
            tracer._close(frame, parent, name_id, t0, None)
            return hook(fn, args, kwargs, result, None) if hook else result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = fn.__doc__
        return span

    def _close(self, frame, parent, name_id, t0, error):
        t1 = perf_counter()
        self._stack.pop()
        duration = t1 - t0
        if parent is not None:
            parent[2] += duration
        cols = self.spans
        cols["trace"].append(self.trace_id)
        cols["span"].append(frame[0])
        cols["parent"].append(parent[0] if parent else -1)
        cols["layer"].append(LAYERS.index(frame[1]))
        cols["name"].append(name_id)
        cols["start"].append(t0)
        cols["end"].append(t1)
        cols["self"].append(duration - frame[2])
        if error is not None and error not in self.errors:
            self.errors.append(error)
        cols["error"].append(-1 if error is None else self.errors.index(error))

    # -- counters taken at layer boundaries ------------------------------------

    def _bind(self, fn, args, kwargs):
        sig = self._signatures.get(fn)
        if sig is None:
            sig = self._signatures[fn] = inspect.signature(fn)
        return sig.bind(*args, **kwargs).arguments

    def _on_integrate_batch(self, fn, args, kwargs, result, error):
        a = self._bind(fn, args, kwargs)
        self.counts[("numeric", "sweeps")] += 1
        self.counts[("numeric", "k")] += len(a["ks"])
        self.counts[("numeric", "steps")] += computed_steps(a["v"], a.get("cfg") or self._default_cfg)
        return result

    def _on_as_wavenumber(self, fn, args, kwargs, result, error):
        self.counts[("core", "wavenumber_checks")] += 1
        return result

    def _on_relations(self, fn, args, kwargs, result, error):
        if result is not None:
            self.counts[("symmetry", "relations")] += len(result.records)
        return result

    def _on_lattice_row(self, fn, args, kwargs, result, error):
        self.counts[("potentials", "rows")] += 1
        if type(error).__name__ == "TransferOverflow":
            self.counts[("potentials", "overflow_rows")] += 1
        return result

    def _count_evaluations(self, fn, args, kwargs, result, error):
        """Swap in an evaluate that counts its calls against the calling layer."""
        if result is None:
            return result
        evaluate, stack, counts = result.evaluate, self._stack, self.counts

        def counted(x):
            counts[(stack[-1][1] if stack else "none", "v_evals")] += 1
            return evaluate(x)

        return dataclasses.replace(result, evaluate=counted)

    # -- summaries ------------------------------------------------------------

    def columns(self) -> dict:
        return {key: np.frombuffer(col, dtype=col.typecode) if len(col) else np.zeros(0, col.typecode)
                for key, col in self.spans.items()}

    def span_count(self) -> int:
        return len(self.spans["span"])

    def self_times(self) -> dict:
        cols = self.columns()
        per_layer = np.bincount(cols["layer"], weights=cols["self"], minlength=len(LAYERS))
        return {layer: float(t) for layer, t in zip(LAYERS, per_layer)}

    def command_time(self) -> float:
        """Sum of the root spans: the traced time of the CLI commands themselves."""
        cols = self.columns()
        root = cols["parent"] == -1
        return float(np.sum(cols["end"][root] - cols["start"][root]))

    def write(self, path, invocations: list):
        """Write the spans (one row per span, names and errors as indices) to an .npz file."""
        np.savez(path, layers=np.array(LAYERS), names=np.array(self.names),
                 errors=np.array(self.errors, dtype=str), invocations=np.array(invocations),
                 **self.columns())


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Import metrics from ``python -X importtime -c 'import ptscatter.cli'``."""
    total = own = 0
    first: dict = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cum_us, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
        ours = name == "ptscatter" or name.startswith("ptscatter.")
        if ours:
            own += self_us
            if indent == 1:
                total += cum_us
        first.setdefault(name, cum_us)
    return {"import.total_s": total * 1e-6,
            "import.scipy_integrate_s": first.get("scipy.integrate", 0) * 1e-6,
            "import.scipy_special_s": first.get("scipy.special", 0) * 1e-6,
            "import.ptscatter_self_s": own * 1e-6}
