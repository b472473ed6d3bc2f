"""Per-layer spans and counters, recorded from outside the package.

The tracer wraps every public function of each layer module and patches the
wrapper in at every name the package holds for it: the defining module's own
attribute (so intra-module calls such as the root-find's repeated
``gating_efficiency`` are seen) and every name-imported alias in another
module (``protocol.gating_efficiency``, ``cli.mean_photon``, ...).  Nothing
under ``src/`` is edited; ``uninstall`` restores the originals.

Functions called once per shot get a call counter instead of a span, and a
few helpers called once per quadrature sample are not wrapped at all (see
``UNWRAPPED``), so that tracing does not swamp the work it measures.
``shifted_frequency`` is counted only where another layer calls it (see
``ALIASES_ONLY``).
Spans are kept in memory as [name, parent, start, end] and written out by
the caller when the run ends.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = (
    "cli",
    "device",
    "protocol",
    "cavity",
    "measurement",
    "hilbert",
    "qubit",
    "semiclassical",
    "analysis",
)

#: called once per shot (``shifted_frequency`` also per mean-field root):
#: counted, never timed
COUNTED = frozenset(
    {
        "protocol.run_shot",
        "protocol.resolve_eta",
        "measurement.detect",
        "qubit.exponential_time",
        "cavity.transmission_coeff",
        "cavity.shifted_frequency",
    }
)

#: wrapped at the names other layers call them through, but not in their own
#: module, where they run once per quadrature sample
ALIASES_ONLY = frozenset({"cavity.shifted_frequency"})

#: helpers called once per quadrature sample inside their own layer; a wrapper
#: would cost more than the call and inflate its callers' self times, so they
#: are left alone and their time stays with the caller
UNWRAPPED = frozenset(
    {
        "cavity.adaptive_simpson",
        "cavity.pulse_amplitude_spectrum",
        "cavity.reflection_coeff",
    }
)

#: extra counters derived from a wrapped function's return value
RETURN_COUNTERS = {
    # a bistable drive point returns three roots (two stable, one unstable)
    "semiclassical.steady_state_photons": ("semiclassical.bistable_hits", lambda roots: len(roots) == 3),
}

PACKAGE = "photon_transistor"
OP = "bench.op"


class Tracer:
    """Installs the wrappers and turns each traced op into per-op metrics."""

    def __init__(self):
        self._on = [False]  # True inside a traced op; a list cell is cheaper to read than an attribute
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # errors and derived counters
        self._cells: dict[str, list[int]] = {}  # call counts of the COUNTED functions
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        home = {}  # wrapped function -> the module that defines it
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name not in UNWRAPPED:
                    wrappers[fn] = self._wrap(name, fn)
                if name in ALIASES_ONLY:
                    home[fn] = mod
        namespaces = list(modules.values()) + [importlib.import_module(PACKAGE)]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers and home.get(val) is not mod:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _count_error(self, layer: str, exc: BaseException) -> None:
        # an exception unwinding through several wrapped calls of one layer counts once
        seen = getattr(exc, "_bench_layers", None)
        if seen is None:
            seen = exc._bench_layers = set()
        if layer not in seen:
            seen.add(layer)
            self.counts[f"{layer}.errors"] += 1

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        tracer = self
        on = self._on
        calls_key = f"{name}.calls"
        derived = RETURN_COUNTERS.get(name)

        if name in COUNTED:
            cell = self._cells.setdefault(calls_key, [0])

            def counted(*args, **kwargs):
                if on[0]:
                    cell[0] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    if on[0]:
                        tracer._count_error(layer, exc)
                    raise

            wrapper = counted
        else:

            def spanned(*args, **kwargs):
                if not on[0]:
                    return fn(*args, **kwargs)
                spans = tracer.spans
                idx = len(spans)
                span = [name, tracer.stack[-1], time.perf_counter(), 0.0]
                spans.append(span)
                tracer.stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer._count_error(layer, exc)
                    raise
                finally:
                    span[3] = time.perf_counter()
                    tracer.stack.pop()
                if derived is not None and derived[1](out):
                    tracer.counts[derived[0]] += 1
                return out

            wrapper = spanned
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- one traced op ------------------------------------------------------

    @contextmanager
    def op(self):
        """Record one op under a root span; yields a dict filled with its metrics."""
        before = self._snapshot()
        root = len(self.spans)
        span = [OP, -1, 0.0, 0.0]
        self.spans.append(span)
        self.stack = [root]
        result: dict = {}
        self._on[0] = True
        span[2] = time.perf_counter()
        try:
            yield result
        finally:
            span[3] = time.perf_counter()
            self._on[0] = False
            self.stack = []
            result.update(self._op_metrics(root, before))

    def _snapshot(self) -> Counter:
        snap = Counter(self.counts)
        snap.update({key: cell[0] for key, cell in self._cells.items()})
        return snap

    def _op_metrics(self, root: int, before: Counter) -> dict:
        spans = self.spans[root:]
        child = [0.0] * len(spans)
        for s in spans[1:]:
            child[s[1] - root] += s[3] - s[2]
        out: dict[str, float] = defaultdict(float)
        for k, (name, parent, start, end) in enumerate(spans):
            self_s = (end - start) - child[k]
            layer = name.split(".", 1)[0]
            out[f"{name}.self_s"] += self_s
            out[f"{layer}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            if name == "cavity.gating_efficiency" and self._inside(parent, "cavity.internal_loss_for_efficiency"):
                out["quads_in_root"] += 1
        for key, n in (self._snapshot() - before).items():
            out[key] += n
        out["wall_s"] = spans[0][3] - spans[0][2]
        return dict(out)

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][1]
        return False

    def dump(self) -> dict:
        """Spans in columnar form, with start/end relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return {
            "name": [s[0] for s in self.spans],
            "parent": [s[1] for s in self.spans],
            "start_s": [round(s[2] - t0, 9) for s in self.spans],
            "end_s": [round(s[3] - t0, 9) for s in self.spans],
        }
