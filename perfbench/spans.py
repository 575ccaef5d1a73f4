"""Layer-boundary tracing from outside the program.

Spans are recorded by wrapping, for the duration of a traced pass, the names
through which one layer of ``charpoly`` calls another: every public function
of each layer module, and every function of a layer module that another
module binds by ``from ... import`` (for example ``ensembles.logdet_batch``
or the ``specfun`` names inside ``gap``).  A wrapper is installed on each
name the caller actually looks up, so a call is seen however it is bound.

A call made from inside the same layer is not a boundary and records no
span.  A layer's self time is the duration of its spans minus the part that
same-thread child spans cover.

``scipy.integrate.solve_ivp``, ``quad`` and ``nquad`` are wrapped at the
scipy boundary for counts only (solves, right-hand-side evaluations, stops
by an event, quadrature calls made by an oracle); their time stays with the
calling layer.
"""

import functools
import inspect
import itertools
import math
import threading
import time

LAYERS = (
    "specfun",
    "linalg",
    "ensembles",
    "gap",
    "confluent",
    "dualities",
    "painleve",
    "asymptotics",
    "oracles",
)

# functions that compute a reference by brute force; quadrature calls made
# under them are the oracle's own
_ORACLE_SPANS = ("oracles.", "gap.gap_oracle")


def _batch_size(a, *_args, **_kwargs):
    """Number of matrices in a stack of shape (..., n, n)."""
    return math.prod(getattr(a, "shape", (1, 1))[:-2])


class Tracer:
    """Span and count recorder for one ``charpoly`` package object.

    ``install`` and ``uninstall`` patch and restore module attributes, so
    untraced passes in the same process run the original functions.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []  # [id, name, layer, t0, t1, parent_id, thread_id]
        self.counts = {
            "ode_solves": 0,
            "ode_nfev": 0,
            "ode_event_stops": 0,
            "oracle_quad_calls": 0,
        }
        # per-call work counted from a function's arguments
        self.arg_counts = {
            "linalg.logdet_batch": ("logdet_matrices", _batch_size),
            "ensembles.mc_moment": ("mc_samples", lambda spec, charges, n, *a, **k: n),
        }
        for key, _fn in self.arg_counts.values():
            self.counts[key] = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []
        self._count_lock = threading.Lock()

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, layer, fn):
        tracer = self
        counter = self.arg_counts.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][2] == layer:
                return fn(*args, **kwargs)
            if counter is not None:
                tracer._add(**{counter[0]: counter[1](*args, **kwargs)})
            span = [next(tracer._ids), name, layer, time.perf_counter(), None,
                    stack[-1][0] if stack else None, threading.get_ident()]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return wrapper

    def _innermost(self):
        stack = self._stack()
        return stack[-1][1] if stack else ""

    def _add(self, **inc):
        with self._count_lock:
            for key, val in inc.items():
                self.counts[key] += val

    # -- scipy boundary -----------------------------------------------------

    def _wrap_solve_ivp(self, fn):
        @functools.wraps(fn)
        def solve_ivp(*args, **kwargs):
            res = fn(*args, **kwargs)
            self._add(ode_solves=1, ode_nfev=int(res.nfev),
                      ode_event_stops=int(res.status == 1))
            return res

        return solve_ivp

    def _wrap_quad(self, fn):
        @functools.wraps(fn)
        def quad(*args, **kwargs):
            if self._innermost().startswith(_ORACLE_SPANS):
                self._add(oracle_quad_calls=1)
            return fn(*args, **kwargs)

        return quad

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every layer-boundary name; idempotent per install/uninstall."""
        if self._patches:
            return
        import scipy.integrate as sci

        mods = {m: getattr(self.package, m) for m in LAYERS}
        # every charpoly module that may bind a layer function
        namespaces = [
            mod for name, mod in vars(self.package).items()
            if inspect.ismodule(mod) and mod.__name__.startswith(self.package.__name__)
        ]
        targets = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                imported = any(
                    ns is not mod and any(v is obj for v in vars(ns).values())
                    for ns in namespaces
                )
                if attr in getattr(mod, "__all__", ()) or imported:
                    targets[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        for attr, wrap in (("solve_ivp", self._wrap_solve_ivp),
                           ("quad", self._wrap_quad),
                           ("nquad", self._wrap_quad)):
            orig = getattr(sci, attr)
            self._patches.append((sci, attr, orig))
            setattr(sci, attr, wrap(orig))

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches = []

    # -- aggregation --------------------------------------------------------

    def summary(self):
        """Per-name and per-layer totals over every recorded span.

        Returns {"names": {name: {"calls", "busy_s", "self_s", "durations"}},
        "layers": {layer: {"calls", "busy_s", "self_s"}}}.
        """
        child_s = {}
        for span in self.spans:
            if span[5] is not None:
                child_s[span[5]] = child_s.get(span[5], 0.0) + span[4] - span[3]
        names, layers = {}, {}
        for sid, name, layer, t0, t1, _parent, _thread in self.spans:
            dur = t1 - t0
            own = dur - child_s.get(sid, 0.0)
            for key, table in ((name, names), (layer, layers)):
                row = table.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["busy_s"] += dur
                row["self_s"] += own
            names[name].setdefault("durations", []).append(dur)
        return {"names": names, "layers": layers}

    def write_spans(self, path):
        """Write every span as one CSV row (times relative to the first)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,thread\n")
            for sid, name, _layer, t0, t1, parent, thread in self.spans:
                fh.write(f"{sid},{name},{t0 - origin:.9f},{t1 - origin:.9f},"
                         f"{'' if parent is None else parent},{thread}\n")
