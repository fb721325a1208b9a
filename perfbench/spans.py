"""Span tracing of the `lfs` layers, installed from outside the program.

``Tracer.install()`` replaces every public function of each ``lfs`` module,
and the public methods of its classes, by a wrapper that records a span:
id, name, start, end, parent span and op id.  Each wrapper is patched in
wherever callers look the function up: in every ``lfs`` module that imported
it by name, in module-level dispatch dicts (``cli.COMMANDS``,
``experiments.EXPERIMENTS``) and, for methods, in the class that defines it.
``uninstall()`` puts every original back; ``restored()`` checks that it did.

The span stack is thread-local because rejection evaluates blocks in pool
threads.  A span opened on a thread whose stack is empty is parented to the
span the main thread is in, so pool-thread blocks become children of
``run_rejection``.  Spans stay in memory (one flat ``array('d')`` per thread)
until ``spans()`` is called at the end of the run.
"""

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from array import array

import numpy as np

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op")
_NF = len(SPAN_FIELDS)

# Helpers called per element or only from inside one function: their time is
# part of that caller's metric, and a span per call would only add overhead.
EXCLUDED = frozenset({
    "output.format_float",        # per CSV cell, inside write_samples_csv
    "output.jsonable",            # recursive, inside write_json_summary
    "rng.stream_key",             # the hash inside substream / derive_seed
    "models.smoothed_loglik",     # integrand of the oracle's quadrature
    "kernels.SummaryDistance",    # only called from SmoothingKernel methods
    "models.CountingModel",       # test-only delegating wrapper
})

# Private functions that mark a layer boundary the metrics need.
EXTRA = {("rejection", "_evaluate_block"): "rejection.block"}

METHOD_PREFIX = {"ProposalSpec": "proposal_"}

SKIPPED_MODULES = ("errors",)


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.spans = array("d")
        self.counts = {}


def tally(counts, key, value):
    """Add ``value`` to ``counts[key]``."""
    counts[key] = counts.get(key, 0) + value


class Tracer:
    """Records spans and counters for the wrapped ``lfs`` functions."""

    def __init__(self, counters=None):
        self.names = []
        self.op_id = -1
        self._counters = counters or {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)
        self._main = self._state()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def wrap(self, name, fn):
        """A function that runs ``fn`` inside a span called ``name``."""
        nid = len(self.names)
        self.names.append(name)
        count = self._counters.get(name)
        local, ids, clock, main = self._local, self._ids, time.perf_counter, self._main
        state = self._state
        tracer = self

        def traced(*args, **kwargs):
            try:
                st = local.state
            except AttributeError:
                st = state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            else:
                top = main.stack
                parent = top[-1] if top and st is not main else 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.spans.extend((sid, nid, t0, t1, parent, tracer.op_id))
            if count is not None:
                count(st.counts, args, kwargs, result, t1 - t0)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def spans(self):
        """All recorded spans as an (n, 6) float array, columns SPAN_FIELDS."""
        with self._lock:
            bufs = [np.frombuffer(st.spans, dtype=float) for st in self._states]
        flat = np.concatenate(bufs) if bufs else np.empty(0)
        return flat.reshape(-1, _NF)

    def counts(self):
        total = {}
        with self._lock:
            for st in self._states:
                for key, value in st.counts.items():
                    tally(total, key, value)
        return total

    # -- installing --------------------------------------------------------

    def install(self, package):
        """Wrap every public function and method of ``package``'s modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith(package.__name__ + ".") and mod is not None}
        modules[package.__name__] = package
        wrapped = {}  # id(original) -> (original, wrapper)
        for modname, mod in sorted(modules.items()):
            short = modname.rsplit(".", 1)[-1]
            if mod is package or short in SKIPPED_MODULES:
                continue
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                layer_name = EXTRA.get((short, attr))
                if layer_name is None and (attr.startswith("_")
                                           or f"{short}.{attr}" in EXCLUDED):
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(layer_name or f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(short, obj)
        # patch every place a wrapped function is looked up by name
        def replacement(obj):
            original, wrapper = wrapped.get(id(obj), (None, None))
            return wrapper if original is obj else None

        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        new = replacement(value)
                        if new is not None:
                            self._patch(obj, key, value, new, dict.__setitem__)
                elif (new := replacement(obj)) is not None:
                    self._patch(mod, attr, obj, new, setattr)

    def _install_class(self, short, cls):
        prefix = METHOD_PREFIX.get(cls.__name__, "")
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn, rewrap = raw, None
            else:
                continue
            wrapper = self.wrap(f"{short}.{prefix}{attr}", fn)
            self._patch(cls, attr, raw, rewrap(wrapper) if rewrap else wrapper, setattr)

    def _patch(self, owner, key, original, replacement, setter):
        self._patches.append((owner, key, original, setter))
        setter(owner, key, replacement)

    def uninstall(self):
        for owner, key, original, setter in reversed(self._patches):
            setter(owner, key, original)

    def restored(self):
        """Names of patched attributes that are not the original object again."""
        bad = []
        for owner, key, original, _ in self._patches:
            current = owner[key] if isinstance(owner, dict) else vars(owner).get(key)
            if current is not original:
                label = getattr(owner, "__name__", type(owner).__name__)
                bad.append(f"{label}.{key}")
        return bad

    @property
    def n_patches(self):
        return len(self._patches)


# -- analysis ------------------------------------------------------------------

def self_times(spans):
    """Self time of every span: its duration minus the time its children cover.

    Children may overlap when they ran on different threads, so the covered
    time is the length of the union of the children's intervals, clipped to
    the parent's interval.
    """
    n = spans.shape[0]
    if n == 0:
        return np.empty(0)
    ids, start, end, parent = spans[:, 0], spans[:, 2], spans[:, 3], spans[:, 4]
    by_id = np.argsort(ids, kind="stable")
    pos = np.minimum(np.searchsorted(ids[by_id], parent), n - 1)
    has_parent = ids[by_id][pos] == parent
    child = np.flatnonzero(has_parent)
    prow = by_id[pos[child]]
    cs = np.maximum(start[child], start[prow])
    ce = np.minimum(end[child], end[prow])
    ce = np.maximum(ce, cs)
    # union length per parent: sort by (parent, start); an interval adds what
    # extends past the furthest end seen so far under the same parent
    order = np.lexsort((cs, prow))
    prow, cs, ce = prow[order], cs[order], ce[order]
    covered = np.zeros(n)
    if child.size:
        origin = float(np.min(start))
        span_total = float(np.max(end)) - origin + 1.0
        group = np.cumsum(np.r_[True, prow[1:] != prow[:-1]]) - 1
        shift = group * span_total
        reach = np.maximum.accumulate((ce - origin) + shift)
        prev = np.r_[-np.inf, reach[:-1]]
        first = np.r_[True, prow[1:] != prow[:-1]]
        prev[first] = -np.inf
        prev = np.maximum(prev, (cs - origin) + shift)
        add = np.maximum((ce - origin) + shift - prev, 0.0)
        np.add.at(covered, prow, add)
    return np.maximum(end - start - covered, 0.0)


def summarize(spans, names):
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    own = self_times(spans)
    nid = spans[:, 1].astype(np.int64)
    dur = spans[:, 3] - spans[:, 2]
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    selfs = np.bincount(nid, weights=own, minlength=k)
    out = {}
    for i, name in enumerate(names):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += int(calls[i])
        entry["total_s"] += float(total[i])
        entry["self_s"] += float(selfs[i])
    return out


def layer_self(summary, layer):
    """Self seconds of every span whose name is in module ``layer``."""
    return math.fsum(v["self_s"] for k, v in summary.items() if k.split(".", 1)[0] == layer)
