"""Per-layer spans for a traced benchmark run, recorded from outside flatcert.

`traced(tracer)` rebinds each layer's public function at every flatcert
module that holds it (the defining module and every `from .x import f`
site), so calls made through any import path open a span.  Each span keeps
wall time (`perf_counter`) and thread CPU time (`thread_time`), its parent
and the item it belongs to.  Span stacks are per thread; `parallel_map`
tasks adopt the item and the parent span of the call that scheduled them.

Definitions used by `layer_metrics`:
  busy   = thread CPU time of the span
  wait   = wall - busy (waiting for the GIL or for pool threads)
  self   = wall minus the part of the span that its child spans cover
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from flatcert import flagcut, groebner, hilbert, polyring, quadfam, util


class TraceSetupError(RuntimeError):
    """A function the trace expects is missing, or was never called."""


@dataclass
class Span:
    id: int
    parent: int | None
    item: str | None
    name: str
    thread: int
    t0: float
    c0: float
    t1: float = 0.0
    c1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def busy(self) -> float:
        return self.c1 - self.c0


class Tracer:
    """Spans of one traced pass, kept in memory until it is summarized."""

    def __init__(self) -> None:
        self.spans: dict[int, Span] = {}
        self._ids = itertools.count()  # next() on a count is atomic in CPython
        self._local = threading.local()
        self._bases_done: dict[str | None, set] = defaultdict(set)

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack, st.item = [], None
        return st

    def open(self, name: str) -> Span:
        st = self._state()
        c0 = time.thread_time()
        span = Span(next(self._ids), st.stack[-1] if st.stack else None, st.item,
                    name, threading.get_ident(), time.perf_counter(), c0)
        self.spans[span.id] = span
        st.stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        span.c1 = time.thread_time()
        self._state().stack.pop()

    @contextmanager
    def adopt(self, item: str | None, parent: int | None):
        """Run the body as part of `item`, under span `parent` (possibly
        opened by another thread)."""
        st = self._state()
        saved = (st.item, st.stack)
        st.item, st.stack = item, ([parent] if parent is not None else [])
        try:
            yield
        finally:
            st.item, st.stack = saved

    @contextmanager
    def item(self, key: str):
        """The item span: one CLI call, named `cli`."""
        with self.adopt(key, None):
            span = self.open("cli")
            try:
                yield span
            finally:
                self.close(span)

    def first_basis(self, item: str | None, key) -> bool:
        """True the first time a Buchberger input completes within an item."""
        done = self._bases_done[item]
        if key in done:
            return False
        done.add(key)
        return True


# --- wrappers ---

def _spanned(tracer: Tracer, name: str, fn, after=None, name_for=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name_for(*args, **kwargs) if name_for else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result
    return wrapper


def _buchberger_counts(tracer: Tracer):
    def after(span, args, kwargs, result):
        gens = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order")
        key = (gens[0].universe.names,
               tuple(tuple(sorted(g.terms.items())) for g in gens),
               order or groebner.DEFAULT_ORDER)
        basis, run = result
        span.attrs["dup_calls"] = 0 if tracer.first_basis(span.item, key) else 1
        span.attrs["basis_size"] = len(basis)
        span.attrs["reduction_steps"] = sum(ev.reduction_steps for ev in run.events)
        for ev in run.events:
            span.attrs[ev.action] = span.attrs.get(ev.action, 0) + 1
    return after


def _hilbert_value_name(ideal, i, j, method=hilbert.METHOD_INITIAL):
    try:
        method = hilbert.normalize_method(method)
    except ValueError:
        return "hilbert.value"
    return "hilbert.count" if method == hilbert.METHOD_INITIAL else "hilbert.rank_build"


def _wrap_rank(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(rows):
        rows = list(rows)
        span = tracer.open("util.rank")
        try:
            rank = fn(rows)
        finally:
            tracer.close(span)
        span.attrs.update(rows=len(rows), nnz=sum(1 for r in rows for v in r.values() if v),
                          rank=rank)
        return rank
    return wrapper


def _wrap_parallel_map(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(task, items, workers=1):
        items = list(items)
        span = tracer.open("util.parallel_map")
        span.attrs["pool_workers"] = workers if workers > 1 and len(items) > 1 else 0

        def traced_task(x):
            with tracer.adopt(span.item, span.id):
                child = tracer.open("util.parallel_map.task")
                try:
                    return task(x)
                finally:
                    tracer.close(child)
        try:
            return fn(traced_task, items, workers)
        finally:
            tracer.close(span)
    return wrapper


def _retries(span, args, kwargs, result):
    span.attrs["retries"] = result.total_retries


# (module, attribute, wrapper factory); "Class.method" patches the class
def _targets(tracer: Tracer):
    def plain(name, after=None, name_for=None):
        return lambda fn: _spanned(tracer, name, fn, after, name_for)
    return (
        (quadfam, "flatness_certificate", plain("quadfam.certificate")),
        (quadfam, "evaluate_family_at", plain("quadfam.fiber_eval")),
        (flagcut, "run_xi_trials", plain("flagcut.xi_trials", _retries)),
        (polyring, "parse_polynomial", plain("polyring.parse")),
        (polyring, "BiPolynomial.substitute", plain("polyring.substitute")),
        (groebner, "buchberger",
         plain("groebner.buchberger", _buchberger_counts(tracer))),
        (groebner, "Ideal.initial_ideal", plain("groebner.basis_cache")),
        (groebner, "Ideal.groebner_basis", plain("groebner.basis_cache")),
        (groebner, "ideal_dimension", plain("groebner.dimension")),
        (hilbert, "tabulate_diagonal", plain("hilbert.tabulate")),
        (hilbert, "bigraded_hilbert_function",
         plain("hilbert.value", name_for=_hilbert_value_name)),
        (hilbert, "interpolate_hilbert_polynomial", plain("hilbert.interp")),
        (util, "sparse_integer_rank", lambda fn: _wrap_rank(tracer, fn)),
        (util, "parallel_map", lambda fn: _wrap_parallel_map(tracer, fn)),
    )


# Import sites the call paths depend on; each must be found and rebound.
EXPECTED_SITES = frozenset({
    ("flatcert.groebner", "buchberger"),            # Ideal calls it as a module global
    ("flatcert.hilbert", "sparse_integer_rank"),
    ("flatcert.hilbert", "bigraded_hilbert_function"),
    ("flatcert.hilbert", "parallel_map"),
    ("flatcert.quadfam", "tabulate_diagonal"),
    ("flatcert.quadfam", "evaluate_family_at"),
    ("flatcert.quadfam", "ideal_dimension"),
    ("flatcert.quadfam", "parallel_map"),
    ("flatcert.flagcut", "tabulate_diagonal"),
    ("flatcert.flagcut", "ideal_dimension"),
    ("flatcert.flagcut", "interpolate_hilbert_polynomial"),
    ("flatcert.cli", "tabulate_diagonal"),
    ("flatcert.cli", "ideal_dimension"),
    ("flatcert.cli", "run_xi_trials"),
    ("flatcert.cli", "flatness_certificate"),
    ("flatcert.cli", "parse_polynomial"),
})


@contextmanager
def traced(tracer: Tracer):
    """Install every layer wrapper for the body; restore the originals after."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "flatcert" or name.startswith("flatcert."))]
    patches: list[tuple[object, str, object]] = []
    rebound: set[tuple[str, str]] = set()
    try:
        for module, attr, make in _targets(tracer):
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(method)
                if not callable(original):
                    raise TraceSetupError(f"{module.__name__}.{attr} is missing")
                patches.append((cls, method, original))
                setattr(cls, method, make(original))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                raise TraceSetupError(f"{module.__name__}.{attr} is missing")
            wrapper = make(original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
                        rebound.add((mod.__name__, name))
        missing = sorted(EXPECTED_SITES - rebound)
        if missing:
            raise TraceSetupError(f"expected import sites not found: {missing}")
        yield tracer
    finally:
        for obj, name, original in reversed(patches):
            setattr(obj, name, original)


# --- summaries ---

@dataclass
class _Agg:
    calls: int = 0
    wall: float = 0.0
    busy: float = 0.0
    self_wall: float = 0.0
    self_busy: float = 0.0
    attrs: dict = field(default_factory=lambda: defaultdict(int))


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def aggregate(tracer: Tracer) -> dict[str, _Agg]:
    """Per span name: calls, wall, busy, self wall, self busy, summed attrs.

    Spans outside any item are ignored.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in tracer.spans.values():
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, _Agg] = defaultdict(_Agg)
    for s in tracer.spans.values():
        if s.item is None:
            continue
        kids = children.get(s.id, [])
        agg = out[s.name]
        agg.calls += 1
        agg.wall += s.wall
        agg.busy += s.busy
        agg.self_wall += s.wall - _covered(
            [(max(k.t0, s.t0), min(k.t1, s.t1)) for k in kids if k.t1 > s.t0 and k.t0 < s.t1])
        agg.self_busy += s.busy - sum(k.busy for k in kids if k.thread == s.thread)
        for k, v in s.attrs.items():
            agg.attrs[k] += v
        if s.name == "groebner.basis_cache":
            hit = not any(k.name == "groebner.buchberger" for k in kids)
            agg.attrs["hits" if hit else "misses"] += 1
        if s.name == "util.parallel_map" and s.attrs["pool_workers"]:
            agg.attrs["pooled_wall"] += s.wall * s.attrs["pool_workers"]
            agg.attrs["pooled_task_busy"] += sum(k.busy for k in kids)
    return out


SPAIR_ACTIONS = ("new_generator", "reduced_to_zero", "skipped_coprime", "skipped_chain")
EXACT_ATTRS = {
    "groebner.buchberger": ("dup_calls", "basis_size", "reduction_steps", *SPAIR_ACTIONS),
    "groebner.basis_cache": ("hits", "misses"),
    "util.rank": ("rows", "nnz", "rank"),
    "flagcut.xi_trials": ("retries",),
}


def exact_counters(aggs: dict[str, _Agg]) -> dict[str, int]:
    """The counts that must repeat exactly on a second pass over the same items."""
    out = {f"{name}.calls": a.calls for name, a in aggs.items()}
    for name, keys in EXACT_ATTRS.items():
        if name in aggs:
            out.update({f"{name}.{k}": aggs[name].attrs[k] for k in keys})
    return dict(sorted(out.items()))


def layer_metrics(aggs: dict[str, _Agg], items: int, item_cpu: float) -> dict[str, float]:
    """Per-item averages (and ratios) of the per-layer metrics."""
    def a(name: str) -> _Agg:
        return aggs.get(name, _Agg())

    bb, count, rank, pmap = a("groebner.buchberger"), a("hilbert.count"), a("util.rank"), a("util.parallel_map")
    new, zero = bb.attrs["new_generator"], bb.attrs["reduced_to_zero"]
    per = {
        "cli.self_s": a("cli").self_wall,
        "quadfam.fiber_eval.self_s": a("quadfam.fiber_eval").self_wall,
        "polyring.parse.self_s": a("polyring.parse").self_wall,
        "polyring.substitute.self_s": a("polyring.substitute").self_wall,
        "flagcut.retries": a("flagcut.xi_trials").attrs["retries"],
        "groebner.buchberger.self_s": bb.self_wall,
        "groebner.buchberger.busy_s": bb.busy,
        "groebner.buchberger.wait_s": bb.wall - bb.busy,
        "groebner.buchberger.calls": bb.calls,
        "groebner.buchberger.dup_calls": bb.attrs["dup_calls"],
        **{f"groebner.spairs.{k}": bb.attrs[k] for k in SPAIR_ACTIONS},
        "groebner.reduction_steps": bb.attrs["reduction_steps"],
        "groebner.basis_size": bb.attrs["basis_size"],
        "groebner.cache.hits": a("groebner.basis_cache").attrs["hits"],
        "groebner.cache.misses": a("groebner.basis_cache").attrs["misses"],
        "groebner.dimension.self_s": a("groebner.dimension").self_wall,
        "hilbert.count.self_s": count.self_wall,
        "hilbert.count.calls": count.calls,
        "hilbert.rank_build.self_s": a("hilbert.rank_build").self_wall,
        "hilbert.interp.self_s": a("hilbert.interp").self_wall,
        "util.rank.self_s": rank.self_wall,
        "util.rank.calls": rank.calls,
        "util.rank.rows": rank.attrs["rows"],
        "util.rank.nnz": rank.attrs["nnz"],
        "util.parallel_map.wait_s": pmap.wall - pmap.busy,
        "item.wall_s": a("cli").wall,
        "item.cpu_s": item_cpu,
    }
    out = {k: v / items for k, v in per.items()}
    out["groebner.useful_pair_ratio"] = new / (new + zero) if new + zero else 0.0
    pooled = pmap.attrs["pooled_wall"]
    out["util.parallel_efficiency"] = pmap.attrs["pooled_task_busy"] / pooled if pooled else 0.0
    out["share.buchberger_cpu"] = bb.busy / item_cpu if item_cpu else 0.0
    out["share.count_cpu"] = count.self_busy / item_cpu if item_cpu else 0.0
    out["share.rank_cpu"] = rank.busy / item_cpu if item_cpu else 0.0
    return out
