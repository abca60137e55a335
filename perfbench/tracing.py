"""Outside-in tracing for the cover benchmark.

Nothing in ``src/`` knows about tracing. :func:`instrument` swaps the
public functions that ``repro.dist.pipeline``, ``repro.dist.verify``,
``repro.dist.kernels`` and ``repro.core.top_down`` import for timed
wrappers, and puts the originals back on exit. Spans are kept in memory;
:func:`layer_metrics` turns them into the per-layer report.

Spark runs lazily, so a span only holds the work its own eager actions
trigger. Work that a layer merely plans lands in the next eager call:
``normalize_edges`` is planned in ``prepare.self_s`` (the checkpoint that
follows it), and the final joins of ``prefilter_edges`` run inside the
``trim`` that consumes them.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.core.top_down as top_down
import repro.dist.kernels as kernels
import repro.dist.pipeline as pipeline
import repro.dist.verify as dverify
from repro.graph.csr import CSRGraph

ROOT_GROUP = "bench"
TRACE_GROUP = "bench.trace"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    excluded: float = 0.0    # instrumentation time inside this span
    jobs: int = 0            # Spark jobs in this span's own job group
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.excluded


class Tracer:
    """Spans with parents; each span runs in its own Spark job group."""

    def __init__(self, sc=None):
        self.sc = sc
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, float] = {}

    def _group(self, sp: Span | None) -> None:
        if self.sc is not None:
            gid = ROOT_GROUP if sp is None else f"bench.{sp.id}"
            self.sc.setJobGroup(gid, gid if sp is None else sp.name)

    @contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), name,
                  self.stack[-1].id if self.stack else None,
                  time.perf_counter())
        self.spans.append(sp)
        self.stack.append(sp)
        self._group(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()
            self._group(self.stack[-1] if self.stack else None)

    @contextmanager
    def instrumentation(self):
        """Counting done only for the report: its time is excluded from
        every open span, and its Spark jobs from every layer's job count."""
        t0 = time.perf_counter()
        if self.sc is not None:
            self.sc.setJobGroup(TRACE_GROUP, TRACE_GROUP)
        try:
            yield
        finally:
            d = time.perf_counter() - t0
            for sp in self.stack:
                sp.excluded += d
            self.add("trace.instrumentation_s", d)
            self._group(self.stack[-1] if self.stack else None)

    def add(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def resolve_jobs(self) -> None:
        """Read each span's job count once the listener bus has caught up
        (job start events are delivered asynchronously)."""
        if self.sc is None:
            return
        tracker = self.sc.statusTracker()
        prev = None
        for _ in range(50):
            cur = [len(tracker.getJobIdsForGroup(f"bench.{sp.id}"))
                   for sp in self.spans]
            if cur == prev:
                break
            prev = cur
            time.sleep(0.1)
        for sp, n in zip(self.spans, cur):
            sp.jobs = n

    # -- queries over the recorded spans ----------------------------------
    def children(self, sp: Span) -> list[Span]:
        return [c for c in self.spans if c.parent == sp.id]

    def self_seconds(self, sp: Span) -> float:
        return sp.seconds - sum(c.seconds for c in self.children(sp))

    def subtree_jobs(self, sp: Span) -> int:
        return sp.jobs + sum(self.subtree_jobs(c) for c in self.children(sp))

    def under(self, name: str, ancestor: str | None) -> list[Span]:
        """Spans called ``name`` below a span called ``ancestor``
        (``None``: below none of the verify spans)."""
        out = []
        for sp in self.spans:
            if sp.name != name:
                continue
            names = set()
            p = sp.parent
            while p is not None:    # span ids are positions in self.spans
                names.add(self.spans[p].name)
                p = self.spans[p].parent
            if (ancestor in names) if ancestor else ("verify" not in names):
                out.append(sp)
        return out


def _wrap(tracer: Tracer, fn, name: str, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
        if after is not None:
            with tracer.instrumentation():
                after(sp, args, out)
        return out
    wrapper.__wrapped__ = fn
    return wrapper


def _count_in_out(sp: Span, args, out) -> None:
    sp.attrs["edges_in"] = args[0].count()
    sp.attrs["edges_out"] = out.count()


def _count_components(sp: Span, args, out) -> None:
    sp.attrs["components"] = (out.groupBy("comp").count()
                              .where("count > 1").count())


def _residual(sp: Span, args, out) -> None:
    sp.attrs["residual_edges"] = args[0].m


def _search(sp: Span, args, out) -> None:
    sp.attrs["edges_in"] = args[0].m
    sp.attrs["ops"] = out.ops


@contextmanager
def instrument(tracer: Tracer):
    """Install the timed wrappers for the duration of the block."""
    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    for mod in (pipeline, dverify):
        patch(mod, "normalize_edges",
              _wrap(tracer, mod.normalize_edges, "normalize"))
        patch(mod, "trim", _wrap(tracer, mod.trim, "trim", _count_in_out))
        patch(mod, "prefilter_edges",
              _wrap(tracer, mod.prefilter_edges, "khop.prefilter",
                    _count_in_out))
    patch(pipeline, "scc",
          _wrap(tracer, pipeline.scc, "scc", _count_components))
    patch(dverify, "remove_cover",
          _wrap(tracer, dverify.remove_cover, "remove_cover"))
    patch(dverify, "check_feasible",
          _wrap(tracer, dverify.check_feasible, "verify.exact", _residual))

    class TimedCSR:
        from_edges = staticmethod(
            _wrap(tracer, CSRGraph.from_edges, "kernels.csr_build"))

    patch(kernels, "CSRGraph", TimedCSR)
    patch(kernels, "nontrivial_scc_mask",
          _wrap(tracer, kernels.nontrivial_scc_mask, "kernels.scc_mask"))
    patch(kernels, "restrict_to_short_walk_edges",
          _wrap(tracer, kernels.restrict_to_short_walk_edges,
                "kernels.short_walk"))
    patch(kernels, "run_algorithm",
          _wrap(tracer, kernels.run_algorithm, "kernels.search", _search))

    # Per-vertex calls: counters, not spans, to keep the replay cheap.
    def counted(fn, key, hit):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            tracer.add(f"{key}.s", time.perf_counter() - t0)
            tracer.add(f"{key}.calls")
            if hit(out):
                tracer.add(f"{key}.hits")
            return out
        return wrapper

    patch(top_down, "bfs_filter",
          counted(top_down.bfs_filter, "core.bfs_filter", lambda r: not r))
    patch(top_down, "node_necessary",
          counted(top_down.node_necessary, "core.node_necessary",
                  lambda r: r is not None))
    try:
        yield tracer
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


# Every per-layer metric of a traced run, with its unit.
PER_LAYER_UNITS = {
    **{k: "s" for k in ("trim.s", "scc.s", "khop.prefilter_s", "prepare.s",
                        "prepare.self_s", "run_cover.s", "run_cover.kernel_s",
                        "run_cover.dispatch_s", "kernels.csr_build_s",
                        "kernels.scc_mask_s", "kernels.short_walk_s",
                        "kernels.search_s", "core.bfs_filter.s",
                        "core.node_necessary.s", "verify.trim_s",
                        "verify.prefilter_s", "verify.exact_s",
                        "graphgen.generate_s", "setup.session_s",
                        "setup.load_s", "setup.warmup_s",
                        "trace.overhead_s")},
    **{k: "count" for k in ("trim.calls", "trim.spark_jobs",
                            "trim.edges_removed", "scc.spark_jobs",
                            "scc.components", "khop.spark_jobs",
                            "khop.edges_removed", "prepare.spark_jobs",
                            "prepare.edges_in", "prepare.edges_out",
                            "run_cover.spark_jobs", "run_cover.components",
                            "kernels.edges_in", "kernels.edges_after_restrict",
                            "core.ops", "core.bfs_filter.calls",
                            "core.bfs_filter.pruned",
                            "core.node_necessary.calls",
                            "core.node_necessary.cycles",
                            "verify.residual_edges", "verify.spark_jobs")},
    "khop.useful_ratio": "ratio",
    "core.bfs_filter.prune_ratio": "ratio",
}


def layer_metrics(t: Tracer, *, res, info: dict, m_loaded: int) -> dict:
    """Per-layer numbers of one traced repetition.

    Expects top-level spans ``prepare``, ``run_cover`` and ``verify`` from
    the timed repetition, and ``replay`` from the in-driver kernel run.
    """
    top = {sp.name: sp for sp in t.spans if sp.parent is None}
    prep, run, ver = top["prepare"], top["run_cover"], top["verify"]

    def total(name, ancestor=None, key=None):
        sps = t.under(name, ancestor)
        return sum(sp.attrs[key] if key else sp.seconds for sp in sps)

    def removed(name):
        return sum(sp.attrs["edges_in"] - sp.attrs["edges_out"]
                   for sp in t.under(name, None))

    pref_in = total("khop.prefilter", key="edges_in")
    pref_removed = removed("khop.prefilter")
    c = t.counters
    bfs_calls = c.get("core.bfs_filter.calls", 0)
    return {
        "trim.s": total("trim"),
        "trim.calls": len(t.under("trim", None)),
        "trim.spark_jobs": sum(sp.jobs for sp in t.under("trim", None)),
        "trim.edges_removed": removed("trim"),
        "scc.s": total("scc"),
        "scc.spark_jobs": sum(t.subtree_jobs(sp)
                              for sp in t.under("scc", None)),
        "scc.components": total("scc", key="components"),
        "khop.prefilter_s": total("khop.prefilter"),
        "khop.spark_jobs": sum(sp.jobs
                               for sp in t.under("khop.prefilter", None)),
        "khop.edges_removed": pref_removed,
        "khop.useful_ratio": pref_removed / pref_in if pref_in else 0.0,
        "prepare.s": prep.seconds,
        "prepare.self_s": t.self_seconds(prep),
        "prepare.spark_jobs": t.subtree_jobs(prep),
        "prepare.edges_in": info.get("m_input", m_loaded),
        "prepare.edges_out": info.get("m_prefiltered",
                                      info.get("m_partitioned", m_loaded)),
        "run_cover.s": run.seconds,
        "run_cover.kernel_s": res.seconds,
        "run_cover.dispatch_s": run.seconds - res.seconds,
        "run_cover.spark_jobs": t.subtree_jobs(run),
        "run_cover.components": res.extra["n_components"],
        "kernels.csr_build_s": total("kernels.csr_build", "replay"),
        "kernels.scc_mask_s": total("kernels.scc_mask", "replay"),
        "kernels.short_walk_s": total("kernels.short_walk", "replay"),
        "kernels.edges_in": top["replay"].attrs["edges_in"],
        "kernels.edges_after_restrict": total("kernels.search", "replay",
                                              "edges_in"),
        "kernels.search_s": total("kernels.search", "replay"),
        "core.ops": total("kernels.search", "replay", "ops"),
        "core.bfs_filter.calls": bfs_calls,
        "core.bfs_filter.pruned": c.get("core.bfs_filter.hits", 0),
        "core.bfs_filter.prune_ratio":
            c.get("core.bfs_filter.hits", 0) / bfs_calls if bfs_calls else 0.0,
        "core.bfs_filter.s": c.get("core.bfs_filter.s", 0.0),
        "core.node_necessary.calls": c.get("core.node_necessary.calls", 0),
        "core.node_necessary.cycles": c.get("core.node_necessary.hits", 0),
        "core.node_necessary.s": c.get("core.node_necessary.s", 0.0),
        "verify.trim_s": total("trim", "verify"),
        "verify.prefilter_s": total("khop.prefilter", "verify"),
        "verify.exact_s": total("verify.exact", "verify"),
        "verify.residual_edges": total("verify.exact", "verify",
                                       "residual_edges"),
        "verify.spark_jobs": t.subtree_jobs(ver),
    }
