"""``fleet_store``: merge, pack and query in one long-lived process.

One cycle merges the 4 node traces (skewed clocks, anchor sidecars)
with ``merge_paths``, packs the unified view with ``pack_fleet_view``
and runs the seeded query pool against the fresh store, each query on a
new ``TraceStore``.  The process-wide shard cache starts each cycle
empty and is warmed (untimed) from the fresh store before the queries,
so writes (pack) and warm reads (query) share the ``store`` layer.

Oracle: every query's rows must equal a brute-force ``select`` over the
merged batch (``FleetView.batch()``), compared as a digest of the rows
sorted by their identity ``(node, cpu, seq, offset)``.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Dict, List, Tuple

import harness
import layers

#: The query pool: narrow node+CPU+window queries pruning can answer
#: (every stream equally often, at seeded windows), some whole-node
#: queries (every node equally often) and a few full scans.  The p50 falls among the narrow queries and the p90 among the
#: whole-node ones, neither at the edge of a class.
NARROW, WHOLE_NODE, FULL_SCAN = 80, 16, 4
#: Queries timed between two readings of the speed gauge.
QUERY_GROUP = 16
#: Width of a narrow query's window, as a share of its stream's span.
NARROW_WIDTH = 0.03


def rows_digest(batch) -> str:
    """Order-independent digest of a batch's rows."""
    import numpy as np

    cols = [batch.node_column(), batch.cpu, batch.seq, batch.offset]
    order = np.lexsort(tuple(reversed(cols)))
    parts = [c[order] for c in cols]
    parts += [batch.time[order], batch.timed[order], batch.major[order],
              batch.minor[order], batch.dlen[order]]
    dlen = batch.dlen[order]
    for k in range(3):
        d = batch.data_column(k, order)
        parts.append(np.where(dlen > k, d, 0))
    return harness.digest(
        str(len(batch)).encode(),
        *(np.ascontiguousarray(np.asarray(p).astype(np.int64)).tobytes()
          for p in parts))


def query_pool(view, seed: int):
    """The seeded predicates, each class spread evenly over the stream.

    The seed picks the narrow windows.  The streams, the nodes and the
    order are fixed: a narrow query timed just after a full scan runs
    slower, and streams differ in size, so seeding them would make the
    seed move the figures.
    """
    from repro.store import CYCLES_PER_SECOND, Predicate

    rng = random.Random(seed)
    narrow, whole, full = [], [], []
    streams = [(n, c) for n in view.nodes
               for c in view.node_trace(n).cpus]
    for i in range(NARROW):
        node, cpu = streams[i % len(streams)]
        b = view.aligned_cpu_batch(node, cpu)
        t = b.time[b.timed].astype(object)
        t0, t1 = int(t.min()), int(t.max())
        w = (t1 - t0) * NARROW_WIDTH
        start = t0 + rng.random() * (t1 - t0 - w)
        narrow.append(Predicate(nodes=(node,), cpus=(cpu,),
                                start_s=start / CYCLES_PER_SECOND,
                                end_s=(start + w) / CYCLES_PER_SECOND,
                                include_control=False))
    for i in range(WHOLE_NODE):
        whole.append(Predicate(nodes=(view.nodes[i % len(view.nodes)],),
                               include_control=False))
    full = [Predicate() for _ in range(FULL_SCAN)]
    keyed = [((i + 0.5) / len(cls), c, p)
             for c, cls in enumerate((narrow, whole, full))
             for i, p in enumerate(cls)]
    return [p for _k, _c, p in sorted(keyed, key=lambda t: t[:2])]


class Fleet:
    def __init__(self, ctx) -> None:
        from repro.core.registry import default_registry

        self.reg = default_registry()
        self.paths = [os.path.join(ctx.workdir, t)
                      for t in ctx.meta["traces"]]
        self.store = os.path.join(ctx.workdir, "fleet.store")
        self.counts: Dict[str, float] = {}

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def merge(self, tr):
        """``merge_paths``; traced, the same calls split by layer."""
        from repro.fleet.merge import (
            NodeSource,
            merge_paths,
            merge_traces,
            read_anchor_sidecar,
        )

        if not tr.enabled:
            return merge_paths(self.paths, registry=self.reg)
        sources = []
        for i, path in enumerate(self.paths):
            trace = layers.decode(tr, layers.load(tr, path, self.count),
                                  self.reg, self.count)
            with tr.span("fleet.merge"):
                side = read_anchor_sidecar(path)
            sources.append(NodeSource(node=side[0], trace=trace,
                                      anchors=side[1]) if side
                           else NodeSource(node=i, trace=trace))
        with tr.span("fleet.merge"):
            return merge_traces(sources, registry=self.reg)

    def pack(self, tr, view) -> None:
        from repro.fleet.merge import pack_fleet_view

        with tr.span("fleet.pack"):
            pack_fleet_view(view, self.store, force=True)

    def warm(self) -> None:
        """Load every shard of the fresh store into the shard cache."""
        from repro.store import TraceStore

        TraceStore(self.store, registry=self.reg).trace()

    def query(self, tr, pred) -> Tuple[float, str]:
        from repro.store import TraceStore

        t0 = time.perf_counter()
        with tr.span("store.open"):
            store = TraceStore(self.store, registry=self.reg)
        with tr.span("store.query"):
            qr = store.query(pred)
        wall = time.perf_counter() - t0
        if tr.enabled:
            self.count("store.shards_read", qr.shards_read)
            self.count("store.shards_pruned", qr.shards_pruned)
            self.count("store.rows_scanned", qr.rows_scanned)
            self.count("store.matched", len(qr))
        return wall, rows_digest(qr.batch)


def run(ctx) -> Dict:
    from repro.store import select, shard_cache

    fleet = Fleet(ctx)
    tr = ctx.tracer
    null = harness.NullTracer()

    # The oracle: brute-force rows of every pooled predicate.
    view = fleet.merge(null)
    merged = view.batch()
    events = len(merged)
    preds = query_pool(view, ctx.seed)
    expected = [rows_digest(merged.select(select(merged, p)))
                for p in preds]

    def cycle(tracer, gauge, walls: Dict[str, List[float]]) -> int:
        """One merge + pack + query pool; returns the failed queries.

        Appends the merge + pack time and every query's time to
        ``walls``, as measured and at the reference speed.  The gauge
        is read around the build and around each group of queries.
        """
        cache = shard_cache()
        cache.clear()

        def build() -> Tuple[object, float]:
            t0 = time.perf_counter()
            v = fleet.merge(tracer)
            fleet.pack(tracer, v)
            return v, time.perf_counter() - t0

        (v, build_s), scale = gauge.run(build)
        walls["build"].append(build_s)
        walls["build_scaled"].append(build_s * scale)
        with tracer.span("fleet.batch"):
            v.batch()
        fleet.warm()
        hits, lookups = cache.hits, cache.hits + cache.misses
        bad = 0
        for i in range(0, len(preds), QUERY_GROUP):
            group = range(i, min(i + QUERY_GROUP, len(preds)))
            results, scale = gauge.run(
                lambda: [fleet.query(tracer, preds[j]) for j in group])
            for j, (wall, got) in zip(group, results):
                walls["query"].append(wall)
                walls["query_scaled"].append(wall * scale)
                bad += got != expected[j]
        if tracer.enabled:
            fleet.count("store.cache_hits", cache.hits - hits)
            fleet.count("store.cache_lookups",
                        cache.hits + cache.misses - lookups)
        return bad

    walls: Dict[str, List[float]] = {
        k: [] for k in ("build", "build_scaled", "query", "query_scaled")}
    cycle_s: List[float] = []
    untraced: List[float] = []
    null_gauge = harness.NullGauge()
    # Warm-up: imports and first-touch costs stay out of the figures.
    failed = cycle(null, null_gauge, {k: [] for k in walls})
    t_end = time.perf_counter() + ctx.seconds
    while not walls["build"] or time.perf_counter() < t_end:
        # Each cycle starts from a collected heap, so a collection owed
        # by the previous one does not land in its timings.
        gc.collect()
        if ctx.traced:
            # Untraced and traced cycles alternate: the tracing overhead
            # is taken under the same machine conditions.
            t0 = time.perf_counter()
            failed += cycle(null, null_gauge, {k: [] for k in walls})
            untraced.append(time.perf_counter() - t0)
            gc.collect()
        t0 = time.perf_counter()
        failed += cycle(tr, ctx.gauge, walls)
        cycle_s.append(time.perf_counter() - t0)
        tr.op += 1

    builds, qwalls = walls["build"], walls["query"]
    k = len(builds)
    result = {"attempted": len(preds) * (1 + k + len(untraced)),
              "failed": failed,
              "info": {"cycles": k, "queries": len(qwalls),
                       "events": events}}
    if not ctx.traced:
        result["e2e"] = {
            "op_p50_s": harness.quantile(walls["query_scaled"], 0.5),
            "op_p90_s": harness.quantile(walls["query_scaled"], 0.9),
            # A median over cycles: a disk stall in one pack, which the
            # gauge does not see, does not move it.
            "events_per_s": harness.median([events / b for b in
                                            walls["build_scaled"]]),
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        result["info"]["unscaled"] = {
            "op_p50_s": harness.quantile(qwalls, 0.5),
            "op_p90_s": harness.quantile(qwalls, 0.9),
            "events_per_s": harness.median([events / b for b in builds]),
        }
        return result
    c = fleet.counts
    layer = {f"{name}_s": v / k for name, v in tr.self_times().items()}
    layer.update({key: c[key] / k for key in (
        "writer.frames", "writer.issues", "stream.buffers",
        "columnar.events", "columnar.anomalies")})
    nq = len(qwalls)
    layer.update({
        "store.shards_read": c["store.shards_read"] / nq,
        "store.shards_pruned": c["store.shards_pruned"] / nq,
        "store.rows_scanned_per_match":
            c["store.rows_scanned"] / max(c["store.matched"], 1),
        "store.cache_hit_ratio":
            c["store.cache_hits"] / max(c["store.cache_lookups"], 1),
        "store.query_p50_s": harness.quantile(qwalls, 0.5),
        "store.query_p90_s": harness.quantile(qwalls, 0.9),
        "tracing.overhead_ratio":
            harness.median(cycle_s) / harness.median(untraced) - 1.0,
    })
    result["layer"] = layer
    return result
