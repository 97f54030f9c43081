"""``record``: the producer side, replaying a seeded event script.

One operation is one replay of the script through every producer:

* a writeout ``TraceFacility`` drained chunk by chunk to a
  ``TraceFileWriter``, with a ``TraceFileFollower`` → ``LiveMonitor.feed``
  → ``kmon.live_render`` live view tailing the same file;
* the same script with the mask off (nothing may be logged);
* an in-process ``ShmTraceRegion`` logger drained by ``ShmCollector``.

Oracles, per operation: the decoded file and the shm-collected trace
hold exactly the scripted events per CPU, with zero anomalies; the
masked pass logs nothing; the live window equals the per-CPU suffix of
the post-mortem decode.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Tuple

import harness


def load_script(workdir: str, meta: Dict):
    import numpy as np

    z = np.load(os.path.join(workdir, meta["script"]))
    cpu, major, minor, dlen, data = (z["cpu"], z["major"], z["minor"],
                                     z["dlen"], z["data"])
    events = [(int(c), int(ma), int(mi), tuple(int(w) for w in d[:n]))
              for c, ma, mi, n, d in zip(cpu, major, minor, dlen, data)]
    return events, (cpu, major, minor, dlen, data)


def rows(batch, sel=None):
    """Comparable columns of a batch's rows: major, minor, dlen, data."""
    import numpy as np

    idx = np.arange(len(batch)) if sel is None else np.asarray(sel)
    d = [batch.data_column(k, idx) for k in range(3)]
    dlen = batch.dlen[idx]
    data = np.stack(d, axis=1) if len(idx) else np.zeros((0, 3), np.uint64)
    data = np.where(np.arange(3)[None, :] < dlen[:, None], data, 0)
    return (batch.major[idx].astype(np.int64), batch.minor[idx].astype(
        np.int64), dlen.astype(np.int64), data.astype(np.uint64))


def holds_script(trace, script_cols, ncpus: int) -> bool:
    """Zero anomalies, and each CPU's non-control events are exactly the
    script's events for that CPU, in order."""
    import numpy as np

    if len(trace.anomaly_columns):
        return False
    cpu, major, minor, dlen, data = script_cols
    for c in range(ncpus):
        b = trace.cpu_batch(c) if c in trace.cpus else None
        mine = cpu == c
        want = (major[mine].astype(np.int64), minor[mine].astype(np.int64),
                dlen[mine].astype(np.int64), data[mine].astype(np.uint64))
        if b is None:
            if mine.any():
                return False
            continue
        got = rows(b, np.flatnonzero(~b.control_mask()))
        if not all(np.array_equal(g, w) for g, w in zip(got, want)):
            return False
    return True


def window_is_suffix(window, full) -> bool:
    """Every CPU's live window equals the tail of its post-mortem stream."""
    import numpy as np

    for c in window.cpus:
        w = window.cpu_batch(c)
        f = full.cpu_batch(c)
        n = len(w)
        if n > len(f):
            return False
        tail = np.arange(len(f) - n, len(f))
        for a, b in zip(rows(w) + (w.seq, w.offset, w.time),
                        rows(f, tail) + (f.seq[tail], f.offset[tail],
                                         f.time[tail])):
            if not np.array_equal(a, b):
                return False
    return True


class Recorder:
    """One replay of the script through every producer."""

    def __init__(self, ctx, events, script_cols) -> None:
        from repro.core.registry import default_registry

        self.cfg = ctx.meta["config"]
        self.events = events
        self.script_cols = script_cols
        c = self.cfg["chunk"]
        self.chunks = [events[i:i + c] for i in range(0, len(events), c)]
        self.reg = default_registry()
        self.path = os.path.join(ctx.workdir, "record.k42")

    def writeout(self, tr, lags: List[float]) -> Tuple[Dict, float, float]:
        """Log + drain + write, with the live view following the file.

        Returns the facility stats, the log seconds and the
        log+drain+write seconds.
        """
        from repro.core.facility import TraceFacility
        from repro.core.writer import TraceFileWriter
        from repro.live.monitor import LiveMonitor
        from repro.live.source import TraceFileFollower
        from repro.tools.kmon import live_render

        cfg = self.cfg
        fac = TraceFacility(ncpus=cfg["ncpus"],
                            buffer_words=cfg["buffer_words"],
                            num_buffers=cfg["num_buffers"])
        fac.enable_all()
        logs = [lg.log_words for lg in fac.loggers]
        log_s = record_s = 0.0
        with open(self.path, "wb") as fh:
            writer = TraceFileWriter(fh, cfg["buffer_words"])
            fh.flush()
            follower = TraceFileFollower(self.path)
            monitor = LiveMonitor(registry=self.reg,
                                  window_events=cfg["window_events"])
            try:
                for i in range(len(self.chunks) + 1):
                    last = i == len(self.chunks)
                    t0 = time.perf_counter()
                    if not last:
                        with tr.span("logger.log"):
                            for cpu, major, minor, data in self.chunks[i]:
                                logs[cpu](major, minor, data)
                    t1 = time.perf_counter()
                    with tr.span("buffers.drain"):
                        recs = fac.flush() if last else fac.drain()
                    with tr.span("writer.write"):
                        writer.write_all(recs)
                        fh.flush()
                    t2 = time.perf_counter()
                    with tr.span("live.poll"):
                        new = follower.finish() if last else follower.poll()
                    with tr.span("live.feed"):
                        monitor.feed(new)
                    with tr.span("live.render"):
                        live_render(monitor.trace(), width=96)
                    lags.append(time.perf_counter() - t1)
                    log_s += t1 - t0
                    record_s += t2 - t0
            finally:
                follower.close()
        self.monitor = monitor
        self.follower_issues = list(follower.issues)
        self.frames = writer.frames_written
        return fac.stats(), log_s, record_s

    def masked(self, tr) -> Tuple[int, float]:
        """The same script with the mask off; returns (events logged, s)."""
        from repro.core.facility import TraceFacility

        cfg = self.cfg
        fac = TraceFacility(ncpus=cfg["ncpus"],
                            buffer_words=cfg["buffer_words"],
                            num_buffers=cfg["num_buffers"])
        fac.disable_all()
        logs = [lg.log_words for lg in fac.loggers]
        before = fac.stats()["events_logged"]
        t0 = time.perf_counter()
        with tr.span("logger.masked"):
            for cpu, major, minor, data in self.events:
                logs[cpu](major, minor, data)
        elapsed = time.perf_counter() - t0
        return fac.stats()["events_logged"] - before, elapsed

    def shm(self, tr):
        """Log into a shm region; the collector drains it chunk by chunk.

        The segment is created, used and unlinked inside this call.
        """
        from repro.shm.collector import ShmCollector
        from repro.shm.region import ShmTraceRegion

        cfg = self.cfg
        region = ShmTraceRegion.create(ncpus=cfg["ncpus"],
                                       buffer_words=cfg["buffer_words"],
                                       num_buffers=cfg["num_buffers"])
        try:
            logs = [region.logger(c).log_words for c in range(cfg["ncpus"])]
            collector = ShmCollector(region)
            records = []
            log_s = 0.0
            for chunk in self.chunks:
                t0 = time.perf_counter()
                with tr.span("shm.log"):
                    for cpu, major, minor, data in chunk:
                        logs[cpu](major, minor, data)
                log_s += time.perf_counter() - t0
                with tr.span("shm.poll"):
                    records.extend(collector.poll())
            region.set_done()
            with tr.span("shm.poll"):
                records.extend(collector.finalize())
            return records, collector.stats, log_s
        finally:
            region.close()
            region.unlink()

    def once(self, tr, lags: List[float]) -> Dict:
        """One operation; returns its measurements and its verdict."""
        from repro.core.columnar import ColumnarTraceReader
        from repro.core.writer import TraceFileReader

        stats, log_s, record_s = self.writeout(tr, lags)
        masked_logged, masked_s = self.masked(tr)
        shm_records, drain_stats, shm_log_s = self.shm(tr)

        # Oracles (untimed).
        with open(self.path, "rb") as fh:
            reader = TraceFileReader(fh)
            records = reader.read_all()
        decoder = ColumnarTraceReader(registry=self.reg)
        full = decoder.decode_records(records)
        ncpus = self.cfg["ncpus"]
        ok = (not reader.issues and not self.follower_issues
              and len(records) == self.frames
              and holds_script(full, self.script_cols, ncpus)
              and masked_logged == 0
              and holds_script(decoder.decode_records(shm_records),
                               self.script_cols, ncpus)
              and window_is_suffix(self.monitor.trace(), full))
        n = len(self.events)
        return {
            "ok": ok, "record_s": record_s,
            "counts": {
                "writer.frames": self.frames,
                "facility.cas_retries": stats["cas_retries"],
                "facility.filler_word_share":
                    stats["filler_words"] / max(stats["words_logged"], 1),
                "facility.dropped_buffers": stats["dropped_buffers"],
                "shm.held": drain_stats.held,
                "shm.dropped": drain_stats.dropped,
                "live.evicted_events": self.monitor.evicted_events,
                "logger.ns_per_event": log_s / n * 1e9,
                "logger.masked_ns_per_event": masked_s / n * 1e9,
                "shm.ns_per_event": shm_log_s / n * 1e9,
            },
        }


def run(ctx) -> Dict:
    events, cols = load_script(ctx.workdir, ctx.meta)
    rec = Recorder(ctx, events, cols)
    n = len(events)

    tr = ctx.tracer
    null = harness.NullTracer()
    gauge = ctx.gauge
    lags: List[float] = []
    scaled_lags: List[float] = []
    scaled_record_s: List[float] = []
    ops: List[Dict] = []
    op_s: List[float] = []
    untraced: List[float] = []
    # Warm-up: imports and first-touch costs stay out of the figures.
    failed = int(not rec.once(null, [])["ok"])
    t_end = time.perf_counter() + ctx.seconds
    while not ops or time.perf_counter() < t_end:
        # Each operation starts from a collected heap, so a collection
        # owed by the previous one does not land in its timings.
        gc.collect()
        if ctx.traced:
            # Untraced and traced operations alternate: the tracing
            # overhead is taken under the same machine conditions.
            t0 = time.perf_counter()
            failed += not rec.once(null, [])["ok"]
            untraced.append(time.perf_counter() - t0)
            gc.collect()
        op_lags: List[float] = []
        t0 = time.perf_counter()
        op, scale = gauge.run(lambda: rec.once(tr, op_lags))
        op_s.append(time.perf_counter() - t0)
        ops.append(op)
        lags += op_lags
        scaled_lags += [lag * scale for lag in op_lags]
        scaled_record_s.append(op["record_s"] * scale)
        tr.op += 1

    failed += sum(1 for o in ops if not o["ok"])
    k = len(ops)
    result = {"attempted": 1 + k + len(untraced), "failed": failed,
              "info": {"operations": k, "lag_samples": len(lags)}}
    if not ctx.traced:
        result["e2e"] = {
            "op_p50_s": harness.quantile(scaled_lags, 0.5),
            "op_p90_s": harness.quantile(scaled_lags, 0.9),
            "events_per_s": n * k / sum(scaled_record_s),
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        result["info"]["unscaled"] = {
            "op_p50_s": harness.quantile(lags, 0.5),
            "op_p90_s": harness.quantile(lags, 0.9),
            "events_per_s": n * k / sum(o["record_s"] for o in ops),
        }
        return result
    layer = {f"{name}_s": v / k for name, v in tr.self_times().items()}
    for key in ops[0]["counts"]:
        layer[key] = sum(o["counts"][key] for o in ops) / k
    layer.update({
        "live.lag_p50_s": harness.quantile(lags, 0.5),
        "live.lag_p90_s": harness.quantile(lags, 0.9),
        "tracing.overhead_ratio":
            harness.median(op_s) / harness.median(untraced) - 1.0,
    })
    result["layer"] = layer
    return result
