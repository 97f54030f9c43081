"""Decode throughput: the reference oracle vs. the production decoder.

The paper's boundary rule (§3.2 — no event ever crosses a buffer
boundary) is what makes trace *analysis* scale: every buffer is
independently parsable, so decoding can be vectorized per buffer and
sharded across worker processes.  This benchmark measures decoding
three ways on one deterministic multi-CPU trace:

* **sequential** — the word-at-a-time reference decoder
  (:class:`repro.check.oracle.OracleReader`);
* **columnar** — the production decoder in-process
  (``decode_records_columnar``);
* **parallel** — the production decoder fed by sharded worker scans
  (``decode_records_columnar_parallel``) with 2 and 4 workers.

Every path must produce the identical trace (asserted event-for-event),
and 4 workers must be at least 2x the sequential throughput.  Timing
runs with the GC paused (applied equally to every path) so collector
pauses over the growing event graph don't swamp the comparison.

The trace size is tunable via ``BENCH_PARALLEL_EVENTS`` (default
200_000 events) to let CI use a quick deterministic subset.
"""

import gc
import os
import time

import pytest

from _benchutil import write_result
from repro.check.oracle import OracleReader
from repro.core import ManualClock, TraceFacility, default_registry
from repro.core.columnar import decode_records_columnar
from repro.core.parallel import decode_records_columnar_parallel

N_EVENTS = int(os.environ.get("BENCH_PARALLEL_EVENTS", "200000"))
NCPUS = 4


def build_trace(n_events=N_EVENTS, ncpus=NCPUS):
    """A deterministic multi-CPU trace: ManualClock, fixed event mix."""
    clock = ManualClock(start=1000)
    fac = TraceFacility(ncpus=ncpus, buffer_words=4096, num_buffers=8,
                        clock=clock)
    fac.enable_all()
    records = []
    for i in range(n_events):
        fac.log(i % ncpus, 2 + (i % 6), i % 16, [i, i * 7, i * 13][: i % 4])
        clock.advance(37)
        if i % 20_000 == 19_999:
            records.extend(fac.drain())
    records.extend(fac.flush())
    return records


@pytest.fixture(scope="module")
def records():
    return build_trace()


def _timeit(fn, repeats=3):
    """Best-of-N wall time with the GC paused during the timed region."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    gc.collect()
    return best, result


def _as_comparable(trace):
    """A trace as plain tuples, for bit-exact equality assertions."""
    events = {
        cpu: [
            (e.cpu, e.seq, e.offset, e.ts32, e.major, e.minor,
             tuple(e.data), e.time, e.spec.name if e.spec else None)
            for e in evs
        ]
        for cpu, evs in trace.events_by_cpu.items()
    }
    anomalies = [(a.cpu, a.seq, a.offset, a.kind, a.detail)
                 for a in trace.anomalies]
    return events, anomalies


def test_parallel_decode_throughput(benchmark, records):
    """Oracle vs. production decode (1, 2 and 4 workers) of the same
    trace."""
    reg = default_registry()
    rows = []
    t_seq, trace_seq = _timeit(
        lambda: OracleReader(registry=reg).decode_records(records)
    )
    nev = sum(len(v) for v in trace_seq.events_by_cpu.values())
    baseline = _as_comparable(trace_seq)

    candidates = [
        ("columnar", lambda: decode_records_columnar(records,
                                                     registry=reg)),
        ("2 workers", lambda: decode_records_columnar_parallel(
            records, registry=reg, workers=2)),
        ("4 workers", lambda: decode_records_columnar_parallel(
            records, registry=reg, workers=4)),
    ]
    rows.append(("sequential (oracle)", t_seq, 1.0))
    speedups = {}
    for label, fn in candidates:
        t, trace = _timeit(fn)
        assert _as_comparable(trace) == baseline, (
            f"{label} decode differs from the oracle"
        )
        speedups[label] = t_seq / t
        rows.append((label, t, t_seq / t))

    lines = [
        f"decode throughput, {nev} events on {len(records)} buffers "
        f"({NCPUS} trace CPUs, host cores: {os.cpu_count()})",
        f"{'path':<18} {'seconds':>8} {'Mev/s':>7} {'speedup':>8}",
    ]
    for label, t, s in rows:
        lines.append(f"{label:<18} {t:>8.3f} {nev / t / 1e6:>7.2f} {s:>7.2f}x")
    lines.append("all paths verified event-for-event identical")
    write_result("parallel_decode", "\n".join(lines))

    assert speedups["4 workers"] >= 2.0, (
        f"4-worker decode only {speedups['4 workers']:.2f}x over sequential"
    )

    # pytest-benchmark kernel: the batched scan of one buffer.
    from repro.core.stream import scan_buffer

    rec = max(records, key=lambda r: r.fill_words)
    benchmark(lambda: scan_buffer(rec.words, rec.fill_words))


# ---------------------------------------------------------------------------
# Unified-harness registrations (`repro-trace bench`; `python bench_parallel_decode.py`)
# ---------------------------------------------------------------------------
from functools import lru_cache  # noqa: E402

from repro.perf import benchmark as perf_bench  # noqa: E402


@lru_cache(maxsize=1)
def _harness_records(quick):
    return build_trace(n_events=20_000 if quick else min(N_EVENTS, 120_000))


@perf_bench("parallel.scan_buffer", quick=True, tolerance=0.5)
def hb_scan_buffer(b):
    """The vectorized numpy header scan of one full buffer."""
    from repro.core.stream import scan_buffer

    records = _harness_records(b.quick)
    rec = max(records, key=lambda r: r.fill_words)
    b(lambda: scan_buffer(rec.words, rec.fill_words))


@perf_bench("parallel.decode_batched", quick=True, tolerance=0.4)
def hb_decode_batched(b):
    """In-process production decode of the whole deterministic trace."""
    records = _harness_records(b.quick)
    reg = default_registry()
    trace = b(lambda: decode_records_columnar(records, registry=reg))
    n = len(trace.batch())
    assert n > 0
    b.note("events", n)


@perf_bench("parallel.decode_workers", tolerance=0.75)
def hb_decode_workers(b):
    """Worker-pool decode; spawn/fork overhead makes this inherently
    noisier, hence the wide band."""
    records = _harness_records(b.quick)
    reg = default_registry()
    workers = min(4, os.cpu_count() or 1)
    b.note("workers", workers)
    trace = b(lambda: decode_records_columnar_parallel(
        records, registry=reg, workers=workers))
    assert len(trace.batch())


if __name__ == "__main__":
    import sys

    from repro.perf import module_main

    sys.exit(module_main(__name__))
