"""Seeded input generation and the clean-input gate.

Every input the program sees is made here from the workload seed and
written as files.  Traces come only from ``drain()``/``flush()`` of a
quiesced writeout-mode facility: the flight-recorder ``snapshot()``
path is left out, because a snapshot of a ring that has not wrapped
emits its never-written slots as ``seq=0`` phantom buffers that decode
as false ``garbled`` anomalies (ROADMAP item 1).  The gate below refuses
any trace that does not decode clean, so a benchmark run can never time
a decoder recovering from damage it was not supposed to see.

Run as a script it generates one workload's inputs into ``--out`` and
prints one JSON line describing them; the benchmark times that child
process as its set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import asdict
from typing import Any, Dict, List, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

#: Input sizes.  ``reference`` is what the benchmark measures; ``tiny``
#: keeps the self-tests fast.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "reference": {
        # 104,386 events in 297 buffers, 2.4 MB.
        "postmortem": dict(ncpus=8, workers_per_cpu=2, iterations=120,
                           pc_sample_period=500, buffer_words=1024,
                           num_buffers=128),
        "fleet_store": dict(nodes=4, ncpus=4, workers_per_cpu=2,
                            iterations=240, buffer_words=1024,
                            num_buffers=128),
        "record": dict(ncpus=4, events=24_000, chunk=2_000,
                       buffer_words=1024, num_buffers=64,
                       window_events=8_000),
    },
    "tiny": {
        "postmortem": dict(ncpus=2, workers_per_cpu=1, iterations=8,
                           pc_sample_period=3000, buffer_words=256,
                           num_buffers=64),
        "fleet_store": dict(nodes=2, ncpus=2, workers_per_cpu=1,
                            iterations=6, buffer_words=256,
                            num_buffers=64),
        "record": dict(ncpus=2, events=600, chunk=100, buffer_words=256,
                       num_buffers=32, window_events=200),
    },
}

TRACE_NAME = "trace.k42"
STORE_NAME = "trace.store"
SCRIPT_NAME = "script.npz"


class UncleanInput(Exception):
    """A generated input failed the clean-input gate."""


class OffsetClock:
    """The facility's clock, shifted by a seeded per-CPU offset.

    The simulated kernel still schedules on its own clock, so the seed
    changes every timestamp, and with it the cross-CPU interleaving of
    the time-ordered views, without changing the event count.
    """

    def __init__(self, inner, offsets: Sequence[int]) -> None:
        self._inner = inner
        self._offsets = list(offsets)
        self.cost_cycles = inner.cost_cycles

    def now(self, cpu: int = 0) -> int:
        return self._inner.now(cpu) + self._offsets[cpu]


# -- the gate -----------------------------------------------------------------

def gate_records(records, issues: Sequence[str], label: str):
    """Refuse ``records`` unless they decode with zero anomalies.

    Also refuses reader issues (skipped or truncated frames) and any
    duplicate ``(cpu, seq)`` buffer.  Returns the decoded trace.
    """
    from repro.core.columnar import ColumnarTraceReader
    from repro.core.registry import default_registry

    if issues:
        raise UncleanInput(f"{label}: reader issues: {list(issues)[:3]}")
    keys = [(r.cpu, r.seq) for r in records]
    if len(set(keys)) != len(keys):
        raise UncleanInput(f"{label}: duplicate (cpu, seq) buffers")
    trace = ColumnarTraceReader(registry=default_registry()) \
        .decode_records(records)
    if len(trace.anomaly_columns):
        raise UncleanInput(
            f"{label}: {len(trace.anomaly_columns)} anomalies "
            f"{trace.anomaly_columns.counts()}")
    if not len(trace.batch()):
        raise UncleanInput(f"{label}: no events")
    return trace


def gate_file(path: str):
    """The clean-input gate for one ``.k42`` file."""
    from repro.core.writer import TraceFileReader

    with open(path, "rb") as fh:
        reader = TraceFileReader(fh)
        records = reader.read_all()
        issues = list(reader.issues)
        if reader.tail_state != "complete":
            issues.append(f"tail {reader.tail_state}")
    return gate_records(records, issues, os.path.basename(path))


def file_digest(paths: Sequence[str]) -> str:
    parts: List[bytes] = []
    for p in paths:
        with open(p, "rb") as fh:
            parts.append(fh.read())
    return harness.digest(*parts)


# -- generators ---------------------------------------------------------------

def make_postmortem(seed: int, out: str, size: str) -> Dict[str, Any]:
    from repro.core.writer import save_records
    from repro.store import CYCLES_PER_SECOND, pack_file
    from repro.workloads import run_contention

    cfg = SIZES[size]["postmortem"]
    rng = random.Random(seed)
    offsets = [rng.randrange(0, 500_000) for _ in range(cfg["ncpus"])]
    _kernel, facility, _res = run_contention(
        clock_transform=lambda inner: OffsetClock(inner, offsets), **cfg)
    records = facility.flush()   # every completed buffer + the partials
    path = os.path.join(out, TRACE_NAME)
    save_records(path, records)
    trace = gate_file(path)
    pack_file(path, os.path.join(out, STORE_NAME), force=True)
    # The pushdown query: one CPU over a seeded 5% slice of its run.
    cpu = rng.randrange(cfg["ncpus"])
    cb = trace.cpu_batch(cpu)
    t0 = int(cb.time[cb.timed].min()) / CYCLES_PER_SECOND
    t1 = int(cb.time[cb.timed].max()) / CYCLES_PER_SECOND
    width = (t1 - t0) * 0.05
    start = t0 + rng.random() * (t1 - t0 - width)
    query = {"cpu": cpu, "start": f"{start:.6f}",
             "end": f"{start + width:.6f}"}
    return {"trace": TRACE_NAME, "store": STORE_NAME, "query": query,
            "frames": len(records), "events": len(trace.batch()),
            "digest": file_digest([path])}


def make_fleet(seed: int, out: str, size: str) -> Dict[str, Any]:
    from repro.fleet.launch import make_specs, node_main, node_paths

    cfg = dict(SIZES[size]["fleet_store"])
    nodes = cfg.pop("nodes")
    files: List[str] = []
    events = 0
    for spec in make_specs(nodes, seed=seed, **cfg):
        paths = node_paths(out, spec.node)
        node_main(asdict(spec), paths["trace"])
        events += len(gate_file(paths["trace"]).batch())
        files += [paths["trace"], paths["anchors"]]
    return {"traces": [os.path.basename(f) for f in files[::2]],
            "events": events, "digest": file_digest(files)}


def make_record(seed: int, out: str, size: str) -> Dict[str, Any]:
    """The event script the producers replay: (cpu, major, minor, data)."""
    import numpy as np

    from repro.core.majors import Major

    cfg = SIZES[size]["record"]
    rng = np.random.default_rng(seed)
    n = cfg["events"]
    cpu = rng.integers(0, cfg["ncpus"], n)
    major = rng.choice(np.array([Major.TEST, Major.APP]), n)
    minor = rng.integers(0, 16, n)
    dlen = rng.integers(0, 4, n)
    data = rng.integers(0, 1 << 48, (n, 3), dtype=np.uint64)
    data[np.arange(3)[None, :] >= dlen[:, None]] = 0
    path = os.path.join(out, SCRIPT_NAME)
    np.savez(path, cpu=cpu, major=major, minor=minor, dlen=dlen, data=data)
    return {"script": SCRIPT_NAME, "events": n, "digest": file_digest([path])}


GENERATORS = {"postmortem": make_postmortem, "fleet_store": make_fleet,
              "record": make_record}


def generate(workload: str, seed: int, out: str, size: str) -> Dict[str, Any]:
    os.makedirs(out, exist_ok=True)
    meta = GENERATORS[workload](seed, out, size)
    meta.update(workload=workload, seed=seed, size=size,
                config=SIZES[size][workload])
    return meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--size", default="reference", choices=sorted(SIZES))
    args = ap.parse_args(argv)
    root = harness.checkout_root()
    if not harness.program_present(root):
        print("program sources not found under ./src", file=sys.stderr)
        return 2
    harness.prepare_environment(root)
    try:
        meta = generate(args.workload, args.seed, args.out, args.size)
    except UncleanInput as exc:
        print(f"clean-input gate refused the input: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(meta, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
