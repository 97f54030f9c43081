"""``postmortem``: the analyst's path, one ``repro-trace`` call at a time.

Untraced, every operation is a real subprocess on the 104k-event trace:
interpreter start, import, mmap read, whole-trace decode, the tool and
its rendering all block the result, and the producer never runs.  Each
call's stdout must equal, byte for byte, what the same public functions
print in-process (:func:`expected_outputs`).

Traced, each subprocess is replaced by the public calls its subcommand
makes — ``TraceFileReader``, ``scan_buffer``, ``ColumnarAssembler``, the
tool's aggregate function and its ``format_*`` — each inside a span, so
every layer gets its own time.  The traced outputs are held to the same
oracle.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, List, Tuple

import harness
import layers

#: The subcommand mix, in the order one cycle runs it.  ``T``/``S``
#: stand for the trace and the store; ``Q`` for the seeded query.
MIX: List[Tuple[str, List[str]]] = [
    ("info", ["info", "T"]),
    ("list", ["list", "T"]),
    ("locks", ["locks", "T"]),
    ("profile", ["profile", "T"]),
    ("sched", ["sched", "T"]),
    ("kmon", ["kmon", "T"]),
    ("breakdown", ["breakdown", "T"]),
    ("list_workers2", ["list", "T", "--workers", "2"]),
    ("pack", ["pack", "T", "packed.store", "--force"]),
    ("query", ["query", "S", "Q"]),
    ("follow", ["follow", "T", "--replay", "instant"]),
    ("help", ["--help"]),
]
#: Calls that read and decode the whole trace (for ``events_per_s``).
WHOLE_TRACE = ("info", "list", "locks", "profile", "sched", "kmon",
               "breakdown", "list_workers2", "pack", "follow")


def query_args(meta: Dict) -> List[str]:
    q = meta["query"]
    return ["--cpu", str(q["cpu"]), "--start", q["start"], "--end", q["end"]]


def argv_for(args: List[str], meta: Dict) -> List[str]:
    out: List[str] = []
    for a in args:
        if a == "T":
            out.append(meta["trace"])
        elif a == "S":
            out.append(meta["store"])
        elif a == "Q":
            out.extend(query_args(meta))
        else:
            out.append(a)
    return out


# -- the in-process pipeline ----------------------------------------------------

class Pipeline:
    """Each subcommand as the public calls it makes, one span per layer.

    ``tracer`` may be a :class:`harness.NullTracer`; the calls are the
    same either way.  ``counts`` accumulates the layers' public stats.
    """

    def __init__(self, workdir: str, meta: Dict, tracer) -> None:
        from repro.core.registry import default_registry
        from repro.ksim.kernel import SymbolTable

        self.workdir = workdir
        self.meta = meta
        self.tr = tracer
        self.reg = default_registry()
        self.sym = SymbolTable()
        self.counts: Dict[str, float] = {}

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def load(self):
        return layers.load(self.tr, self.path(self.meta["trace"]),
                           self.count)

    def decode(self, records):
        return layers.decode(self.tr, records, self.reg, self.count)

    def trace(self):
        return self.decode(self.load())

    def tool(self, name: str, aggregate: Callable, render: Callable) -> str:
        with self.tr.span(f"tools.{name}.aggregate"):
            agg = aggregate()
        with self.tr.span(f"tools.{name}.render"):
            return render(agg)

    # -- subcommands (each returns exactly what the CLI prints) ----------
    def info(self) -> str:
        records = self.load()
        return info_text(self.meta["trace"], records, self.decode(records))

    def listing(self, trace) -> str:
        from repro.tools.listing import event_listing, format_event

        text = self.tool(
            "listing",
            lambda: event_listing(trace, include_control=False,
                                  columnar=True),
            lambda evs: "\n".join(format_event(e) for e in evs)) + "\n"
        self.count("tools.listing.bytes_out", len(text.encode()))
        return text

    def list(self) -> str:
        return self.listing(self.trace())

    def list_workers2(self) -> str:
        from repro.core.parallel import (
            decode_records_columnar_parallel,
            shard_records,
        )

        records = self.load()
        with self.tr.span("pool.decode"):
            trace = decode_records_columnar_parallel(
                records, registry=self.reg, workers=2)
        self.count("pool.tasks", len(shard_records(records, 2 * 2)))
        return self.listing(trace)

    def locks(self) -> str:
        from repro.tools.lockstats import format_lockstats, lock_statistics

        trace = self.trace()
        return self.tool(
            "lockstats",
            lambda: lock_statistics(trace, sort_by="time", columnar=True),
            lambda st: format_lockstats(st, self.sym.lock_names,
                                        self.sym.chains, top=10,
                                        sort_label="time")) + "\n"

    def profile(self) -> str:
        from repro.tools.pcprofile import format_profile, pc_profile

        trace = self.trace()
        return self.tool(
            "pcprofile",
            lambda: pc_profile(trace, self.sym.pc_names, pid=None,
                               columnar=True),
            lambda h: format_profile(h, pid=None, top=20)) + "\n"

    def sched(self) -> str:
        from repro.tools.schedstats import (
            format_sched_report,
            sched_statistics,
        )

        trace = self.trace()
        return self.tool(
            "schedstats",
            lambda: sched_statistics(trace, columnar=True),
            lambda r: format_sched_report(r, self.sym.process_names,
                                          top=10)) + "\n"

    def kmon(self) -> str:
        from repro.tools.kmon import Timeline

        trace = self.trace()
        return self.tool("kmon", lambda: Timeline(trace, columnar=True),
                         lambda tl: tl.render(width=96)) + "\n"

    def breakdown(self) -> str:
        from repro.ksim.ipc import FS_FUNCTION_NAMES
        from repro.tools.breakdown import format_breakdown, process_breakdown

        trace = self.trace()
        return self.tool(
            "breakdown",
            lambda: process_breakdown(trace, self.sym.syscall_names,
                                      self.sym.process_names,
                                      FS_FUNCTION_NAMES, columnar=True),
            lambda bds: "".join(format_breakdown(bds[pid]) + "\n\n"
                                for pid in sorted(bds)))

    def pack(self) -> str:
        from repro.store import pack_trace

        records = self.load()
        trace = self.decode(records)
        src = self.path(self.meta["trace"])
        with self.tr.span("store.pack"):
            res = pack_trace(
                trace, self.path("inproc.store"),
                source={"path": os.path.abspath(src),
                        "frames": len(records),
                        "buffer_words": len(records[0].words)},
                force=True)
        raw = os.path.getsize(src)
        return (f"packed {self.meta['trace']} -> packed.store\n"
                f"events: {res.events}  shards: {res.shards}  "
                f"cpus: {res.cpus}  anomalies: {res.anomalies}\n"
                f"bytes: {res.bytes_written:,} "
                f"({res.bytes_written / raw:.2f}x of the raw trace's "
                f"{raw:,})\n")

    def query(self) -> str:
        from repro.store import TraceStore, shard_cache
        from repro.tools.listing import format_event

        q = self.meta["query"]
        shard_cache().clear()  # a subprocess query is always cold
        with self.tr.span("store.open"):
            store = TraceStore(self.path(self.meta["store"]),
                               registry=self.reg)
        with self.tr.span("store.query"):
            qr = store.query(query_predicate(q))
        with self.tr.span("tools.listing.render"):
            text = "".join(format_event(e) + "\n"
                           for e in qr.batch.events(qr.batch.order_by_time()))
        self.count("store.shards_read", qr.shards_read)
        self.count("store.shards_pruned", qr.shards_pruned)
        self.count("store.rows_scanned", qr.rows_scanned)
        self.count("store.matched", len(qr))
        return text

    def follow(self) -> str:
        from repro.live.monitor import LiveMonitor
        from repro.live.source import Replayer
        from repro.tools.kmon import live_render

        records = self.load()
        monitor = LiveMonitor(registry=self.reg)
        with self.tr.span("live.feed"):
            monitor.drain(Replayer(records, speed=0.0))
        with self.tr.span("live.render"):
            text = live_render(monitor.trace(), width=96) + "\n"
        self.count("live.evicted_events", monitor.evicted_events)
        return text

    def help(self) -> str:
        from repro.cli import build_parser

        with self.tr.span("cli.help"):
            return build_parser().format_help()

    def run(self, name: str) -> str:
        """One subcommand: one operation, under one ``op.<name>`` span."""
        with self.tr.span(f"op.{name}"):
            out = getattr(self, name)()
        self.tr.op += 1
        return out


def query_predicate(q: Dict):
    from repro.store import Predicate

    return Predicate(cpus=(int(q["cpu"]),), start_s=float(q["start"]),
                     end_s=float(q["end"]), include_control=False)


def info_text(path: str, records, trace) -> str:
    """``repro-trace info`` (columnar path), from its public inputs."""
    import numpy as np

    from repro.core.columnar import as_batch

    b = as_batch(trace)
    lines = [f"trace file: {path}",
             f"frames: {len(records)}  buffer words: "
             f"{len(records[0].words) if records else 0}",
             f"cpus: {trace.cpus}",
             f"events: {len(b)}  anomalies: {len(trace.anomalies)}"]
    t_idx = np.flatnonzero(b.timed)
    if len(t_idx):
        tl = b.time[t_idx].tolist()
        t_min, t_max = min(tl), max(tl)
        lines.append(f"time span: {(t_max - t_min) / 1e9:.6f} s "
                     f"({t_min:,} .. {t_max:,} cycles)")
    maj, first, cnt = np.unique(b.major, return_index=True,
                                return_counts=True)
    for i in sorted(range(len(maj)), key=lambda i: (-cnt[i], first[i])):
        lines.append(f"  major {int(maj[i]):>2}: {int(cnt[i]):>8} events")
    return "\n".join(lines) + "\n"


def expected_outputs(workdir: str, meta: Dict) -> Dict[str, bytes]:
    """The oracle: what each subcommand must print, computed in-process.

    One decode serves every tool; ``list --workers 2`` must equal the
    sequential listing, and ``follow --replay instant`` (unbounded
    window) must equal the post-mortem timeline.
    """
    pipe = Pipeline(workdir, meta, harness.NullTracer())
    out = {name: pipe.run(name) for name in
           ("info", "list", "locks", "profile", "sched", "kmon",
            "breakdown", "pack", "query", "help")}
    out["list_workers2"] = out["list"]
    out["follow"] = out["kmon"]
    return {k: v.encode() for k, v in out.items()}


# -- the workload -----------------------------------------------------------------

def run(ctx) -> Dict:
    if ctx.traced:
        return run_traced(ctx)
    meta = ctx.meta
    env = harness.clean_env(ctx.root)
    base = [sys.executable, "-m", "repro.cli"]
    # (name, wall, wall at the reference speed, maxrss)
    samples: List[Tuple[str, float, float, float]] = []
    outputs: List[Tuple[str, bytes, int]] = []
    t_end = time.perf_counter() + ctx.seconds
    while not samples or time.perf_counter() < t_end:
        for name, args in MIX:
            res, scale = ctx.gauge.run(lambda: harness.run_child(
                base + argv_for(args, meta), env,
                os.path.join(ctx.workdir, "stdout.txt"),
                os.path.join(ctx.workdir, "stderr.txt"), cwd=ctx.workdir))
            samples.append((name, res.wall_s, res.wall_s * scale,
                            res.maxrss_mb))
            outputs.append((name, harness.digest(res.stdout),
                            res.returncode))
    expected = {k: harness.digest(v)
                for k, v in expected_outputs(ctx.workdir, meta).items()}
    failed = sum(1 for name, dig, rc in outputs
                 if rc != 0 or dig != expected[name])

    def figures(col: int) -> Dict[str, float]:
        # Each command at its median time.  The percentiles are taken
        # over the commands, so every command weighs the same however
        # many cycles the run completed.
        per_command = {n: harness.median([s[col] for s in samples
                                          if s[0] == n]) for n, _a in MIX}
        typical = list(per_command.values())
        # One pass of every whole-trace call.
        whole_s = sum(per_command[n] for n in WHOLE_TRACE)
        return {"op_p50_s": harness.quantile(typical, 0.5),
                "op_p90_s": harness.quantile(typical, 0.9),
                "events_per_s": meta["events"] * len(WHOLE_TRACE) / whole_s,
                "per_command_median_s": per_command}

    e2e = figures(2)
    return {
        "attempted": len(outputs),
        "failed": failed,
        "e2e": {
            "op_p50_s": e2e["op_p50_s"],
            "op_p90_s": e2e["op_p90_s"],
            "events_per_s": e2e["events_per_s"],
            "peak_rss_mb": max(s[3] for s in samples),
        },
        "info": {"samples": len(samples), "unscaled": figures(1)},
    }


def run_traced(ctx) -> Dict:
    meta = ctx.meta
    env = harness.clean_env(ctx.root)
    exe = sys.executable

    def child_wall(argv: List[str]) -> float:
        return harness.median([
            harness.run_child(argv, env,
                              os.path.join(ctx.workdir, "stdout.txt"),
                              os.path.join(ctx.workdir, "stderr.txt"),
                              cwd=ctx.workdir).wall_s
            for _ in range(3)])

    interp = child_wall([exe, "-c", "pass"])
    imported = child_wall([exe, "-c", "import repro.cli"])
    startup = child_wall([exe, "-m", "repro.cli", "--help"])

    expected = expected_outputs(ctx.workdir, meta)
    names = [n for n, _a in MIX]
    tracer = ctx.tracer
    plain = Pipeline(ctx.workdir, meta, harness.NullTracer())
    pipe = Pipeline(ctx.workdir, meta, tracer)
    attempted = failed = 0

    def cycle(p: Pipeline) -> float:
        nonlocal attempted, failed
        t0 = time.perf_counter()
        for name in names:
            attempted += 1
            failed += p.run(name).encode() != expected[name]
        return time.perf_counter() - t0

    # Untraced and traced cycles alternate, so the tracing overhead is
    # taken against cycles that ran under the same machine conditions.
    untraced: List[float] = []
    cycles: List[float] = []
    t_end = time.perf_counter() + ctx.seconds
    while not cycles or time.perf_counter() < t_end:
        untraced.append(cycle(plain))
        cycles.append(cycle(pipe))

    n = len(cycles)
    st = tracer.self_times()
    c = pipe.counts
    layer = {k: v / n for k, v in c.items()}
    layer.update({f"{k}_s": v / n for k, v in st.items()
                  if not k.startswith("op.")})
    # Every sequential decode is one scan + assemble pass over the trace.
    seq_decode = ((st["stream.scan"] + st["columnar.assemble"])
                  / (c["stream.buffers"] / meta["frames"]))
    layer.update({
        "cli.interpreter_s": interp,
        "cli.import_s": imported - interp,
        "cli.startup_s": startup,
        "pool.speedup_vs_seq": seq_decode / (st["pool.decode"] / n),
        "store.rows_scanned_per_match":
            c["store.rows_scanned"] / max(c["store.matched"], 1),
        "tracing.overhead_ratio":
            harness.median(cycles) / harness.median(untraced) - 1.0,
    })
    return {"attempted": attempted, "failed": failed, "layer": layer,
            "info": {"cycles": n}}
