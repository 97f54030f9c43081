"""End-to-end benchmark of the trace toolkit: one workload, one seed.

    python3 e2ebench/run.py --workload postmortem --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from
``./src`` and driven only through generated input files: set-up (a
child process, repeated, median reported) writes the seeded inputs
under ``./.e2ebench_work`` and refuses any that do not decode clean;
the workload then measures for ``--seconds``; every output is checked
against an oracle.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the workload with spans around every layer call and
prints the per-layer metrics (spans go to ``./.e2ebench_out``).  The
last stdout line is the JSON result; metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import time
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = {"record": "wl_record", "postmortem": "wl_postmortem",
             "fleet_store": "wl_fleet"}
SETUP_REPS = 5
WORK_DIR = ".e2ebench_work"
OUT_DIR = ".e2ebench_out"


class Context:
    """What a workload module's ``run(ctx)`` gets."""

    def __init__(self, root: str, workdir: str, seed: int, seconds: float,
                 traced: bool, meta: Dict[str, Any],
                 gauge: harness.SpeedGauge) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.meta = meta
        self.tracer = harness.Tracer() if traced else harness.NullTracer()
        self.gauge = harness.NullGauge() if traced else gauge


def load_spec(root: str) -> Dict[str, Any]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def setup(root: str, workload: str, seed: int, workdir: str, size: str,
          gauge: harness.SpeedGauge) -> Dict[str, Any]:
    """Generate the inputs ``SETUP_REPS`` times; each must be identical.

    ``setup_s`` is the median wall time at the reference speed.
    """
    walls: List[float] = []
    scaled: List[float] = []
    metas: List[Dict[str, Any]] = []
    argv = [sys.executable, os.path.join(harness.HERE, "inputs.py"),
            "--workload", workload, "--seed", str(seed), "--out", workdir,
            "--size", size]
    for _ in range(SETUP_REPS):
        res, scale = gauge.run(lambda: harness.run_child(
            argv, harness.clean_env(root), os.path.join(workdir, "setup.out"),
            os.path.join(workdir, "setup.err"), cwd=root))
        if res.returncode != 0:
            raise RuntimeError(
                f"set-up failed (rc {res.returncode}): "
                f"{res.stderr.decode(errors='replace').strip()[-400:]}")
        walls.append(res.wall_s)
        scaled.append(res.wall_s * scale)
        metas.append(json.loads(res.stdout.decode().strip().splitlines()[-1]))
    if any(m["digest"] != metas[0]["digest"] for m in metas):
        raise RuntimeError("set-up is not deterministic for this seed")
    meta = metas[0]
    meta["setup_s"] = harness.median(scaled)
    meta["setup_samples_s"] = walls
    return meta


def collect_metrics(spec: Dict[str, Any], traced: bool,
                    values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every metric ``BENCHMARK.json`` names for this mode, with its unit.

    A per-layer metric the workload never exercised reads 0 (the layer
    did no work); an end-to-end metric must be measured.
    """
    defs = spec["per_layer"] if traced else spec["end_to_end"]
    out = {}
    for d in defs:
        if d["name"] in values:
            v = values[d["name"]]
        elif traced:
            v = 0.0
        else:
            raise KeyError(f"workload did not measure {d['name']}")
        out[d["name"]] = harness.metric(v, d["unit"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="reference",
                    choices=sorted(inputs.SIZES),
                    help="input size preset (tiny: self-tests)")
    args = ap.parse_args(argv)

    root = harness.checkout_root()
    if not harness.program_present(root):
        print("e2ebench: program sources not found under ./src; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    harness.prepare_environment(root)
    harness.adopt_orphans()
    # A terminated run still takes the ``finally`` path below, which
    # stops its children and removes its inputs.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    spec = load_spec(root)

    workdir = os.path.join(root, WORK_DIR,
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        gauge = harness.SpeedGauge()
        meta = setup(root, args.workload, args.seed, workdir, args.size,
                     gauge)
        ctx = Context(root, workdir, args.seed, args.seconds,
                      bool(args.trace), meta, gauge)
        module = importlib.import_module(WORKLOADS[args.workload])
        t0 = time.perf_counter()
        res = module.run(ctx)
        elapsed = time.perf_counter() - t0
    finally:
        harness.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = dict(res["layer"])
    else:
        values = dict(res["e2e"])
        values["setup_s"] = meta["setup_s"]
    metrics = collect_metrics(spec, bool(args.trace), values)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "measured_s": elapsed,
        "environment": harness.environment_record(),
        "inputs": {k: meta[k] for k in ("digest", "events", "size",
                                        "config", "setup_samples_s")},
        "details": res.get("info", {}),
        "speed_gauge": gauge.record(),
        "repro_perf_imported": "repro.perf" in sys.modules,
    }
    if args.trace:
        out_dir = os.path.join(root, OUT_DIR)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"info": info, "layer": values,
                       "span_fields": ["name", "start", "end", "parent",
                                       "op"],
                       "spans": ctx.tracer.dump()}, fh)
        info["spans_file"] = os.path.relpath(path, root)
    print(json.dumps({"e2ebench": info}, sort_keys=True))
    failed = int(res["failed"])
    print(harness.result_line(failed == 0, res["attempted"], failed,
                              metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
