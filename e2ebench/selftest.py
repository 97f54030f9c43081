"""Self-tests of the benchmark, at the tiny input size.

    python3 e2ebench/selftest.py        # from the root of a checkout

Checks that every metric ``BENCHMARK.json`` names is printed with its
unit on every workload, that a wrong oracle result counts as a failed
operation, that the clean-input gate refuses damaged input, that two
seeds give different inputs (and one seed the same inputs twice), that
the caller's program knobs are scrubbed, that a run leaves no process
behind, and that the benchmark fails without printing a result where
the program is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

ROOT = harness.checkout_root()
SCRATCH = os.path.join(ROOT, run.WORK_DIR, f"selftest-{os.getpid()}")
RUN = [sys.executable, os.path.join(harness.HERE, "run.py")]


def scratch(name: str) -> str:
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def bench(workload: str, trace: int, env=None, cwd=ROOT):
    argv = RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=170)


def context(workload: str, seed: int = 1, traced: bool = False):
    workdir = scratch(f"{workload}-{seed}-{int(traced)}")
    gauge = harness.SpeedGauge()
    meta = run.setup(ROOT, workload, seed, workdir, "tiny", gauge)
    return run.Context(ROOT, workdir, seed, 0.01, traced, meta, gauge)


class MetricsPrinted(unittest.TestCase):
    """Every named metric, with its unit, on every workload and mode."""

    def test_all_workloads(self):
        spec = run.load_spec(ROOT)
        for wl in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=wl, trace=trace):
                    p = bench(wl, trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    res = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    defs = spec["per_layer" if trace else "end_to_end"]
                    self.assertEqual(
                        {k: v["unit"] for k, v in res["metrics"].items()},
                        {d["name"]: d["unit"] for d in defs})
                    if not trace:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    info = json.loads(p.stdout.strip().splitlines()[-2])
                    self.assertFalse(info["e2ebench"]["repro_perf_imported"])


class WrongResultsFail(unittest.TestCase):
    """A wrong output or wrong rows is counted against the attempts."""

    def tearDown(self):
        if "repro.core.pool" in sys.modules:
            sys.modules["repro.core.pool"].shutdown()

    def test_postmortem_wrong_digest(self):
        import wl_postmortem

        ctx = context("postmortem")
        good = wl_postmortem.expected_outputs

        def wrong(workdir, meta):
            out = good(workdir, meta)
            out["locks"] += b"x"
            return out

        with mock.patch.object(wl_postmortem, "expected_outputs", wrong):
            res = wl_postmortem.run(ctx)
        self.assertEqual(res["attempted"], len(wl_postmortem.MIX))
        self.assertEqual(res["failed"], 1)

    def test_fleet_wrong_rows(self):
        import numpy as np

        import repro.store
        import wl_fleet

        ctx = context("fleet_store")
        good = repro.store.select

        def drop_first_row(batch, pred, *a, **kw):
            m = good(batch, pred, *a, **kw).copy()
            hit = np.flatnonzero(m)
            if len(hit):
                m[hit[0]] = False
            return m

        with mock.patch.object(repro.store, "select", drop_first_row):
            res = wl_fleet.run(ctx)
        self.assertGreater(res["failed"], 0)
        clean = wl_fleet.run(ctx)
        self.assertEqual(clean["failed"], 0)

    def test_record_wrong_events(self):
        import wl_record

        ctx = context("record")
        good = wl_record.load_script

        def wrong(workdir, meta):
            events, cols = good(workdir, meta)
            cols[4][0, 0] ^= 1     # one payload word the producers never saw
            cols[3][0] = 3
            return events, cols

        with mock.patch.object(wl_record, "load_script", wrong):
            res = wl_record.run(ctx)
        self.assertEqual(res["failed"], res["attempted"])


class CleanInputGate(unittest.TestCase):
    """FaultInjector damage never gets past set-up."""

    @classmethod
    def setUpClass(cls):
        cls.dir = scratch("gate")
        inputs.generate("postmortem", 1, cls.dir, "tiny")
        cls.trace = os.path.join(cls.dir, inputs.TRACE_NAME)

    def test_clean_input_passes(self):
        inputs.gate_file(self.trace)

    def test_damaged_files_refused(self):
        from repro.core.faults import FILE_KINDS, FaultInjector

        with open(self.trace, "rb") as fh:
            data = fh.read()
        for kind in FILE_KINDS:
            with self.subTest(kind=kind):
                bad, _rep = FaultInjector(seed=5).inject_trace_bytes(data,
                                                                     kind)
                path = os.path.join(self.dir, f"bad-{kind}.k42")
                with open(path, "wb") as fh:
                    fh.write(bad)
                with self.assertRaises(inputs.UncleanInput):
                    inputs.gate_file(path)

    def test_damaged_records_refused(self):
        from repro.core.faults import RECORD_KINDS, FaultInjector
        from repro.core.writer import load_records

        records = load_records(self.trace)
        for kind in RECORD_KINDS:
            with self.subTest(kind=kind):
                bad, _rep = FaultInjector(seed=5).inject_records(records,
                                                                 kind)
                with self.assertRaises(inputs.UncleanInput):
                    inputs.gate_records(bad, [], kind)

    def test_duplicate_buffer_refused(self):
        from repro.core.writer import load_records

        records = load_records(self.trace)
        with self.assertRaises(inputs.UncleanInput):
            inputs.gate_records(records + records[:1], [], "dup")

    def test_setup_refuses_unclean_input(self):
        """The gate runs inside set-up: a damaged generator fails it."""
        import repro.core.writer as writer

        good = writer.save_records

        def save_damaged(path, records, **kw):
            from repro.core.faults import FaultInjector

            bad, _ = FaultInjector(seed=1).inject_records(records,
                                                          "torn-event")
            return good(path, bad, **kw)

        out = scratch("gate-setup")
        with mock.patch.object(writer, "save_records", save_damaged):
            with self.assertRaises(inputs.UncleanInput):
                inputs.generate("postmortem", 1, out, "tiny")


class SeedsChangeInputs(unittest.TestCase):
    def test_two_seeds_differ_and_one_seed_repeats(self):
        for wl in inputs.GENERATORS:
            with self.subTest(workload=wl):
                a = inputs.generate(wl, 1, scratch(f"{wl}-a"), "tiny")
                b = inputs.generate(wl, 2, scratch(f"{wl}-b"), "tiny")
                c = inputs.generate(wl, 1, scratch(f"{wl}-c"), "tiny")
                self.assertNotEqual(a["digest"], b["digest"])
                self.assertEqual(a["digest"], c["digest"])
                self.assertEqual(a["events"], c["events"])


class Isolation(unittest.TestCase):
    def test_caller_knobs_are_scrubbed(self):
        env = dict(os.environ, REPRO_POOL_WORKERS="7",
                   REPRO_SHARD_CACHE_MB="1", PYTHONHASHSEED="123")
        p = bench("record", 0, env=env)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        info = json.loads(p.stdout.strip().splitlines()[-2])["e2ebench"]
        self.assertEqual(info["environment"]["repro_env_seen"], [])
        self.assertEqual(info["environment"]["pythonhashseed"], "0")

    def test_fails_without_the_program(self):
        bare = scratch("bare")
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(harness.HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "e2ebench/run.py", "--workload", "record",
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        p = subprocess.run(argv, capture_output=True, text=True, cwd=bare,
                           timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


def session_members(sid: int):
    """Pids of live or zombie processes in session ``sid``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            out.append(int(name))
    return out


class NoProcessLeft(unittest.TestCase):
    """A run stops and reaps every process it started, on every workload.

    The run gets a session of its own; once it has exited, no process
    (not even a zombie) may remain in that session.
    """

    def test_all_workloads(self):
        for wl in run.WORKLOADS:
            with self.subTest(workload=wl):
                argv = RUN + ["--workload", wl, "--seed", "3", "--seconds",
                              "0.5", "--trace", "0", "--size", "tiny"]
                p = subprocess.Popen(argv, cwd=ROOT, start_new_session=True,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
                self.assertEqual(p.wait(timeout=170), 0)
                self.assertEqual(session_members(p.pid), [])


def main() -> int:
    if not harness.program_present(ROOT):
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    harness.prepare_environment(ROOT)
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        prog = unittest.main(exit=False, verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0 if prog.result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
