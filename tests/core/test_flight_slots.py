"""Flight-recorder snapshots and crash dumps emit only buffers that exist.

A ring that has not wrapped yet has slots no buffer ever used; their
``slot_seq`` entry is still the initial 0.  Emitting them made every
unwrapped snapshot look full: duplicate ``(cpu, 0)`` buffers that
decoded as false ``garbled`` anomalies.  Both readers of the ring — the
live ``TraceControl.snapshot()`` and the crash-dump reader — must emit
each buffer once and decode clean at every fill level: empty, partial,
exactly full, wrapped, and with zero-ahead clearing the next slot.
"""

from collections import Counter

import pytest

from repro.check.oracle import OracleReader
from repro.core.buffers import TraceControl, slot_written
from repro.core.crashdump import dump_bytes, read_dump
from repro.core.facility import TraceFacility
from repro.core.logger import TraceLogger
from repro.core.majors import Major
from repro.core.mask import TraceMask
from repro.core.timestamps import ManualClock
from tests.core.test_parallel import as_comparable, assert_all_paths_identical

BUFFER_WORDS = 32
NUM_BUFFERS = 8
RING_WORDS = BUFFER_WORDS * NUM_BUFFERS


def _ring(fill, zero_ahead=False):
    """A flight ring logged to a fill level; returns (control, values)."""
    control = TraceControl(buffer_words=BUFFER_WORDS,
                           num_buffers=NUM_BUFFERS, mode="flight",
                           zero_ahead=zero_ahead)
    if fill == "empty":
        return control, []
    mask = TraceMask()
    mask.enable_all()
    clock = ManualClock()
    logger = TraceLogger(control, mask, clock)
    logger.start()
    values = []

    def log():
        clock.advance(3)
        logger.log1(Major.TEST, 1, len(values))
        values.append(len(values))

    if fill == "partial":
        for _ in range(5):
            log()
    elif fill == "exactly-full":
        while control.index.load() < RING_WORDS:
            log()
        assert control.index.load() == RING_WORDS   # every slot, no wrap
    else:   # "wrapped"
        while control.index.load() < 2 * RING_WORDS + BUFFER_WORDS // 2:
            log()
    return control, values


FILLS = ["empty", "partial", "exactly-full", "wrapped"]
CASES = [(f, False) for f in FILLS] + [("partial", True), ("wrapped", True)]


def _readers(control):
    return {
        "snapshot": control.snapshot(),
        "crashdump": read_dump(dump_bytes([control])).records,
    }


@pytest.mark.parametrize("fill,zero_ahead", CASES)
def test_ring_readers_emit_real_buffers_only(fill, zero_ahead):
    control, values = _ring(fill, zero_ahead)
    for name, records in _readers(control).items():
        why = f"{name} of a {fill} ring (zero_ahead={zero_ahead})"
        keys = Counter((r.cpu, r.seq) for r in records)
        assert all(n == 1 for n in keys.values()), f"{why}: {keys}"
        trace = assert_all_paths_identical(records, include_fillers=True)
        assert trace.anomalies == [], f"{why}: {trace.anomalies}"
        got = [e.data[0] for e in trace.events(0) if e.major == Major.TEST]
        # What the ring still holds is a contiguous suffix of the log.
        assert got == values[len(values) - len(got):], why
        if fill in ("partial", "exactly-full"):
            assert got == values, why
        if fill == "empty":
            assert records == [], why


@pytest.mark.parametrize("fill,zero_ahead", CASES)
def test_crashdump_matches_snapshot(fill, zero_ahead):
    control, _ = _ring(fill, zero_ahead)
    readers = _readers(control)
    snap = OracleReader().decode_records(readers["snapshot"])
    dumped = OracleReader().decode_records(readers["crashdump"])
    assert as_comparable(dumped) == as_comparable(snap)


def test_facility_snapshot_of_unwrapped_rings_is_clean():
    """The reported case: 64-slot rings a short run never wraps."""
    fac = TraceFacility(ncpus=2, buffer_words=1024, num_buffers=64,
                        clock=ManualClock())
    fac.enable_all()
    for i in range(40):
        fac.clock.advance(5)
        fac.log(i % 2, Major.TEST, 1, [i])
    records = fac.snapshot()
    assert len(records) == 2
    keys = Counter((r.cpu, r.seq) for r in records)
    assert all(n == 1 for n in keys.values())
    trace = assert_all_paths_identical(records)
    assert trace.anomalies == []


def test_slot_written_predicate():
    n = NUM_BUFFERS
    assert slot_written(0, 0, n)            # slot 0 holds seq 0 first
    assert not slot_written(3, 0, n)        # initial 0 in an unused slot
    assert slot_written(3, 3, n) and slot_written(3, 3 + 2 * n, n)
    assert not slot_written(3, 4, n)
