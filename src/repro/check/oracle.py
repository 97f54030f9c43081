"""The reference decoder: a word-at-a-time walk kept as a test oracle.

Production decoding is one pipeline — :func:`~repro.core.stream.scan_buffer`
feeding :class:`~repro.core.columnar.ColumnarAssembler`, sequentially or
over sharded worker scans.  This module is the independent check on it:
it unpacks every header with :func:`~repro.core.header.unpack_header`,
walks one word at a time with Python integers, and reconstructs full
timestamps by event-by-event accumulation instead of a cumulative sum.
Every equivalence suite, fault matrix, property test and the schedule
checker compare the production decoder against :class:`OracleReader`;
the two must agree event for event and anomaly for anomaly on clean and
damaged input alike.

It shares only the resync search (:func:`~repro.core.stream.find_resync`)
and the small header predicates with production; the walk, the data
slicing and the time unwrap are its own.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.buffers import BufferRecord
from repro.core.constants import EXTENDED_FILLER_LENGTH
from repro.core.header import unpack_header
from repro.core.majors import ControlMinor, Major
from repro.core.registry import EventRegistry
from repro.core.stream import (
    Anomaly,
    Trace,
    TraceEvent,
    _is_anchor_header,
    find_resync,
    sdelta32,
)


class OracleReader:
    """Decodes buffer records the slow, obvious way into a :class:`Trace`.

    Same options as the production readers: ``strict=True`` stops at the
    first garble of a buffer, the default resynchronizes past it; fillers
    are dropped unless ``include_fillers``; ``check_committed`` enables
    the per-buffer ``traceCommit`` check.
    """

    def __init__(
        self,
        registry: Optional[EventRegistry] = None,
        include_fillers: bool = False,
        check_committed: bool = True,
        strict: bool = False,
    ) -> None:
        self.registry = registry
        self.include_fillers = include_fillers
        self.check_committed = check_committed
        self.strict = strict

    def decode_records(self, records: Iterable[BufferRecord]) -> Trace:
        """Decode a collection of buffer records (any CPUs, any order)."""
        by_cpu: Dict[int, List[BufferRecord]] = {}
        for rec in records:
            by_cpu.setdefault(rec.cpu, []).append(rec)
        trace = Trace()
        for cpu, recs in sorted(by_cpu.items()):
            recs.sort(key=lambda r: r.seq)
            events: List[TraceEvent] = []
            last_full: Optional[int] = None
            last_ts32: Optional[int] = None
            for rec in recs:
                evs = self.decode_buffer(rec, trace.anomalies)
                last_full, last_ts32 = self.reconstruct_times(
                    evs, rec, trace.anomalies, last_full, last_ts32
                )
                if not self.include_fillers:
                    evs = [e for e in evs if not e.is_filler]
                events.extend(evs)
            trace.events_by_cpu[cpu] = events
        return trace

    def decode_buffer(
        self, rec: BufferRecord, anomalies: List[Anomaly]
    ) -> List[TraceEvent]:
        """Walk one buffer word by word, validating headers.

        In strict mode a garble verdict stops the walk — the rest of the
        buffer is abandoned and parsing resumes at the next alignment
        boundary.  Otherwise the walk rescans forward for the next
        plausible header and salvages the remainder.
        """
        words = rec.words
        limit = min(rec.fill_words, len(words))
        recover = not self.strict
        events: List[TraceEvent] = []
        garbles: List[Tuple[int, str]] = []
        resumes: List[Optional[int]] = []

        def fields(o: int) -> Tuple[int, int, int, int]:
            h = unpack_header(int(words[o]))
            return h.timestamp, h.length, h.major, h.minor

        off = 0
        prev_ts32: Optional[int] = None
        while off < limit:
            word = int(words[off])
            hdr = unpack_header(word)
            length = hdr.length
            span = length
            verdict: Optional[str] = None
            if (
                length == EXTENDED_FILLER_LENGTH
                and hdr.major == Major.CONTROL
                and hdr.minor == ControlMinor.FILLER_EXT
            ):
                if off + 1 >= limit:
                    verdict = "truncated extended filler"
                else:
                    span = int(words[off + 1])
                    length = 2  # header + span word are the real payload
                    if span < 2 or off + span > limit:
                        verdict = f"bad extended filler span {span}"
            elif length == 0 or off + length > limit:
                verdict = f"invalid header {word:#018x} (length {length})"
            if verdict is None and prev_ts32 is not None \
                    and sdelta32(hdr.timestamp, prev_ts32) < 0 \
                    and not _is_anchor_header(hdr.major, hdr.minor,
                                              hdr.length):
                # Per-CPU timestamps are monotonic by construction
                # (§3.1); anchors are exempt — they carry the full value
                # and exist to bridge exactly such gaps (§3.2).
                verdict = f"timestamp regression {prev_ts32}->{hdr.timestamp}"
            if verdict is not None:
                garbles.append((off, verdict))
                if not recover:
                    resumes.append(None)
                    break
                resume = find_resync(fields, off + 1, limit, prev_ts32)
                resumes.append(resume)
                if resume is None:
                    break
                if prev_ts32 is not None \
                        and sdelta32(fields(resume)[0], prev_ts32) < 0:
                    # Shape-only (relaxed) resync: restart the chain.
                    prev_ts32 = None
                off = resume
                continue
            if hdr.major == Major.CONTROL and hdr.minor == ControlMinor.FILLER:
                # A plain filler is just a header spanning the remainder;
                # the words underneath it are not event data.
                data = []
            else:
                data = [int(w) for w in words[off + 1 : off + length]]
            spec = (
                self.registry.lookup(hdr.major, hdr.minor)
                if self.registry is not None
                else None
            )
            events.append(
                TraceEvent(
                    cpu=rec.cpu,
                    seq=rec.seq,
                    offset=off,
                    ts32=hdr.timestamp,
                    major=hdr.major,
                    minor=hdr.minor,
                    data=data,
                    spec=spec,
                )
            )
            prev_ts32 = hdr.timestamp
            off += span
        for (off, detail), resume in zip(garbles, resumes):
            anomalies.append(Anomaly(rec.cpu, rec.seq, off, "garbled", detail))
            if resume is not None:
                anomalies.append(
                    Anomaly(
                        rec.cpu, rec.seq, off, "recovered-region",
                        f"skipped {resume - off} words; resynchronized at "
                        f"offset {resume}",
                    )
                )
        if (
            self.check_committed
            and not rec.partial
            and rec.committed != rec.fill_words
        ):
            anomalies.append(
                Anomaly(
                    rec.cpu,
                    rec.seq,
                    0,
                    "committed-mismatch",
                    f"committed {rec.committed} words, buffer holds {rec.fill_words}",
                )
            )
        return events

    def reconstruct_times(
        self,
        events: List[TraceEvent],
        rec: BufferRecord,
        anomalies: List[Anomaly],
        last_full: Optional[int],
        last_ts32: Optional[int],
    ) -> Tuple[Optional[int], Optional[int]]:
        """Assign full 64-bit times by event-by-event accumulation.

        Times chain both ways from the buffer's first anchor, re-basing at
        every later anchor; a buffer with no anchor unwraps forward from
        the previous buffer's last event (reported as ``missing-anchor``).
        """
        if not events:
            return (last_full, last_ts32)

        def is_anchor(e: TraceEvent) -> bool:
            return (e.major == Major.CONTROL
                    and e.minor == ControlMinor.TIMESTAMP_ANCHOR
                    and bool(e.data))

        anchor_i = next(
            (i for i, e in enumerate(events) if is_anchor(e)), None)
        if anchor_i is not None:
            anchor = events[anchor_i]
            anchor.time = anchor.data[0]
            for i in range(anchor_i + 1, len(events)):
                if is_anchor(events[i]):
                    events[i].time = events[i].data[0]
                    continue
                events[i].time = events[i - 1].time + sdelta32(
                    events[i].ts32, events[i - 1].ts32
                )
            for i in range(anchor_i - 1, -1, -1):
                events[i].time = events[i + 1].time - sdelta32(
                    events[i + 1].ts32, events[i].ts32
                )
        elif last_full is not None and last_ts32 is not None:
            anomalies.append(
                Anomaly(rec.cpu, rec.seq, 0, "missing-anchor",
                        "no timestamp anchor; times unwrapped from previous buffer")
            )
            prev_full, prev32 = last_full, last_ts32
            for e in events:
                e.time = prev_full + sdelta32(e.ts32, prev32)
                prev_full, prev32 = e.time, e.ts32
        else:
            return (last_full, last_ts32)
        return (events[-1].time, events[-1].ts32)


def decode_records_oracle(
    records: Iterable[BufferRecord],
    registry: Optional[EventRegistry] = None,
    include_fillers: bool = False,
    check_committed: bool = True,
    strict: bool = False,
) -> Trace:
    """Functional form of :meth:`OracleReader.decode_records`."""
    return OracleReader(
        registry=registry,
        include_fillers=include_fillers,
        check_committed=check_committed,
        strict=strict,
    ).decode_records(records)


__all__ = ["OracleReader", "decode_records_oracle"]
