"""The program's read path, split at its layer seams for the traced runs.

``load`` is what ``load_records`` does and ``decode`` is what
``decode_records_columnar`` does, made of the same public calls, with a
span around each layer's share and the layer's public stats counted.
"""

from __future__ import annotations

from typing import Callable


def load(tr, path: str, count: Callable[[str, float], None]):
    """Read every frame of a ``.k42`` file (``core.writer``)."""
    from repro.core.writer import TraceFileReader

    with tr.span("writer.load"):
        with open(path, "rb") as fh:
            reader = TraceFileReader(fh)
            records = reader.read_all()
    count("writer.frames", len(records))
    count("writer.issues", len(reader.issues))
    return records


def decode(tr, records, registry, count: Callable[[str, float], None]):
    """Scan every buffer (``core.stream``), then fold the scans into
    columns (``core.columnar``).  A scan does not depend on assembler
    state, so scanning all buffers first decodes bit-identically to the
    interleaved loop of ``decode_records_columnar``."""
    from repro.core.columnar import ColumnarAssembler
    from repro.core.stream import scan_buffer

    ordered = sorted(records, key=lambda r: (r.cpu, r.seq))
    with tr.span("stream.scan"):
        scans = [scan_buffer(r.words, r.fill_words, recover=True)
                 for r in ordered]
    with tr.span("columnar.assemble"):
        asm = ColumnarAssembler(registry=registry)
        for rec, scan in zip(ordered, scans):
            asm.add_buffer(rec, scan)
        trace = asm.finish()
    count("stream.buffers", len(ordered))
    count("columnar.events", len(trace.batch()))
    count("columnar.anomalies", len(trace.anomaly_columns))
    return trace
