"""Deadlock detection from the trace — the §4.2 correctness-debugging use.

"A deadlock in the file system space was tracked down with the tracing
facility ... a trace file was produced and post-processed to detect
where the cycle had occurred."

Reconstruction: replay lock events to know, at end of trace, which
thread owns each lock (``ACQUIRE``/``CONTEND_END`` vs ``RELEASE``) and
which thread is still waiting on which lock (a ``CONTEND_START`` with no
matching ``CONTEND_END``).  Edges *waiter-thread → owner-thread* form the
wait-for graph; a cycle is a deadlock.  Each waiter waits on one lock
and each lock has at most one owner, so every thread has at most one
outgoing edge and cycles are found by following pointers.

Requires lock tracing on the uncontended paths too
(``KernelConfig.trace_all_lock_events=True``) so ownership of
never-contended locks is visible — the kind of extra detail one enables
while correctness debugging.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.majors import LockMinor, Major
from repro.core.stream import Trace
from repro.tools.context import ContextTracker


@dataclass
class DeadlockReport:
    """The wait-for cycles found, with human-readable paths."""

    cycles: List[List[int]] = field(default_factory=list)  # thread addrs
    #: thread addr -> lock id it is waiting for
    waiting_on: Dict[int, int] = field(default_factory=dict)
    #: lock id -> owning thread addr at end of trace
    owners: Dict[int, int] = field(default_factory=dict)

    @property
    def deadlocked(self) -> bool:
        return bool(self.cycles)

    def describe(
        self,
        lock_names: Optional[Dict[int, str]] = None,
        thread_pids: Optional[Dict[int, int]] = None,
    ) -> str:
        if not self.cycles:
            return "no deadlock detected"
        lines = [f"{len(self.cycles)} deadlock cycle(s) detected"]
        for i, cycle in enumerate(self.cycles):
            parts = []
            for thread in cycle:
                lock = self.waiting_on.get(thread)
                lname = (lock_names or {}).get(lock, f"{lock:#x}" if lock else "?")
                pid = (thread_pids or {}).get(thread)
                who = f"thread {thread:#x}" + (f" (pid {pid})" if pid is not None else "")
                parts.append(f"{who} waits for {lname}")
            lines.append(f"  cycle {i}: " + " -> ".join(parts))
        return "\n".join(lines)


def find_deadlocks(trace: Trace) -> DeadlockReport:
    """Replay lock events and report wait-for cycles at trace end."""
    ctx = ContextTracker(trace)
    owners: Dict[int, int] = {}            # lock -> thread addr
    waiting: Dict[int, int] = {}           # thread addr -> lock
    pending: Dict[int, deque] = defaultdict(deque)  # lock -> waiter threads

    for e in trace.all_events():
        if e.major != Major.LOCK or not e.data:
            continue
        lock_id = e.data[0]
        thread = ctx.thread_of(e)
        if e.minor == LockMinor.ACQUIRE:
            owners[lock_id] = thread
        elif e.minor == LockMinor.CONTEND_START:
            waiting[thread] = lock_id
            pending[lock_id].append(thread)
        elif e.minor == LockMinor.CONTEND_END:
            # FIFO grant: the longest waiter becomes the owner.
            if pending[lock_id]:
                waiter = pending[lock_id].popleft()
                waiting.pop(waiter, None)
                owners[lock_id] = waiter
            else:
                owners[lock_id] = thread
        elif e.minor == LockMinor.RELEASE:
            owners.pop(lock_id, None)

    waits_for: Dict[int, int] = {}
    for waiter, lock_id in waiting.items():
        owner = owners.get(lock_id)
        if owner is not None and owner != waiter:
            waits_for[waiter] = owner
    return DeadlockReport(cycles=wait_for_cycles(waits_for),
                          waiting_on=dict(waiting), owners=dict(owners))


def wait_for_cycles(waits_for: Dict[int, int]) -> List[List[int]]:
    """Every cycle of a wait-for graph in which each thread waits for at
    most one other (``waits_for[thread] -> thread``).

    Such a graph's cycles are disjoint, and a walk from any thread
    reaches at most one of them.  Each cycle is returned rotated to
    start at its smallest thread; the list is sorted.
    """
    walked: Dict[int, int] = {}   # thread -> the walk that reached it
    cycles: List[List[int]] = []
    for start in waits_for:
        if start in walked:
            continue
        path: List[int] = []
        node: Optional[int] = start
        while node is not None and node not in walked:
            walked[node] = start
            path.append(node)
            node = waits_for.get(node)
        if node is not None and walked[node] == start:
            cycle = path[path.index(node):]
            i = cycle.index(min(cycle))
            cycles.append(cycle[i:] + cycle[:i])
    return sorted(cycles)
