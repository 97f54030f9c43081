"""Deadlock detection (§4.2) tests."""

from repro.core.facility import TraceFacility
from repro.ksim.kernel import Kernel, KernelConfig
from repro.ksim.ops import Acquire, Compute, Release
from repro.tools.deadlock import find_deadlocks


def run_lock_scenario(programs, ncpus=2, max_cycles=10**8):
    kernel = Kernel(KernelConfig(ncpus=ncpus, trace_all_lock_events=True))
    fac = TraceFacility(ncpus=ncpus, clock=kernel.clock, buffer_words=1024,
                        num_buffers=8)
    fac.enable_all()
    kernel.facility = fac
    locks = {}

    def lock(name):
        if name not in locks:
            locks[name] = kernel.create_lock(name)
        return locks[name]

    for i, prog in enumerate(programs):
        kernel.spawn_process(lambda api, p=prog: p(api, lock), f"p{i}", cpu=i % ncpus)
    finished = kernel.run_until_quiescent(max_cycles=max_cycles)
    return kernel, fac.decode(), finished


def test_abba_deadlock_detected():
    """The classic: T1 takes A then wants B; T2 takes B then wants A."""

    def t1(api, lock):
        yield Acquire(lock("A"), ("t1",))
        yield Compute(50_000)
        yield Acquire(lock("B"), ("t1",))
        yield Release(lock("B"))
        yield Release(lock("A"))

    def t2(api, lock):
        yield Acquire(lock("B"), ("t2",))
        yield Compute(50_000)
        yield Acquire(lock("A"), ("t2",))
        yield Release(lock("A"))
        yield Release(lock("B"))

    kernel, trace, finished = run_lock_scenario([t1, t2])
    assert not finished, "the scenario must actually deadlock"
    report = find_deadlocks(trace)
    assert report.deadlocked
    assert len(report.cycles[0]) == 2
    desc = report.describe(lock_names=kernel.symbols().lock_names)
    assert "deadlock cycle" in desc
    assert "waits for" in desc


def test_three_way_cycle_detected():
    def maker(first, second):
        def prog(api, lock):
            yield Acquire(lock(first), ())
            yield Compute(50_000)
            yield Acquire(lock(second), ())
            yield Release(lock(second))
            yield Release(lock(first))
        return prog

    kernel, trace, finished = run_lock_scenario(
        [maker("A", "B"), maker("B", "C"), maker("C", "A")], ncpus=3
    )
    assert not finished
    report = find_deadlocks(trace)
    assert report.deadlocked
    assert any(len(c) == 3 for c in report.cycles)


def test_clean_locking_reports_no_deadlock():
    def prog(api, lock):
        for _ in range(5):
            yield Acquire(lock("only"), ())
            yield Compute(10_000)
            yield Release(lock("only"))

    kernel, trace, finished = run_lock_scenario([prog, prog])
    assert finished
    report = find_deadlocks(trace)
    assert not report.deadlocked
    assert report.describe() == "no deadlock detected"


def test_blocked_but_not_deadlocked_is_not_reported():
    """A thread waiting on a lock the owner never releases (but with no
    cycle) is a hang, not a deadlock cycle."""

    def holder(api, lock):
        yield Acquire(lock("X"), ())
        yield Compute(10**7)  # holds it for ages, never deadlocks

    def waiter(api, lock):
        yield Compute(1_000)
        yield Acquire(lock("X"), ())
        yield Release(lock("X"))

    kernel, trace, finished = run_lock_scenario(
        [holder, waiter], max_cycles=2 * 10**6
    )
    report = find_deadlocks(trace)
    assert not report.deadlocked


def _brute_force_cycles(waits_for):
    """Every simple cycle by exhaustive enumeration of node orderings,
    each rotated to start at its smallest node, sorted."""
    from itertools import permutations

    nodes = sorted(set(waits_for) | set(waits_for.values()))
    found = set()
    for k in range(1, len(nodes) + 1):
        for seq in permutations(nodes, k):
            if seq[0] != min(seq):
                continue
            if all(waits_for.get(a) == b
                   for a, b in zip(seq, seq[1:] + seq[:1])):
                found.add(seq)
    return sorted(list(c) for c in found)


def test_wait_for_cycles_match_brute_force_on_random_graphs():
    """Pointer-following finds exactly the cycles exhaustive search does,
    on random wait-for graphs where each thread waits for at most one
    other (self-waits excluded, as find_deadlocks never builds them)."""
    import random

    from repro.tools.deadlock import wait_for_cycles

    rng = random.Random(2003)
    seen_cycles = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        threads = rng.sample(range(0x1000, 0x1100, 8), n)
        waits_for = {}
        for t in threads:
            if rng.random() < 0.8:
                owner = rng.choice(threads)
                if owner != t:
                    waits_for[t] = owner
        got = wait_for_cycles(waits_for)
        assert got == _brute_force_cycles(waits_for), waits_for
        seen_cycles += len(got)
    assert seen_cycles > 50   # the sample really exercises cycles
