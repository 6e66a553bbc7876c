"""Simulation engine tests: event ordering, processes, resources,
stores, metrics."""

import math
from heapq import heappush

import pytest

from repro.errors import SimulationError
from repro.sim import (
    US,
    LatencySeries,
    Resource,
    RunMetrics,
    Simulator,
    Store,
)


class TestEventsAndTime:
    def test_timeout_ordering(self):
        sim = Simulator()
        trace = []
        sim.process(self._ticker(sim, 0.3, "late", trace))
        sim.process(self._ticker(sim, 0.1, "early", trace))
        sim.run()
        assert trace == [("early", 0.1), ("late", 0.3)]

    @staticmethod
    def _ticker(sim, delay, tag, trace):
        yield sim.timeout(delay)
        trace.append((tag, sim.now))

    def test_fifo_tie_breaking(self):
        sim = Simulator()
        trace = []

        def proc(tag):
            yield sim.timeout(1.0)
            trace.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert trace == ["a", "b", "c"]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_non_finite_timeout_rejected(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(delay)
        assert sim._heap == []

    @pytest.mark.parametrize("when", [math.nan, math.inf, -math.inf])
    def test_non_finite_schedule_rejected(self, when):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim._schedule_at(when, lambda: None)
        assert sim._heap == []

    def test_nan_cannot_reorder_later_events(self):
        # a NaN in the heap would fire 0.3, NaN, 0.1, 0.2 as 0.1, 0.2,
        # NaN, 0.3; rejecting it keeps every other event in time order
        sim = Simulator()
        fired = []
        for delay in (0.3, math.nan, 0.1, 0.2):
            try:
                timer = sim.timeout(delay)
            except SimulationError:
                fired.append("rejected")
                continue
            timer.add_callback(lambda _event, delay=delay: fired.append(delay))
        sim.run()
        assert fired == ["rejected", 0.1, 0.2, 0.3]

    def test_same_time_events_fire_in_push_order(self):
        sim = Simulator()
        trace = []
        events = [sim.event() for _ in range(5)]
        for index, event in enumerate(events):
            event.add_callback(lambda _event, index=index: trace.append(index))
        for event in reversed(events):
            event.succeed()
        sim.timeout(0.0).add_callback(lambda _event: trace.append("timeout"))
        sim.run()
        assert trace == [4, 3, 2, 1, 0, "timeout"]

    def test_run_until_pauses(self):
        sim = Simulator()
        fired = []
        sim.process(self._ticker(sim, 5.0, "x", fired))
        sim.run(until=1.0)
        assert sim.now == 1.0
        assert fired == []
        sim.run()
        assert fired

    def test_time_stays_at_last_event(self):
        sim = Simulator()
        sim.process(self._ticker(sim, 2.0, "x", []))
        sim.run(until=100.0)
        assert sim.now == 2.0

    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)


class TestProcesses:
    def test_process_return_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return 42

        process = sim.process(worker())
        assert sim.run_until_complete(process) == 42

    def test_nested_processes(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1.0)
            return "inner-done"

        def outer():
            result = yield sim.process(inner())
            return result + "!"

        assert sim.run_until_complete(sim.process(outer())) == "inner-done!"

    def test_all_of(self):
        sim = Simulator()

        def worker(delay, value):
            yield sim.timeout(delay)
            return value

        def main():
            results = yield sim.all_of(
                [sim.process(worker(0.2, "a")), sim.process(worker(0.1, "b"))]
            )
            return results

        assert sim.run_until_complete(sim.process(main())) == ["a", "b"]

    def test_any_of(self):
        sim = Simulator()

        def worker(delay, value):
            yield sim.timeout(delay)
            return value

        def main():
            winner = yield sim.any_of(
                [sim.process(worker(0.5, "slow")), sim.process(worker(0.1, "fast"))]
            )
            return winner

        assert sim.run_until_complete(sim.process(main())) == "fast"

    def test_exception_propagates(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(0.1)
            raise ValueError("boom")

        sim.process(worker())
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_yielding_non_event_rejected(self):
        sim = Simulator()

        def worker():
            yield 42

        sim.process(worker())
        with pytest.raises(SimulationError, match="must yield Events"):
            sim.run()

    def test_unfinished_process_reported(self):
        sim = Simulator()

        def forever():
            while True:
                yield sim.timeout(1.0)

        process = sim.process(forever())
        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_until_complete(process, limit=10.0)


class TestResource:
    def test_serializes_access(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        finish_times = []

        def worker():
            yield from resource.use(1.0)
            finish_times.append(sim.now)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert finish_times == [1.0, 2.0, 3.0]

    def test_capacity_parallelism(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        finish_times = []

        def worker():
            yield from resource.use(1.0)
            finish_times.append(sim.now)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        assert finish_times == [1.0, 1.0, 2.0, 2.0]

    def test_busy_time_accounting(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def worker():
            yield from resource.use(0.5)

        sim.process(worker())
        sim.process(worker())
        sim.run()
        assert resource.busy_time == pytest.approx(1.0)
        assert resource.served == 2
        assert resource.utilization(elapsed=2.0) == pytest.approx(0.5)

    def test_release_idle_rejected(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_grow_capacity_wakes_waiters(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        finish_times = []

        def worker():
            yield from resource.use(1.0)
            finish_times.append(sim.now)

        def grower():
            yield sim.timeout(0.1)
            resource.set_capacity(3)

        for _ in range(3):
            sim.process(worker())
        sim.process(grower())
        sim.run()
        # after growth at t=0.1, the two queued workers start immediately
        assert finish_times == [1.0, 1.1, 1.1]

    def test_shrink_capacity_drains(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        finish_times = []

        def worker():
            yield from resource.use(1.0)
            finish_times.append(sim.now)

        def shrinker():
            yield sim.timeout(0.1)
            resource.set_capacity(1)

        for _ in range(4):
            sim.process(worker())
        sim.process(shrinker())
        sim.run()
        # first two run together; afterwards strictly one at a time
        assert finish_times == [1.0, 1.0, 2.0, 3.0]

    def test_same_instant_users_granted_in_issue_order(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        granted = []

        def worker(tag):
            yield from resource.use(1.0)
            granted.append((tag, sim.now))

        for tag in range(6):
            sim.process(worker(tag))
        sim.run()
        assert granted == [(tag, float(tag + 1)) for tag in range(6)]
        assert resource.grants == 6
        assert resource.served == 6
        # waiters queued 1 + 2 + ... + 5 seconds in total
        assert resource.queue_wait_s_total == 15.0

    def test_free_slot_use_accounts_exactly(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)

        def worker(duration):
            yield from resource.use(duration)

        # three find a free slot at t=0 (the zero-length one releases at
        # once); the fourth queues until the first releases at 0.25
        for duration in (0.25, 0.0, 0.5, 0.125):
            sim.process(worker(duration))
        sim.run()
        assert resource.busy_time == 0.875
        assert resource.grants == 4
        assert resource.served == 4
        assert resource.queue_wait_s_total == 0.25
        assert resource.last_grant_wait_s == 0.25
        assert resource.queue_length == 0
        assert sim.now == 0.5

    @pytest.mark.parametrize("queued", [False, True], ids=["free", "queued"])
    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_service_time_rejected_before_a_slot_is_taken(
        self, duration, queued
    ):
        # NaN fails ``duration < 0`` and ``duration > 0`` alike: unchecked,
        # it would take the zero-length path and poison busy_time
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def holder():
            yield from resource.use(1.0)

        def bad():
            yield from resource.use(duration)

        if queued:
            sim.process(holder())
        sim.process(bad())
        with pytest.raises(SimulationError, match="not finite and >= 0"):
            sim.run()
        assert resource.queue_length == 0
        assert resource.grants == int(queued)
        assert (resource.served, resource.busy_time) == (0, 0.0)
        sim.run()
        assert (resource.served, resource.busy_time) == (int(queued), float(queued))


def _reference_use(resource, duration):
    """``Resource.use`` written out as ``request()``, ``timeout(d)`` and
    ``release()``: a queued waiter resumes at its grant and only then
    starts its hold (a free slot is taken without an event, as in
    ``use``)."""
    if not resource.take_free_slot():
        yield resource.request()
    try:
        if duration > 0:
            yield resource.sim.timeout(duration)
        resource.busy_time += duration
        resource.served += 1
    finally:
        resource.release()


def _plain_request_user(resource, duration):
    """A waiter that queues with a bare ``request()`` event."""
    yield resource.request()
    try:
        if duration > 0:
            yield resource.sim.timeout(duration)
    finally:
        resource.release()


def _run_scenario(use, capacity, scripts, resizes=()):
    """Run ``scripts`` (per process: a list of ("use"|"request"|"wait",
    seconds) steps) against one resource; returns the trace of every
    resume as (process, step, time, queue length) in resume order, and
    the resource's accounting."""
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    trace = []

    def worker(tag, script):
        for step, (action, seconds) in enumerate(script):
            if action == "use":
                yield from use(resource, seconds)
            elif action == "request":
                yield from _plain_request_user(resource, seconds)
            else:
                yield sim.timeout(seconds)
            trace.append((tag, step, sim.now, resource.queue_length))

    def resizer(at, capacity):
        yield sim.timeout(at)
        resource.set_capacity(capacity)
        trace.append(("resize", capacity, sim.now, resource.queue_length))

    for tag, script in enumerate(scripts):
        sim.process(worker(tag, script))
    for at, new_capacity in resizes:
        sim.process(resizer(at, new_capacity))
    sim.run()
    accounting = (
        resource.busy_time,
        resource.grants,
        resource.served,
        resource.queue_wait_s_total,
        resource.last_grant_wait_s,
    )
    return trace, accounting


def _new_use(resource, duration):
    return resource.use(duration)


class TestGrantThenHold:
    """A queued ``use`` resumes once, at the end of its hold, yet every
    process resumes at the same times and in the same order as when it
    resumed at its grant too. Times are binary fractions, so ties are
    exact."""

    SCENARIOS = {
        "capacity-1-equal-service": (
            1,
            [[("use", 0.5), ("use", 0.5), ("wait", 0.0)] for _ in range(6)],
            (),
        ),
        "capacity-2-same-instant": (
            2,
            [
                [("use", 0.25 * (1 + tag % 2)), ("wait", 0.25), ("use", 0.5)]
                for tag in range(7)
            ],
            (),
        ),
        "growth-grants-queued-holds": (
            1,
            [[("use", 1.0), ("use", 0.5)] for _ in range(5)],
            ((1.0, 3), (2.0, 1), (2.5, 2)),
        ),
        "queued-zero-duration": (
            1,
            [
                [("use", 0.0), ("use", 0.5), ("use", 0.0), ("wait", 0.0)]
                for _ in range(4)
            ]
            + [[("wait", 0.5), ("use", 0.0), ("use", 0.0)] for _ in range(3)],
            (),
        ),
        "plain-request-in-the-same-queue": (
            2,
            [
                [("use", 0.5), ("request", 0.5), ("use", 0.25)]
                if tag % 2
                else [("request", 0.25), ("use", 0.5), ("request", 0.0)]
                for tag in range(6)
            ],
            ((0.75, 3),),
        ),
    }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_request_timeout_release(self, name):
        capacity, scripts, resizes = self.SCENARIOS[name]
        trace, accounting = _run_scenario(_new_use, capacity, scripts, resizes)
        expected = _run_scenario(_reference_use, capacity, scripts, resizes)
        assert trace == expected[0]
        assert accounting == expected[1]
        # the scenario really queued and really tied
        assert accounting[3] > 0.0
        times = [entry[2] for entry in trace]
        assert len(set(times)) < len(times)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_on_random_ties(self, seed):
        import random

        rng = random.Random(seed)
        actions = ("use", "use", "use", "request", "wait")
        seconds = (0.0, 0.25, 0.5, 1.0)
        scripts = [
            [
                (rng.choice(actions), rng.choice(seconds))
                for _ in range(rng.randint(1, 5))
            ]
            for _ in range(rng.randint(2, 10))
        ]
        resizes = tuple(
            (rng.choice(seconds) * 2, rng.randint(1, 3))
            for _ in range(rng.randint(0, 2))
        )
        capacity = rng.randint(1, 3)
        new = _run_scenario(_new_use, capacity, scripts, resizes)
        assert new == _run_scenario(_reference_use, capacity, scripts, resizes)

    def test_queued_use_resumes_once(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        resumes = []

        class Counting:
            """A generator wrapper counting how often the kernel resumes
            the process."""

            def __init__(self, generator):
                self.generator = generator

            def send(self, value):
                resumes.append(sim.now)
                return self.generator.send(value)

        def worker():
            yield from resource.use(1.0)

        sim.process(worker())
        sim.process(Counting(worker()))
        sim.run()
        # start, then the end of the hold; no resume at the grant (t=1)
        assert resumes == [0.0, 2.0]


class _HeapOnly:
    """Stands in for the kernel's ready queue so that every entry due
    now goes onto the heap with a sequence number: the single-heap
    kernel the ready queue must agree with."""

    def __init__(self, sim):
        self.sim = sim

    def append(self, callback):
        sim = self.sim
        heappush(sim._heap, (sim.now, next(sim._sequence), callback))

    def __bool__(self):
        return False

    def popleft(self):
        raise AssertionError("the heap-only kernel never pops here")


class TestReadyQueue:
    """Entries due now run from a FIFO queue, after the heap entries due
    at the same instant; the firing order must be the single heap's."""

    @staticmethod
    def _scenario(seed, heap_only):
        import random

        rng = random.Random(seed)
        sim = Simulator()
        if heap_only:
            sim._ready = _HeapOnly(sim)
        resource = Resource(sim, capacity=rng.randint(1, 2))
        store = Store(sim)
        gates = [sim.event() for _ in range(3)]
        trace = []
        delays = (0.0, 0.0, 0.25, 0.5)

        def child(tag, delay):
            yield sim.timeout(delay)
            trace.append(("child", tag, sim.now))
            return tag

        def worker(tag):
            for step in range(rng.randint(1, 6)):
                kind = rng.randrange(7)
                if kind == 0:
                    yield sim.timeout(rng.choice(delays))
                elif kind == 1:
                    yield from resource.use(rng.choice(delays))
                elif kind == 2:
                    got = yield sim.all_of(
                        [sim.process(child(tag * 10 + i, rng.choice(delays)))
                         for i in range(rng.randint(0, 3))]
                    )
                    trace.append(("all", tag, tuple(got)))
                elif kind == 3:
                    got = yield sim.any_of(
                        [sim.process(child(tag * 10 + i, rng.choice(delays)))
                         for i in range(2)]
                    )
                    trace.append(("any", tag, got))
                elif kind == 4:
                    store.put((tag, step))
                    item = yield store.get()
                    trace.append(("got", tag, item))
                elif kind == 5:
                    gate = gates[rng.randrange(len(gates))]
                    if not gate.triggered:
                        gate.succeed(tag)
                    got = yield gate
                    trace.append(("gate", tag, got))
                else:
                    got = yield sim.process(child(tag * 10, rng.choice(delays)))
                    trace.append(("joined", tag, got))
                trace.append((tag, step, sim.now, resource.queue_length))

        for tag in range(rng.randint(2, 8)):
            sim.process(worker(tag))
        sim.run(until=rng.choice((0.5, 1.0, 100.0)))
        return trace, sim.now, resource.grants, resource.queue_wait_s_total

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_single_heap_order(self, seed):
        assert self._scenario(seed, heap_only=False) == self._scenario(
            seed, heap_only=True
        )

    def test_heap_entry_due_now_runs_before_the_ready_queue(self):
        sim = Simulator()
        trace = []

        def sleeper():
            yield sim.timeout(1.0)
            trace.append("timer")

        def waker():
            yield sim.timeout(1.0)
            # queued at t=1, after the sleeper's timer (pushed at t=0)
            sim.event().succeed().add_callback(lambda _e: trace.append("now"))
            trace.append("waker")

        sim.process(waker())
        sim.process(sleeper())
        sim.run()
        assert trace == ["waker", "timer", "now"]

class TestStore:
    def test_fifo(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            for _ in range(2):
                item = yield store.get()
                got.append(item)

        sim.process(consumer())
        store.put("a")
        store.put("b")
        sim.run()
        assert got == ["a", "b"]

    def test_blocking_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, sim.now))

        def producer():
            yield sim.timeout(1.5)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [("late", 1.5)]


class TestMetrics:
    def test_percentiles(self):
        series = LatencySeries()
        for value in range(1, 101):
            series.record(value / 1000)
        assert series.median == pytest.approx(0.0505, abs=1e-3)
        assert series.percentile(99) == pytest.approx(0.1, abs=2e-3)
        assert series.percentile(0) == pytest.approx(0.001)

    def test_empty_series_nan(self):
        import math

        assert math.isnan(LatencySeries().median)

    def test_run_metrics_throughput(self):
        metrics = RunMetrics()
        metrics.completed = 1000
        metrics.elapsed_s = 0.5
        assert metrics.throughput_rps == 2000
        assert metrics.throughput_krps == 2.0

    def test_littles_law_check(self):
        metrics = RunMetrics()
        metrics.completed = 1000
        metrics.elapsed_s = 1.0
        for _ in range(100):
            metrics.latency.record(0.128)  # N = X*R = 1000 * 0.128 = 128
        assert metrics.check_littles_law(concurrency=128)
        assert not metrics.check_littles_law(concurrency=32)

    def test_cpu_per_rpc(self):
        metrics = RunMetrics()
        metrics.completed = 100
        metrics.cpu_busy_s = {"m1": 0.001, "m2": 0.003}
        assert metrics.cpu_us_per_rpc() == pytest.approx(40.0)
        assert metrics.cpu_us_per_rpc("m1") == pytest.approx(10.0)

    def test_us_constant(self):
        assert US == pytest.approx(1e-6)
