import io
import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashmark.analysis import aggregate
from flashmark.device import DeviceError, SimProfile, SimulatedDevice, builtin_profile
from flashmark.device.simulator import SimulationStall
from flashmark.methodology import enforce_random_state
from flashmark.microbench import ExperimentSpec, Micro, RunStep
from flashmark.patterns import (
    Burst,
    Consecutive,
    MixSpec,
    Mode,
    ParallelSpec,
    PatternSpec,
    Pause,
    Random,
    Schedule,
    Sequential,
    generate_schedule,
    interleave_mix,
    split_parallel,
)
from flashmark.runner import (
    EmptySummaryError,
    Trace,
    TraceRecord,
    _run_merged,
    _run_one,
    _run_worker,
    execute_run,
    issuer,
    read_trace_csv,
    save_trace,
    summarize,
    trace_relpath,
    write_trace_csv,
)
from oracles import GreedyOracle, device_state, interleave_io_by_io
from test_device_sim import overcommitted, small_profiles

KB = 1024
MB = KB * KB


def make_pattern(**kw):
    defaults = dict(
        timing=Consecutive(),
        location=Sequential(),
        mode=Mode.READ,
        io_size=32 * KB,
        io_shift=0,
        target_offset=0,
        target_size=4 * KB * KB,
        io_count=16,
        seed=7,
    )
    defaults.update(kw)
    return PatternSpec(**defaults)


def make_experiment(pattern, repetitions=3, io_ignore=0):
    return ExperimentSpec(
        micro=Micro.GRANULARITY,
        baseline="SR",
        varying_name="io_size",
        varying_value=pattern.io_size if hasattr(pattern, "io_size") else 0,
        pattern=pattern,
        repetitions=repetitions,
        io_ignore=io_ignore,
    )


def make_trace(rts):
    return Trace([TraceRecord(i, i * 100, rt, i * 512, 512, "read", 0) for i, rt in enumerate(rts)])


class StubDevice:
    """Programmable response times; real device semantics not needed."""

    def __init__(self, costs):
        self.costs = list(costs)
        self.capacity = 1 << 40
        self._clock = 0
        self._i = 0

    def _next(self):
        c = self.costs[self._i % len(self.costs)]
        self._i += 1
        if isinstance(c, Exception):
            raise c
        self._clock += c
        return c

    def read(self, lba, size):
        return self._next()

    def write(self, lba, size):
        return self._next()

    def idle(self, duration_us):
        self._clock += duration_us
        return 0

    def now_us(self):
        return self._clock


class TestExecuteRun:
    def test_simulator_sequential_reads(self):
        dev = SimulatedDevice(SimProfile())
        trace = execute_run(dev, make_pattern(io_count=4))
        assert len(trace.records) == 4
        submits = [r.actual_submit_us for r in trace.records]
        assert submits == sorted(submits)
        assert all(r.response_time_us == 900 for r in trace.records)

    def test_consecutive_no_overlap_within_worker(self):
        dev = SimulatedDevice(SimProfile())
        trace = execute_run(dev, make_pattern(mode=Mode.WRITE, io_count=32))
        for a, b in zip(trace.records, trace.records[1:]):
            assert b.actual_submit_us >= a.actual_submit_us + a.response_time_us

    def test_pause_gap_honored(self):
        dev = SimulatedDevice(SimProfile())
        trace = execute_run(dev, make_pattern(timing=Pause(pause_us=100_000), io_count=4))
        for a, b in zip(trace.records, trace.records[1:]):
            gap = b.actual_submit_us - (a.actual_submit_us + a.response_time_us)
            assert gap == 100_000

    def test_sum_of_rts_bounded_by_elapsed(self):
        dev = SimulatedDevice(SimProfile())
        t0 = dev.now_us()
        trace = execute_run(dev, make_pattern(mode=Mode.WRITE, io_count=64))
        assert sum(trace.rts) <= dev.now_us() - t0

    def test_deterministic_traces(self):
        t1 = execute_run(SimulatedDevice(SimProfile()), make_pattern(location=Random(), io_count=64))
        t2 = execute_run(SimulatedDevice(SimProfile()), make_pattern(location=Random(), io_count=64))
        assert t1.records == t2.records

    def test_mix_runs_merged_sequence(self):
        first = make_pattern(location=Random(), io_count=8)
        second = make_pattern(
            location=Random(), mode=Mode.WRITE, io_count=2, target_offset=8 * KB * KB
        )
        trace = execute_run(SimulatedDevice(SimProfile()), MixSpec(first, second, ratio=4))
        modes = [r.mode for r in trace.records]
        assert modes == [Mode.READ] * 4 + [Mode.WRITE] + [Mode.READ] * 4 + [Mode.WRITE]

    @pytest.mark.parametrize("virtual", [True, False])
    def test_index_counts_each_workers_ios_from_zero(self, virtual):
        # a mix is one worker over the merged sequence, a parallel run one
        # worker per degree; on the simulator's virtual clock (one device
        # call) and on the real clock (threads over a stub)
        first = make_pattern(location=Random(), io_count=9)
        second = make_pattern(
            location=Random(), mode=Mode.WRITE, io_count=3, target_offset=8 * KB * KB
        )
        par = ParallelSpec(base=make_pattern(mode=Mode.WRITE, io_count=14), parallel_degree=4)
        for pattern, per_worker in ((MixSpec(first, second, ratio=3), [12]), (par, [3] * 4)):
            dev = SimulatedDevice(SimProfile()) if virtual else StubDevice([100, 300, 200])
            trace = execute_run(dev, pattern)
            assert trace.error is None
            for w, n in enumerate(per_worker):
                assert [r.index for r in trace.records if r.worker == w] == list(range(n))

    def test_error_truncates_trace(self):
        dev = StubDevice([100, 100, DeviceError("boom"), 100])
        trace = execute_run(dev, make_pattern(io_count=8))
        assert trace.error is not None and "2" in trace.error
        assert len(trace.records) == 2


class SliceFaults(StubDevice):
    """Writes cost 100 us, except that a write into the MB slice s, for s
    in faults, raises faults[s](f"slice {s}"); the writes served are kept
    in served."""

    def __init__(self, faults):
        super().__init__([100])
        self.faults = faults
        self.served = []

    def write(self, lba, size):
        fault = self.faults.get(lba // MB)
        if fault is not None:
            raise fault(f"slice {lba // MB}")
        self.served.append(lba)
        return super().write(lba, size)


class TestThreadedRun:
    """A parallel run on a device without issue_rows runs one thread per
    worker; worker w writes the MB slice w of the 4 MB target."""

    PARALLEL = ParallelSpec(base=make_pattern(mode=Mode.WRITE, io_count=64), parallel_degree=4)

    def test_a_workers_exception_is_raised_once_every_worker_ends(self):
        dev = SliceFaults({2: RuntimeError, 3: ValueError})
        with pytest.raises(RuntimeError, match="slice 2"):
            execute_run(dev, self.PARALLEL)
        assert len(dev.served) == 32  # workers 0 and 1, 16 writes each

    def test_error_is_the_lowest_failing_workers(self):
        for _ in range(5):
            trace = execute_run(SliceFaults({1: DeviceError, 3: DeviceError}), self.PARALLEL)
            assert trace.error == "worker 1 IO 0 failed: slice 1"
            assert sorted({r.worker for r in trace.records}) == [0, 2]
            assert len(trace.records) == 32


def mixed_schedule(rng, capacity, n, timing, bad_at=None):
    """n IOs of mixed sizes and modes over the device, with a pattern's
    gaps: none, a pause before every IO but the first, or one before every
    third IO.  IO bad_at, if any, lies past the device end."""
    pause = rng.randrange(1, 50_000)
    gaps = [0 if i == 0 or timing == "none" or (timing == "burst" and i % 3) else pause
            for i in range(n)]
    sizes = [min(rng.randint(1, 64) * 512, capacity) for _ in range(n)]
    lbas = [rng.randrange((capacity - size) // 512 + 1) * 512 for size in sizes]
    if bad_at is not None:
        lbas[bad_at] = capacity
    return Schedule(gaps, lbas, sizes, [rng.random() < 0.7 for _ in range(n)])


def one_call_against_io_by_io(prof, extra, schedules, fill):
    """Issue schedules, one per worker, on a prof device (over-committed by
    extra, see overcommitted; fill its first writes IO by IO) in one
    device call, as execute_run does, and on a GreedyOracle of it through
    the reference interleaver.  Asserts that the records, error text,
    clocks and whole states agree; returns how it ended."""
    devices = []
    for cls in (SimulatedDevice, GreedyOracle):
        dev = overcommitted(cls, prof, *extra)
        for lba in fill:
            try:
                dev.write(lba, prof.block_size)
            except SimulationStall:
                break
        devices.append(dev)
    one_dev, oracle = devices
    assert issuer(one_dev) == one_dev.issue_rows

    def one_call(trace):
        if len(schedules) == 1:
            trace.error = _run_one(issuer(one_dev), 0, schedules[0], trace.records)
        else:
            _run_merged(one_dev, schedules, trace)

    results = []
    for run in (one_call, lambda trace: interleave_io_by_io(oracle, schedules, trace)):
        trace = Trace()
        try:
            run(trace)
            results.append((trace.records, trace.error))
        except SimulationStall as exc:  # raised by an idle's drain
            results.append(("idle stalled", str(exc)))
    assert results[0] == results[1]
    assert one_dev.now_us() == oracle.now_us()
    assert device_state(one_dev) == device_state(oracle)
    records, error = results[0]
    if records == "idle stalled":
        return "idle stalled"
    if error is None:
        assert len(records) == sum(map(len, schedules))
        return "served"
    w = int(error.split()[1])
    assert error.startswith(f"worker {w} IO {sum(r.worker == w for r in records)} failed: ")
    return "stalled" if "reclamation" in error or "victim" in error else "out of range"


def worker_schedules(rng, capacity, n, timing, workers, bad_at=None):
    """workers mixed schedules (see mixed_schedule) of n // workers IOs
    each; the last one's IO bad_at // workers, if any, lies past the device
    end (its last IO, where n // workers IOs do not reach that far)."""
    per = n // workers
    last_bad = None if bad_at is None else min(bad_at // workers, per - 1)
    return [
        mixed_schedule(rng, capacity, per, timing, last_bad if w == workers - 1 else None)
        for w in range(workers)
    ]


class TestOneWorkerLoop:
    """A run, of one worker or of several merged, goes to the simulator in
    one device call, not through the reference interleaver; the two must
    agree IO for IO, because its clock advances by exactly the cost an IO
    returns and by exactly an idle's duration.  So must the per-IO loop
    that serves a device without its own."""

    @pytest.mark.parametrize("name, capacity", [("highend-ssd", 16 * MB), ("lowend-usb", 32 * MB)])
    def test_equals_the_interleaver_with_one_worker(self, name, capacity):
        profile = builtin_profile(name, capacity=capacity)
        dev = SimulatedDevice(profile)
        enforce_random_state(dev, seed=1)
        snapshot = dev.snapshot_state()
        half = capacity // 2
        rw = dict(location=Random(), mode=Mode.WRITE, target_size=half)
        patterns = {
            "pause": make_pattern(timing=Pause(pause_us=2000), io_count=64, **rw),
            "burst": make_pattern(timing=Burst(pause_us=50_000, burst_count=8), io_count=64, **rw),
            "mix": MixSpec(
                make_pattern(location=Random(), io_count=48, target_size=half),
                make_pattern(mode=Mode.WRITE, io_count=16, target_offset=half, target_size=half),
                ratio=3,
            ),
            "parallel-1": ParallelSpec(base=make_pattern(io_count=64, **rw), parallel_degree=1),
            # its fifth IO lies past the end of the device
            "failing": make_pattern(mode=Mode.WRITE, target_offset=capacity - 4 * 32 * KB),
        }
        schedules = {
            "pause": generate_schedule(patterns["pause"]),
            "burst": generate_schedule(patterns["burst"]),
            "mix": interleave_mix(patterns["mix"]),
            "parallel-1": generate_schedule(split_parallel(patterns["parallel-1"])[0]),
            "failing": generate_schedule(patterns["failing"]),
        }
        for key, pattern in patterns.items():
            heap_dev, loop_dev, worker_dev = (SimulatedDevice(profile) for _ in range(3))
            for dev in (heap_dev, loop_dev, worker_dev):
                dev.restore_state(snapshot)
            heap = Trace()
            interleave_io_by_io(heap_dev, [schedules[key]], heap)
            loop = execute_run(loop_dev, pattern)
            # the per-IO loop a raw device gets, here through the
            # simulator's read, write and idle
            worker = Trace()
            worker.error = _run_one(
                partial(_run_worker, worker_dev), 0, schedules[key], worker.records
            )
            assert (heap.error is not None) == (key == "failing"), key
            for trace, dev in ((loop, loop_dev), (worker, worker_dev)):
                assert trace.records == heap.records, key
                assert trace.error == heap.error, key
                assert dev.now_us() == heap_dev.now_us(), key
                assert device_state(dev) == device_state(heap_dev), key

    @given(
        small_profiles(),
        st.sampled_from([(0, 0), (0, 0), (12, 0), (0, 12), (2, 60)]),
        st.sampled_from(["none", "pause", "burst"]),
        st.integers(1, 4),
        st.integers(1, 120),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_interleaver_io_by_io(self, prof, extra, timing, workers, n, rng):
        # an over-committed device is filled first, so that its raised
        # reclamation targets can stall a write or an idle's drain
        fill = range(0, prof.capacity, prof.block_size) if extra != (0, 0) else ()
        n = max(n, workers)
        bad_at = rng.randrange(n) if rng.random() < 0.2 else None
        schedules = worker_schedules(rng, prof.capacity, n, timing, workers, bad_at)
        one_call_against_io_by_io(prof, extra, schedules, fill)

    def test_reaches_every_ending(self):
        # both GC modes, cache on and off: served, stalled and out-of-range
        # runs all occur, of one worker and of three
        endings = {1: set(), 3: set()}
        rng = random.Random(4)
        for deferred in (False, True):
            for cache in (0, 3):
                prof = SimProfile(
                    capacity=24 * 8 * KB, page_size=512, pages_per_block=16,
                    map_granularity=1024, write_cache_blocks=cache, free_block_pool=2,
                    gc_mode="deferred" if deferred else "synchronous", gc_batch_blocks=2,
                    stream_slots=2, idle_drain_blocks_per_sec=500.0 if deferred else 0.0,
                    busy_drain_blocks_per_sec=100.0 if deferred else 0.0,
                    read_drain_extra_us=20 if deferred else 0, spare_blocks=8,
                )
                fill = range(0, prof.capacity, prof.block_size)
                ends = (((0, 0), None), ((0, 0), 40), ((12, 0), None), ((2, 60), None))
                for extra, bad_at in ends:
                    for timing in ("none", "pause", "burst"):
                        for workers in endings:
                            schedules = worker_schedules(
                                rng, prof.capacity, 80, timing, workers, bad_at
                            )
                            endings[workers].add(one_call_against_io_by_io(
                                prof, extra, schedules, fill if extra != (0, 0) else ()
                            ))
        for kinds in endings.values():
            assert {"served", "stalled", "out of range"} <= kinds

    def test_the_oracle_serves_its_own_writes(self):
        # enforcement and runs of one and of four workers on GreedyOracle
        # reach the oracle's own write, not the simulator's loop, and give
        # the simulator's results
        class CountingOracle(GreedyOracle):
            writes = 0

            def write(self, lba, size):
                self.writes += 1
                return super().write(lba, size)

        profile = builtin_profile("lowend-usb", capacity=16 * MB, spare_blocks=40)
        rw = make_pattern(location=Random(), mode=Mode.WRITE, io_count=48, target_size=8 * MB)
        results = []
        for dev in (SimulatedDevice(profile), CountingOracle(profile)):
            enforced = enforce_random_state(dev, seed=2)
            runs = [execute_run(dev, p) for p in (rw, ParallelSpec(base=rw, parallel_degree=4))]
            results.append((enforced, [(t.records, t.error) for t in runs], device_state(dev)))
        assert dev.writes == enforced.ios_issued + 2 * 48
        assert results[0] == results[1]


class TestParallel:
    def _par(self, degree, io_count=32):
        base = make_pattern(
            mode=Mode.WRITE,
            io_count=io_count,
            target_size=16 * 32 * KB * degree,
        )
        return ParallelSpec(base=base, parallel_degree=degree)

    def test_degree_two_interleaves_workers(self):
        dev = SimulatedDevice(SimProfile())
        trace = execute_run(dev, self._par(2, io_count=16))
        assert len(trace.records) == 16
        assert {r.worker for r in trace.records} == {0, 1}
        # serialized timeline alternates the two equally-paced workers
        assert [r.worker for r in trace.records[:4]] == [0, 1, 0, 1]

    def test_total_count_is_degree_times_per_worker(self):
        trace = execute_run(SimulatedDevice(SimProfile()), self._par(4, io_count=32))
        per_worker = {}
        for r in trace.records:
            per_worker[r.worker] = per_worker.get(r.worker, 0) + 1
        assert per_worker == {0: 8, 1: 8, 2: 8, 3: 8}

    def test_queueing_shows_in_response_times(self):
        dev = SimulatedDevice(SimProfile())
        solo = execute_run(dev, self._par(1, io_count=16))
        dev2 = SimulatedDevice(SimProfile())
        duo = execute_run(dev2, self._par(2, io_count=16))
        # both workers contend for one serialized device: slower per IO
        assert sum(duo.rts) / len(duo.rts) > sum(solo.rts) / len(solo.rts)

    def test_degree_one_equals_plain_run(self):
        par = self._par(1, io_count=16)
        a = execute_run(SimulatedDevice(SimProfile()), par)
        b = execute_run(SimulatedDevice(SimProfile()), par.base)
        # same geometry, same costs (seed differs only in derived stream)
        assert len(a.records) == len(b.records)
        assert [r.response_time_us for r in a.records] == [r.response_time_us for r in b.records]


class TestSummarize:
    def test_ignores_prefix(self):
        assert summarize(make_trace([1, 1, 1, 9, 9]), io_ignore=3) == 9

    def test_startup_bias_reproduction(self):
        # 128 cheap then alternating cheap/expensive, 512 IOs total
        rts = [400] * 128 + [400 if i % 2 == 0 else 27_000 for i in range(384)]
        trace = make_trace(rts)
        biased = summarize(trace, io_ignore=0)
        running = summarize(trace, io_ignore=128)
        bias = 1 - biased / running
        assert 0.20 <= bias <= 0.30
        assert abs(1 - summarize(trace, io_ignore=128) / running) < 0.02

    def test_io_ignore_at_count_is_error(self):
        with pytest.raises(EmptySummaryError):
            summarize(make_trace([1, 2, 3]), io_ignore=3)

    def test_permutation_insensitive_over_kept(self):
        a = summarize(make_trace([5, 1, 2, 3, 4]), io_ignore=1)
        b = summarize(make_trace([5, 4, 3, 2, 1]), io_ignore=1)
        assert a == b

    def test_replay_reproduces_stats(self):
        trace = make_trace([100, 200, 300, 400])
        stats = summarize(trace, 1)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        buf.seek(0)
        again = read_trace_csv(buf)
        assert summarize(again, 1) == stats


def run_means(device, exp):
    """Run an experiment's repetitions back to back; one mean per run."""
    means = []
    for k in range(exp.repetitions):
        trace = execute_run(device, exp.pattern)
        means.append(summarize(trace, exp.io_ignore))
    return means


class TestAggregate:
    def test_three_identical_runs_no_dispersion(self):
        exp = make_experiment(make_pattern(io_count=8))
        means = run_means(SimulatedDevice(SimProfile()), exp)
        assert len(means) == 3
        outcome = aggregate(exp, means, dispersion_threshold=0.0)
        assert outcome.mean_us == means[0]
        assert not outcome.dispersion_flagged

    def test_dispersion_flag_at_eight_percent(self):
        # three runs with means 1000, 1040, 1080 us
        costs = [1000] * 8 + [1040] * 8 + [1080] * 8
        exp = make_experiment(make_pattern(io_count=8))
        means = run_means(StubDevice(costs), exp)
        assert means == [1000, 1040, 1080]
        assert aggregate(exp, means, dispersion_threshold=0.05).dispersion_flagged
        assert aggregate(exp, means, dispersion_threshold=0.0799).dispersion_flagged
        assert not aggregate(exp, means, dispersion_threshold=0.0801).dispersion_flagged

    def test_single_repetition_average_equals_run(self):
        exp = make_experiment(make_pattern(io_count=8), repetitions=1)
        means = run_means(SimulatedDevice(SimProfile()), exp)
        assert len(means) == 1
        assert aggregate(exp, means, dispersion_threshold=0.05).mean_us == means[0]

    def test_outcome_keyed_by_experiment(self):
        exp = make_experiment(make_pattern(io_count=8))
        outcome = aggregate(exp, [10.0, 10.0], dispersion_threshold=0.05)
        assert (outcome.micro, outcome.baseline) == ("granularity", "SR")
        assert (outcome.varying_name, outcome.varying_value) == ("io_size", 32 * KB)


class TestTraceFiles:
    def test_csv_round_trip(self):
        trace = make_trace([100, 200, 300])
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        buf.seek(0)
        again = read_trace_csv(buf)
        assert again.records == trace.records

    def test_csv_header_exact(self):
        buf = io.StringIO()
        write_trace_csv(make_trace([]), buf)
        assert buf.getvalue().splitlines()[0] == (
            "index,actual_submit_us,response_time_us,lba,size,mode,worker"
        )

    def test_degree_two_simulator_csv_text(self):
        # two paced workers queue on the serialized timeline; pins the
        # header, the column order and the worker column
        base = make_pattern(
            timing=Pause(pause_us=1000), location=Random(), mode=Mode.WRITE,
            target_size=16 * 32 * KB * 2, io_count=6,
        )
        par = ParallelSpec(base=base, parallel_degree=2)
        trace = execute_run(SimulatedDevice(SimProfile()), par)
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        assert buf.getvalue() == (
            "index,actual_submit_us,response_time_us,lba,size,mode,worker\n"
            "0,0,3300,163840,32768,write,0\n"
            "0,0,6600,851968,32768,write,1\n"
            "1,4300,5600,196608,32768,write,0\n"
            "1,7600,5600,884736,32768,write,1\n"
            "2,10900,5600,425984,32768,write,0\n"
            "2,14200,5600,950272,32768,write,1\n"
        )

    def test_trace_path_scheme(self, tmp_path):
        exp = make_experiment(make_pattern())
        rel = trace_relpath(RunStep(exp, 2), "sim")
        assert str(rel) == "sim/granularity/SR/io_size=32768/run2.csv"
        (tmp_path / rel).parent.mkdir(parents=True)
        save_trace(make_trace([1]), tmp_path / rel)
        assert (tmp_path / rel).read_text() == (
            "index,actual_submit_us,response_time_us,lba,size,mode,worker\n0,0,1,0,512,read,0\n"
        )
