import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from flashmark.device import SimProfile, SimulatedDevice, builtin_profile
from flashmark.methodology import (
    BenchmarkPlan,
    CalibrationConfig,
    DeviceProfile,
    EnforcementError,
    HOLE_FILL_SECTORS,
    HOLE_SCAN_SECTORS,
    MIN_INTER_RUN_PAUSE_US,
    PlanError,
    RunStep,
    StateReset,
    _hole_fill,
    build_plan,
    calibrate_pause,
    calibrate_phases,
    enforce_random_state,
    scaled_io_ignore,
    verify_plan,
)
from flashmark.microbench import (
    CapacityError, ExperimentSpec, Micro, SuiteConfig, expand, expand_suite,
)
from flashmark.patterns import (
    BASELINES,
    Consecutive,
    MixSpec,
    Mode,
    PatternSpec,
    Random,
    Sequential,
)
from flashmark.runner import execute_run, summarize
from flashmark.serialization import (
    dumps, from_data, load_plan, plan_from_dict, plan_to_dict, save_plan,
)
from faults import failing_writes
from oracles import device_state

KB = 1024
MB = 1024 * 1024
GB = 1024 * MB
REDUCED_COUNTS = {"SR": 192, "RR": 192, "SW": 256, "RW": 384}  # the benchmark's suite


def small_sim(**overrides):
    return SimulatedDevice(SimProfile(capacity=overrides.pop("capacity", 32 * MB), **overrides))


def baseline_pattern(mode=Mode.READ, location=None, io_count=256, capacity=32 * MB, seed=3):
    return PatternSpec(
        timing=Consecutive(),
        location=location or Random(),
        mode=mode,
        io_size=32 * KB,
        io_shift=0,
        target_offset=0,
        target_size=capacity - capacity % (32 * KB),
        io_count=io_count,
        seed=seed,
    )


class TestEnforceRandomState:
    def test_full_coverage_on_small_simulator(self):
        dev = small_sim()
        result = enforce_random_state(dev, seed=11)
        assert result.coverage == 1.0
        assert result.bytes_written >= dev.capacity
        dev.check_consistency()

    def test_write_sizes_within_declared_range(self):
        seen = []

        class Recorder:
            def __init__(self, inner):
                self.inner = inner
                self.capacity = inner.capacity

            def write(self, lba, size):
                seen.append((lba, size))
                return self.inner.write(lba, size)

            def now_us(self):
                return self.inner.now_us()

        enforce_random_state(Recorder(small_sim()), seed=5)
        sizes = {s for _, s in seen}
        assert min(sizes) >= 512 and max(sizes) <= 128 * KB
        assert all(s % 512 == 0 for s in sizes)
        assert all(lba % 512 == 0 for lba, _ in seen)

    def test_repeated_enforcement_is_stable(self):
        dev = small_sim(free_block_pool=8)
        enforce_random_state(dev, seed=1)
        t1 = execute_run(dev, baseline_pattern(mode=Mode.READ))
        m1 = summarize(t1, 0)
        enforce_random_state(dev, seed=2)
        t2 = execute_run(dev, baseline_pattern(mode=Mode.READ))
        m2 = summarize(t2, 0)
        assert abs(m1 - m2) / m1 < 0.10

    def test_failure_reports_coverage(self):
        with failing_writes(41), pytest.raises(EnforcementError) as exc:
            enforce_random_state(small_sim(), seed=11)
        assert 0.0 < exc.value.coverage < 1.0

    def test_resume_matches_uninterrupted_run(self):
        full = small_sim()
        enforce_random_state(full, seed=11)

        flaky = small_sim()
        with failing_writes(41), pytest.raises(EnforcementError):
            enforce_random_state(flaky, seed=11)
        resumed = enforce_random_state(flaky, seed=11, start_io=40)
        assert resumed.coverage == 1.0
        assert device_state(flaky) == device_state(full)

    def test_progress_reported(self):
        marks = []
        result = enforce_random_state(
            small_sim(), seed=3, progress=lambda f, n: marks.append((n, f)), every=64
        )
        assert [n for n, _ in marks] == list(range(64, result.ios_issued + 1, 64))
        coverage = [f for _, f in marks]
        assert coverage == sorted(coverage) and 0.0 < coverage[0] and coverage[-1] <= 1.0

    @pytest.mark.parametrize("holes, writes", [
        ([], []),
        ([(0, 1)], [(0, 1)]),
        ([(999, 1)], [(999, 1)]),
        ([(0, 3), (10, 1), (997, 3)], [(0, 3), (10, 1), (997, 3)]),
        ([(100, HOLE_FILL_SECTORS)], [(100, HOLE_FILL_SECTORS)]),
        ([(100, HOLE_FILL_SECTORS + 1)], [(100, HOLE_FILL_SECTORS), (100 + HOLE_FILL_SECTORS, 1)]),
    ])
    def test_hole_fill_cuts_each_hole_run_from_its_start(self, holes, writes):
        # (first sector, sectors) of each unwritten run of a 1000-sector
        # bitmap, and of each targeted write expected over them
        covered = np.ones(1000, dtype=bool)
        for start, n in holes:
            covered[start : start + n] = False
        lbas, sizes = _hole_fill(covered)
        assert list(zip(lbas, sizes)) == [(start * 512, n * 512) for start, n in writes]

    @pytest.mark.parametrize("holes", [
        [(HOLE_SCAN_SECTORS - 5, 10)],
        [(HOLE_SCAN_SECTORS - HOLE_FILL_SECTORS, HOLE_FILL_SECTORS)],
        [(HOLE_SCAN_SECTORS, 3), (2 * HOLE_SCAN_SECTORS - 1, 2)],
        [(HOLE_SCAN_SECTORS - 100, HOLE_SCAN_SECTORS + 300)],
        [(0, 2), (2 * HOLE_SCAN_SECTORS - 7, 1007)],
    ], ids=["across-an-edge", "full-write-ending-at-an-edge", "at-edges",
            "across-a-whole-window", "open-at-the-end"])
    def test_hole_fill_carries_a_run_across_scan_windows(self, holes):
        # the bitmap is compared HOLE_SCAN_SECTORS at a time; each hole run
        # is cut from its start whichever windows it spans
        covered = np.ones(2 * HOLE_SCAN_SECTORS + 1000, dtype=bool)
        for start, n in holes:
            covered[start : start + n] = False
        writes = [
            (start + k, min(HOLE_FILL_SECTORS, n - k))
            for start, n in holes for k in range(0, n, HOLE_FILL_SECTORS)
        ]
        lbas, sizes = _hole_fill(covered)
        assert list(zip(lbas, sizes)) == [(start * 512, n * 512) for start, n in writes]

    def test_hole_fill_holds_no_temporary_the_bitmap_s_size(self):
        # a 1 GB device's bitmap is 2 MiB, one byte per sector
        covered = np.ones(GB // 512, dtype=bool)
        for start in range(1000, covered.size, 100_003):
            covered[start : start + 300] = False
        tracemalloc.start()
        try:
            _hole_fill(covered)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 * MB


class WriteLog:
    """A do-nothing device that records every write it is sent."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.writes = []

    def write(self, lba, size):
        self.writes.append((lba, size))
        return 0

    def now_us(self):
        return 0


def enforcement_digest(capacity, seed):
    dev = WriteLog(capacity)
    result = enforce_random_state(dev, seed)
    blob = json.dumps([dev.writes, result.ios_issued, result.bytes_written])
    return hashlib.sha256(blob.encode()).hexdigest()


# SHA-256 of the JSON [(lba, size) write sequence, ios_issued,
# bytes_written] of enforce_random_state on a do-nothing device, per
# (capacity, seed).  A change to the seed streams, the stopping point or
# the hole fill shows here.
PINNED_ENFORCEMENT = {
    (4 * MB, 0): "556fda9ed8601df1884be17083d608b7d1db9e761fa9f7aa768d2a45dcdf6135",
    (4 * MB, 1): "9520299b69d3996f4a202c2b8e5aa3df8109b0a6b958f03443398ab8e830f701",
    (4 * MB, 41): "93796a8f650c45a689da56cf99283f728124321a0e669babf9d0855d93fc4e26",
    (4 * MB, 2**63 + 12345): "df9cd52abe695b9f49a2bca17d68e5d57d15cfbf3cdfe521215cdb23d026ca64",
    (32 * MB, 0): "6ce0843058285e9bcb89840366cc9726ce8bee9f16212d2b5d46e7a5b2277897",
    (32 * MB, 1): "dc4bb7e47c89fee12e7e027055c69dacfeafa104508e4321d96e86fa46cb4d2a",
    (32 * MB, 41): "1e1d95ccacb4aa87b8f2ecd0d4beb2dd72243a20930a648460cfbb4620660afc",
    (32 * MB, 2**63 + 12345): "ead30f47702781453e2fe950fc69018b22b200f2e285562c247bef28660ac907",
    (128 * MB, 0): "e80ec749e25c7b1156e3d8f5e4b6bbce6390a81bb472e31907a55a64a1ce3a53",
    (128 * MB, 1): "e52b784a8178aeafad26f974e8d21778c49a8edc298f1044f50e42d73ed14bdb",
    (128 * MB, 41): "df670bf515c5355eb669d4762bc326ae0bd51371f64e1a5cdde7b1783e05c669",
    (128 * MB, 2**63 + 12345): "24aef4373348acaa45b50e3942456103bd2a2c5b7a6199e3b86b94b8311cccac",
    # 40,001 sectors: not a power of two, and not a whole number of blocks
    (40_001 * 512, 0): "d59f1bcc7ebaef5515abae1212236c8210010addffbad79b849cc01b6890ca12",
    (40_001 * 512, 1): "d92154753ebe360d5882e7d608b507696ecb6c8f3b94cfeecde01db572a5e43a",
    (40_001 * 512, 41): "f7ee61c82f61f131a435661f22e6ce1072577b5df0d523fe3637ded7ab2cf3f8",
    (40_001 * 512, 2**63 + 12345): "8980ea5ef1e7b2783d401804f23cae681cb8a135f20f267a4dd4d2a25891809f",
}
# SHA-256 of the JSON [(ios, coverage)] progress marks of seed 41 on a
# 32 MB do-nothing device at every=64.
PINNED_ENFORCEMENT_PROGRESS = "9fa9152fb315b13ee5a36aa880a1eb08bd932e7f184ea4478583244bf0c63f66"


class TestEnforcementBytes:
    @pytest.mark.parametrize("capacity, seed", sorted(PINNED_ENFORCEMENT))
    def test_write_sequence_pinned(self, capacity, seed):
        assert enforcement_digest(capacity, seed) == PINNED_ENFORCEMENT[(capacity, seed)]

    def test_progress_coverage_pinned(self):
        marks = []
        enforce_random_state(
            WriteLog(32 * MB), 41, progress=lambda f, n: marks.append((n, f)), every=64
        )
        digest = hashlib.sha256(json.dumps(marks).encode()).hexdigest()
        assert digest == PINNED_ENFORCEMENT_PROGRESS

    @pytest.mark.parametrize("start_io", [0, 1, 300, 640, 783])
    def test_resume_sends_the_suffix(self, start_io):
        # 32 MB seed 41 issues 783 IOs, the first 568 of them random
        full, full_marks = WriteLog(32 * MB), []
        whole = enforce_random_state(
            full, 41, progress=lambda f, n: full_marks.append((n, f)), every=64
        )
        part, marks = WriteLog(32 * MB), []
        resumed = enforce_random_state(
            part, 41, progress=lambda f, n: marks.append((n, f)), every=64, start_io=start_io
        )
        assert part.writes == full.writes[start_io:]
        assert marks == [m for m in full_marks if m[0] > start_io]
        assert (resumed.ios_issued, resumed.bytes_written) == (whole.ios_issued, whole.bytes_written)

    @pytest.mark.parametrize("fail_at, coverage", [(300, 0.446136474609375), (640, 0.787994384765625)])
    def test_failure_coverage_pinned(self, fail_at, coverage):
        dev = WriteLog(32 * MB)
        with failing_writes(fail_at + 1), pytest.raises(
            EnforcementError, match=f"format write {fail_at} failed"
        ) as exc:
            enforce_random_state(dev, 41)
        assert exc.value.coverage == coverage


class TestCalibratePhases:
    def test_constant_latency_device(self):
        # pool large enough that no write ever triggers reclamation
        dev = small_sim(free_block_pool=700, gc_mode="synchronous")
        profile = calibrate_phases(dev, CalibrationConfig(long_io_count=512, settle_pause_us=0), 0)
        for b in ("SR", "RR", "SW", "RW"):
            assert profile.startup[b] == 0
            assert profile.period[b] == 1
        assert profile.io_count_recommendation["RW"] == 5120
        assert any(f.startswith("period:") for f in profile.flags)

    def test_startup_recovery_small_pool(self):
        prof = builtin_profile("highend-ssd", capacity=64 * MB, free_block_pool=64)
        dev = SimulatedDevice(prof)
        enforce_random_state(dev, seed=9)
        profile = calibrate_phases(
            dev, CalibrationConfig(long_io_count=1024, settle_pause_us=60_000_000), 0
        )
        assert abs(profile.startup["RW"] - 64) <= 7
        assert profile.startup["SR"] == 0
        assert profile.startup["SW"] == 0

    def test_recommendation_includes_periods(self):
        prof = builtin_profile("lowend-usb", capacity=64 * MB)
        dev = SimulatedDevice(prof)
        enforce_random_state(dev, seed=9)
        profile = calibrate_phases(dev, CalibrationConfig(long_io_count=2048, settle_pause_us=0), 0)
        assert profile.period["SW"] == 128
        assert profile.io_count_recommendation["SW"] == max(20 * 128, 1024)


class TestCalibratePause:
    def test_synchronous_device_gets_floor(self):
        dev = small_sim(free_block_pool=0, write_cache_blocks=0, stream_slots=0)
        enforce_random_state(dev, seed=4)
        cal = calibrate_pause(
            dev, CalibrationConfig(observe_reads=1024, disturb_writes=256, settle_pause_us=0), 0
        )
        assert cal.affected_reads == 0
        assert cal.pause_us == 1_000_000

    def test_deferred_device_overestimates_lingering(self):
        dev = small_sim(
            gc_mode="deferred",
            free_block_pool=32,
            idle_drain_blocks_per_sec=2000.0,
            busy_drain_blocks_per_sec=20.0,
            read_drain_extra_us=500,
        )
        enforce_random_state(dev, seed=4)
        cal = calibrate_pause(dev, CalibrationConfig(observe_reads=4096, disturb_writes=512), 0)
        assert cal.affected_reads > 0
        assert cal.pause_us >= 2 * cal.lingering_us
        assert cal.pause_us > 1_000_000

    def test_monotone_in_drain_time(self):
        pauses = []
        for busy_rate in (40.0, 20.0, 10.0):  # slower drain => longer lingering
            dev = small_sim(
                gc_mode="deferred",
                free_block_pool=32,
                idle_drain_blocks_per_sec=2000.0,
                busy_drain_blocks_per_sec=busy_rate,
                read_drain_extra_us=500,
            )
            enforce_random_state(dev, seed=4)
            cal = calibrate_pause(dev, CalibrationConfig(observe_reads=4096, disturb_writes=512), 0)
            pauses.append(cal.pause_us)
        assert pauses == sorted(pauses)
        assert pauses[0] < pauses[-1]

    def test_identical_distributions_zero_affected(self):
        # threshold sits above the pre-batch mean, so identical behavior
        # in both read batches counts nothing
        dev = small_sim(free_block_pool=700)
        cal = calibrate_pause(
            dev, CalibrationConfig(observe_reads=512, disturb_writes=64, settle_pause_us=0), 0
        )
        assert cal.affected_reads == 0


def profile_with(startup_rw=128, pause_us=1_000_000):
    return DeviceProfile(
        startup={"SR": 0, "RR": 0, "SW": 0, "RW": startup_rw},
        period={"SR": 1, "RR": 1, "SW": 1, "RW": 16},
        inter_run_pause_us=pause_us,
        io_count_recommendation={},
    )


@st.composite
def device_suites(draw):
    """(capacity, micros, SuiteConfig) of a 16-256 MB device: mix, which
    places two ranges side by side, plus up to three other micros, with IO
    counts of up to the space past the target offset."""
    capacity = draw(st.integers(16, 256)) * MB
    offset = draw(st.integers(0, capacity // MB // 2)) * MB
    space = capacity - offset
    # 16k IOs of 32 KB: each of parallelism's 16 workers gets whole IOs
    target_size = draw(st.integers(1, space // (512 * KB))) * 512 * KB
    counts = {b: draw(st.integers(1, space // (32 * KB))) for b in BASELINES}
    others = draw(st.sets(st.sampled_from([m for m in Micro if m is not Micro.MIX]), max_size=3))
    suite = SuiteConfig.for_device(
        capacity, base_target_offset=offset, base_target_size=target_size,
        io_count_by_pattern=counts,
    )
    return capacity, [Micro.MIX, *sorted(others)], suite


class TestBuildPlan:
    @given(device_suites())
    @settings(max_examples=60, deadline=None)
    def test_a_built_plan_stays_inside_the_device(self, device_suite):
        capacity, micros, suite = device_suite
        try:
            plan = build_plan(expand_suite(suite, micros), profile_with(), capacity, suite)
        except (CapacityError, PlanError):
            event("refused")
            return
        event("planned")
        for exp in plan.experiments:
            for offset, size in exp.target_ranges:
                inside = suite.base_target_offset <= offset and offset + size <= capacity
                assert inside, exp.experiment_id

    def test_experiments_neither_moved_nor_warmed_up_are_not_copied(self):
        capacity = 128 * MB
        suite = SuiteConfig.for_device(capacity, seed=41, io_count_by_pattern=REDUCED_COUNTS)
        expanded = expand_suite(suite)
        plan = build_plan(expanded, DeviceProfile(), capacity, suite)
        kept = [e for e in plan.experiments if not e.sequential_write_bearing]
        assert len(kept) == 198
        by_id = {e.experiment_id: e for e in expanded}
        assert all(e is by_id[e.experiment_id] for e in kept)
        # a sequential writer moved past offset 0 is a new object; the
        # first one, left at the base offset, is not
        writers = [e for e in plan.experiments if e.sequential_write_bearing]
        assert [e is by_id[e.experiment_id] for e in writers[:2]] == [True, False]

    def test_empty_experiment_list(self):
        plan = build_plan([], profile_with(), 1 * GB, SuiteConfig())
        assert plan.steps == []
        verify_plan(plan)

    def test_io_ignore_set_from_startup(self):
        cfg = SuiteConfig(io_count_by_pattern={"SR": 512, "RR": 512, "SW": 512, "RW": 512})
        exps = expand(Micro.GRANULARITY, cfg)
        plan = build_plan(exps, profile_with(startup_rw=128), 32 * GB, cfg)
        for exp in plan.experiments:
            want = 128 if exp.baseline == "RW" else 0
            assert exp.io_ignore == want

    def test_mix_io_ignore_scaled_by_share(self):
        first = baseline_pattern(mode=Mode.READ, io_count=512, seed=1)
        second = baseline_pattern(mode=Mode.WRITE, io_count=128, seed=2)
        second = PatternSpec(
            **{**second.__dict__, "target_offset": 64 * MB, "io_count": 128}
        )
        mix = MixSpec(first=first, second=second, ratio=4)
        exp = ExperimentSpec(
            micro=Micro.MIX, baseline="RR+RW", varying_name="ratio",
            varying_value=4, pattern=mix,
        )
        assert scaled_io_ignore(exp, profile_with(startup_rw=128)) == 640

    def test_sequential_writers_last_and_reset_on_overflow(self):
        cfg = SuiteConfig(
            io_count_by_pattern={"SR": 2048, "RR": 2048, "SW": 2048, "RW": 2048},
            base_target_size=64 * MB,
            max_target_size=256 * MB,
        )
        exps = expand(Micro.GRANULARITY, cfg)  # SW spans up to 2048*256K = 512M > cap
        with pytest.raises(Exception):
            build_plan(exps, profile_with(), 256 * MB, cfg)

        cfg2 = SuiteConfig(
            io_count_by_pattern={"SR": 1024, "RR": 1024, "SW": 1024, "RW": 1024},
            base_target_size=16 * MB,
            max_target_size=64 * MB,
        )
        exps2 = expand(Micro.ALIGNMENT, cfg2)  # 7 SW experiments, 32 MB each
        plan = build_plan(exps2, profile_with(), 128 * MB, cfg2)
        resets = [s for s in plan.steps if isinstance(s, StateReset)]
        assert len(resets) >= 1
        verify_plan(plan)

    def test_default_suite_on_32gb_never_resets(self):
        cfg = SuiteConfig.for_device(32 * GB)
        exps = expand_suite(cfg)
        plan = build_plan(exps, profile_with(startup_rw=128), 32 * GB, cfg)
        assert not any(isinstance(s, StateReset) for s in plan.steps)
        verify_plan(plan)

    def test_offset_suite_plans_inside_the_space_past_it(self):
        capacity = 128 * MB
        suite = SuiteConfig.for_device(
            capacity, base_target_offset=1 * MB, io_count_by_pattern=REDUCED_COUNTS
        )
        assert suite.max_target_size == capacity - 1 * MB
        assert suite.base_target_size == (capacity - 1 * MB) // 2
        plan = build_plan(expand_suite(suite), profile_with(), capacity, suite)
        for exp in plan.experiments:
            for offset, size in exp.target_ranges:
                assert 1 * MB <= offset and offset + size <= capacity, exp.experiment_id

    def test_verify_catches_overlap(self):
        sw = baseline_pattern(mode=Mode.WRITE, location=Sequential(), io_count=64, seed=5)
        exp = ExperimentSpec(
            micro=Micro.GRANULARITY, baseline="SW", varying_name="io_size",
            varying_value=32 * KB, pattern=sw,
        )
        exp2 = ExperimentSpec(
            micro=Micro.GRANULARITY, baseline="SW", varying_name="io_size",
            varying_value=64 * KB, pattern=sw,  # same range: overlap
        )
        plan = BenchmarkPlan(
            experiments=[exp, exp2], steps=[RunStep(0, 0), RunStep(1, 0)],
            capacity=1 * GB, io_size=32 * KB,
        )
        with pytest.raises(PlanError):
            verify_plan(plan)

    def test_verify_counts_io_shift_overhang(self):
        # the first range ends at 2 MB nominally but its shifted IOs reach
        # 512 bytes further, into the second range
        sw = baseline_pattern(mode=Mode.WRITE, location=Sequential(), io_count=64, seed=5)
        first = replace(sw, target_size=2 * MB, io_shift=512)
        second = replace(sw, target_offset=2 * MB, target_size=2 * MB)
        exps = [
            ExperimentSpec(
                micro=Micro.ALIGNMENT, baseline="SW", varying_name="io_shift",
                varying_value=p.io_shift, pattern=p,
            )
            for p in (first, second)
        ]
        assert exps[0].target_ranges == [(0, 2 * MB + 512)]
        plan = BenchmarkPlan(
            experiments=exps, steps=[RunStep(0, 0), RunStep(1, 0)],
            capacity=1 * GB, io_size=32 * KB,
        )
        with pytest.raises(PlanError, match="overlaps"):
            verify_plan(plan)

    def test_verify_capacity_counts_io_shift_overhang(self):
        sw = baseline_pattern(mode=Mode.WRITE, location=Sequential(), io_count=64, seed=5)
        exp = ExperimentSpec(
            micro=Micro.ALIGNMENT, baseline="SW", varying_name="io_shift",
            varying_value=512, pattern=replace(sw, target_size=2 * MB, io_shift=512),
        )
        plan = BenchmarkPlan([exp], [RunStep(0, 0)], capacity=2 * MB, io_size=32 * KB)
        with pytest.raises(PlanError, match="exceeds capacity"):
            verify_plan(plan)

    def test_verify_refuses_a_passive_run_past_capacity(self):
        # a random read shares the base offset with every passive run and
        # disturbs nothing, but its IOs still have to land on the device
        rr = replace(baseline_pattern(mode=Mode.READ, io_count=64), target_offset=1 * MB)
        exp = ExperimentSpec(
            micro=Micro.LOCALITY, baseline="RR", varying_name="target_size",
            varying_value=rr.target_size, pattern=rr,
        )
        assert not exp.sequential_write_bearing
        plan = BenchmarkPlan([exp], [RunStep(0, 0)], capacity=32 * MB, io_size=32 * KB)
        with pytest.raises(PlanError, match=r"\[1048576, 34603008\) exceeds capacity 33554432"):
            verify_plan(plan)
        verify_plan(replace(plan, capacity=33 * MB))

    def test_verify_requires_pause(self):
        sw = baseline_pattern(mode=Mode.READ, io_count=64)
        exp = ExperimentSpec(
            micro=Micro.PAUSE, baseline="SR", varying_name="pause_us",
            varying_value=100, pattern=sw,
        )
        plan = BenchmarkPlan(
            [exp], [RunStep(0, 0)], capacity=1 * GB, io_size=32 * KB,
            inter_run_pause_us=MIN_INTER_RUN_PAUSE_US - 1,
        )
        with pytest.raises(PlanError, match="inter-run pause 999999 us is below the minimum"):
            verify_plan(plan)
        verify_plan(replace(plan, inter_run_pause_us=MIN_INTER_RUN_PAUSE_US))

    def test_plan_json_round_trip(self):
        cfg = SuiteConfig(io_count_by_pattern={"SR": 64, "RR": 64, "SW": 64, "RW": 64})
        exps = expand(Micro.MIX, cfg)[:4] + expand(Micro.PARALLELISM, cfg)[:4]
        plan = build_plan(exps, profile_with(), 32 * GB, cfg)
        again = plan_from_dict(json.loads(dumps(plan_to_dict(plan))))
        assert again == plan


# Suites whose plan.json bytes are pinned: (capacity, seed, SuiteConfig
# overrides).  The benchmark's suite at 128 MB, acceptance 8's at 256 MB,
# the default suite at 32 GB with and without an offset, and a 16 KB IO
# suite with its own extra sizes and repetitions.
PINNED_SUITES = {
    "perfbench-128m": (128 * MB, 41, {"io_count_by_pattern": REDUCED_COUNTS}),
    "acceptance8-256m": (256 * MB, 41, {"io_count_by_pattern": REDUCED_COUNTS}),
    "default-32g": (32 * GB, 0, {}),
    "default-32g-offset-1g": (32 * GB, 0, {"base_target_offset": 1 * GB}),
    "io16k-512m": (512 * MB, 7, {
        "base_io_size": 16 * KB,
        "extra_io_sizes": (1536, 2560, 24 * KB),
        "repetitions": 2,
        "io_count_by_pattern": {"SR": 256, "RR": 320, "SW": 384, "RW": 768},
    }),
}
# SHA-256 of each suite's plan.json text.  A change to expansion, target
# offsets, io_ignore scaling or the plan encoding shows here.
PINNED_PLAN_DIGESTS = {
    "perfbench-128m": "99ee1e8cdd5cd0a69c44e6a43fd165c4654c383eb6c3d19c595ce28cd39087c2",
    "acceptance8-256m": "1adaa4d14e41ed9567b006b66f50a68cce6c73e372826ec21056d05aac3e9c75",
    "default-32g": "9e0fce04086ce301630ffc9ea48e47c277410b141946a2f09c284030aaeabedb",
    "default-32g-offset-1g": "cc4c2b78e620e9ada47538e64e1cb11fc383ca7d5459e2216a9c9352eec4cdd8",
    "io16k-512m": "af12e0d1fa0d794f20f18b34692562dec6b4e69983039f52ad5313d636ec9f47",
}
# The perfbench-128m plan.json in plan format 5, which wrote an
# experiment's whole spec into each of its run steps: 858 runs of 286
# experiments in 650,659 bytes.
FORMAT5_PERFBENCH_PLAN_BYTES = 650_659


def pinned_plan(name: str) -> BenchmarkPlan:
    capacity, seed, overrides = PINNED_SUITES[name]
    suite = SuiteConfig.for_device(capacity, seed=seed, **overrides)
    # nonzero start-ups on every baseline pin the mix io_ignore scaling
    profile = DeviceProfile(
        startup={"SR": 3, "RR": 5, "SW": 7, "RW": 128},
        period={"SR": 1, "RR": 1, "SW": 64, "RW": 16},
        inter_run_pause_us=2_000_000,
    )
    return build_plan(expand_suite(suite), profile, capacity, suite)


class TestPlanBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_SUITES))
    def test_plan_json_digest_pinned(self, name, tmp_path):
        save_plan(pinned_plan(name), tmp_path / "plan.json")
        text = (tmp_path / "plan.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == PINNED_PLAN_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_SUITES))
    def test_loaded_plan_equals_the_built_one_and_saves_alike(self, name, tmp_path):
        plan = pinned_plan(name)
        save_plan(plan, tmp_path / "plan.json")
        again = load_plan(tmp_path / "plan.json")
        assert again == plan
        save_plan(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "plan.json").read_bytes()

    def test_plan_json_states_each_experiment_once(self, tmp_path):
        # a plan.json that repeats an experiment's spec in each of its run
        # steps makes encoding it the benchmark campaign's peak memory
        plan = pinned_plan("perfbench-128m")
        save_plan(plan, tmp_path / "plan.json")
        text = (tmp_path / "plan.json").read_bytes()
        written = [
            f"{e['micro']}/{e['baseline']}/{e['varying_name']}={e['varying_value']}"
            for e in json.loads(text)["experiments"]
        ]
        planned = {plan.resolve(s)[0].experiment_id for s in plan.run_steps()}
        assert sorted(written) == sorted(planned)
        assert len(text) <= 0.25 * FORMAT5_PERFBENCH_PLAN_BYTES

    def test_save_plan_holds_no_token_list_of_the_whole_plan(self, tmp_path):
        # a one-shot json.dumps of this plan peaks at 1.77 MiB, nearly all of
        # it the encoder's token list
        plan = pinned_plan("perfbench-128m")
        tracemalloc.start()
        try:
            save_plan(plan, tmp_path / "plan.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.8 * MB


class TestDeviceProfileSerialization:
    def test_round_trip(self):
        p = profile_with()
        assert from_data(DeviceProfile, json.loads(dumps(p))) == p
