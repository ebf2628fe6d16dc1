import json
from dataclasses import replace

import pytest

from flashmark.device import DeviceError, SimProfile, SimulatedDevice, builtin_profile
from flashmark.methodology import (
    BenchmarkPlan,
    DeviceProfile,
    EnforcementError,
    PauseStep,
    PlanError,
    RunStep,
    StateReset,
    build_plan,
    calibrate_pause,
    calibrate_phases,
    enforce_random_state,
    scaled_io_ignore,
    verify_plan,
)
from flashmark.microbench import ExperimentSpec, Micro, SuiteConfig, expand, expand_suite
from flashmark.patterns import (
    Consecutive,
    MixSpec,
    Mode,
    PatternSpec,
    Random,
    Sequential,
)
from flashmark.runner import execute_run, summarize
from flashmark.serialization import dumps, from_data, plan_from_dict, plan_to_dict

KB = 1024
MB = 1024 * 1024
GB = 1024 * MB


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


class FailingAfter:
    """Wraps a device; fails the n-th write exactly once."""

    def __init__(self, inner, fail_at):
        self.inner = inner
        self.fail_at = fail_at
        self.writes = 0
        self.tripped = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    @property
    def capacity(self):
        return self.inner.capacity

    def write(self, lba, size):
        if not self.tripped and self.writes == self.fail_at:
            self.tripped = True
            raise DeviceError("injected failure")
        self.writes += 1
        return self.inner.write(lba, size)


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
        dev = FailingAfter(small_sim(), fail_at=40)
        with pytest.raises(EnforcementError) as exc:
            enforce_random_state(dev, seed=11)
        assert 0.0 < exc.value.coverage < 1.0

    def test_resume_matches_uninterrupted_run(self):
        full = small_sim()
        enforce_random_state(full, seed=11)

        flaky = FailingAfter(small_sim(), fail_at=40)
        with pytest.raises(EnforcementError):
            enforce_random_state(flaky, seed=11)
        resumed = enforce_random_state(flaky, seed=11, start_io=40)
        assert resumed.coverage == 1.0
        assert flaky.inner.snapshot_state() == full.snapshot_state()

    def test_progress_reported(self):
        marks = []
        enforce_random_state(small_sim(), seed=3, progress=lambda f, n: marks.append(f))
        assert marks and marks[-1] == 1.0


class TestCalibratePhases:
    def test_constant_latency_device(self):
        # pool large enough that no write ever triggers reclamation
        dev = small_sim(free_block_pool=700, gc_mode="synchronous")
        profile = calibrate_phases(dev, long_io_count=512, settle_pause_us=0)
        for b in ("SR", "RR", "SW", "RW"):
            assert profile.startup[b] == 0
            assert profile.period[b] == 1
        assert profile.io_count_recommendation["RW"] == 5120
        assert any(f.startswith("period:") for f in profile.flags)

    def test_startup_recovery_small_pool(self):
        prof = builtin_profile("highend-ssd", capacity=64 * MB, free_block_pool=64)
        dev = SimulatedDevice(prof)
        enforce_random_state(dev, seed=9)
        profile = calibrate_phases(dev, long_io_count=1024, settle_pause_us=60_000_000)
        assert abs(profile.startup["RW"] - 64) <= 7
        assert profile.startup["SR"] == 0
        assert profile.startup["SW"] == 0

    def test_recommendation_includes_periods(self):
        prof = builtin_profile("lowend-usb", capacity=64 * MB)
        dev = SimulatedDevice(prof)
        enforce_random_state(dev, seed=9)
        profile = calibrate_phases(dev, long_io_count=2048, settle_pause_us=0)
        assert profile.period["SW"] == 128
        assert profile.io_count_recommendation["SW"] == max(20 * 128, 1024)


class TestCalibratePause:
    def test_synchronous_device_gets_floor(self):
        dev = small_sim(free_block_pool=0, write_cache_blocks=0, stream_slots=0)
        enforce_random_state(dev, seed=4)
        cal = calibrate_pause(dev, observe_reads=1024, disturb_writes=256, settle_pause_us=0)
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
        cal = calibrate_pause(dev, observe_reads=4096, disturb_writes=512)
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
            cal = calibrate_pause(dev, observe_reads=4096, disturb_writes=512)
            pauses.append(cal.pause_us)
        assert pauses == sorted(pauses)
        assert pauses[0] < pauses[-1]

    def test_identical_distributions_zero_affected(self):
        # threshold sits above the pre-batch mean, so identical behavior
        # in both read batches counts nothing
        dev = small_sim(free_block_pool=700)
        cal = calibrate_pause(dev, observe_reads=512, disturb_writes=64, settle_pause_us=0)
        assert cal.affected_reads == 0


def profile_with(startup_rw=128, pause_us=1_000_000):
    return DeviceProfile(
        startup={"SR": 0, "RR": 0, "SW": 0, "RW": startup_rw},
        period={"SR": 1, "RR": 1, "SW": 1, "RW": 16},
        inter_run_pause_us=pause_us,
        io_count_recommendation={},
    )


class TestBuildPlan:
    def test_empty_experiment_list(self):
        plan = build_plan([], profile_with(), capacity=1 * GB)
        assert plan.steps == []
        verify_plan(plan)

    def test_pause_before_every_run(self):
        cfg = SuiteConfig(io_count_by_pattern={"SR": 64, "RR": 64, "SW": 64, "RW": 64})
        exps = expand(Micro.PAUSE, cfg)
        plan = build_plan(exps, profile_with(), capacity=32 * GB)
        steps = plan.steps
        for i, step in enumerate(steps):
            if isinstance(step, RunStep):
                assert isinstance(steps[i - 1], PauseStep)
                assert steps[i - 1].duration_us >= plan.inter_run_pause_us

    def test_io_ignore_set_from_startup(self):
        cfg = SuiteConfig(io_count_by_pattern={"SR": 512, "RR": 512, "SW": 512, "RW": 512})
        exps = expand(Micro.GRANULARITY, cfg)
        plan = build_plan(exps, profile_with(startup_rw=128), capacity=32 * GB)
        for step in plan.run_steps():
            base = step.experiment.baseline
            want = 128 if base == "RW" else 0
            assert step.experiment.io_ignore == want

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
            build_plan(exps, profile_with(), capacity=256 * MB)

        cfg2 = SuiteConfig(
            io_count_by_pattern={"SR": 1024, "RR": 1024, "SW": 1024, "RW": 1024},
            base_target_size=16 * MB,
            max_target_size=64 * MB,
        )
        exps2 = expand(Micro.ALIGNMENT, cfg2)  # 7 SW experiments, 32 MB each
        plan = build_plan(exps2, profile_with(), capacity=128 * MB)
        resets = [s for s in plan.steps if isinstance(s, StateReset)]
        assert len(resets) >= 1
        verify_plan(plan)

    def test_default_suite_on_32gb_never_resets(self):
        cfg = SuiteConfig.for_device(32 * GB)
        exps = expand_suite(cfg)
        plan = build_plan(exps, profile_with(startup_rw=128), capacity=32 * GB)
        assert not any(isinstance(s, StateReset) for s in plan.steps)
        verify_plan(plan)

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
            steps=[
                PauseStep(1_000_000), RunStep(exp, 0),
                PauseStep(1_000_000), RunStep(exp2, 0),
            ],
            capacity=1 * GB,
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
            steps=[
                PauseStep(1_000_000), RunStep(exps[0], 0),
                PauseStep(1_000_000), RunStep(exps[1], 0),
            ],
            capacity=1 * GB,
        )
        with pytest.raises(PlanError, match="overlaps"):
            verify_plan(plan)

    def test_verify_capacity_counts_io_shift_overhang(self):
        sw = baseline_pattern(mode=Mode.WRITE, location=Sequential(), io_count=64, seed=5)
        exp = ExperimentSpec(
            micro=Micro.ALIGNMENT, baseline="SW", varying_name="io_shift",
            varying_value=512, pattern=replace(sw, target_size=2 * MB, io_shift=512),
        )
        plan = BenchmarkPlan(steps=[PauseStep(1_000_000), RunStep(exp, 0)], capacity=2 * MB)
        with pytest.raises(PlanError, match="exceeds capacity"):
            verify_plan(plan)

    def test_verify_requires_pause(self):
        sw = baseline_pattern(mode=Mode.READ, io_count=64)
        exp = ExperimentSpec(
            micro=Micro.PAUSE, baseline="SR", varying_name="pause_us",
            varying_value=100, pattern=sw,
        )
        plan = BenchmarkPlan(steps=[RunStep(exp, 0)], capacity=1 * GB)
        with pytest.raises(PlanError):
            verify_plan(plan)

    def test_plan_json_round_trip(self):
        cfg = SuiteConfig(io_count_by_pattern={"SR": 64, "RR": 64, "SW": 64, "RW": 64})
        exps = expand(Micro.MIX, cfg)[:4] + expand(Micro.PARALLELISM, cfg)[:4]
        plan = build_plan(exps, profile_with(), capacity=32 * GB)
        again = plan_from_dict(json.loads(dumps(plan_to_dict(plan))))
        assert again.capacity == plan.capacity
        assert len(again.steps) == len(plan.steps)
        assert [s.kind for s in again.steps] == [s.kind for s in plan.steps]
        ours = [s.experiment for s in plan.run_steps()]
        theirs = [s.experiment for s in again.run_steps()]
        assert ours == theirs


class TestDeviceProfileSerialization:
    def test_round_trip(self):
        p = profile_with()
        assert from_data(DeviceProfile, json.loads(dumps(p))) == p
