"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line once its assertions hold, so a verbose run
reads as a checklist.  Criteria 8 and 9 drive the full CLI pipeline on
the bundled simulator profiles end to end.
"""

import hashlib
import json
import random
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import oracle_lba

from flashmark.analysis import detect_startup, estimate_period
from flashmark.cli import main as cli_main
from flashmark.device import SimulatedDevice, builtin_profile
from flashmark.methodology import (
    CalibrationConfig,
    StateReset,
    RunStep,
    build_plan,
    calibrate_pause,
    calibrate_phases,
    enforce_random_state,
    DeviceProfile,
)
from flashmark.microbench import Micro, SuiteConfig, expand_suite
from flashmark.patterns import (
    Burst,
    Consecutive,
    Mode,
    Ordered,
    Partitioned,
    PatternSpec,
    Pause,
    Random,
    Sequential,
    generate_schedule,
)
from flashmark.runner import Trace, TraceRecord, summarize

KB = 1024
MB = 1024 * 1024
GB = 1024 * MB

REDUCED_COUNTS = {"SR": 192, "RR": 192, "SW": 256, "RW": 384}


def ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {message}")


def make_spec(**kw):
    defaults = dict(
        timing=Consecutive(),
        location=Sequential(),
        mode=Mode.WRITE,
        io_size=32 * KB,
        io_shift=0,
        target_offset=0,
        target_size=4 * MB,
        io_count=16,
        seed=0,
    )
    defaults.update(kw)
    return PatternSpec(**defaults)


def test_acceptance_1_pattern_formula_oracle():
    """1,000 randomized specs: generated lbas match the independent
    formula evaluation exactly; partition/order(+-1) permutation law."""
    t0 = time.monotonic()
    rng = random.Random(0xACCE551)
    checked = 0
    for trial in range(1000):
        io_size = rng.choice([512, 1024, 2048, 4096, 32 * KB])
        partitions = rng.choice([1, 2, 3, 4, 6, 8])
        kind = rng.randrange(4)
        if kind == 3:
            slots = partitions * rng.randint(1, 16)
        else:
            slots = rng.randint(1, 128)
        location = [
            Sequential(),
            Random(),
            Ordered(incr=rng.choice([-1, 0, 1])),
            Partitioned(partitions=partitions),
        ][kind]
        spec = make_spec(
            location=location,
            io_size=io_size,
            io_shift=rng.randrange(io_size // 512) * 512,
            target_offset=rng.choice([0, 512, 1 * MB]),
            target_size=slots * io_size,
            io_count=rng.randint(1, slots),
            mode=rng.choice([Mode.READ, Mode.WRITE]),
            seed=rng.getrandbits(64),
        )
        lbas = generate_schedule(spec).lbas
        assert lbas == [oracle_lba(spec, i) for i in range(spec.io_count)]
        checked += len(lbas)
        # full-coverage walks are permutations of the sequential walk
        if isinstance(location, (Partitioned, Ordered)) and spec.io_count == slots:
            if isinstance(location, Ordered) and location.incr not in (-1, 1):
                continue
            seq = replace(spec, location=Sequential())
            assert sorted(lbas) == sorted(generate_schedule(seq).lbas)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"oracle check took {elapsed:.1f}s"
    ok(1, f"{checked} addresses from 1000 random specs match the formula oracle exactly")


def test_acceptance_2_timing_identity_laws():
    """burst(p, 1) = pause(p) and zero-pause burst = consecutive,
    as exact equality of the scheduled gaps over whole schedules."""
    for p in (100, 7_919, 100_000):
        for count in (1, 2, 33, 257):
            burst1 = generate_schedule(
                make_spec(timing=Burst(pause_us=p, burst_count=1), io_count=count,
                          target_size=count * 32 * KB)
            )
            pause = generate_schedule(
                make_spec(timing=Pause(pause_us=p), io_count=count,
                          target_size=count * 32 * KB)
            )
            assert burst1.gaps == pause.gaps
        for width in (1, 5, 64):
            burst0 = generate_schedule(
                make_spec(timing=Burst(pause_us=0, burst_count=width), io_count=128,
                          target_size=128 * 32 * KB)
            )
            cons = generate_schedule(
                make_spec(timing=Consecutive(), io_count=128, target_size=128 * 32 * KB)
            )
            assert burst0.gaps == cons.gaps
    ok(2, "burst(p,1)=pause(p) and burst(0,-)=consecutive hold exactly")


@pytest.mark.parametrize("pool", [0, 125, 1000])
def test_acceptance_3_startup_recovery(pool):
    """The free-pool length injected into the simulator is recovered by
    calibration within +-10%; each case well inside the 1-minute budget."""
    t0 = time.monotonic()
    prof = builtin_profile("highend-ssd", capacity=128 * MB, free_block_pool=pool)
    dev = SimulatedDevice(prof)
    enforce_random_state(dev, seed=31)
    profile = calibrate_phases(dev, CalibrationConfig(long_io_count=4096), seed=5)
    got = profile.startup["RW"]
    if pool == 0:
        assert got == 0
    else:
        assert abs(got - pool) <= 0.10 * pool, f"startup {got} vs injected {pool}"
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0, f"case took {elapsed:.1f}s of the shared 60s budget"
    ok(3, f"free_block_pool={pool}: calibrated startup {got} within +-10% ({elapsed:.1f}s)")


def test_acceptance_4_period_recovery():
    """Sequential-write period of 128 injected via the low-end profile:
    exact recovery noiseless, +-10% under 5% multiplicative noise."""
    dev = SimulatedDevice(builtin_profile("lowend-usb", capacity=128 * MB))
    enforce_random_state(dev, seed=13)
    spec = make_spec(io_count=2048, target_size=2048 * 32 * KB, seed=77)
    from flashmark.runner import execute_run

    trace = execute_run(dev, spec)
    rts = np.asarray(trace.rts, dtype=float)
    start = detect_startup(rts).count
    est = estimate_period(rts[start:])
    assert est.period == 128, f"noiseless period {est.period} != 128"

    noisy = rts * (1.0 + 0.05 * np.random.RandomState(11).standard_normal(rts.size))
    est_noisy = estimate_period(noisy[start:])
    assert abs(est_noisy.period - 128) <= 12.8
    ok(4, f"SW period: {est.period} exact noiseless, {est_noisy.period} with 5% noise")


def test_acceptance_5_pause_calibration():
    """Deferred reclamation lingering ~2.5s: affected sequential reads
    within +-15% of 3,000 scaled to simulator latencies; returned pause
    overestimates at least 2x.  Synchronous devices get the 1s floor."""
    prof = builtin_profile("highend-ssd")
    dev = SimulatedDevice(prof)
    enforce_random_state(dev, seed=17)
    cal = calibrate_pause(
        dev, CalibrationConfig(disturb_writes=1024, observe_reads=8192), seed=9
    )

    sr_cost = prof.controller_overhead_us + 16 * prof.read_page_us
    affected_cost = sr_cost + prof.read_drain_extra_us
    lingering_target_us = prof.free_block_pool / prof.busy_drain_blocks_per_sec * 1e6
    scaled_3000 = lingering_target_us / affected_cost
    assert abs(cal.affected_reads - scaled_3000) <= 0.15 * scaled_3000, (
        f"affected {cal.affected_reads} vs scaled target {scaled_3000:.0f}"
    )
    assert cal.pause_us >= 2 * cal.lingering_us

    sync = SimulatedDevice(builtin_profile("lowend-usb", capacity=64 * MB))
    enforce_random_state(sync, seed=18)
    cal_sync = calibrate_pause(
        sync, CalibrationConfig(disturb_writes=256, observe_reads=2048), seed=9
    )
    assert cal_sync.pause_us == 1_000_000
    ok(
        5,
        f"affected reads {cal.affected_reads} ~ {scaled_3000:.0f} (+-15%), "
        f"pause {cal.pause_us / 1e6:.1f}s >= 2x lingering; synchronous floor 1s",
    )


def test_acceptance_6_startup_bias():
    """On the synthetic trace (128 cheap at 400us, then alternating
    400/27000us, 512 IOs) the unignored mean sits 20-30% below the
    running-phase mean; ignoring 128 leaves under 2% bias."""
    rts = [400] * 128 + [400 if i % 2 == 0 else 27_000 for i in range(384)]
    trace = Trace([TraceRecord(i, 0, rt, 0, 512, "write", 0) for i, rt in enumerate(rts)])
    biased = summarize(trace, 0)
    running = summarize(trace, 128)
    bias = 1.0 - biased / running
    assert 0.20 <= bias <= 0.30, f"bias {bias:.3f} outside 20-30%"
    corrected = abs(1.0 - summarize(trace, 128) / running)
    assert corrected < 0.02
    ok(6, f"io_ignore=0 bias {bias:.1%}; io_ignore=128 bias {corrected:.1%}")


def _independent_replay(plan):
    """Test-side plan replayer, separate from verify_plan."""
    epochs = [[]]
    for step in plan.steps:
        if isinstance(step, StateReset):
            epochs.append([])
        elif isinstance(step, RunStep) and step.run_index == 0:
            exp = plan.experiments[step.experiment]
            for spec in exp.pattern.components:
                if spec.mode is Mode.WRITE and not isinstance(spec.location, Random):
                    epochs[-1].append((spec.target_offset, spec.target_offset + spec.target_size))
    for ranges in epochs:
        ranges.sort()
        total = 0
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 <= b0, f"overlap: ({a0},{a1}) vs ({b0},{b1})"
        for lo, hi in ranges:
            total += hi - lo
        assert total <= plan.capacity, f"epoch sequential-write space {total} > capacity"
    return len(epochs) - 1


def test_acceptance_7_plan_validity():
    """Randomized experiment sets on a 1 GB device replay cleanly; the
    default suite on 32 GB needs zero state resets."""
    profile = DeviceProfile(
        startup={"SR": 0, "RR": 0, "SW": 0, "RW": 128},
        period={"SR": 1, "RR": 1, "SW": 128, "RW": 16},
        inter_run_pause_us=1_000_000,
    )
    rng = random.Random(0x9A7)
    for trial in range(12):
        micros = rng.sample(list(Micro), rng.randint(2, 6))
        counts = {b: rng.choice([64, 128, 256, 512]) for b in ("SR", "RR", "SW", "RW")}
        cfg = SuiteConfig.for_device(
            1 * GB,
            io_count_by_pattern=counts,
            base_target_size=rng.choice([32 * MB, 64 * MB]),
            seed=rng.getrandbits(32),
        )
        plan = build_plan(expand_suite(cfg, micros), profile, 1 * GB, cfg)
        _independent_replay(plan)

    cfg32 = SuiteConfig.for_device(32 * GB)
    plan32 = build_plan(expand_suite(cfg32), profile, 32 * GB, cfg32)
    resets = _independent_replay(plan32)
    assert resets == 0, f"default suite on 32 GB produced {resets} resets"
    ok(7, "12 randomized 1 GB plans replay cleanly; 32 GB default suite: zero resets")


def _campaign_config(tmp_path, name, profile_name, seed=41, capacity=None):
    out = tmp_path / f"out-{name}"
    device = {"simulator_profile": profile_name}
    if capacity is not None:
        prof = builtin_profile(profile_name, capacity=capacity)
        path = tmp_path / f"{name}-profile.json"
        path.write_text(prof.to_json())
        device = {"simulator_profile": str(path)}
    config = {
        "device": device,
        "output_dir": str(out),
        "seed": seed,
        "suite": {"io_count_by_pattern": REDUCED_COUNTS},
        "calibration": {
            "long_io_count": 4096,
            "observe_reads": 8192,
            "disturb_writes": 1024,
            "probe_reads": 512,
        },
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return path, out


def _run_campaign(config_path):
    runner = CliRunner()
    for cmd in ("format", "calibrate", "plan", "run", "report"):
        result = runner.invoke(cli_main, [cmd, "--config", str(config_path)], catch_exceptions=False)
        assert result.exit_code == 0, f"{cmd} failed:\n{result.output}"


# SHA-256 over every trace CSV and every report file of acceptance 8's
# campaigns.  A change to simulator results, trace bytes or report bytes
# shows here; an intended behaviour change must update these constants.
GOLDEN_DIGESTS = {
    "highend-ssd": "f8265ea3c59ff8d7dbd94b9340536436a42d3f199d7478fad3f978ce11228240",
    "lowend-usb": "f990673791b4f48e46f03bc6f731d7cff34e7f124651c92b0659633930b028b0",
}


def _artifact_digest(out):
    """SHA-256 of traces/**/*.csv and report/**, each file preceded by its
    path relative to the campaign output directory."""
    files = sorted(out.glob("traces/**/*.csv")) + sorted(
        p for p in (out / "report").rglob("*") if p.is_file()
    )
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def end_to_end_reports(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("e2e")
    reports = {"elapsed_s": 0.0, "digests": {}}
    t0 = time.monotonic()
    for name in ("highend-ssd", "lowend-usb"):
        config_path, out = _campaign_config(tmp_path, name, name)
        _run_campaign(config_path)
        reports[name] = json.loads((out / "report" / "summary.json").read_text())
        reports["digests"][name] = _artifact_digest(out)
    reports["elapsed_s"] = time.monotonic() - t0
    return reports


def test_acceptance_8_end_to_end_summary(end_to_end_reports):
    """Full reduced suite on both bundled profiles: random/sequential
    write ratios, locality presence, and in-place ratios match the
    device classes directionally."""
    high = end_to_end_reports["highend-ssd"]
    low = end_to_end_reports["lowend-usb"]

    ratio_high = high["baseline_cost_us"]["RW"] / high["baseline_cost_us"]["SW"]
    ratio_low = low["baseline_cost_us"]["RW"] / low["baseline_cost_us"]["SW"]
    assert ratio_high > 10, f"highend RW/SW {ratio_high:.1f} <= 10"
    assert ratio_low > 50, f"lowend RW/SW {ratio_low:.1f} <= 50"

    assert high["locality_area"] is not None, "highend should show a locality area"
    assert low["locality_area"] is None, "lowend must not show a locality area"

    in_place_high = high["order"]["in_place"]
    in_place_low = low["order"]["in_place"]
    assert in_place_high is not None and 0.5 < in_place_high < 2.0
    assert in_place_low is not None and in_place_low > 5.0
    assert end_to_end_reports["elapsed_s"] < 600, (
        f"both campaigns took {end_to_end_reports['elapsed_s']:.0f}s"
    )
    ok(
        8,
        f"RW/SW {ratio_high:.0f} (high) / {ratio_low:.0f} (low); locality "
        f"{high['locality_area'][0] // MB} MB vs absent; in-place x{in_place_high:.2f} vs "
        f"x{in_place_low:.0f}; campaigns took {end_to_end_reports['elapsed_s']:.0f}s",
    )


def test_acceptance_8_golden_digests(end_to_end_reports):
    """The acceptance-8 campaigns reproduce the pinned trace and report
    bytes on both profiles."""
    assert end_to_end_reports["digests"] == GOLDEN_DIGESTS
    ok(8, "trace and report digests match the pinned constants on both profiles")


def test_acceptance_9_campaign_determinism(tmp_path):
    """Two campaigns with equal seeds produce byte-identical traces and
    reports."""
    outputs = []
    for tag in ("a", "b"):
        config_path, out = _campaign_config(
            tmp_path, f"det-{tag}", "highend-ssd", seed=99, capacity=64 * MB
        )
        cfg = json.loads(config_path.read_text())
        cfg["suite"]["io_count_by_pattern"] = {"SR": 48, "RR": 48, "SW": 64, "RW": 96}
        cfg["calibration"]["long_io_count"] = 1024
        cfg["calibration"]["observe_reads"] = 2048
        config_path.write_text(json.dumps(cfg))
        _run_campaign(config_path)
        outputs.append(out)

    a, b = outputs
    a_files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    compare = [
        p for p in a_files
        if p.parts[0] in ("traces", "report")
    ]
    assert compare, "campaign produced no comparable artifacts"
    assert [p for p in b_files if p.parts[0] in ("traces", "report")] == compare
    differing = [
        str(p) for p in compare if (a / p).read_bytes() != (b / p).read_bytes()
    ]
    assert not differing, f"non-identical artifacts: {differing[:5]}"
    ok(9, f"{len(compare)} trace/report files byte-identical across equal-seed campaigns")
