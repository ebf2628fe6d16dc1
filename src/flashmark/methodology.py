"""Benchmarking methodology: device state, calibration, and plan building.

Flash device performance depends on the entire IO history, so runs are
only comparable from a well-defined initial state.  Writing the whole
device with random IOs of random size yields such a state, and it is
stable: among the pattern families only sequential writes disturb it
appreciably, so those are directed at disjoint target ranges and grouped
so that a full-device rewrite (state reset) is only needed when their
accumulated space would exceed the capacity.

Calibration measures, per baseline pattern, the start-up length (IOs to
ignore when summarizing), the oscillation period (how long runs must be
to average fairly), and the inter-run pause needed so that one run's
deferred reclamation cannot bleed into the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .analysis import detect_startup, estimate_period
from .device import BlockDevice, DeviceError
from .microbench import (
    BASELINE_IO_COUNT,
    MIN_INTER_RUN_PAUSE_US,
    BenchmarkPlan,
    ExperimentSpec,
    PlanStep,
    RunStep,
    StateReset,
    SuiteConfig,
    assign_target_offsets,
    check_at_least,
)
from .patterns import (
    BASELINES,
    MixSpec,
    _ranges_overlap,
    baseline_pattern,
    derive_seed,
    uniform_indices,
)
from .runner import execute_run, issuer

KB = 1024
MB = 1024 * 1024

PAUSE_K_SIGMA = 3.0  # a read this many stddevs over the pre-batch mean is affected


@dataclass(frozen=True)
class CalibrationConfig:
    """Probe lengths of calibrate_phases and calibrate_pause, and their
    defaults; a campaign config's `calibration` decodes into it."""

    long_io_count: int = 10 * max(BASELINE_IO_COUNT.values())
    settle_pause_us: int = 60_000_000  # generous: lets any deferred backlog drain
    # pause calibration: reads before and after a batch of random writes
    probe_reads: int = 512
    disturb_writes: int = 1024
    observe_reads: int = 8192

    def __post_init__(self):
        check_at_least([("settle_pause_us", self.settle_pause_us)], 0)
        check_at_least([
            ("long_io_count", self.long_io_count),
            ("probe_reads", self.probe_reads),
            ("disturb_writes", self.disturb_writes),
            ("observe_reads", self.observe_reads),
        ], 1)


class EnforcementError(DeviceError):
    """State enforcement failed; carries the coverage fraction reached."""

    def __init__(self, message: str, coverage: float):
        super().__init__(message)
        self.coverage = coverage


@dataclass(frozen=True)
class DeviceProfile:
    """Calibrated per-baseline run parameters for one device."""

    startup: dict[str, int] = field(default_factory=dict)  # baseline -> IOs
    period: dict[str, int] = field(default_factory=dict)   # baseline -> IOs
    inter_run_pause_us: int = MIN_INTER_RUN_PAUSE_US
    io_count_recommendation: dict[str, int] = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def startup_for(self, baseline: str) -> int:
        return self.startup.get(baseline, 0)


@dataclass
class EnforceResult:
    elapsed_us: int
    ios_issued: int
    bytes_written: int
    coverage: float


MAX_FORMAT_IO = 128 * KB  # writes range from one sector to the flash block size
OVERWRITE_FACTOR = 1.1  # random writes cover this many capacities before the hole fill
HOLE_FILL_SECTORS = MAX_FORMAT_IO // 512 - 1  # longest targeted write, in sectors
HOLE_SCAN_SECTORS = 1 << 16  # bitmap entries _hole_fill compares at a time


def _random_writes(seed: int, cap: int) -> tuple[list[int], list[int]]:
    """(lbas, sizes) of the random phase: write i's size is draw 2i of the
    seed stream and its sector offset draw 2i + 1, until the sizes sum to
    OVERWRITE_FACTOR times the capacity.

    Sizes are drawn in blocks of the expected remaining count, and the
    stopping point is the first prefix sum to reach the target.
    """
    target = int(cap * OVERWRITE_FACTOR)
    max_sectors = MAX_FORMAT_IO // 512
    mean_size = (max_sectors + 1) * 256
    blocks = []
    drawn = total = 0
    while total < target:
        k = (target - total) // mean_size + 64
        idx = np.arange(drawn, drawn + k, dtype=np.int64)
        blocks.append((uniform_indices(seed, 2 * idx, max_sectors) + 1) * 512)
        drawn += k
        total += int(blocks[-1].sum())
    sizes = np.concatenate(blocks)
    sizes = sizes[: int(np.searchsorted(np.cumsum(sizes), target)) + 1]
    idx = np.arange(sizes.size, dtype=np.int64)
    lbas = uniform_indices(seed, 2 * idx + 1, (cap - sizes) // 512 + 1) * 512
    return lbas.tolist(), sizes.tolist()


def _hole_fill(covered: np.ndarray) -> tuple[list[int], list[int]]:
    """(lbas, sizes) of the targeted writes that cover every unwritten
    sector: each run of holes, in address order, cut from its start into
    chunks of at most HOLE_FILL_SECTORS sectors."""
    # runs start where covered falls to 0 and end where it rises, with a
    # covered sector before and after the bitmap.  It is compared
    # HOLE_SCAN_SECTORS at a time, so no temporary is the bitmap's size;
    # int8 bounds keep the edges int8 (a Python int would widen them to int64)
    bits = covered.view(np.int8)
    falls, rises = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    before = np.int8(1)
    for lo in range(0, bits.size, HOLE_SCAN_SECTORS):
        window = bits[lo : lo + HOLE_SCAN_SECTORS]
        edges = np.diff(window, prepend=before)
        falls.append(np.flatnonzero(edges == -1) + lo)
        rises.append(np.flatnonzero(edges == 1) + lo)
        before = window[-1]  # a run open here goes on in the next window
    if before == 0:
        rises.append(np.array([bits.size]))
    run_start = np.concatenate(falls)
    run_len = np.concatenate(rises) - run_start
    pieces = -(-run_len // HOLE_FILL_SECTORS)
    # k: the chunk's place within its run
    k = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    skip = k * HOLE_FILL_SECTORS
    starts = np.repeat(run_start, pieces) + skip
    lengths = np.minimum(np.repeat(run_len, pieces) - skip, HOLE_FILL_SECTORS)
    return (starts * 512).tolist(), (lengths * 512).tolist()


def enforce_random_state(
    device: BlockDevice,
    seed: int,
    progress: Callable[[float, int], None] | None = None,
    every: int = 1,
    start_io: int = 0,
) -> EnforceResult:
    """Drive the device into the well-defined random-write state.

    Random writes of random size (one sector up to the flash block size)
    land at random sector offsets until OVERWRITE_FACTOR times the
    capacity has been written; a coverage bitmap then directs targeted
    writes at any still-unwritten sectors, so every logical sector is
    written at least once and termination is guaranteed.

    The write sequence is a pure function of the seed, which makes the
    process resumable: the first start_io writes are replayed into the
    bitmap without touching the device.  progress(coverage, ios) is called
    after each written IO whose count is a multiple of every.  The writes
    go to the device in chunks (see runner.issuer), which end where
    progress is called and at start_io; the bitmap is updated per chunk.
    """
    cap = device.capacity
    covered = np.zeros(cap // 512, dtype=bool)
    issue = issuer(device)
    t0 = device.now_us()

    written = 0
    ios = 0

    def cover(lbas: list[int], sizes: list[int]) -> None:
        for lba, size in zip(lbas, sizes):
            covered[lba // 512 : (lba + size) // 512] = True

    def write_all(lbas: list[int], sizes: list[int]) -> None:
        nonlocal written, ios
        j = 0
        while j < len(lbas):
            live = ios >= start_io
            k = len(lbas) if live else min(len(lbas), j + start_io - ios)
            if live and progress:
                k = min(k, j + every - ios % every)
            if live:
                rts: list[int] = []
                failure = issue(zip(repeat(0), lbas[j:k], sizes[j:k], repeat(True)), [], rts)
                if failure is not None:
                    cover(lbas[j : j + len(rts)], sizes[j : j + len(rts)])
                    raise EnforcementError(
                        f"format write {ios + len(rts)} failed: {failure}",
                        coverage=float(covered.mean()),
                    ) from failure
            cover(lbas[j:k], sizes[j:k])
            written += sum(sizes[j:k])
            ios += k - j
            j = k
            if live and progress and ios % every == 0:
                progress(float(covered.mean()), ios)

    write_all(*_random_writes(seed, cap))
    write_all(*_hole_fill(covered))

    if not covered.all():
        raise EnforcementError("coverage incomplete after targeted pass", float(covered.mean()))
    return EnforceResult(
        elapsed_us=device.now_us() - t0,
        ios_issued=ios,
        bytes_written=written,
        coverage=1.0,
    )


CALIBRATION_IO_SIZE = 32 * KB


def _probe(device: BlockDevice, baseline: str, io_count: int, seed: int) -> list[int]:
    """Response times of one calibration run: a 32 KB baseline pattern
    over the device.  A random pattern roams all of it, a sequential one
    spans its IOs, wrapping at the device end."""
    device_span = device.capacity - device.capacity % CALIBRATION_IO_SIZE
    spec = baseline_pattern(baseline, CALIBRATION_IO_SIZE, io_count, device_span, seed)
    spec = replace(spec, target_size=min(spec.target_size, device_span))
    trace = execute_run(device, spec)
    if trace.error:
        raise DeviceError(f"calibration run {baseline} aborted: {trace.error}")
    return trace.rts


def calibrate_phases(device: BlockDevice, cfg: CalibrationConfig, seed: int) -> DeviceProfile:
    """Measure start-up and period for each baseline pattern.

    Runs SR, RR, SW and RW with cfg.long_io_count IOs against the enforced
    device, each after a settle pause, detects the two phases on each
    trace, and derives per-run IOIgnore/IOCount recommendations (start-up
    plus enough periods to converge, floored at the per-baseline defaults).
    """
    startup: dict[str, int] = {}
    period: dict[str, int] = {}
    flags: list[str] = []
    recommendation: dict[str, int] = {}
    for tag, baseline in enumerate(BASELINES, 1):
        device.idle(cfg.settle_pause_us)
        rts = _probe(device, baseline, cfg.long_io_count, derive_seed(seed, tag))
        est = detect_startup(rts)
        if not est.conclusive:
            flags.append(f"startup:{baseline}:inconclusive")
        startup[baseline] = est.count
        per = estimate_period(rts[est.count :])
        if not per.confident:
            flags.append(f"period:{baseline}:low-confidence")
        period[baseline] = per.period
        recommendation[baseline] = startup[baseline] + max(
            20 * period[baseline], BASELINE_IO_COUNT[baseline]
        )
    return DeviceProfile(
        startup=startup,
        period=period,
        inter_run_pause_us=MIN_INTER_RUN_PAUSE_US,
        io_count_recommendation=recommendation,
        flags=tuple(flags),
    )


@dataclass
class PauseCalibration:
    pause_us: int
    affected_reads: int
    lingering_us: int


def calibrate_pause(device: BlockDevice, cfg: CalibrationConfig, seed: int) -> PauseCalibration:
    """Measure how long one run's side effects linger into the next.

    After a settle pause: cfg.probe_reads sequential reads, then
    cfg.disturb_writes random writes, then cfg.observe_reads sequential
    reads again; reads in the second batch whose response time exceeds
    the pre-batch mean by PAUSE_K_SIGMA standard deviations are counted as
    affected.  The returned pause doubles the observed lingering time
    and never goes below one second, deliberately overestimating.
    """
    device.idle(cfg.settle_pause_us)
    pre = np.asarray(_probe(device, "SR", cfg.probe_reads, derive_seed(seed, 1)), dtype=float)
    _probe(device, "RW", cfg.disturb_writes, derive_seed(seed, 2))
    post = np.asarray(_probe(device, "SR", cfg.observe_reads, derive_seed(seed, 3)), dtype=float)
    threshold = pre.mean() + PAUSE_K_SIGMA * pre.std() + 1e-9
    affected = post > threshold
    count = int(affected.sum())
    lingering = int(post[affected].sum())
    pause = max(2 * lingering, MIN_INTER_RUN_PAUSE_US)
    return PauseCalibration(pause_us=pause, affected_reads=count, lingering_us=lingering)


# ------------------------------------------------------------------ plans


class PlanError(ValueError):
    """The plan violates capacity or overlap constraints."""


def scaled_io_ignore(exp: ExperimentSpec, profile: DeviceProfile) -> int:
    """Warm-up length for one run, scaled for composite patterns.

    For mixes the start-up of each component must be covered within the
    merged stream, so a component receiving a 1/(ratio+1) share of the
    IOs scales its start-up by (ratio+1).  Parallel runs share the
    device-level start-up across the merged timeline.
    """
    if not isinstance(exp.pattern, MixSpec):
        return profile.startup_for(exp.baseline)
    b1, _, b2 = exp.baseline.partition("+")
    r = exp.pattern.ratio
    need1 = math.ceil(profile.startup_for(b1) * (r + 1) / r)
    need2 = profile.startup_for(b2) * (r + 1)
    return max(need1, need2)


def build_plan(
    experiments: Sequence[ExperimentSpec],
    profile: DeviceProfile,
    capacity: int,
    suite: SuiteConfig,
) -> BenchmarkPlan:
    """Compile experiments of the suite into an executable step sequence.

    Sequential-write-bearing experiments are grouped last within each
    state epoch with pairwise disjoint target ranges, placed from the
    suite's base_target_offset; a state reset is inserted only when their
    accumulated space would exceed the device.  Every run's warm-up count
    is set from the per-baseline start-up.  The plan carries each input
    `run` and `report` take beyond the steps: the calibrated inter-run
    pause that `run` idles before every run, each reset's enforcement
    seed, drawn from the suite seed, and the suite's base_io_size, at
    which `report` states baseline costs.
    """
    ordered, resets = assign_target_offsets(list(experiments), capacity, suite.base_target_offset)
    pause = max(profile.inter_run_pause_us, MIN_INTER_RUN_PAUSE_US)
    experiments = [exp.with_io_ignore(scaled_io_ignore(exp, profile)) for exp in ordered]
    steps: list[PlanStep] = []
    runs = 0
    for pos, exp in enumerate(experiments):
        if pos in resets:
            # indexed by the reset's position plus the runs before it, which
            # was its position when a pause step preceded every run (plan
            # format 3): every reset keeps its seed, and the device its history
            steps.append(StateReset(derive_seed(suite.seed, 0xF0, len(steps) + runs)))
        steps.extend(map(RunStep, repeat(pos), range(exp.repetitions)))
        runs += exp.repetitions
    plan = BenchmarkPlan(experiments, steps, capacity=capacity, io_size=suite.base_io_size,
                         inter_run_pause_us=pause)
    verify_plan(plan)
    return plan


def verify_plan(plan: BenchmarkPlan) -> None:
    """Replay the plan against what assign_target_offsets reserves.

    Checks that the inter-run pause is at least the minimum, that no two
    runs share a step id (they would share a trace file and a journal
    step), that every run's target ranges lie inside the device, and, per
    state epoch, that the ranges of sequential-write-bearing experiments
    never overlap.  A range includes the io_shift overhang past the
    nominal target end, as the allocator reserves it.  The runs of one
    experiment share its ranges, so they are checked at its first run.
    """
    if plan.inter_run_pause_us < MIN_INTER_RUN_PAUSE_US:
        raise PlanError(
            f"inter-run pause {plan.inter_run_pause_us} us is below the minimum "
            f"{MIN_INTER_RUN_PAUSE_US} us"
        )
    ids = [exp.experiment_id for exp in plan.experiments]
    epoch_ranges: list[tuple[int, int]] = []
    seen_first_rep: set[str] = set()
    # a step id is its experiment's id and "/run<index>", so the pair names it
    step_ids: set[tuple[str, int]] = set()
    checked: set[int] = set()  # experiments by position
    for step in plan.steps:
        if isinstance(step, StateReset):
            epoch_ranges = []
            continue
        pos = step.experiment
        step_id = (ids[pos], step.run_index)
        if step_id in step_ids:
            raise PlanError(f"{plan.resolve(step)[1]}: repeated step id; two runs would "
                            "share one trace and one journal step")
        step_ids.add(step_id)
        if pos in checked:
            continue
        checked.add(pos)
        exp = plan.experiments[pos]
        for offset, size in exp.target_ranges:
            if offset + size > plan.capacity:
                raise PlanError(f"{ids[pos]}: target range [{offset}, "
                                f"{offset + size}) exceeds capacity {plan.capacity}")
        if not exp.sequential_write_bearing or ids[pos] in seen_first_rep:
            continue
        seen_first_rep.add(ids[pos])
        for rng in exp.target_ranges:
            if any(_ranges_overlap(rng, other) for other in epoch_ranges):
                raise PlanError(f"{ids[pos]}: reserved range overlaps an "
                                f"earlier one in the same epoch")
            epoch_ranges.append(rng)
