"""Expansion of the nine micro-benchmarks into concrete experiments.

A micro-benchmark is a family of experiments over the four baseline
patterns (SR, RR, SW, RW) in which exactly one parameter is swept over
its declared range while everything else stays at the suite's shared
baseline values.  Expansion is pure; target offsets are assigned in a
second pass once the device capacity is known.  The plan types at the
end, which methodology.build_plan compiles experiments into, live here
so that the JSON codec can load a plan without the device layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import combinations
from typing import Callable, Union

from .patterns import (
    BASELINES,
    SECTOR,
    Burst,
    MixSpec,
    Ordered,
    ParallelSpec,
    Partitioned,
    PatternSpec,
    Pause,
    baseline_pattern,
    derive_seed,
    interleave_mix,  # unused here; perfbench/tracer.py still wraps this name
)

KB = 1024
MB = 1024 * 1024


class Micro(str, Enum):
    GRANULARITY = "granularity"
    ALIGNMENT = "alignment"
    LOCALITY = "locality"
    PARTITIONING = "partitioning"
    ORDER = "order"
    PARALLELISM = "parallelism"
    MIX = "mix"
    PAUSE = "pause"
    BURSTS = "bursts"


# a micro-benchmark's seed tag, the first of every pattern seed it derives:
# its position in Micro, from 1
_SEED_TAG = {micro: tag for tag, micro in enumerate(Micro, 1)}

# the six unordered pairs of distinct baselines, in BASELINES order
MIX_PAIRS = tuple(combinations(BASELINES, 2))

# IOs per run of each baseline when no calibration recommends more
BASELINE_IO_COUNT = dict(zip(BASELINES, (1024, 1024, 1024, 5120)))

AnyPattern = Union[PatternSpec, MixSpec, ParallelSpec]


class ExpansionError(ValueError):
    """Suite configuration cannot be expanded as requested."""


def check_at_least(values: list[tuple[str, int]], floor: int, multiple: int = 1) -> None:
    """Raise ValueError naming the first (key, value) below floor or not a
    multiple of multiple."""
    for key, value in values:
        if value < floor or value % multiple:
            step = f" and a multiple of {multiple}" if multiple > 1 else ""
            raise ValueError(f"{key}: must be at least {floor}{step}, got {value}")


@dataclass(frozen=True)
class SuiteConfig:
    """Shared baseline values for a benchmark suite.

    base_target_size is the roaming space of random-location patterns;
    sequential patterns span exactly io_count * io_size.  Only locality
    and order drop a point whose target exceeds max_target_size (_fits),
    a partial-sweep note in the report; any other experiment too large
    for the device stops `format`, `calibrate` and `plan` before any IO.
    """

    base_io_size: int = 32 * KB
    base_target_size: int = 32 * MB
    base_target_offset: int = 0
    io_count_by_pattern: dict[str, int] = field(default_factory=lambda: dict(BASELINE_IO_COUNT))
    seed: int = 0
    extra_io_sizes: tuple[int, ...] = (1536, 3072, 5120, 48 * KB)
    burst_fixed_pause_us: int = 100_000
    max_target_size: int | None = None
    repetitions: int = 3

    def __post_init__(self):
        counts = self.io_count_by_pattern
        if sorted(counts) != sorted(BASELINES):
            raise ValueError(
                f"io_count_by_pattern: keys must be exactly {list(BASELINES)}, got {sorted(counts)}"
            )
        io_sizes = [("extra_io_sizes", n) for n in self.extra_io_sizes]
        check_at_least([("base_io_size", self.base_io_size), *io_sizes], SECTOR, SECTOR)
        check_at_least([("base_target_offset", self.base_target_offset)], 0, SECTOR)
        check_at_least([("burst_fixed_pause_us", self.burst_fixed_pause_us)], 0)
        check_at_least(
            [(f"io_count_by_pattern.{b}", n) for b, n in sorted(counts.items())]
            + [("base_target_size", self.base_target_size), ("repetitions", self.repetitions)],
            1,
        )
        if self.max_target_size is not None:
            check_at_least([("max_target_size", self.max_target_size)], 1)

    @classmethod
    def for_device(cls, capacity: int, **overrides) -> "SuiteConfig":
        """Suite defaults scaled to the device space past the target
        offset: random patterns roam half of it, up to 1 GiB, and no
        sweep point may exceed it."""
        offset = overrides.get("base_target_offset", 0)
        space = capacity - offset
        if space < overrides.get("base_io_size", cls.base_io_size):
            raise ValueError(
                f"base_target_offset: {offset} leaves less than one IO of the {capacity}-byte device"
            )
        overrides.setdefault("base_target_size", min(space // 2, 1024 * MB))
        overrides.setdefault("max_target_size", space)
        return cls(**overrides)

    def io_count(self, baseline: str) -> int:
        return self.io_count_by_pattern[baseline]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a reference pattern plus the parameter it varies."""

    micro: Micro
    baseline: str
    varying_name: str
    varying_value: int
    pattern: AnyPattern
    repetitions: int = 3
    io_ignore: int = 0  # warm-up IOs left out of each run's mean; build_plan sets it

    @property
    def experiment_id(self) -> str:
        return f"{self.micro.value}/{self.baseline}/{self.varying_name}={self.varying_value}"

    def run_id(self, run_index: int) -> str:
        """The step id of run run_index: its trace's name and journal step."""
        return f"{self.experiment_id}/run{run_index}"

    @property
    def io_count(self) -> int:
        return self.pattern.io_count

    @property
    def target_ranges(self) -> list[tuple[int, int]]:
        """(offset, size) ranges this experiment touches; size includes
        the io_shift overhang past the nominal target end."""
        return [(s.target_offset, s.target_size + s.io_shift) for s in self.pattern.components]

    @property
    def sequential_write_bearing(self) -> bool:
        """True when any component writes sequentially; those runs
        disturb the enforced device state."""
        return any(s.writes_sequentially for s in self.pattern.components)

    def rebase(self, new_offset: int) -> "ExperimentSpec":
        """Shift all target ranges so the lowest one starts at new_offset."""
        lowest = min(s.target_offset for s in self.pattern.components)
        return replace(self, pattern=self.pattern.shifted(new_offset - lowest))

    def with_io_ignore(self, io_ignore: int) -> "ExperimentSpec":
        """Set the per-run warm-up count (clamped below the run length)."""
        return replace(self, io_ignore=max(0, min(io_ignore, self.io_count - 1)))

    def describe(self) -> str:
        offs = ",".join(str(o) for o, _ in self.target_ranges)
        return (
            f"{self.micro.value:<12} {self.baseline:<6} "
            f"{self.varying_name}={self.varying_value:<10} "
            f"offset={offs} io_count={self.io_count}"
        )


def _baseline_pattern(cfg: SuiteConfig, baseline: str, seed: int, **varied) -> PatternSpec:
    """The suite's baseline pattern; `varied` replaces any keyword of
    patterns.baseline_pattern."""
    values = dict(
        io_size=cfg.base_io_size,
        io_count=cfg.io_count(baseline),
        roam_size=cfg.base_target_size,
        target_offset=cfg.base_target_offset,
    )
    return baseline_pattern(baseline, seed=seed, **{**values, **varied})


def _pow2(lo: int, hi: int) -> list[int]:
    return [1 << k for k in range(lo, hi + 1)]


# declared sweep points that the summary counts to flag a partial sweep:
# locality's random targets, in base IO sizes, and partitioning's
# partition counts
LOCALITY_RANDOM_MULTIPLES = _pow2(0, 16)
PARTITION_COUNTS = _pow2(0, 8)


def expand(micro: Micro, cfg: SuiteConfig) -> list[ExperimentSpec]:
    """Expand one micro-benchmark into its experiment list."""
    try:
        fn = _EXPANDERS[Micro(micro)]
    except (KeyError, ValueError):
        raise ExpansionError(f"unknown micro-benchmark: {micro!r}") from None
    return fn(cfg)


def expand_suite(cfg: SuiteConfig, micros: list[Micro] | None = None) -> list[ExperimentSpec]:
    return [e for m in micros or list(Micro) for e in expand(m, cfg)]


def _fits(cfg: SuiteConfig, needed: int) -> bool:
    return cfg.max_target_size is None or needed <= cfg.max_target_size


def _sweep(
    cfg: SuiteConfig, micro: Micro, name: str, values: list[int],
    point: Callable[[str, int, int], AnyPattern | None],
    baselines: tuple[str, ...] = BASELINES, first_index: int = 0,
) -> list[ExperimentSpec]:
    """One experiment per value and baseline, value-major.

    point(baseline, value, seed) builds the pattern of one point, or
    returns None to drop it.  The seed derives from the value's index,
    counted from first_index, and the baseline's position in BASELINES.
    """
    out = []
    for index, value in enumerate(values, first_index):
        for baseline in baselines:
            seed = derive_seed(cfg.seed, _SEED_TAG[micro], index, BASELINES.index(baseline))
            pattern = point(baseline, value, seed)
            if pattern is not None:
                out.append(ExperimentSpec(micro, baseline, name, value, pattern, cfg.repetitions))
    return out


def _expand_granularity(cfg: SuiteConfig) -> list[ExperimentSpec]:
    sizes = [s * 512 for s in _pow2(0, 9)] + sorted(cfg.extra_io_sizes)
    return _sweep(cfg, Micro.GRANULARITY, "io_size", sizes,
                  lambda b, size, seed: _baseline_pattern(cfg, b, seed, io_size=size))


def _expand_alignment(cfg: SuiteConfig) -> list[ExperimentSpec]:
    io = cfg.base_io_size
    shifts = sorted({(s * 512) % io for s in _pow2(0, (io // 512).bit_length() - 1)} | {0})
    return _sweep(cfg, Micro.ALIGNMENT, "io_shift", shifts,
                  lambda b, shift, seed: _baseline_pattern(cfg, b, seed, io_shift=shift))


def _expand_locality(cfg: SuiteConfig) -> list[ExperimentSpec]:
    def point(baseline, target, seed):
        return _baseline_pattern(cfg, baseline, seed, target_size=target) if _fits(cfg, target) else None

    io = cfg.base_io_size
    random = [m * io for m in LOCALITY_RANDOM_MULTIPLES]
    sequential = [m * io for m in _pow2(0, 8)]
    return (
        _sweep(cfg, Micro.LOCALITY, "target_size", random, point, ("RR", "RW"))
        + _sweep(cfg, Micro.LOCALITY, "target_size", sequential, point, ("SR", "SW"), first_index=100)
    )


def _expand_partitioning(cfg: SuiteConfig) -> list[ExperimentSpec]:
    max_partitions = 256

    def point(baseline, partitions, seed):
        # one fixed target, divisible by every swept partition count and
        # holding several IO slots per partition even at the largest
        # count (a one-slot partition walk degenerates to sequential)
        slots = max(cfg.io_count(baseline), 4 * max_partitions)
        slots = ((slots + max_partitions - 1) // max_partitions) * max_partitions
        return _baseline_pattern(
            cfg, baseline, seed,
            location=Partitioned(partitions=partitions), target_size=slots * cfg.base_io_size,
        )

    return _sweep(cfg, Micro.PARTITIONING, "partitions", PARTITION_COUNTS, point, ("SR", "SW"))


def _expand_order(cfg: SuiteConfig) -> list[ExperimentSpec]:
    def point(baseline, incr, seed):
        stride = max(abs(incr), 1)
        span = stride * (cfg.io_count(baseline) - 1) * cfg.base_io_size + cfg.base_io_size
        if not _fits(cfg, span):
            return None
        return _baseline_pattern(cfg, baseline, seed, location=Ordered(incr=incr), target_size=span)

    return _sweep(cfg, Micro.ORDER, "incr", [-1, 0] + _pow2(0, 8), point, ("SR", "SW"))


def _expand_parallelism(cfg: SuiteConfig) -> list[ExperimentSpec]:
    max_degree = 16

    def point(baseline, degree, seed):
        count = ((cfg.io_count(baseline) + max_degree - 1) // max_degree) * max_degree
        base = _baseline_pattern(cfg, baseline, seed, io_count=count)
        if base.target_size % max_degree:
            rounded = ((base.target_size // cfg.base_io_size + max_degree - 1)
                       // max_degree) * max_degree * cfg.base_io_size
            base = replace(base, target_size=rounded)
        return ParallelSpec(base=base, parallel_degree=degree)

    return _sweep(cfg, Micro.PARALLELISM, "parallel_degree", _pow2(0, 4), point)


def _expand_mix(cfg: SuiteConfig) -> list[ExperimentSpec]:
    out = []
    half = cfg.base_target_size // 2
    for pair_idx, (b1, b2) in enumerate(MIX_PAIRS):
        for value_idx, ratio in enumerate(_pow2(0, 6)):
            n2 = max(1, max(cfg.io_count(b1), cfg.io_count(b2)) // (ratio + 1))
            first = _baseline_pattern(
                cfg, b1, derive_seed(cfg.seed, _SEED_TAG[Micro.MIX], pair_idx, value_idx, 0),
                io_count=ratio * n2, roam_size=half,
            )
            second = _baseline_pattern(
                cfg, b2, derive_seed(cfg.seed, _SEED_TAG[Micro.MIX], pair_idx, value_idx, 1),
                io_count=n2, roam_size=half,
            )
            mix = MixSpec(first=first, second=second.shifted(first.target_size), ratio=ratio)
            out.append(ExperimentSpec(Micro.MIX, f"{b1}+{b2}", "ratio", ratio, mix, cfg.repetitions))
    return out


def _expand_pause(cfg: SuiteConfig) -> list[ExperimentSpec]:
    def point(baseline, pause_us, seed):
        return _baseline_pattern(cfg, baseline, seed, timing=Pause(pause_us=pause_us))

    return _sweep(cfg, Micro.PAUSE, "pause_us", [m * 100 for m in _pow2(0, 8)], point)


def _expand_bursts(cfg: SuiteConfig) -> list[ExperimentSpec]:
    def point(baseline, burst, seed):
        timing = Burst(pause_us=cfg.burst_fixed_pause_us, burst_count=burst)
        return _baseline_pattern(cfg, baseline, seed, timing=timing)

    return _sweep(cfg, Micro.BURSTS, "burst_count", [m * 10 for m in _pow2(0, 6)], point)


_EXPANDERS = {
    Micro.GRANULARITY: _expand_granularity,
    Micro.ALIGNMENT: _expand_alignment,
    Micro.LOCALITY: _expand_locality,
    Micro.PARTITIONING: _expand_partitioning,
    Micro.ORDER: _expand_order,
    Micro.PARALLELISM: _expand_parallelism,
    Micro.MIX: _expand_mix,
    Micro.PAUSE: _expand_pause,
    Micro.BURSTS: _expand_bursts,
}


class CapacityError(ValueError):
    """A single experiment does not fit on the device at all."""


def assign_target_offsets(
    experiments: list[ExperimentSpec],
    device_capacity: int,
    base_offset: int = 0,
) -> tuple[list[ExperimentSpec], set[int]]:
    """Give sequential-write-bearing experiments disjoint target ranges.

    Returns the experiments reordered (non-disturbing experiments first,
    then the sequential writers grouped) plus the set of positions that
    must be preceded by a device state reset because the accumulated
    sequential-write space would exceed the capacity.  Read-only and
    random-write experiments share the base offset: they do not disturb
    an enforced random state.  Any experiment whose target ranges
    together pass the device end raises CapacityError.
    """
    spans = []
    for e in experiments:
        # the ranges are contiguous once rebased, so they span their sum
        span = sum(size for _, size in e.target_ranges)
        if base_offset + span > device_capacity:
            raise CapacityError(f"{e.experiment_id}: target of {span} bytes exceeds capacity")
        spans.append(span)

    out = [e.rebase(base_offset) for e in experiments if not e.sequential_write_bearing]
    resets: set[int] = set()
    cursor = base_offset
    for e, span in zip(experiments, spans):
        if not e.sequential_write_bearing:
            continue
        if cursor + span > device_capacity:
            resets.add(len(out))
            cursor = base_offset
        out.append(e.rebase(cursor))
        cursor += span
    return out, resets


# ------------------------------------------------------------------ plans

MIN_INTER_RUN_PAUSE_US = 1_000_000


@dataclass(frozen=True)
class StateReset:
    """Re-enforce the random state, with the enforcement seeded by seed."""

    seed: int
    kind = "state_reset"


@dataclass(frozen=True)
class RunStep:
    """Run run_index of the plan's experiments[experiment]."""

    experiment: int
    run_index: int
    kind = "run"


PlanStep = StateReset | RunStep


@dataclass
class BenchmarkPlan:
    """The plan as plan.json states it: each experiment once, in the order
    of its first run, and the steps, whose runs name one by position."""

    experiments: list[ExperimentSpec]
    steps: list[PlanStep]
    capacity: int
    io_size: int  # the suite's base IO size, at which `report` states baseline costs
    inter_run_pause_us: int = MIN_INTER_RUN_PAUSE_US

    def run_steps(self) -> list[RunStep]:
        return [s for s in self.steps if isinstance(s, RunStep)]

    def resolve(self, step: RunStep) -> tuple[ExperimentSpec, str]:
        """The experiment step runs and the step's id."""
        exp = self.experiments[step.experiment]
        return exp, exp.run_id(step.run_index)
