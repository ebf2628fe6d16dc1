"""Expansion of the nine micro-benchmarks into concrete experiments.

A micro-benchmark is a family of experiments over the four baseline
patterns (SR, RR, SW, RW) in which exactly one parameter is swept over
its declared range while everything else stays at the suite's shared
baseline values.  Expansion is pure; target offsets are assigned in a
second pass once the device capacity is known.  The plan step types at
the end, which methodology.build_plan compiles experiments into, live
here so that the JSON codec can load a plan without the device layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Union

from .patterns import (
    Burst,
    Consecutive,
    MixSpec,
    Mode,
    Ordered,
    ParallelSpec,
    Partitioned,
    PatternSpec,
    Pause,
    Random,
    Sequential,
    derive_seed,
    interleave_mix,
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


BASELINES = ("SR", "RR", "SW", "RW")

# six unordered pairs of distinct baselines, in conventional order
MIX_PAIRS = (("SR", "RR"), ("SR", "SW"), ("SR", "RW"), ("RR", "SW"), ("RR", "RW"), ("SW", "RW"))

AnyPattern = Union[PatternSpec, MixSpec, ParallelSpec]


class ExpansionError(ValueError):
    """Suite configuration cannot be expanded as requested."""


@dataclass(frozen=True)
class SuiteConfig:
    """Shared baseline values for a benchmark suite.

    base_target_size is the roaming space of random-location patterns;
    sequential patterns span exactly io_count * io_size.  Sweep points
    whose required target space exceeds max_target_size are dropped at
    expansion time and surface later as partial-sweep notes in the
    summary report.
    """

    base_io_size: int = 32 * KB
    base_target_size: int = 32 * MB
    base_target_offset: int = 0
    io_count_by_pattern: dict[str, int] = field(
        default_factory=lambda: {"SR": 1024, "RR": 1024, "SW": 1024, "RW": 5120}
    )
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
        low = {b: n for b, n in counts.items() if n < 1}
        if low:
            raise ValueError(f"io_count_by_pattern: counts must be at least 1, got {low}")

    @classmethod
    def for_device(cls, capacity: int, **overrides) -> "SuiteConfig":
        """Suite defaults scaled to a device: random patterns roam half
        the device, and no sweep point may exceed the capacity."""
        base_target = overrides.pop("base_target_size", None)
        if base_target is None:
            base_target = min(capacity // 2, 1024 * MB)
        return cls(
            base_target_size=base_target,
            max_target_size=overrides.pop("max_target_size", capacity),
            **overrides,
        )

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

    @property
    def io_count(self) -> int:
        p = self.pattern
        if isinstance(p, PatternSpec):
            return p.io_count
        if isinstance(p, MixSpec):
            return len(interleave_mix(p))
        return (p.base.io_count // p.parallel_degree) * p.parallel_degree

    @property
    def target_ranges(self) -> list[tuple[int, int]]:
        """(offset, size) ranges this experiment touches; size includes
        the io_shift overhang past the nominal target end."""
        return [
            (s.target_offset, s.target_size + s.io_shift) for s in self.component_specs()
        ]

    @property
    def sequential_write_bearing(self) -> bool:
        """True when any component writes through a non-random location
        function; those runs disturb the enforced device state."""
        return any(_seq_write(s) for s in self.component_specs())

    def component_specs(self) -> list[PatternSpec]:
        p = self.pattern
        if isinstance(p, PatternSpec):
            return [p]
        if isinstance(p, MixSpec):
            return [p.first, p.second]
        return [p.base]

    def rebase(self, new_offset: int) -> "ExperimentSpec":
        """Shift all target ranges so the lowest one starts at new_offset."""
        p = self.pattern
        if isinstance(p, PatternSpec):
            return replace(self, pattern=replace(p, target_offset=new_offset))
        if isinstance(p, MixSpec):
            lo = min(p.first.target_offset, p.second.target_offset)
            delta = new_offset - lo
            return replace(
                self,
                pattern=MixSpec(
                    first=replace(p.first, target_offset=p.first.target_offset + delta),
                    second=replace(p.second, target_offset=p.second.target_offset + delta),
                    ratio=p.ratio,
                ),
            )
        return replace(self, pattern=ParallelSpec(
            base=replace(p.base, target_offset=new_offset),
            parallel_degree=p.parallel_degree,
        ))

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


def _seq_write(spec: PatternSpec) -> bool:
    return spec.mode is Mode.WRITE and not isinstance(spec.location, Random)


def _baseline_pattern(cfg: SuiteConfig, baseline: str, seed_tags: tuple, **overrides) -> PatternSpec:
    location = Sequential() if baseline[0] == "S" else Random()
    mode = Mode.READ if baseline[1] == "R" else Mode.WRITE
    io_size = overrides.pop("io_size", cfg.base_io_size)
    io_count = overrides.pop("io_count", cfg.io_count(baseline))
    if isinstance(location, Random):
        target_size = cfg.base_target_size
    else:
        target_size = io_count * io_size
    target_size = overrides.pop("target_size", target_size)
    return PatternSpec(
        timing=overrides.pop("timing", Consecutive()),
        location=overrides.pop("location", location),
        mode=mode,
        io_size=io_size,
        io_shift=overrides.pop("io_shift", 0),
        target_offset=overrides.pop("target_offset", cfg.base_target_offset),
        target_size=target_size,
        io_count=io_count,
        seed=derive_seed(cfg.seed, *seed_tags),
        **overrides,
    )


def _pow2(lo: int, hi: int) -> list[int]:
    return [1 << k for k in range(lo, hi + 1)]


def expand(micro: Micro, cfg: SuiteConfig) -> list[ExperimentSpec]:
    """Expand one micro-benchmark into its experiment list."""
    try:
        fn = _EXPANDERS[Micro(micro)]
    except (KeyError, ValueError):
        raise ExpansionError(f"unknown micro-benchmark: {micro!r}") from None
    return fn(cfg)


def expand_suite(cfg: SuiteConfig, micros: list[Micro] | None = None) -> list[ExperimentSpec]:
    out = []
    for m in micros or list(Micro):
        out.extend(expand(m, cfg))
    return out


def _fits(cfg: SuiteConfig, needed: int) -> bool:
    return cfg.max_target_size is None or needed <= cfg.max_target_size


def _mk(cfg, micro, baseline, name, value, pattern) -> ExperimentSpec:
    return ExperimentSpec(
        micro=micro,
        baseline=baseline,
        varying_name=name,
        varying_value=value,
        pattern=pattern,
        repetitions=cfg.repetitions,
    )


def _expand_granularity(cfg: SuiteConfig) -> list[ExperimentSpec]:
    sizes = [s * 512 for s in _pow2(0, 9)] + sorted(cfg.extra_io_sizes)
    out = []
    for value_idx, size in enumerate(sizes):
        for baseline in BASELINES:
            pat = _baseline_pattern(cfg, baseline, (1, value_idx, BASELINES.index(baseline)), io_size=size)
            out.append(_mk(cfg, Micro.GRANULARITY, baseline, "io_size", size, pat))
    return out


def _expand_alignment(cfg: SuiteConfig) -> list[ExperimentSpec]:
    io = cfg.base_io_size
    shifts = sorted({(s * 512) % io for s in _pow2(0, (io // 512).bit_length() - 1)} | {0})
    out = []
    for value_idx, shift in enumerate(shifts):
        for baseline in BASELINES:
            pat = _baseline_pattern(cfg, baseline, (2, value_idx, BASELINES.index(baseline)), io_shift=shift)
            out.append(_mk(cfg, Micro.ALIGNMENT, baseline, "io_shift", shift, pat))
    return out


def _expand_locality(cfg: SuiteConfig) -> list[ExperimentSpec]:
    io = cfg.base_io_size
    out = []
    for value_idx, mult in enumerate(_pow2(0, 16)):
        target = mult * io
        if not _fits(cfg, target):
            continue
        for baseline in ("RR", "RW"):
            pat = _baseline_pattern(
                cfg, baseline, (3, value_idx, BASELINES.index(baseline)), target_size=target
            )
            out.append(_mk(cfg, Micro.LOCALITY, baseline, "target_size", target, pat))
    for value_idx, mult in enumerate(_pow2(0, 8)):
        target = mult * io
        if not _fits(cfg, target):
            continue
        for baseline in ("SR", "SW"):
            pat = _baseline_pattern(
                cfg, baseline, (3, 100 + value_idx, BASELINES.index(baseline)), target_size=target
            )
            out.append(_mk(cfg, Micro.LOCALITY, baseline, "target_size", target, pat))
    return out


def _expand_partitioning(cfg: SuiteConfig) -> list[ExperimentSpec]:
    io = cfg.base_io_size
    max_partitions = 256
    out = []
    for value_idx, partitions in enumerate(_pow2(0, 8)):
        for baseline in ("SR", "SW"):
            count = cfg.io_count(baseline)
            # one fixed target, divisible by every swept partition count and
            # holding several IO slots per partition even at the largest
            # count (a one-slot partition walk degenerates to sequential)
            slots = max(count, 4 * max_partitions)
            slots = ((slots + max_partitions - 1) // max_partitions) * max_partitions
            pat = _baseline_pattern(
                cfg,
                baseline,
                (4, value_idx, BASELINES.index(baseline)),
                location=Partitioned(partitions=partitions),
                target_size=slots * io,
            )
            out.append(_mk(cfg, Micro.PARTITIONING, baseline, "partitions", partitions, pat))
    return out


def _expand_order(cfg: SuiteConfig) -> list[ExperimentSpec]:
    incrs = [-1, 0] + _pow2(0, 8)
    out = []
    for value_idx, incr in enumerate(incrs):
        for baseline in ("SR", "SW"):
            count = cfg.io_count(baseline)
            stride = max(abs(incr), 1)
            span = stride * (count - 1) * cfg.base_io_size + cfg.base_io_size
            if not _fits(cfg, span):
                continue
            pat = _baseline_pattern(
                cfg,
                baseline,
                (5, value_idx, BASELINES.index(baseline)),
                location=Ordered(incr=incr),
                target_size=span,
            )
            out.append(_mk(cfg, Micro.ORDER, baseline, "incr", incr, pat))
    return out


def _expand_parallelism(cfg: SuiteConfig) -> list[ExperimentSpec]:
    out = []
    max_degree = 16
    for value_idx, degree in enumerate(_pow2(0, 4)):
        for baseline in BASELINES:
            count = ((cfg.io_count(baseline) + max_degree - 1) // max_degree) * max_degree
            base = _baseline_pattern(
                cfg, baseline, (6, value_idx, BASELINES.index(baseline)), io_count=count
            )
            if base.target_size % max_degree:
                rounded = ((base.target_size // cfg.base_io_size + max_degree - 1)
                           // max_degree) * max_degree * cfg.base_io_size
                base = replace(base, target_size=rounded)
            out.append(
                _mk(cfg, Micro.PARALLELISM, baseline, "parallel_degree", degree,
                    ParallelSpec(base=base, parallel_degree=degree))
            )
    return out


def _expand_mix(cfg: SuiteConfig) -> list[ExperimentSpec]:
    out = []
    for pair_idx, (b1, b2) in enumerate(MIX_PAIRS):
        for value_idx, ratio in enumerate(_pow2(0, 6)):
            total = max(cfg.io_count(b1), cfg.io_count(b2))
            n2 = max(1, total // (ratio + 1))
            n1 = ratio * n2
            half = cfg.base_target_size // 2
            first = _baseline_pattern(
                cfg, b1, (7, pair_idx, value_idx, 0), io_count=n1,
                target_size=half if b1[0] == "R" else n1 * cfg.base_io_size,
            )
            second_offset = first.target_offset + first.target_size
            second = _baseline_pattern(
                cfg, b2, (7, pair_idx, value_idx, 1), io_count=n2,
                target_offset=second_offset,
                target_size=half if b2[0] == "R" else n2 * cfg.base_io_size,
            )
            out.append(
                _mk(cfg, Micro.MIX, f"{b1}+{b2}", "ratio", ratio,
                    MixSpec(first=first, second=second, ratio=ratio))
            )
    return out


def _expand_pause(cfg: SuiteConfig) -> list[ExperimentSpec]:
    out = []
    for value_idx, mult in enumerate(_pow2(0, 8)):
        pause_us = mult * 100
        for baseline in BASELINES:
            pat = _baseline_pattern(
                cfg, baseline, (8, value_idx, BASELINES.index(baseline)),
                timing=Pause(pause_us=pause_us),
            )
            out.append(_mk(cfg, Micro.PAUSE, baseline, "pause_us", pause_us, pat))
    return out


def _expand_bursts(cfg: SuiteConfig) -> list[ExperimentSpec]:
    out = []
    for value_idx, mult in enumerate(_pow2(0, 6)):
        burst = mult * 10
        for baseline in BASELINES:
            pat = _baseline_pattern(
                cfg, baseline, (9, value_idx, BASELINES.index(baseline)),
                timing=Burst(pause_us=cfg.burst_fixed_pause_us, burst_count=burst),
            )
            out.append(_mk(cfg, Micro.BURSTS, baseline, "burst_count", burst, pat))
    return out


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
    an enforced random state.
    """
    passive = [e for e in experiments if not e.sequential_write_bearing]
    writers = [e for e in experiments if e.sequential_write_bearing]

    for e in experiments:
        for off, size in e.target_ranges:
            if base_offset + size > device_capacity:
                raise CapacityError(
                    f"{e.experiment_id}: target of {size} bytes exceeds capacity"
                )

    out = [e.rebase(base_offset) for e in passive]
    resets: set[int] = set()
    cursor = base_offset
    for e in writers:
        span = sum(size for _, size in e.target_ranges)
        if cursor + span > device_capacity:
            if base_offset + span > device_capacity:
                raise CapacityError(
                    f"{e.experiment_id}: target of {span} bytes exceeds capacity"
                )
            resets.add(len(out))
            cursor = base_offset
        out.append(e.rebase(cursor))
        cursor += span
    return out, resets


# ------------------------------------------------------------------ plans

MIN_INTER_RUN_PAUSE_US = 1_000_000


@dataclass(frozen=True)
class StateReset:
    kind = "state_reset"


@dataclass(frozen=True)
class PauseStep:
    duration_us: int
    kind = "pause"


@dataclass(frozen=True)
class RunStep:
    experiment: ExperimentSpec
    run_index: int
    kind = "run"

    @property
    def step_id(self) -> str:
        return f"{self.experiment.experiment_id}/run{self.run_index}"


PlanStep = StateReset | PauseStep | RunStep


@dataclass
class BenchmarkPlan:
    steps: list[PlanStep]
    capacity: int
    inter_run_pause_us: int = MIN_INTER_RUN_PAUSE_US

    def run_steps(self) -> list[RunStep]:
        return [s for s in self.steps if isinstance(s, RunStep)]
