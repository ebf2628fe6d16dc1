"""IO pattern generation for flash-device micro-benchmarking.

An IO pattern is a sequence of IOs, each described by four attributes:
submission time, size, logical byte address (LBA), and mode (read or
write).  Patterns are built from a timing function (consecutive, pause,
burst), a location function (sequential, random, ordered, partitioned),
a constant size, and a constant mode.  The four baseline patterns
(sequential reads SR, random reads RR, sequential writes SW, random
writes RW) use consecutive timing and a sequential or random location
function.

Generation is pure: a fully parameterized spec plus its seed determines
the schedule byte for byte.  A schedule is held as columns, one entry
per IO: the gap the runner inserts between the previous IO's completion
and its own submission, the address, the size and whether it writes.
Submission times follow from measured response times, which only the
runner knows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

import numpy as np

SECTOR = 512

BASELINES = ("SR", "RR", "SW", "RW")

_M64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """Finalizing 64-bit mixer (splitmix64). Bijective on 64-bit ints."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent 64-bit stream seed from a parent seed."""
    z = mix64(seed)
    for t in tags:
        z = mix64(z ^ (t & _M64))
    return z


def uniform_index(seed: int, i: int, n: int) -> int:
    """Deterministic uniform draw in [0, n): a pure function of (seed, i).

    Modulo bias is below n / 2**64, negligible for slot counts here.
    """
    return mix64(mix64(seed) ^ i) % n


def uniform_indices(seed: int, i: np.ndarray | int, n: np.ndarray | int) -> np.ndarray:
    """uniform_index elementwise over index and slot-count arrays (or
    scalars, broadcast), as int64.  uint64 arithmetic wraps modulo 2**64
    exactly as mix64 masks, so every draw is the same."""
    x = np.array(i, dtype=np.int64).astype(np.uint64)
    x ^= np.uint64(mix64(seed))
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x % np.asarray(n, dtype=np.uint64)).astype(np.int64)


class PatternError(ValueError):
    """A pattern spec violates its invariants."""


class ScheduleError(ValueError):
    """Schedule generation produced an out-of-range address."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class Mode(str, Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Consecutive:
    """Each IO is submitted as soon as the previous one completes."""

    kind = "consecutive"


@dataclass(frozen=True)
class Pause:
    """A fixed pause is inserted between every pair of IOs."""

    pause_us: int
    kind = "pause"


@dataclass(frozen=True)
class Burst:
    """A fixed pause is inserted between groups of burst_count IOs."""

    pause_us: int
    burst_count: int
    kind = "burst"


Timing = Union[Consecutive, Pause, Burst]


@dataclass(frozen=True)
class Sequential:
    """Consecutive addresses, wrapping modulo the target size."""

    kind = "sequential"


@dataclass(frozen=True)
class Random:
    """Uniform random slot within the target space, with replacement."""

    kind = "random"


@dataclass(frozen=True)
class Ordered:
    """Linear address walk with signed increment.

    incr = 1 is sequential, incr = 0 stays in place, incr < 0 walks
    downward from the top of the target space.  Positive increments do
    not wrap: exceeding the target space is a schedule error.
    """

    incr: int
    kind = "ordered"


@dataclass(frozen=True)
class Partitioned:
    """Round-robin over equal partitions; sequential inside each."""

    partitions: int
    kind = "partitioned"


Location = Union[Sequential, Random, Ordered, Partitioned]


@dataclass(frozen=True)
class Schedule:
    """A schedule's columns, one entry per IO in issue order: the gap
    before it, in µs between the completion of the previous IO and its
    own submission; its address; its size; and whether it writes (else
    it reads).  Its length is its IO count."""

    gaps: list[int]
    lbas: list[int]
    sizes: list[int]
    writes: list[bool]

    def __len__(self) -> int:
        return len(self.lbas)


@dataclass(frozen=True)
class PatternSpec:
    """A fully parameterized IO pattern."""

    timing: Timing
    location: Location
    mode: Mode
    io_size: int
    io_shift: int
    target_offset: int
    target_size: int
    io_count: int
    seed: int
    kind = "pattern"

    def __post_init__(self):
        if self.io_size < SECTOR or self.io_size % SECTOR:
            raise PatternError(f"io_size must be a positive multiple of {SECTOR}: {self.io_size}")
        if self.io_shift % SECTOR or not 0 <= self.io_shift < self.io_size:
            raise PatternError(f"io_shift must be a {SECTOR}-multiple in [0, io_size): {self.io_shift}")
        if self.target_size < self.io_size:
            raise PatternError("target_size smaller than io_size")
        if self.target_offset < 0 or self.target_offset % SECTOR:
            raise PatternError(f"target_offset must be a non-negative {SECTOR}-multiple")
        if self.io_count < 1:
            raise PatternError("io_count must be >= 1")
        if isinstance(self.timing, Pause) and self.timing.pause_us < 0:
            raise PatternError("pause_us must be >= 0")
        if isinstance(self.timing, Burst):
            if self.timing.pause_us < 0 or self.timing.burst_count < 1:
                raise PatternError("burst requires pause_us >= 0 and burst_count >= 1")
        if isinstance(self.location, Partitioned):
            p = self.location.partitions
            if p < 1:
                raise PatternError("partitions must be >= 1")
            if self.target_size % p:
                raise PatternError("target_size must be divisible by partitions")
            if self.target_size // p < self.io_size:
                raise PatternError("partition size smaller than io_size")

    @property
    def slots(self) -> int:
        """Number of whole-io_size slots in the target space."""
        return self.target_size // self.io_size

    @property
    def writes_sequentially(self) -> bool:
        """True for writes through a non-random location function: they
        disturb an enforced random device state."""
        return self.mode is Mode.WRITE and not isinstance(self.location, Random)

    @property
    def components(self) -> tuple[PatternSpec, ...]:
        """The patterns this one is made of; each composite lists its own."""
        return (self,)

    def shifted(self, delta: int) -> PatternSpec:
        """The same pattern with its target space moved by delta bytes."""
        return replace(self, target_offset=self.target_offset + delta)


def baseline_pattern(
    name: str, io_size: int, io_count: int, roam_size: int, seed: int, **fields
) -> PatternSpec:
    """The baseline pattern `name`, one of BASELINES.

    The first letter picks a sequential or random location, the second a
    read or write mode.  Timing is consecutive, with no shift, from offset
    0; a random pattern roams roam_size bytes, a sequential one spans
    exactly its IOs.  `fields` replace any of these PatternSpec fields.
    """
    sequential = name[0] == "S"
    spec = dict(
        timing=Consecutive(),
        location=Sequential() if sequential else Random(),
        mode=Mode.READ if name[1] == "R" else Mode.WRITE,
        io_size=io_size,
        io_shift=0,
        target_offset=0,
        target_size=io_count * io_size if sequential else roam_size,
        io_count=io_count,
        seed=seed,
    )
    return PatternSpec(**{**spec, **fields})


@dataclass(frozen=True)
class MixSpec:
    """Two baseline patterns interleaved at a fixed ratio.

    ratio IOs of `first` are issued for every one IO of `second`.
    Target spaces of the two components must not overlap.
    """

    first: PatternSpec
    second: PatternSpec
    ratio: int
    kind = "mix"

    def __post_init__(self):
        if self.ratio < 1:
            raise PatternError("mix ratio must be >= 1")
        for sub in (self.first, self.second):
            if not isinstance(sub.timing, Consecutive):
                raise PatternError("mix components must use consecutive timing")
            if not isinstance(sub.location, (Sequential, Random)):
                raise PatternError("mix components must be baseline patterns")
        if _ranges_overlap(
            (self.first.target_offset, self.first.target_size),
            (self.second.target_offset, self.second.target_size),
        ):
            raise PatternError("mix component target spaces overlap")

    @property
    def io_count(self) -> int:
        """IOs of the merged stream, which ends at the first turn whose
        component is exhausted: the earlier of the positions that each
        component's first missing IO would take."""
        first, second, r = self.first.io_count, self.second.io_count, self.ratio
        return min(first // r * (r + 1) + first % r, second * (r + 1) + r)

    @property
    def components(self) -> tuple[PatternSpec, ...]:
        return (self.first, self.second)

    def shifted(self, delta: int) -> MixSpec:
        return replace(self, first=self.first.shifted(delta), second=self.second.shifted(delta))


@dataclass(frozen=True)
class ParallelSpec:
    """A baseline pattern replicated over disjoint slices of its target."""

    base: PatternSpec
    parallel_degree: int
    kind = "parallel"

    def __post_init__(self):
        if self.parallel_degree < 1:
            raise PatternError("parallel_degree must be >= 1")
        if self.base.target_size % self.parallel_degree:
            raise PatternError("target_size must be divisible by parallel_degree")
        if self.base.target_size // self.parallel_degree < self.base.io_size:
            raise PatternError("per-worker slice smaller than io_size")
        if self.base.io_count < self.parallel_degree:
            raise PatternError("io_count smaller than parallel_degree: a worker would issue no IO")

    @property
    def io_count(self) -> int:
        """IOs of all workers together: the base count rounded down to the degree."""
        return (self.base.io_count // self.parallel_degree) * self.parallel_degree

    @property
    def components(self) -> tuple[PatternSpec, ...]:
        return (self.base,)

    def shifted(self, delta: int) -> ParallelSpec:
        return replace(self, base=self.base.shifted(delta))


def _ranges_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (ao, asz), (bo, bsz) = a, b
    return ao < bo + bsz and bo < ao + asz


def _lbas(spec: PatternSpec, i: np.ndarray) -> np.ndarray:
    """Addresses of the IOs numbered i (an int64 array) of a pattern.

    Slot offsets are computed relative to target_offset and quantized to
    io_size; io_shift is added last.  Sequential wraps modulo the target
    space.  Ordered with a positive increment does not wrap (walking out
    of the target space is an error naming the first offending index in
    i); with a negative increment it counts downward from the top of the
    space.
    """
    loc = spec.location
    if isinstance(loc, Sequential):
        off = i % spec.slots * spec.io_size
    elif isinstance(loc, Random):
        off = uniform_indices(spec.seed, i, spec.slots) * spec.io_size
    elif isinstance(loc, Ordered):
        top = spec.target_size - spec.io_size
        start = 0 if loc.incr >= 0 else top
        step = loc.incr * spec.io_size
        # IOs past `last` leave the target space; checked before any
        # offset is computed, so no int64 product can overflow
        last = top // abs(step) if step else None
        if last is not None and i.size and i.max() > last:
            j = int(i[np.argmax(i > last)])
            raise ScheduleError(
                f"ordered pattern leaves target space at IO {j} "
                f"(incr={loc.incr}, offset {start + step * j})",
                index=j,
            )
        off = start + step * i
    elif isinstance(loc, Partitioned):
        ps = spec.target_size // loc.partitions
        slots_per_partition = ps // spec.io_size
        off = i % loc.partitions * ps + i // loc.partitions % slots_per_partition * spec.io_size
    else:  # pragma: no cover - exhaustive over Location
        raise PatternError(f"unknown location function: {loc!r}")
    return spec.target_offset + spec.io_shift + off


def _gaps(spec: PatternSpec) -> list[int]:
    """Per IO, the pause the runner inserts between the completion of the
    previous IO and its submission: none before IO 0, the pause before
    every other IO, or before every burst_count-th one."""
    t = spec.timing
    gaps = np.zeros(spec.io_count, dtype=np.int64)
    if isinstance(t, Pause):
        gaps[1:] = t.pause_us
    elif isinstance(t, Burst):
        gaps[t.burst_count :: t.burst_count] = t.pause_us
    return gaps.tolist()


def generate_schedule(spec: PatternSpec) -> Schedule:
    """Expand a pattern spec into its full, deterministic IO schedule."""
    n = spec.io_count
    lbas = _lbas(spec, np.arange(n, dtype=np.int64)).tolist()
    return Schedule(_gaps(spec), lbas, [spec.io_size] * n, [spec.mode is Mode.WRITE] * n)


def interleave_mix(mix: MixSpec) -> Schedule:
    """Deterministic round-robin interleaving of two baseline patterns.

    ratio IOs from `first`, then one from `second`, repeating; each
    component advances its own index.  The merged sequence stops as soon
    as the component whose turn it is has been exhausted.  Both components
    are consecutive, so every gap is 0.
    """
    first, second, r, n = mix.first, mix.second, mix.ratio, mix.io_count
    from_first = np.arange(n) % (r + 1) < r
    n_first = int(np.count_nonzero(from_first))
    lbas = np.empty(n, dtype=np.int64)
    lbas[from_first] = _lbas(first, np.arange(n_first, dtype=np.int64))
    lbas[~from_first] = _lbas(second, np.arange(n - n_first, dtype=np.int64))
    return Schedule(
        [0] * n,
        lbas.tolist(),
        np.where(from_first, first.io_size, second.io_size).tolist(),
        np.where(from_first, first.mode is Mode.WRITE, second.mode is Mode.WRITE).tolist(),
    )


def split_parallel(par: ParallelSpec) -> list[PatternSpec]:
    """Derive one per-worker spec per degree over disjoint target slices.

    Worker p gets the p-th slice of the base target, io_count split
    evenly (floor), and an independent derived seed.
    """
    base = par.base
    degree = par.parallel_degree
    slice_size = base.target_size // degree
    return [
        replace(
            base,
            target_offset=base.target_offset + p * slice_size,
            target_size=slice_size,
            io_count=par.io_count // degree,
            seed=derive_seed(base.seed, p + 1),
        )
        for p in range(degree)
    ]
