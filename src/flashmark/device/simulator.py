"""Deterministic flash-translation-layer simulator.

The simulator reproduces, at desk scale, the behaviors that make flash
devices hard to benchmark: a free-block pool that makes the first writes
of a run artificially cheap, block-granular erases that surface as
periodic cost spikes, focused-write caching that makes small-area random
writes behave like sequential ones, and (optionally) deferred page
reclamation whose backlog lingers into subsequent reads until idle time
drains it.

Model summary:

* Logical space is mapped to flash through a direct map at a
  configurable granularity (``map_granularity``); writing part of a map
  unit costs a read-modify-write of the whole unit.  A unit's pages are
  always programmed, retired and copied together, so flash is addressed
  in slots of one map unit; page counts enter only the costs.
* Writes program units at a single write frontier.  When the frontier
  block fills, a fresh block is taken from the free pool; on an empty
  pool a reclamation event restores ``gc_batch_blocks`` net free blocks
  by erasing the victims with the fewest valid units (greedy), copying
  survivors out first to a second, reclamation frontier.
* A write is *absorbed* when it continues a recognized sequential
  stream or falls entirely inside recently written block-aligned
  regions (``write_cache_blocks``).  Absorbed writes cost bare page
  programming; other writes additionally pay ``write_miss_penalty_us``
  and, when ``hide_stream_gc`` is set, are the only ones charged for
  reclamation work (devices pipeline erases behind predictable
  streams).
* With deferred reclamation the device tries to keep the pool at its
  initial level: the deficit drains at full speed during idle time and
  at a throttled rate during reads, inflating those reads by
  ``read_drain_extra_us``.

Everything is deterministic: same profile, same request sequence, same
response times, byte for byte.  The device keeps a virtual clock in
microseconds; idling advances it without wall time.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..serialization import dumps, to_data, write_atomic
from . import DeviceError, check_alignment

KB = 1024
MB = 1024 * 1024

_SNAPSHOT_VERSION = 3


class SimulationStall(DeviceError):
    """Reclamation can no longer make progress (device over-committed)."""


@dataclass(frozen=True)
class SimProfile:
    """Tunable constants of the simulated device."""

    capacity: int = 64 * MB
    page_size: int = 2048
    pages_per_block: int = 64
    read_page_us: int = 50
    program_page_us: int = 200
    erase_block_us: int = 1500
    controller_overhead_us: int = 100
    map_granularity: int | None = None  # defaults to page_size
    write_cache_blocks: int = 8
    free_block_pool: int = 16
    gc_mode: str = "synchronous"  # "synchronous" | "deferred"
    gc_batch_blocks: int = 8
    stream_slots: int = 4
    detect_reverse_stream: bool = False
    hide_stream_gc: bool = True
    write_miss_penalty_us: int = 0
    idle_drain_blocks_per_sec: float = 0.0
    busy_drain_blocks_per_sec: float = 0.0
    read_drain_extra_us: int = 0
    spare_blocks: int | None = None  # physical over-provisioning; None = derived
    name: str = "sim"

    def __post_init__(self):
        block = self.page_size * self.pages_per_block
        unit = self.unit_size
        if self.capacity % block:
            raise ValueError("capacity must be a whole number of flash blocks")
        if unit % self.page_size or block % unit:
            raise ValueError("map_granularity must divide the flash block and be page-aligned")
        if self.gc_mode not in ("synchronous", "deferred"):
            raise ValueError(f"unknown gc_mode: {self.gc_mode}")
        for f in ("read_page_us", "program_page_us", "erase_block_us"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive")

    @property
    def block_size(self) -> int:
        return self.page_size * self.pages_per_block

    @property
    def unit_size(self) -> int:
        return self.map_granularity or self.page_size

    def fingerprint(self) -> str:
        return hashlib.sha256(
            json.dumps(to_data(self), sort_keys=True).encode()
        ).hexdigest()[:16]

    def to_json(self) -> str:
        return dumps(self)


# Reference profiles. Latency constants are tuned so that, at the default
# 32 KB IO size, the two devices land near the measured classes they
# represent: a high-end SSD (sub-millisecond reads and sequential writes,
# random writes ~10x sequential with a ~125-IO cheap start-up, deferred
# reclamation lingering ~2.5 s into subsequent reads) and a low-end USB
# stick (no start-up, sequential-write spikes every 128 IOs, random
# writes two orders of magnitude over sequential, no locality benefit).
_BUILTIN_PROFILES = {
    "highend-ssd": SimProfile(
        name="highend-ssd",
        capacity=256 * MB,
        page_size=2048,
        pages_per_block=16,          # 32 KB erase blocks
        read_page_us=18,
        program_page_us=18,
        erase_block_us=4500,
        controller_overhead_us=112,
        map_granularity=2048,
        write_cache_blocks=256,      # 8 MB focused-write window
        free_block_pool=125,
        gc_mode="deferred",
        gc_batch_blocks=16,          # random-write period: tens of IOs
        stream_slots=8,
        detect_reverse_stream=True,
        hide_stream_gc=True,
        write_miss_penalty_us=0,
        idle_drain_blocks_per_sec=204.0,
        busy_drain_blocks_per_sec=50.0,
        read_drain_extra_us=433,
    ),
    "lowend-usb": SimProfile(
        name="lowend-usb",
        capacity=256 * MB,
        page_size=2048,
        pages_per_block=64,          # 128 KB erase blocks
        read_page_us=85,
        program_page_us=125,
        erase_block_us=2000,
        controller_overhead_us=400,
        map_granularity=32 * KB,     # sub-32KB writes pay read-modify-write
        write_cache_blocks=0,
        free_block_pool=0,
        gc_mode="synchronous",
        gc_batch_blocks=32,
        stream_slots=4,
        detect_reverse_stream=False,
        hide_stream_gc=False,
        write_miss_penalty_us=400_000,
        spare_blocks=256,
    ),
}


def builtin_profile(name: str, **overrides) -> SimProfile:
    try:
        profile = _BUILTIN_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; built-ins: {sorted(_BUILTIN_PROFILES)}"
        ) from None
    return replace(profile, **overrides) if overrides else profile


class SimulatedDevice:
    """A block device backed by the FTL model above."""

    virtual_timeline = True  # clock is simulated; idling costs no wall time

    # Scalar state, saved and restored by name.  A frontier is
    # [block, next free slot]; a full one takes a pool block before use.
    _SCALARS = (
        "_host", "_gc", "_erases", "_clock_us", "_drain_credit",
        "_pages_programmed", "_gc_copies",
    )
    # Per-unit, per-slot and per-block maps, in snapshot order.
    _ARRAYS = (("_direct", "q"), ("_inverse", "q"), ("_valid", "i"))

    def __init__(self, profile: SimProfile):
        self.profile = profile
        self.capacity = profile.capacity
        self.device_id = profile.name
        p = profile

        self._page = p.page_size
        self._g = p.unit_size // p.page_size  # pages per map unit
        self._unit = p.unit_size
        self._ups = p.block_size // p.unit_size  # map-unit slots per block

        spare = p.spare_blocks
        if spare is None:
            spare = p.free_block_pool + 2 * p.gc_batch_blocks + 18
        if spare < p.free_block_pool + p.gc_batch_blocks + 2:
            raise ValueError("spare_blocks too small for the pool and reclamation batch")
        self._n_blocks = p.capacity // p.block_size + spare

        # direct map: unit -> slot; inverse: slot -> unit; valid slots per block
        self._direct = array("q", [-1]) * (p.capacity // self._unit)
        self._inverse = array("q", [-1]) * (self._n_blocks * self._ups)
        self._valid = array("i", [0]) * self._n_blocks
        self._erased_block = array("q", [-1]) * self._ups

        self._pool = deque(range(p.free_block_pool))
        self._host = [-1, self._ups]
        self._gc = [-1, self._ups]
        self._erases = 0

        self._streams: list[tuple[int, int]] = []  # (start, end) of last write per stream
        self._cached_regions: dict[int, None] = {}  # LRU via dict order

        self._clock_us = 0
        self._drain_credit = 0.0
        self._pages_programmed = 0
        self._gc_copies = 0
        # campaign journal entries this state reflects, kept in the snapshot
        self.journaled = 0
        self._index_blocks()

    # ------------------------------------------------------------------ IO

    def read(self, lba: int, size: int) -> int:
        check_alignment(self, lba, size)
        pages = self._span_pages(lba, size)
        cost = self.profile.controller_overhead_us + pages * self.profile.read_page_us
        if self.profile.gc_mode == "deferred" and self._deficit() > 0:
            cost += self.profile.read_drain_extra_us
            self._drain(cost * self.profile.busy_drain_blocks_per_sec / 1e6)
        self._clock_us += cost
        return cost

    def write(self, lba: int, size: int) -> int:
        check_alignment(self, lba, size)
        p = self.profile
        absorbed = self._note_write(lba, size)

        u0 = lba // self._unit
        u1 = (lba + size - 1) // self._unit
        amplified = (u1 - u0 + 1) * self._g
        payload = self._span_pages(lba, size)
        cost = (
            p.controller_overhead_us
            + amplified * p.program_page_us
            + (amplified - payload) * p.read_page_us
        )
        if not absorbed:
            cost += p.write_miss_penalty_us

        gc_cost = 0
        for u in range(u0, u1 + 1):
            old = self._direct[u]
            if old >= 0:
                self._inverse[old] = -1
                self._valid[old // self._ups] -= 1
            gc_cost += self._place(u, self._host)
        if not (absorbed and p.hide_stream_gc):
            cost += gc_cost

        self._clock_us += cost
        return cost

    def idle(self, duration_us: int) -> int:
        """Rest; deferred reclamation drains its backlog at full speed."""
        reclaimed = 0
        if self.profile.gc_mode == "deferred":
            self._drain_credit += duration_us * self.profile.idle_drain_blocks_per_sec / 1e6
            reclaimed = self._drain(0.0)
        self._clock_us += max(0, duration_us)
        return reclaimed

    def now_us(self) -> int:
        return self._clock_us

    def close(self) -> None:
        pass

    # ------------------------------------------------------- write plumbing

    def _span_pages(self, lba: int, size: int) -> int:
        return -((lba + size) // -self._page) - lba // self._page

    def _note_write(self, lba: int, size: int) -> bool:
        """Update stream/cache recognition; True when the write is absorbed."""
        p = self.profile
        end = lba + size
        hit = False

        for i, (start, prev_end) in enumerate(self._streams):
            if lba == prev_end or (p.detect_reverse_stream and end == start):
                self._streams.pop(i)
                self._streams.append((lba, end))
                hit = True
                break
        else:
            if p.stream_slots > 0:
                self._streams.append((lba, end))
                if len(self._streams) > p.stream_slots:
                    self._streams.pop(0)

        regions = range(lba // p.block_size, (end - 1) // p.block_size + 1)
        if p.write_cache_blocks > 0:
            if not hit:
                hit = all(r in self._cached_regions for r in regions)
            for r in regions:
                self._cached_regions.pop(r, None)
                self._cached_regions[r] = None
            while len(self._cached_regions) > p.write_cache_blocks:
                self._cached_regions.pop(next(iter(self._cached_regions)))
        return hit

    def _place(self, u: int, frontier: list[int]) -> int:
        """Program unit u at the next slot of frontier, opening a pool block
        when it is full; returns the cost of any reclamation that took.

        Only the host frontier can find the pool empty: a victim joins the
        pool before its survivors, at most one block of them, are copied.
        """
        gc_cost = 0
        if frontier[1] == self._ups:
            if not self._pool:
                gc_cost = self._reclaim_until(self.profile.gc_batch_blocks)
            if frontier[0] >= 0:
                self._held[frontier[0]] = 0
            # a pool block stays held while it is open
            frontier[0] = self._pool.popleft()
            frontier[1] = 0
        block, fill = frontier
        slot = block * self._ups + fill
        frontier[1] = fill + 1
        self._direct[u] = slot
        self._inverse[slot] = u
        self._valid[block] += 1
        self._pages_programmed += self._g
        return gc_cost

    # ---------------------------------------------------------- reclamation

    def _deficit(self) -> int:
        return max(0, self.profile.free_block_pool - len(self._pool))

    def _drain(self, extra_credit: float) -> int:
        """Background reclamation toward the pool target; returns blocks freed."""
        self._drain_credit += extra_credit
        freed = 0
        while self._drain_credit >= 1.0 and self._deficit() > 0:
            self._reclaim_until(len(self._pool) + 1)
            self._drain_credit -= 1.0
            freed += 1
        if self._deficit() == 0:
            self._drain_credit = 0.0
        return freed

    def _reclaim_until(self, pool_target: int) -> int:
        """Erase greedy victims until the pool holds pool_target blocks.

        Victims' surviving units are copied, in unit order, to the
        reclamation frontier after the erase.  Returns the elapsed cost of
        the whole event.
        """
        p = self.profile
        cost = 0
        rounds = 0
        while len(self._pool) < pool_target:
            rounds += 1
            if rounds > self._n_blocks:
                raise SimulationStall("reclamation cannot free enough blocks")
            victim = self._choose_victim()
            first = victim * self._ups
            survivors = sorted(u for u in self._inverse[first : first + self._ups] if u >= 0)
            copies = len(survivors) * self._g
            cost += p.erase_block_us + copies * (p.read_page_us + p.program_page_us)
            self._gc_copies += copies
            self._erases += 1
            self._inverse[first : first + self._ups] = self._erased_block
            self._valid[victim] = 0
            self._pool.append(victim)
            self._held[victim] = self._ups + 1
            for u in survivors:
                self._place(u, self._gc)
        return cost

    def _choose_victim(self) -> int:
        """The block with the fewest valid slots, lowest index on ties,
        among those neither in the pool nor open at a frontier.

        A held block scores at least ups + 1, above any other block.
        """
        scores = np.add(self._valid_view, self._held, out=self._scores)
        victim = int(scores.argmin())
        if scores[victim] > self._ups:
            raise SimulationStall("no reclamation victim available")
        return victim

    def _held_blocks(self) -> np.ndarray:
        """Per block, ups + 1 for a pool block or one open at a frontier,
        else 0: victim selection's penalty, derived from the pool and the
        frontiers."""
        held = np.zeros(self._n_blocks, dtype=np.int32)
        held[list(self._pool)] = self._ups + 1
        for block, _ in (self._host, self._gc):
            if block >= 0:
                held[block] = self._ups + 1
        return held

    def _index_blocks(self) -> None:
        """Derive victim selection's arrays; _place and _reclaim_until keep
        the penalty current after that."""
        self._valid_view = np.frombuffer(self._valid, dtype=np.int32)
        self._held = self._held_blocks()
        self._scores = np.empty(self._n_blocks, dtype=np.int32)

    # ------------------------------------------------------------ inspection

    def wear_stats(self) -> dict:
        return {
            "erases": self._erases,
            "pages_programmed": self._pages_programmed,
            "gc_copies": self._gc_copies,
            "initial_free_pages": self.profile.free_block_pool * self.profile.pages_per_block,
            "free_pool": len(self._pool),
        }

    def check_consistency(self) -> None:
        """Full-scan structural check of the direct/inverse maps."""
        direct = np.frombuffer(self._direct, dtype=np.int64)
        inverse = np.frombuffer(self._inverse, dtype=np.int64)
        units = np.flatnonzero(direct >= 0)
        slots = direct[units]
        if slots.size != np.unique(slots).size:
            raise AssertionError("two logical units map to the same slot")
        if np.any(inverse[slots] != units):
            raise AssertionError("inverse map disagrees with the direct map")
        if np.count_nonzero(inverse >= 0) != units.size:
            raise AssertionError("inverse map holds a retired slot")
        valid = np.bincount(slots // self._ups, minlength=self._n_blocks)
        if not np.array_equal(valid, np.frombuffer(self._valid, dtype=np.int32)):
            raise AssertionError("per-block valid counts inconsistent")
        if not np.array_equal(self._held, self._held_blocks()):
            raise AssertionError("held-block penalty disagrees with the pool and frontiers")

    # -------------------------------------------------------------- snapshot

    def snapshot_state(self) -> bytes:
        header = {
            "version": _SNAPSHOT_VERSION,
            "profile": self.profile.fingerprint(),
            "journaled": self.journaled,
            "scalars": {name: getattr(self, name) for name in self._SCALARS},
            "pool": list(self._pool),
            "streams": self._streams,
            "cached_regions": list(self._cached_regions),
        }
        head = json.dumps(header, sort_keys=True).encode()
        arrays = [getattr(self, name).tobytes() for name, _ in self._ARRAYS]
        return b"".join([len(head).to_bytes(8, "little"), head, *arrays])

    def restore_state(self, blob: bytes) -> None:
        n = int.from_bytes(blob[:8], "little")
        header = json.loads(blob[8 : 8 + n].decode())
        if header.get("version") != _SNAPSHOT_VERSION:
            raise DeviceError(f"snapshot version mismatch: {header.get('version')}")
        if header["profile"] != self.profile.fingerprint():
            raise DeviceError("snapshot was taken with a different profile")
        for name in self._SCALARS:
            setattr(self, name, header["scalars"][name])
        self.journaled = header["journaled"]
        self._pool = deque(header["pool"])
        self._streams = [tuple(t) for t in header["streams"]]
        self._cached_regions = {r: None for r in header["cached_regions"]}

        off = 8 + n
        for name, code in self._ARRAYS:
            nbytes = len(getattr(self, name)) * array(code).itemsize
            if len(blob) < off + nbytes:
                raise DeviceError("snapshot truncated or from another geometry")
            arr = array(code)
            arr.frombytes(blob[off : off + nbytes])
            setattr(self, name, arr)
            off += nbytes
        self._index_blocks()

    def save_state(self, path: str | Path) -> None:
        write_atomic(path, self.snapshot_state())

    def load_state(self, path: str | Path) -> None:
        self.restore_state(Path(path).read_bytes())
