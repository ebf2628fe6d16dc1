"""Deterministic flash-translation-layer simulator.

The simulator reproduces, at desk scale, the behaviors that make flash
devices hard to benchmark: a free-block pool that makes the first writes
of a run artificially cheap, block-granular erases that surface as
periodic cost spikes, focused-write caching that makes small-area random
writes behave like sequential ones, and (optionally) deferred page
reclamation whose backlog lingers into subsequent reads until idle time
drains it.

Model summary:

* Logical space is mapped to flash pages through a direct map at a
  configurable granularity (``map_granularity``); writing part of a map
  unit costs a read-modify-write of the whole unit.
* Writes program pages at a single write frontier.  When the frontier
  block fills, a fresh block is taken from the free pool; on an empty
  pool a reclamation event restores ``gc_batch_blocks`` net free blocks
  by erasing the victims with the fewest valid pages (greedy), copying
  survivors out first.
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
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..serialization import dumps, to_data
from . import DeviceError, check_alignment

KB = 1024
MB = 1024 * 1024

_SNAPSHOT_VERSION = 1


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

    def __init__(self, profile: SimProfile):
        self.profile = profile
        self.capacity = profile.capacity
        self.device_id = profile.name
        p = profile

        self._ppb = p.pages_per_block
        self._page = p.page_size
        self._unit = p.unit_size
        self._g = self._unit // self._page  # pages per map unit

        logical_blocks = p.capacity // p.block_size
        spare = p.spare_blocks
        if spare is None:
            spare = p.free_block_pool + 2 * p.gc_batch_blocks + 18
        if spare < p.free_block_pool + p.gc_batch_blocks + 2:
            raise ValueError("spare_blocks too small for the pool and reclamation batch")
        self._n_blocks = logical_blocks + spare
        self._n_pages = self._n_blocks * self._ppb
        self._n_units = p.capacity // self._unit

        # direct map: logical unit -> first physical page; inverse: page -> unit
        self._direct = np.full(self._n_units, -1, dtype=np.int64)
        self._inverse = np.full(self._n_pages, -1, dtype=np.int64)
        self._valid = np.zeros(self._n_blocks, dtype=np.int32)
        self._erases = np.zeros(self._n_blocks, dtype=np.int64)
        self._in_pool = np.zeros(self._n_blocks, dtype=bool)

        self._pool: list[int] = list(range(p.free_block_pool))
        self._in_pool[: p.free_block_pool] = True
        self._active = -1
        self._fill = self._ppb  # forces a pull on first write
        self._gc_block = -1
        self._gc_fill = self._ppb

        self._streams: list[tuple[int, int]] = []  # (start, end) of last write per stream
        self._cached_regions: dict[int, None] = {}  # LRU via dict order

        self._clock_us = 0
        self._drain_credit = 0.0
        self._pages_programmed = 0
        self._gc_copies = 0

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
            gc_cost += self._program_unit(u)
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

    def _program_unit(self, u: int) -> int:
        """Map unit u to fresh pages at the frontier; returns charged GC cost."""
        old = self._direct[u]
        if old >= 0:
            self._retire_unit_pages(int(old))
        gc_cost = 0
        if self._fill + self._g > self._ppb:
            gc_cost = self._pull_active()
        start = self._active * self._ppb + self._fill
        self._fill += self._g
        self._direct[u] = start
        self._inverse[start : start + self._g] = u
        self._valid[self._active] += self._g
        self._pages_programmed += self._g
        return gc_cost

    def _retire_unit_pages(self, start: int) -> None:
        self._inverse[start : start + self._g] = -1
        b0 = start // self._ppb
        self._valid[b0] -= self._g  # units never straddle blocks

    def _pull_active(self) -> int:
        gc_cost = 0
        if not self._pool:
            gc_cost = self._reclaim_until(self.profile.gc_batch_blocks)
        block = self._pool.pop(0)
        self._in_pool[block] = False
        self._active = block
        self._fill = 0
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

        Victims' surviving units are copied to a dedicated reclamation
        frontier first.  Returns the elapsed cost of the whole event.
        """
        p = self.profile
        cost = 0
        rounds = 0
        while len(self._pool) < pool_target:
            rounds += 1
            if rounds > self._n_blocks:
                raise SimulationStall("reclamation cannot free enough blocks")
            victim = self._choose_victim()
            survivors = np.flatnonzero(
                (self._inverse[victim * self._ppb : (victim + 1) * self._ppb] >= 0)
            )
            units = []
            if survivors.size:
                pages = victim * self._ppb + survivors
                units = sorted({int(self._inverse[pg]) for pg in pages})

            copies = int(self._valid[victim])
            cost += p.erase_block_us + copies * (p.read_page_us + p.program_page_us)
            self._gc_copies += copies
            self._erases[victim] += 1
            self._inverse[victim * self._ppb : (victim + 1) * self._ppb] = -1
            self._valid[victim] = 0
            self._pool.append(victim)
            self._in_pool[victim] = True
            if victim == self._gc_block:
                self._gc_block = -1
                self._gc_fill = self._ppb

            for u in units:
                self._relocate_unit(u)
        return cost

    def _choose_victim(self) -> int:
        mask = self._in_pool.copy()
        if self._active >= 0:
            mask[self._active] = True
        if self._gc_block >= 0:
            mask[self._gc_block] = True
        scores = np.where(mask, np.iinfo(np.int32).max, self._valid)
        victim = int(np.argmin(scores))
        if scores[victim] == np.iinfo(np.int32).max:
            raise SimulationStall("no reclamation victim available")
        return victim

    def _relocate_unit(self, u: int) -> None:
        if self._gc_fill + self._g > self._ppb:
            if not self._pool:
                raise SimulationStall("no room to relocate surviving pages")
            block = self._pool.pop(0)
            self._in_pool[block] = False
            self._gc_block = block
            self._gc_fill = 0
        start = self._gc_block * self._ppb + self._gc_fill
        self._gc_fill += self._g
        self._direct[u] = start
        self._inverse[start : start + self._g] = u
        self._valid[self._gc_block] += self._g
        self._pages_programmed += self._g

    # ------------------------------------------------------------ inspection

    def wear_stats(self) -> dict:
        return {
            "erases": int(self._erases.sum()),
            "pages_programmed": self._pages_programmed,
            "gc_copies": self._gc_copies,
            "initial_free_pages": self.profile.free_block_pool * self._ppb,
            "free_pool": len(self._pool),
        }

    def check_consistency(self) -> None:
        """Full-scan structural check of the direct/inverse maps."""
        mapped = self._direct[self._direct >= 0]
        if mapped.size != np.unique(mapped).size:
            raise AssertionError("two logical units map to the same pages")
        valid = np.zeros(self._n_blocks, dtype=np.int32)
        for u in np.flatnonzero(self._direct >= 0):
            start = int(self._direct[u])
            if np.any(self._inverse[start : start + self._g] != u):
                raise AssertionError(f"inverse map disagrees for unit {u}")
            if start // self._ppb != (start + self._g - 1) // self._ppb:
                raise AssertionError(f"unit {u} straddles a block boundary")
            valid[start // self._ppb] += self._g
        if not np.array_equal(valid, self._valid):
            raise AssertionError("per-block valid counts inconsistent")
        if self._n_units != self.capacity // self._unit:
            raise AssertionError("logical capacity changed")

    # -------------------------------------------------------------- snapshot

    def snapshot_state(self) -> bytes:
        header = {
            "version": _SNAPSHOT_VERSION,
            "profile": self.profile.fingerprint(),
            "scalars": {
                "active": self._active,
                "fill": self._fill,
                "gc_block": self._gc_block,
                "gc_fill": self._gc_fill,
                "clock_us": self._clock_us,
                "drain_credit": self._drain_credit,
                "pages_programmed": self._pages_programmed,
                "gc_copies": self._gc_copies,
            },
            "pool": self._pool,
            "streams": self._streams,
            "cached_regions": list(self._cached_regions),
        }
        head = json.dumps(header, sort_keys=True).encode()
        parts = [
            len(head).to_bytes(8, "little"),
            head,
            self._direct.tobytes(),
            self._inverse.tobytes(),
            self._valid.tobytes(),
            self._erases.tobytes(),
        ]
        return b"".join(parts)

    def restore_state(self, blob: bytes) -> None:
        n = int.from_bytes(blob[:8], "little")
        header = json.loads(blob[8 : 8 + n].decode())
        if header.get("version") != _SNAPSHOT_VERSION:
            raise DeviceError(f"snapshot version mismatch: {header.get('version')}")
        if header["profile"] != self.profile.fingerprint():
            raise DeviceError("snapshot was taken with a different profile")
        s = header["scalars"]
        self._active = s["active"]
        self._fill = s["fill"]
        self._gc_block = s["gc_block"]
        self._gc_fill = s["gc_fill"]
        self._clock_us = s["clock_us"]
        self._drain_credit = s["drain_credit"]
        self._pages_programmed = s["pages_programmed"]
        self._gc_copies = s["gc_copies"]
        self._pool = list(header["pool"])
        self._streams = [tuple(t) for t in header["streams"]]
        self._cached_regions = {r: None for r in header["cached_regions"]}
        self._in_pool[:] = False
        self._in_pool[self._pool] = True

        off = 8 + n
        for name, dtype, count in (
            ("_direct", np.int64, self._n_units),
            ("_inverse", np.int64, self._n_pages),
            ("_valid", np.int32, self._n_blocks),
            ("_erases", np.int64, self._n_blocks),
        ):
            nbytes = np.dtype(dtype).itemsize * count
            arr = np.frombuffer(blob[off : off + nbytes], dtype=dtype).copy()
            if arr.size != count:
                raise DeviceError("snapshot truncated or from another geometry")
            setattr(self, name, arr)
            off += nbytes

    def save_state(self, path: str | Path) -> None:
        """Replace the snapshot at path atomically, through a temporary
        file and os.replace: a save that fails part-way leaves the
        previous snapshot in place.  There is no fsync: a campaign saves
        after every run step, and a sync per save would add to the time
        of every step.  Without it a power loss, unlike a crash of the
        process, can still lose the snapshot."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(self.snapshot_state())
        os.replace(tmp, path)

    def load_state(self, path: str | Path) -> None:
        self.restore_state(Path(path).read_bytes())
