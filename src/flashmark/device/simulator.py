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
* A write places its units in runs that fit the open block, as slice
  copies, and queues the slots it overwrites instead of unmapping them
  one by one.  The queue is applied (the slots unmapped and their blocks'
  valid counts lowered) where the inverse map and the valid counts are
  read: at the start of every reclamation event and of a consistency
  check.  A queued slot cannot be reused before that, because slots come
  back only through erases, and erases happen only inside a reclamation
  event.
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

Every IO is served by one loop, ``issue_rows``, over (gap, address,
size, write flag) rows read from an iterator: it idles each gap, then
costs and places the IO, and the clock advances by exactly each gap and
each IO's cost, so an IO's response time is its cost.  It takes the
runner's rows: a schedule's columns zipped, or a generator that merges
a parallel run's workers, so a run is one call; ``read`` and ``write``
are one-row calls of it.  The loop keeps the device's maps and counters
in local names; a failing IO ends the call, with the state it leaves
stored back.

The direct map, the inverse map, the id table and the queue of
overwritten slots are 32-bit arrays, so a geometry of 2**31 map units or
flash slots or more is refused before any array is made.

A snapshot (format 5) is an 8-byte little-endian header length, a JSON
header (the scalars, frontiers included, the journaled count, the pool,
streams and cached regions), then the direct map alone, as the int64
differences of successive entries compressed with zlib.  Host writes
place units in runs, so most differences are 1: the map of a 128 MB
highend-ssd device, 256 KB in memory and 512 KB of differences,
compresses to 27-75 KB.  The differences are deflated a chunk of the map
at a time, through one stream with no flush between chunks, which gives
the bytes of a one-shot compression.  Restore inflates and sums them
chunk by chunk into one 32-bit scratch map, checking each entry in 64
bits before it narrows it, derives the inverse map and valid counts from
it, and checks the whole state before it assigns any of it.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from array import array
from collections import deque
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ..serialization import dumps, to_data, write_atomic
from . import SECTOR, DeviceError, check_alignment

KB = 1024
MB = 1024 * 1024

_SNAPSHOT_VERSION = 5
_CHUNK = 2**14  # direct-map entries a snapshot deflates or inflates at a time


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
        # sizes, the batch and the page and erase latencies are at least 1,
        # every other count, latency and drain rate at least 0 (NaN fails)
        positive = ("capacity", "page_size", "pages_per_block", "map_granularity",
                    "gc_batch_blocks", "read_page_us", "program_page_us", "erase_block_us")
        for f in fields(self):
            value, least = getattr(self, f.name), int(f.name in positive)
            if type(value) in (int, float) and not value >= least:
                raise ValueError(f"{f.name} must be at least {least}, not {value}")
        block = self.page_size * self.pages_per_block
        unit = self.unit_size
        if self.capacity % block:
            raise ValueError("capacity must be a whole number of flash blocks")
        if unit % self.page_size or block % unit:
            raise ValueError("map_granularity must divide the flash block and be page-aligned")
        if self.gc_mode not in ("synchronous", "deferred"):
            raise ValueError(f"unknown gc_mode: {self.gc_mode}")

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

    # Scalar state, saved and restored by name.  A frontier is
    # [block, next free slot]; a full one takes a pool block before use.
    _SCALARS = (
        "_host", "_gc", "_erases", "_clock_us", "_drain_credit",
        "_pages_programmed", "_gc_copies",
    )

    def __init__(self, profile: SimProfile):
        self.profile = profile
        self.capacity = profile.capacity
        p = profile

        self._page = p.page_size
        self._g = p.unit_size // p.page_size  # pages per map unit
        self._unit = p.unit_size
        self._block = p.block_size
        self._ups = self._block // self._unit  # map-unit slots per block

        spare = p.spare_blocks
        if spare is None:
            spare = p.free_block_pool + 2 * p.gc_batch_blocks + 18
        if spare < p.free_block_pool + p.gc_batch_blocks + 2:
            raise ValueError("spare_blocks too small for the pool and reclamation batch")
        self._n_blocks = p.capacity // self._block + spare

        # direct map: unit -> slot; inverse: slot -> unit; valid slots per block
        n_units, n_slots = p.capacity // self._unit, self._n_blocks * self._ups
        if max(n_units, n_slots) >= 2**31:
            raise ValueError(f"{n_units} map units and {n_slots} flash slots: "
                             "the maps hold at most 2**31 - 1 of each")
        self._direct = array("i", [-1]) * n_units
        self._inverse = array("i", [-1]) * n_slots
        self._valid = array("i", [0]) * self._n_blocks
        # i at index i: write copies runs of unit and slot numbers from it.
        # Filled from numpy, whose int32 range is the only transient
        self._ids = array("i", [0]) * max(n_units, n_slots)
        np.frombuffer(self._ids, dtype=np.int32)[:] = np.arange(len(self._ids), dtype=np.int32)
        # slots overwritten since the last _retire, which unmaps them
        self._retired = array("i")

        self._pool = deque(range(p.free_block_pool))
        self._host = [-1, self._ups]
        self._gc = [-1, self._ups]
        self._erases = 0

        # start and end of the last write per stream, least recent first
        self._stream_starts: list[int] = []
        self._stream_ends: list[int] = []
        self._cached_regions: dict[int, None] = {}  # LRU via dict order

        self._clock_us = 0
        self._drain_credit = 0.0
        self._pages_programmed = 0
        self._gc_copies = 0
        # campaign journal entries this state reflects, kept in the snapshot
        self.journaled = 0
        self._direct_view = np.frombuffer(self._direct, dtype=np.int32)
        self._inverse_view = np.frombuffer(self._inverse, dtype=np.int32)
        self._inverse_blocks = self._inverse_view.reshape(self._n_blocks, self._ups)
        self._valid_view = np.frombuffer(self._valid, dtype=np.int32)
        self._block_slots = np.arange(self._ups, dtype=np.int32)
        self._held = self._held_blocks()
        # little-endian scores (valid + held <= 2 * ups + 1), searched by _ranked
        dtype = np.min_scalar_type(2 * self._ups + 1).newbyteorder("<")
        self._score_bytes = bytearray(self._n_blocks * dtype.itemsize)
        self._scores = np.frombuffer(self._score_bytes, dtype=dtype)

    # ------------------------------------------------------------------ IO

    def read(self, lba: int, size: int) -> int:
        return self._one(lba, size, False)

    def write(self, lba: int, size: int) -> int:
        return self._one(lba, size, True)

    def _one(self, lba: int, size: int, write: bool) -> int:
        """A one-row issue_rows call: its response time, or its failure raised."""
        rts: list[int] = []
        failure = self.issue_rows(((0, lba, size, write),), [], rts)
        if failure is not None:
            raise failure
        return rts[0]

    def issue_rows(self, rows, submits: list[int], rts: list[int]) -> DeviceError | None:
        """Serve (gap, lba, size, write) rows, taken one at a time from the
        iterator rows, in order on the virtual clock: idle each positive
        gap, then read or write the IO.  Its submit time, counted from the
        clock at the call, goes to submits and its response time to rts
        before the next row is taken, so rows may be computed from them.

        Returns the DeviceError of the IO the rows stopped at, or None.  An
        IO's response time is its cost, and the clock advances by exactly
        that cost and by each gap; a failed IO advances it by nothing.  A
        failure raised by an idle propagates.

        The rows must not read, snapshot or idle the device: the loop keeps
        the clock and page count in local names until it returns, which is
        why enforcement ends a call at each checkpoint.
        """
        p = self.profile
        capacity, page, unit, g, ups, block_size = (
            self.capacity, self._page, self._unit, self._g, self._ups, self._block
        )
        overhead, read_us, program_us = (
            p.controller_overhead_us, p.read_page_us, p.program_page_us
        )
        miss_us, hide_stream_gc, batch = (
            p.write_miss_penalty_us, p.hide_stream_gc, p.gc_batch_blocks
        )
        deferred, pool_target = p.gc_mode == "deferred", p.free_block_pool
        drain_extra_us, busy_rate = p.read_drain_extra_us, p.busy_drain_blocks_per_sec
        reverse, stream_slots, cache_blocks = (
            p.detect_reverse_stream, p.stream_slots, p.write_cache_blocks
        )
        starts, ends, cached = self._stream_starts, self._stream_ends, self._cached_regions
        direct, inverse, ids, retired = self._direct, self._inverse, self._ids, self._retired
        valid, pool, host, held = self._valid, self._pool, self._host, self._held
        start = clock = self._clock_us
        programmed = 0
        try:
            for gap, lba, size, write in rows:
                if gap > 0:
                    self._clock_us = clock
                    self.idle(gap)
                    clock = self._clock_us
                end = lba + size
                try:
                    if lba % SECTOR or size % SECTOR or size <= 0 or lba < 0 or end > capacity:
                        check_alignment(self, lba, size)
                    if not write:
                        cost = overhead + (-(end // -page) - lba // page) * read_us
                        if deferred and len(pool) < pool_target:
                            cost += drain_extra_us
                            self._drain(cost * busy_rate / 1e6)
                        submits.append(clock - start)
                        rts.append(cost)
                        clock += cost
                        continue

                    # Stream recognition: the write continues the least
                    # recent stream it ends (forward) or, with
                    # detect_reverse_stream, starts (backward) next to; that
                    # stream moves to most recent.  Another write opens a
                    # stream, the least recent dropping out past
                    # stream_slots.  Else it is absorbed when every flash
                    # block it touches is among the write_cache_blocks most
                    # recently written, which it then refreshes.
                    n = len(ends)
                    i = ends.index(lba) if lba in ends else n
                    if reverse and end in starts:
                        i = min(i, starts.index(end))
                    absorbed = i < n
                    if absorbed:
                        del starts[i], ends[i]
                    if stream_slots > 0:
                        starts.append(lba)
                        ends.append(end)
                        if len(ends) > stream_slots:
                            del starts[0], ends[0]
                    if cache_blocks > 0:
                        first, last = lba // block_size, (end - 1) // block_size
                        if first == last:
                            absorbed = absorbed or first in cached
                            cached.pop(first, None)
                            cached[first] = None
                        else:
                            regions = range(first, last + 1)
                            if not absorbed:
                                absorbed = all(r in cached for r in regions)
                            for r in regions:
                                cached.pop(r, None)
                                cached[r] = None
                        while len(cached) > cache_blocks:
                            cached.pop(next(iter(cached)))

                    u = lba // unit
                    top = (end - 1) // unit + 1  # one past the last unit written
                    amplified = (top - u) * g
                    payload = -(end // -page) - lba // page
                    cost = overhead + amplified * program_us + (amplified - payload) * read_us
                    if not absorbed:
                        cost += miss_us

                    # Place the units at the host frontier in runs that fit
                    # the open block: queue the run's old slots for _retire,
                    # then map the run onto the next slots.  At a block
                    # boundary the frontier takes a pool block, after a
                    # reclamation event if the pool is empty; the full block
                    # stays held until then.  The unit that meets the
                    # boundary is queued and unmapped before that event,
                    # which applies the queue, so a stalled write leaves it
                    # retired and unmapped.
                    block = host[0]
                    slot = block * ups + host[1]
                    stop = block * ups + ups  # one past the open block's last slot
                    gc_cost = 0
                    while True:
                        k = top - u
                        if k > stop - slot:
                            k = stop - slot
                        if k:
                            if k == 1:  # scalar stores cost less than one-item slices
                                retired.append(direct[u])
                                direct[u] = slot
                                inverse[slot] = u
                            else:
                                retired += direct[u : u + k]
                                direct[u : u + k] = ids[slot : slot + k]
                                inverse[slot : slot + k] = ids[u : u + k]
                            valid[block] += k
                            programmed += k * g
                            u += k
                            slot += k
                        if u == top:
                            break
                        retired.append(direct[u])
                        direct[u] = -1
                        host[1] = ups
                        if not pool:
                            gc_cost += self._reclaim(batch)
                        if block >= 0:
                            held[block] = 0
                        # a pool block stays held while it is open
                        block = host[0] = pool.popleft()
                        slot = block * ups
                        stop = slot + ups
                    host[1] = slot - block * ups
                    if not (absorbed and hide_stream_gc):
                        cost += gc_cost
                except DeviceError as exc:
                    return exc
                submits.append(clock - start)
                rts.append(cost)
                clock += cost
            return None
        finally:
            self._clock_us = clock
            self._pages_programmed += programmed

    def idle(self, duration_us: int) -> int:
        """Rest, at least 0 us; deferred reclamation drains its backlog at full speed."""
        duration_us = max(0, duration_us)
        reclaimed = 0
        if self.profile.gc_mode == "deferred":
            reclaimed = self._drain(duration_us * self.profile.idle_drain_blocks_per_sec / 1e6)
        self._clock_us += duration_us
        return reclaimed

    def now_us(self) -> int:
        return self._clock_us

    def close(self) -> None:
        pass

    # ---------------------------------------------------------- reclamation

    def _deficit(self) -> int:
        return max(0, self.profile.free_block_pool - len(self._pool))

    def _drain(self, extra_credit: float) -> int:
        """Background reclamation toward the pool target; returns blocks freed.

        The credit pays one block at a time, and the greedy order does not
        depend on event boundaries, so one event frees every block paid
        for.  A stall still charges the credit for the blocks freed before
        it."""
        self._drain_credit += extra_credit
        freed = min(int(self._drain_credit), self._deficit())
        if freed:
            before = len(self._pool)
            try:
                self._reclaim(before + freed, per_block=True)
            finally:
                self._drain_credit -= len(self._pool) - before
        if self._deficit() == 0:
            self._drain_credit = 0.0
        return freed

    def _reclaim(self, pool_target: int, per_block: bool = False) -> int:
        """One reclamation event: erase greedy victims until the pool holds
        pool_target blocks; returns the elapsed cost of the event.

        Victims come in (valid count, block index) order among the blocks
        neither in the pool nor open at a frontier.  Each victim joins the
        pool, then its surviving units are copied, in unit order, to the
        reclamation frontier, which takes pool blocks in pool order.  A
        victim adds one block to the pool and its copies take at most one,
        so the pool never shrinks.  The event stalls when n_blocks victims
        have not reached the target: counted from the event's start, or,
        with per_block (a drain), from the last block it freed.

        The event runs in chunks.  A chunk scores every block once, walks
        the candidates in order (_ranked), and applies their erases and
        copies as array assignments.  Only the reclamation frontier changes
        scores during an event, by releasing a block it has filled, and
        only the block open when the chunk began can be released with
        fewer than ups valid slots.  A chunk ends before any candidate that
        a released block would come first of; the next chunk scores again.
        """
        self._retire()
        p = self.profile
        ups, n_blocks = self._ups, self._n_blocks
        pool, gc, held, valid = self._pool, self._gc, self._held, self._valid_view
        closed = ups + 1  # a held block's least score
        cost = 0
        rounds = 0  # victims counted toward a stall
        while len(pool) < pool_target:
            if rounds >= n_blocks:
                raise SimulationStall("reclamation cannot free enough blocks")
            scores = np.add(valid, held, out=self._scores, casting="unsafe")
            low = int(scores[scores.argmin()])
            if low > ups:
                raise SimulationStall("no reclamation victim available")

            # Take candidates as the one-victim-at-a-time loop would,
            # opening a frontier block when survivors overflow the last.
            first, fill = gc
            room = ups - fill  # slots left at the reclamation frontier
            frontier = first
            reach = room  # survivors the frontier blocks so far can take
            victims: list[int] = []
            opened: list[int] = []
            copies = 0
            nearest = None  # least (score, block) among released blocks
            for score, b in self._ranked(low):
                if nearest is not None and (score, b) > nearest:
                    break
                rounds += 1
                victims.append(b)
                pool.append(b)
                copies += score
                if copies > reach:
                    if frontier >= 0:
                        key = (int(valid[frontier]) + room if frontier == first else ups, frontier)
                        if nearest is None or key < nearest:
                            nearest = key
                    frontier = pool.popleft()
                    opened.append(frontier)
                    reach += ups
                elif per_block:
                    rounds = 0
                if len(pool) >= pool_target or rounds >= n_blocks:
                    break

            # Apply the chunk: erase the victims, then copy their survivors
            # to the slots from the frontier's fill on.
            held[victims] = closed
            if copies:
                rows = self._inverse_blocks[victims]
                rows.sort(axis=1)
                units = rows[rows >= 0]
                self._inverse_blocks[victims] = -1
                valid[victims] = 0
                blocks = np.array([first, *opened], dtype=np.int32)
                slots = (blocks[:, None] * ups + self._block_slots).ravel()
                slots = slots[fill : fill + copies]
                self._direct_view[units] = slots
                self._inverse_view[slots] = units
                gc[0], gc[1] = frontier, fill + copies - ups * len(opened)
                if opened:
                    # release the first frontier and every opened block but the last
                    if first >= 0:
                        valid[first] += room
                        held[first] = 0
                    valid[opened] = ups
                    valid[frontier] = gc[1]
                    held[opened[:-1]] = 0
                else:
                    valid[first] += copies
            k = len(victims)
            copies *= self._g
            self._erases += k
            self._gc_copies += copies
            self._pages_programmed += copies
            cost += k * p.erase_block_us + copies * (p.read_page_us + p.program_page_us)
        return cost

    def _retire(self) -> None:
        """Apply the queue of overwritten slots: unmap them and lower their
        blocks' valid counts.  The -1 queued for a unit that held no slot
        is skipped."""
        queue = self._retired
        if queue:
            old = np.array(queue, dtype=np.int32)  # a copy: the queue is emptied below
            old = old[old >= 0]
            self._inverse_view[old] = -1
            counts = np.bincount(old // self._ups, minlength=self._n_blocks)
            self._valid_view -= counts.astype(np.int32)  # one dtype: no casting loop
            del queue[:]  # in place: a running write holds the queue

    def _ranked(self, low: int):
        """(score, block) of the eligible blocks in order from score low,
        each score's blocks found, as the walk reaches them, by a byte
        search over the scores."""
        buf, width = self._score_bytes, self._scores.itemsize
        for score in range(low, self._ups + 1):
            pattern = score.to_bytes(width, "little")
            pos = buf.find(pattern)
            while pos >= 0:
                if pos % width == 0:
                    yield score, pos // width
                pos = buf.find(pattern, pos + 1)

    def _held_blocks(self, pool=None, frontiers=None) -> np.ndarray:
        """Victim selection's penalty: ups + 1 for each block in pool or open
        at one of frontiers (the device's own by default), else 0."""
        if pool is None:
            pool, frontiers = self._pool, (self._host, self._gc)
        held = np.zeros(self._n_blocks, dtype=np.int32)
        held[[*pool, *(block for block, _ in frontiers if block >= 0)]] = self._ups + 1
        return held

    # ------------------------------------------------------------ inspection

    def wear_stats(self) -> dict:
        return {
            "erases": self._erases,
            "pages_programmed": self._pages_programmed,
            "gc_copies": self._gc_copies,
            "initial_free_pages": self.profile.free_block_pool * self.profile.pages_per_block,
            "free_pool": len(self._pool),
        }

    def _derived_maps(self, direct: np.ndarray, pool, frontiers,
                      error=DeviceError) -> tuple[np.ndarray, ...]:
        """The inverse map and per-block valid counts that direct determines
        (built with one extra last slot, which the -1 of unmapped units hits);
        raises error when a unit maps outside the flash slots, two to one, into
        a block of pool, or past the fill of one of frontiers."""
        inverse = np.full(self._inverse_view.size + 1, -1, dtype=np.int32)
        if not -1 <= direct.min() <= direct.max() < inverse.size - 1:
            raise error("a logical unit maps outside the flash slots")
        inverse[direct] = np.frombuffer(self._ids, dtype=np.int32)[: direct.size]
        mapped = (inverse[:-1] >= 0).reshape(self._n_blocks, self._ups)
        if np.count_nonzero(mapped) != np.count_nonzero(direct >= 0):
            raise error("two logical units map to the same slot")
        # the reclamation kernel writes frontier and pool slots unread
        for block, fill in frontiers:
            if block >= 0 and np.any(mapped[block, fill:]):
                raise error("a slot past an open frontier's fill is mapped")
        if np.any(mapped[list(pool)]):
            raise error("a pool block holds mapped slots")
        return inverse[:-1], mapped.sum(axis=1, dtype=np.int32)

    def _check_blocks(self, pool, frontiers) -> None:
        """Raise DeviceError unless pool holds distinct blocks and each of
        frontiers is a [block, fill] pair: an open block in neither pool nor
        another frontier (or -1 for none) and a fill in [0, ups]."""
        n = self._n_blocks
        taken = set(pool)
        if len(taken) < len(pool) or not all(type(b) is int and 0 <= b < n for b in pool):
            raise DeviceError("snapshot pool holds a block out of range or twice")
        for block, fill in frontiers:
            if type(block) is not int or not -1 <= block < n or block in taken:
                raise DeviceError(f"snapshot frontier block {block!r} is out of range or taken")
            if block >= 0:
                taken.add(block)
            if type(fill) is not int or not 0 <= fill <= self._ups:
                raise DeviceError(f"snapshot frontier fill {fill!r} is outside [0, {self._ups}]")

    def check_consistency(self) -> None:
        """Full-scan structural check of the maps, the held-block penalty,
        the open frontiers and the pool."""
        self._retire()
        inverse, valid = self._derived_maps(
            self._direct_view, self._pool, (self._host, self._gc), AssertionError
        )
        if not np.array_equal(inverse, self._inverse_view):
            raise AssertionError("inverse map disagrees with the direct map")
        if not np.array_equal(valid, self._valid_view):
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
            "streams": [[s, e] for s, e in zip(self._stream_starts, self._stream_ends)],
            "cached_regions": list(self._cached_regions),
        }
        head = json.dumps(header, sort_keys=True).encode()
        parts = [len(head).to_bytes(8, "little"), head]
        # the differences, a chunk at a time, through one deflate stream:
        # unflushed, its output is the one-shot compression's
        deflater = zlib.compressobj(1)
        direct = self._direct_view
        deltas = np.empty(min(_CHUNK, direct.size), dtype=np.int64)
        last = 0
        for i in range(0, direct.size, _CHUNK):
            chunk = direct[i : i + _CHUNK]
            part = deltas[: chunk.size]
            part[0] = int(chunk[0]) - last
            np.subtract(chunk[1:], chunk[:-1], out=part[1:], dtype=np.int64)
            parts.append(deflater.compress(part))
            last = int(chunk[-1])
        parts.append(deflater.flush())
        return b"".join(parts)

    def restore_state(self, blob: bytes) -> None:
        """Load a snapshot_state blob of this format and profile: inflate and
        sum the direct map (_inflated_map), then derive the inverse map and
        valid counts and check the pool and frontiers against them.  Every
        header value must have the type the device keeps: an int (not a
        bool), or for the drain credit an int or a float.  A blob that fails
        any of this raises DeviceError, nothing loaded."""
        n = int.from_bytes(blob[:8], "little")
        try:
            header = json.loads(blob[8 : 8 + n])
            version = header.get("version")
        except (ValueError, AttributeError):
            raise DeviceError("snapshot header is not a JSON object") from None
        if version != _SNAPSHOT_VERSION:
            raise DeviceError(f"snapshot version mismatch: {version}")
        if header.get("profile") != self.profile.fingerprint():
            raise DeviceError("snapshot was taken with a different profile")
        try:
            state = {name: header["scalars"][name] for name in self._SCALARS}
            streams = header["streams"]
            state.update(
                journaled=header["journaled"], _pool=deque(header["pool"]),
                _stream_starts=[s for s, _ in streams], _stream_ends=[e for _, e in streams],
                _cached_regions=dict.fromkeys(header["cached_regions"]),
            )
            counts = ("journaled", "_erases", "_clock_us", "_pages_programmed", "_gc_copies")
            ints = [state[name] for name in counts] + state["_stream_starts"]
            ints += [*state["_stream_ends"], *state["_cached_regions"]]
            wrong = [v for v in ints if type(v) is not int]
            if type(state["_drain_credit"]) not in (int, float):
                wrong.append(state["_drain_credit"])
            if wrong:
                raise DeviceError(f"snapshot header value {wrong[0]!r} has the wrong type")
            frontiers = (state["_host"], state["_gc"])
            self._check_blocks(state["_pool"], frontiers)
            held = self._held_blocks(state["_pool"], frontiers)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise DeviceError(f"snapshot header malformed: {exc!r}") from None
        direct = self._inflated_map(memoryview(blob)[8 + n :])
        inverse, valid = self._derived_maps(direct, state["_pool"], frontiers)
        for name, value in state.items():
            setattr(self, name, value)
        self._direct_view[:], self._inverse_view[:], self._valid_view[:] = direct, inverse, valid
        del self._retired[:]
        self._held[:] = held

    def _inflated_map(self, stream) -> np.ndarray:
        """The direct map whose differences the zlib stream holds, inflated
        and summed _CHUNK entries at a time into a 32-bit scratch map.  Each
        sum is checked in 64 bits to be -1 or a flash slot before it is
        narrowed.  Raises DeviceError unless the stream inflates to exactly
        8 bytes per map unit, with nothing after it."""
        direct = np.empty_like(self._direct_view)
        sums = np.empty(min(_CHUNK, direct.size), dtype=np.int64)
        inflater = zlib.decompressobj()
        refusal = "snapshot truncated, trailed by stray bytes or of another geometry"
        last = 0
        try:
            for i in range(0, direct.size, _CHUNK):
                part = sums[: direct.size - i]
                deltas = inflater.decompress(stream, part.nbytes)
                stream = inflater.unconsumed_tail
                if len(deltas) < part.nbytes:
                    raise DeviceError(refusal)
                np.cumsum(np.frombuffer(deltas, dtype=np.int64), out=part)
                part += last
                if not -1 <= part.min() <= part.max() < self._inverse_view.size:
                    raise DeviceError("a logical unit maps outside the flash slots")
                direct[i : i + part.size] = part
                last = int(part[-1])
            trailing = inflater.decompress(stream, 1)
        except zlib.error as exc:
            raise DeviceError(f"snapshot map does not inflate: {exc}") from None
        if trailing or not inflater.eof or inflater.unused_data:
            raise DeviceError(refusal)
        return direct

    def save_state(self, path: str | Path) -> None:
        write_atomic(path, self.snapshot_state())

    def load_state(self, path: str | Path) -> None:
        self.restore_state(Path(path).read_bytes())
