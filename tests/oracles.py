"""Independent oracles shared by the unit and acceptance suites.

These deliberately re-derive expected values by different routes than
the implementation: the partitioned walk is materialized round-robin,
sequential/ordered addresses come from plain slot arithmetic, and the
simulator's reclamation runs one victim and one unit at a time.  They must
never import address logic from flashmark.patterns beyond the uniform
draw primitive (which defines the random location function itself).
"""

import numpy as np

from flashmark.device import check_alignment
from flashmark.device.simulator import SimulatedDevice, SimulationStall
from flashmark.patterns import (
    Ordered,
    Partitioned,
    PatternSpec,
    Random,
    Sequential,
    uniform_index,
)


def oracle_lba(spec: PatternSpec, i: int) -> int:
    base = spec.target_offset + spec.io_shift
    n_slots = spec.target_size // spec.io_size
    loc = spec.location
    if isinstance(loc, Sequential):
        return base + (i * spec.io_size) % (n_slots * spec.io_size)
    if isinstance(loc, Random):
        return base + uniform_index(spec.seed, i, n_slots) * spec.io_size
    if isinstance(loc, Ordered):
        if loc.incr >= 0:
            return base + loc.incr * i * spec.io_size
        top = spec.target_size - spec.io_size
        return base + top + loc.incr * i * spec.io_size
    if isinstance(loc, Partitioned):
        ps = spec.target_size // loc.partitions
        walk = []
        round_no = 0
        while len(walk) <= i:
            for p in range(loc.partitions):
                inner = (round_no * spec.io_size) % ps
                walk.append(p * ps + inner)
            round_no += 1
        return base + walk[i]
    raise AssertionError(loc)


def device_state(dev: SimulatedDevice) -> tuple[bytes, bytes, bytes]:
    """The whole simulator state: the snapshot, which holds the direct map
    only, then the inverse map and valid counts with the queued
    retirements applied."""
    dev._retire()
    return dev.snapshot_state(), dev._inverse.tobytes(), dev._valid.tobytes()


def oracle_victim(dev: SimulatedDevice) -> int | None:
    """Victim selection recomputed from scratch: copy the per-block valid
    counts, close every pool block and open frontier block, take the
    lowest-index minimum; None when every block is closed."""
    scores = np.frombuffer(dev._valid, dtype=np.int32).copy()
    closed = dev._ups + 1
    scores[list(dev._pool)] = closed
    for block, _ in (dev._host, dev._gc):
        if block >= 0:
            scores[block] = closed
    victim = int(scores.argmin())
    return None if scores[victim] == closed else victim


class GreedyOracle(SimulatedDevice):
    """The simulator with reclamation done one victim at a time.

    Host writes and copied survivors go unit by unit through one _place
    routine; a drain is a run of one-block events; every victim is chosen
    by oracle_victim on a copy of the maps.  Requests are checked by
    check_alignment, page spans counted by their own arithmetic, and
    streams recognized by a scan over (start, end) pairs.  The oracle keeps
    no held-block penalty and no retirement queue, so only its snapshot,
    costs and counters are comparable: they must equal SimulatedDevice's
    after any op, a stalled one included.
    """

    def _pages(self, lba: int, size: int) -> int:
        first = lba // self._page
        last = (lba + size - 1) // self._page
        return last - first + 1

    def read(self, lba: int, size: int) -> int:
        check_alignment(self, lba, size)
        p = self.profile
        cost = p.controller_overhead_us + self._pages(lba, size) * p.read_page_us
        if p.gc_mode == "deferred" and self._deficit() > 0:
            cost += p.read_drain_extra_us
            self._drain(cost * p.busy_drain_blocks_per_sec / 1e6)
        self._clock_us += cost
        return cost

    def write(self, lba: int, size: int) -> int:
        check_alignment(self, lba, size)
        p = self.profile
        absorbed = self._note_write(lba, size)
        u0 = lba // self._unit
        u1 = (lba + size - 1) // self._unit
        amplified = (u1 - u0 + 1) * self._g
        payload = self._pages(lba, size)
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
            try:
                gc_cost += self._place(u, self._host)
            except SimulationStall:
                self._direct[u] = -1  # retired, never placed
                raise
        if not (absorbed and p.hide_stream_gc):
            cost += gc_cost
        self._clock_us += cost
        return cost

    def _note_write(self, lba: int, size: int) -> bool:
        p = self.profile
        end = lba + size
        hit = False
        streams = list(zip(self._stream_starts, self._stream_ends))
        for i, (start, prev_end) in enumerate(streams):
            if lba == prev_end or (p.detect_reverse_stream and end == start):
                streams.pop(i)
                streams.append((lba, end))
                hit = True
                break
        else:
            if p.stream_slots > 0:
                streams.append((lba, end))
                if len(streams) > p.stream_slots:
                    streams.pop(0)
        self._stream_starts = [s for s, _ in streams]
        self._stream_ends = [e for _, e in streams]

        if p.write_cache_blocks > 0:
            regions = range(lba // self._block, (end - 1) // self._block + 1)
            if not hit:
                hit = all(r in self._cached_regions for r in regions)
            for r in regions:
                self._cached_regions.pop(r, None)
                self._cached_regions[r] = None
            while len(self._cached_regions) > p.write_cache_blocks:
                self._cached_regions.pop(next(iter(self._cached_regions)))
        return hit

    def _place(self, u: int, frontier: list[int]) -> int:
        gc_cost = 0
        if frontier[1] == self._ups:
            if not self._pool:
                gc_cost = self._reclaim_until(self.profile.gc_batch_blocks)
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

    def _drain(self, extra_credit: float) -> int:
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
        p = self.profile
        ups = self._ups
        cost = 0
        rounds = 0
        while len(self._pool) < pool_target:
            rounds += 1
            if rounds > self._n_blocks:
                raise SimulationStall("reclamation cannot free enough blocks")
            victim = oracle_victim(self)
            if victim is None:
                raise SimulationStall("no reclamation victim available")
            first = victim * ups
            survivors = sorted(u for u in self._inverse[first : first + ups] if u >= 0)
            copies = len(survivors) * self._g
            cost += p.erase_block_us + copies * (p.read_page_us + p.program_page_us)
            self._gc_copies += copies
            self._erases += 1
            for slot in range(first, first + ups):
                self._inverse[slot] = -1
            self._valid[victim] = 0
            self._pool.append(victim)
            for u in survivors:
                self._place(u, self._gc)
        return cost
