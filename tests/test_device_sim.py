import hashlib
import json
import random
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flashmark.device import (
    DeviceError,
    RawDevice,
    SimProfile,
    SimulatedDevice,
    builtin_profile,
    check_alignment,
    probe_raw_capabilities,
)
from flashmark.device.simulator import SimulationStall
from flashmark.methodology import enforce_random_state
from flashmark.patterns import uniform_index
from flashmark.serialization import from_data
from oracles import GreedyOracle, device_state

KB = 1024
MB = 1024 * 1024


def fresh(profile=None, **overrides):
    return SimulatedDevice(profile or SimProfile(**overrides))


def random_write_costs(dev, n, io_size=32 * KB, seed=7, offset=0, span=None):
    span = span or dev.capacity - offset
    slots = span // io_size
    return [
        dev.write(offset + uniform_index(seed, i, slots) * io_size, io_size)
        for i in range(n)
    ]


class TestCostModel:
    def test_read_32k_is_overhead_plus_sixteen_pages(self):
        dev = fresh()
        assert dev.read(0, 32 * KB) == 100 + 16 * 50

    def test_single_sector_read_costs_one_page(self):
        dev = fresh()
        assert dev.read(0, 512) == 100 + 1 * 50

    def test_unaligned_lba_rejected(self):
        dev = fresh()
        with pytest.raises(DeviceError):
            dev.read(100, 512)
        with pytest.raises(DeviceError):
            dev.write(0, 300)

    def test_out_of_range_rejected(self):
        dev = fresh()
        with pytest.raises(DeviceError):
            dev.read(dev.capacity, 512)

    @pytest.mark.parametrize("op", ["read", "write"])
    @pytest.mark.parametrize(
        "lba, size",
        [
            (100, 512),                      # unaligned lba
            (0, 300),                        # unaligned size
            (0, 0),                          # empty
            (-512, 512),                     # before the start
            (64 * MB - 32 * KB + 512, 32 * KB),  # one sector past the end
        ],
    )
    def test_bad_request_raises_as_check_alignment(self, op, lba, size):
        # a deferred device in debt, whose reads drain and whose writes
        # leave retirements queued: a refused request changes nothing
        dev = fresh(
            gc_mode="deferred", free_block_pool=8, idle_drain_blocks_per_sec=1000.0,
            busy_drain_blocks_per_sec=100.0, read_drain_extra_us=300,
        )
        random_write_costs(dev, 64)
        clock, before = dev.now_us(), device_state(dev)
        with pytest.raises(DeviceError) as expected:
            check_alignment(dev, lba, size)
        with pytest.raises(DeviceError) as raised:
            getattr(dev, op)(lba, size)
        assert type(raised.value) is DeviceError
        assert str(raised.value) == str(expected.value)
        assert dev.now_us() == clock
        assert device_state(dev) == before

    def test_sequential_write_steady_cost_no_erase_amplification(self):
        dev = fresh()
        costs = [dev.write(i * 32 * KB, 32 * KB) for i in range(48)]
        assert set(costs) == {100 + 16 * 200}

    def test_scattered_writes_with_empty_pool_oscillate(self):
        dev = fresh(free_block_pool=0, write_cache_blocks=0, stream_slots=0)
        costs = random_write_costs(dev, 200)
        seq_cost = 100 + 16 * 200
        spikes = [c for c in costs if c >= seq_cost + 1500]
        cheap = [c for c in costs if c == seq_cost]
        assert spikes and cheap, "expected a mix of cheap writes and erase spikes"

    def test_free_pool_makes_exactly_that_many_writes_cheap(self):
        dev = SimulatedDevice(builtin_profile("highend-ssd"))
        costs = random_write_costs(dev, 200)
        cheap_prefix = next(i for i, c in enumerate(costs) if c > 1000)
        assert cheap_prefix == 125

    def test_sub_unit_write_pays_read_modify_write(self):
        # 32 KB map units: a 512B write programs the whole unit and
        # reads back the untouched pages.
        dev = fresh(map_granularity=32 * KB, stream_slots=0, write_cache_blocks=0)
        small = dev.write(0, 512)
        dev2 = fresh(map_granularity=32 * KB, stream_slots=0, write_cache_blocks=0)
        full = dev2.write(0, 32 * KB)
        assert full == 100 + 16 * 200
        assert small == 100 + 16 * 200 + 15 * 50
        assert small > full


class TestIdleAndDeferredDrain:
    def _deferred(self):
        return fresh(
            gc_mode="deferred",
            free_block_pool=8,
            idle_drain_blocks_per_sec=1000.0,
            busy_drain_blocks_per_sec=100.0,
            read_drain_extra_us=300,
            write_cache_blocks=0,
            stream_slots=0,
        )

    def test_idle_drains_debt_and_next_write_is_cheap(self):
        dev = self._deferred()
        random_write_costs(dev, 64)  # exhaust the pool
        assert dev.wear_stats()["free_pool"] < 8
        reclaimed = dev.idle(1_000_000)
        assert reclaimed > 0
        assert dev.wear_stats()["free_pool"] == 8

    def test_synchronous_idle_is_noop(self):
        dev = fresh(free_block_pool=0, write_cache_blocks=0, stream_slots=0)
        random_write_costs(dev, 64)
        before = dev.wear_stats()
        assert dev.idle(10_000_000) == 0
        after = dev.wear_stats()
        assert before == after

    def test_zero_duration_changes_nothing(self):
        dev = self._deferred()
        random_write_costs(dev, 64)
        before = dev.wear_stats()["free_pool"]
        assert dev.idle(0) == 0
        assert dev.wear_stats()["free_pool"] == before

    def test_negative_duration_is_no_rest(self):
        # the drain credit and the clock read the same rest, clamped at 0
        dev, twin = self._deferred(), self._deferred()
        random_write_costs(dev, 64)
        random_write_costs(twin, 64)
        assert dev.wear_stats()["free_pool"] < 8
        before = device_state(dev)
        assert dev.idle(-5_000_000) == 0
        assert device_state(dev) == before
        assert dev.idle(1_000_000) == twin.idle(1_000_000) > 0

    def test_reads_inflated_and_draining_while_debt_pending(self):
        dev = self._deferred()
        random_write_costs(dev, 64)
        pool_before = dev.wear_stats()["free_pool"]
        costs = [dev.read(i * 32 * KB, 32 * KB) for i in range(400)]
        base = 100 + 16 * 50
        assert costs[0] == base + 300
        assert costs[-1] == base  # debt fully drained by then
        assert dev.wear_stats()["free_pool"] > pool_before

    def test_reads_do_not_mutate_state_without_debt(self):
        dev = fresh()
        [dev.write(i * 32 * KB, 32 * KB) for i in range(16)]
        before = dev.snapshot_state()
        dev.read(0, 32 * KB)
        after = device_state(dev)
        # identical except the clock advanced
        dev2 = fresh()
        dev2.restore_state(before)
        dev2.read(0, 32 * KB)
        assert device_state(dev2) == after


def with_header(blob, header):
    """blob, a snapshot, with its header replaced by header (JSON unless bytes)."""
    n = int.from_bytes(blob[:8], "little")
    head = header if isinstance(header, bytes) else json.dumps(header, sort_keys=True).encode()
    return len(head).to_bytes(8, "little") + head + blob[8 + n :]


def with_map(blob, data):
    """blob, a snapshot, with the bytes after its header replaced by data."""
    n = int.from_bytes(blob[:8], "little")
    return blob[: 8 + n] + data


def with_direct(blob, direct):
    """blob, a snapshot, with its direct map replaced by direct, encoded as
    format 5 encodes it: successive differences, compressed with zlib."""
    return with_map(blob, zlib.compress(np.diff(direct, prepend=0).tobytes()))


def remapped_unit_zero(slot):
    """A damage that maps the source's unit 0 to the slot slot(source) names."""
    def damage(blob, header, source):
        direct = source._direct_view.copy()
        direct[0] = slot(source)
        return with_direct(blob, direct)
    return damage


def past_the_last_slot(blob, header, source):
    direct = source._direct_view.copy()
    direct[-1] = source._inverse_view.size
    return with_direct(blob, direct)


def two_units_one_slot(blob, header, source):
    direct = source._direct_view.copy()
    first, second = np.flatnonzero(direct >= 0)[:2]
    direct[second] = direct[first]
    return with_direct(blob, direct)


def with_scalar(name, value):
    """A damage that sets the header scalar name to value(header's value)."""
    def damage(blob, header, source):
        scalars = {**header["scalars"], name: value(header["scalars"][name])}
        return with_header(blob, {**header, "scalars": scalars})
    return damage


def format_three(blob, header, source):
    """The blob as format 3 wrote it: the header, the direct map, then the
    inverse map and valid counts with the queue applied."""
    source._retire()
    three = with_header(blob, {**header, "version": 3})
    return three + source._inverse.tobytes() + source._valid.tobytes()


class TestSnapshot:
    def test_round_trip_digest_identical(self):
        dev = fresh()
        random_write_costs(dev, 50)
        snap = dev.snapshot_state()
        dev2 = fresh()
        dev2.restore_state(snap)
        assert dev2.snapshot_state() == snap
        assert device_state(dev2) == device_state(dev)

    def test_round_trip_with_retirements_queued(self):
        # a snapshot holds the direct map only and leaves the queue queued;
        # restore derives the inverse map and valid counts the queue implies
        prof = builtin_profile("highend-ssd", capacity=16 * MB)
        dev, restored = SimulatedDevice(prof), SimulatedDevice(prof)
        enforce_random_state(dev, seed=3)
        random_write_costs(dev, 300)
        restored.restore_state(dev.snapshot_state())
        assert max(dev._retired) >= 0
        restored.check_consistency()
        dev._retire()
        assert restored._inverse == dev._inverse
        assert restored._valid == dev._valid

    def test_restored_device_behaves_identically(self):
        dev = fresh()
        random_write_costs(dev, 100)
        snap = dev.snapshot_state()
        tail1 = random_write_costs(dev, 50, seed=9)
        dev2 = fresh()
        dev2.restore_state(snap)
        tail2 = random_write_costs(dev2, 50, seed=9)
        assert tail1 == tail2

    def test_profile_mismatch_rejected(self):
        snap = fresh().snapshot_state()
        other = fresh(erase_block_us=9999)
        with pytest.raises(DeviceError):
            other.restore_state(snap)

    def test_version_one_snapshot_rejected(self):
        # format 1 held one inverse-map entry per page and per-block erase
        # counts; a format-2 device cannot read it
        dev = fresh()
        random_write_costs(dev, 50)
        blob = dev.snapshot_state()
        n = int.from_bytes(blob[:8], "little")
        header = json.loads(blob[8 : 8 + n])
        header["version"] = 1
        head = json.dumps(header, sort_keys=True).encode()
        with pytest.raises(DeviceError, match="version"):
            fresh().restore_state(len(head).to_bytes(8, "little") + head + blob[8 + n :])

    @pytest.mark.parametrize("damage", [
        lambda blob, header, source: blob[:-100],
        lambda blob, header, source: with_header(
            blob, {k: v for k, v in header.items() if k != "pool"}
        ),
        lambda blob, header, source: with_header(blob, b"{not json"),
        lambda blob, header, source: with_header(blob, {**header, "version": 2}),
        lambda blob, header, source: with_header(blob, {**header, "profile": "0" * 16}),
        lambda blob, header, source: with_header(blob, {**header, "pool": [10**9]}),
        past_the_last_slot,
        two_units_one_slot,
        lambda blob, header, source: blob[:-8],
        format_three,
        remapped_unit_zero(lambda source: source._pool[-1] * source._ups),
        remapped_unit_zero(lambda source: source._host[0] * source._ups + source._host[1]),
        lambda blob, header, source: with_map(blob, b"not a zlib stream"),
        lambda blob, header, source: blob[:-4],  # the stream's checksum cut off
        lambda blob, header, source: blob + b"\0",
        lambda blob, header, source: with_direct(blob, source._direct_view[:-1]),
        lambda blob, header, source: with_direct(blob, np.append(source._direct_view, -1)),
        lambda blob, header, source: with_header(blob, {**header, "pool": [-2]}),
        lambda blob, header, source: with_header(
            blob, {**header, "pool": header["pool"] + header["pool"][:1]}
        ),
        with_scalar("_host", lambda host: [host[0], -1]),
        with_scalar("_host", lambda host: [host[0], 40]),
        with_scalar("_gc", lambda gc: [gc[0], 17]),
        lambda blob, header, source: with_header(blob, {
            **header, "scalars": {**header["scalars"], "_host": [header["pool"][0], 0]},
        }),
        lambda blob, header, source: with_header(blob, {**header, "journaled": "3"}),
        lambda blob, header, source: with_header(blob, {**header, "journaled": True}),
        with_scalar("_clock_us", lambda clock: "x"),
        with_scalar("_erases", lambda erases: 1.5),
        with_scalar("_drain_credit", lambda credit: "0.5"),
        with_scalar("_drain_credit", lambda credit: False),
        lambda blob, header, source: with_header(blob, {**header, "cached_regions": ["a"]}),
        lambda blob, header, source: with_header(blob, {**header, "streams": [[0, 4096.0]]}),
    ], ids=[
        "truncated", "no-pool", "not-json", "version", "profile", "pool-block-out-of-range",
        "map-entry-past-the-last-slot", "two-units-one-slot", "map-8-bytes-short", "format-3",
        "unit-in-a-pool-block", "unit-past-the-host-fill", "map-not-zlib", "map-checksum-cut",
        "bytes-after-the-map", "map-one-unit-short", "map-one-unit-long",
        "pool-block-negative", "pool-block-repeated", "host-fill-negative", "host-fill-40",
        "gc-fill-past-ups", "host-block-in-the-pool", "journaled-a-string",
        "journaled-a-bool", "clock-a-string", "erases-a-float", "drain-credit-a-string",
        "drain-credit-a-bool", "cached-region-a-string", "stream-bound-a-float",
    ])
    def test_failed_restore_changes_nothing(self, damage):
        prof = builtin_profile("highend-ssd", capacity=16 * MB)
        source, dev = SimulatedDevice(prof), SimulatedDevice(prof)
        random_write_costs(source, 1500, io_size=4 * KB)
        random_write_costs(dev, 500, io_size=4 * KB, seed=9)
        blob = source.snapshot_state()
        n = int.from_bytes(blob[:8], "little")
        before, clock = device_state(dev), dev.now_us()
        with pytest.raises(DeviceError):
            dev.restore_state(damage(blob, json.loads(blob[8 : 8 + n]), source))
        assert device_state(dev) == before
        assert dev.now_us() == clock
        dev.check_consistency()

    def test_saved_snapshot_header_reads_as_the_ci_kill_step_reads_it(self, tmp_path):
        # the killed-run CI step polls device_state.bin for "journaled": an
        # 8-byte little-endian header length, then a JSON header
        dev = SimulatedDevice(builtin_profile("highend-ssd", capacity=16 * MB))
        enforce_random_state(dev, seed=3)
        dev.journaled = 7
        path = tmp_path / "device_state.bin"
        dev.save_state(path)
        with path.open("rb") as fp:
            header = json.loads(fp.read(int.from_bytes(fp.read(8), "little")))
            deltas = zlib.decompress(fp.read())
        assert header["journaled"] == 7
        assert header["version"] == 5
        assert np.array_equal(np.cumsum(np.frombuffer(deltas, dtype=np.int64)), dev._direct_view)

    def test_enforced_snapshot_map_is_compressed(self):
        # host writes place units in runs, so the map's differences are
        # mostly 1 and compress far below the map's 8 bytes per unit
        dev = SimulatedDevice(builtin_profile("highend-ssd", capacity=16 * MB))
        enforce_random_state(dev, seed=3)
        blob = dev.snapshot_state()
        n = int.from_bytes(blob[:8], "little")
        assert len(blob) - 8 - n < dev._direct_view.size  # under 1 byte per unit

    def test_failed_save_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "device_state.bin"
        dev = fresh()
        random_write_costs(dev, 50)
        dev.save_state(path)
        saved = dev.snapshot_state()
        random_write_costs(dev, 50, seed=9)

        real_write_bytes = Path.write_bytes

        def torn_write(self, data):
            real_write_bytes(self, data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(OSError):
            dev.save_state(path)
        monkeypatch.undo()

        restored = fresh()
        restored.load_state(path)
        assert restored.snapshot_state() == saved


from hypothesis import given, settings
from hypothesis import strategies as st

op_sequences = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "idle"]),
        st.integers(min_value=0, max_value=255),   # slot
        st.sampled_from([512, 2048, 32 * KB]),     # size
    ),
    min_size=1,
    max_size=60,
)


class TestInvariants:
    def test_determinism_same_sequence_same_costs(self):
        a = random_write_costs(fresh(), 300)
        b = random_write_costs(fresh(), 300)
        assert a == b

    @given(op_sequences)
    @settings(max_examples=40, deadline=None)
    def test_any_op_sequence_deterministic_and_consistent(self, ops):
        def apply(dev):
            # a full device rewritten in part, so that reclamation copies
            # survivors before and during the drawn ops
            for lba in range(0, dev.capacity, 128 * KB):
                dev.write(lba, 128 * KB)
            out = random_write_costs(dev, 48, seed=11)
            for op, slot, size in ops:
                lba = (slot * 32 * KB) % (dev.capacity - size)
                lba -= lba % 512
                if op == "read":
                    out.append(dev.read(lba, size))
                elif op == "write":
                    out.append(dev.write(lba, size))
                else:
                    out.append(dev.idle(size))
            return out

        for granularity in (None, 8 * KB):
            prof = SimProfile(
                capacity=2 * MB, free_block_pool=2, gc_mode="deferred", gc_batch_blocks=2,
                idle_drain_blocks_per_sec=1000.0, busy_drain_blocks_per_sec=100.0,
                read_drain_extra_us=50, map_granularity=granularity, spare_blocks=6,
            )
            d1, d2 = SimulatedDevice(prof), SimulatedDevice(prof)
            assert apply(d1) == apply(d2)
            d1.check_consistency()
            assert device_state(d1) == device_state(d2)
            assert d1.wear_stats()["gc_copies"] > 0

    def test_consistency_check_sees_frontier_and_pool_slots(self):
        # reclamation writes a frontier's slots from its fill on, and a
        # pool block's slots, without reading them first
        dev = SimulatedDevice(builtin_profile("highend-ssd", capacity=16 * MB))
        random_write_costs(dev, 1500)
        dev.idle(1_000_000)
        dev.write(0, 2 * KB)
        dev.check_consistency()
        dev._host[1] -= 1
        with pytest.raises(AssertionError, match="past an open frontier's fill"):
            dev.check_consistency()
        dev._host[1] += 1

        # a full closed block in place of a pool block
        full = np.flatnonzero((dev._valid_view == dev._ups) & (dev._held == 0))
        dev._pool[0] = int(full[0])
        dev._held = dev._held_blocks()
        with pytest.raises(AssertionError, match="a pool block holds"):
            dev.check_consistency()

    def test_map_consistency_after_mixed_workload(self):
        # 2 MB written over about three times: reclamation copies survivors
        dev = fresh(capacity=2 * MB, free_block_pool=4, gc_batch_blocks=2, spare_blocks=8)
        for i in range(300):
            if i % 3 == 0:
                dev.read((i * 17 % 1000) * 512, 2048)
            else:
                dev.write(uniform_index(3, i, 64) * 32 * KB, 32 * KB)
        dev.check_consistency()
        assert dev.wear_stats()["gc_copies"] > 0

    @pytest.mark.parametrize("first", ["snapshot", "check"])
    def test_queued_retirements_applied_before_reading(self, first):
        # writes after the last reclamation leave their overwritten slots
        # queued; a consistency check applies the queue first, and a
        # snapshot, which holds the direct map only, leaves it queued
        prof = builtin_profile("highend-ssd", capacity=16 * MB)
        dev, oracle = SimulatedDevice(prof), GreedyOracle(prof)
        for d in (dev, oracle):
            enforce_random_state(d, seed=3)
            random_write_costs(d, 300)
        assert dev.wear_stats()["gc_copies"] > 0
        assert max(dev._retired) >= 0
        if first == "check":
            dev.check_consistency()
            assert not dev._retired
        else:
            assert dev.snapshot_state() == oracle.snapshot_state()
            assert max(dev._retired) >= 0
        assert device_state(dev) == device_state(oracle)
        dev.check_consistency()

    def test_stalled_write_leaves_its_unit_unmapped(self):
        # a full device whose reclamation target then rises past what its
        # spare blocks allow: a one-unit write retires its unit, then stalls
        prof = SimProfile(
            capacity=16 * 2 * KB, page_size=512, pages_per_block=4, write_cache_blocks=0,
            free_block_pool=0, gc_batch_blocks=1, stream_slots=0, spare_blocks=3,
        )
        dev = SimulatedDevice(prof)
        for lba in range(0, prof.capacity, 2 * KB):
            dev.write(lba, 2 * KB)
        dev.profile = replace(prof, gc_batch_blocks=4)
        rng = random.Random(1)
        with pytest.raises(SimulationStall):
            while True:
                lba = rng.randrange(prof.capacity // 512) * 512
                dev.write(lba, 512)
        dev.check_consistency()
        # the same unit again: its old slot is not retired a second time
        dev.write(lba, 512)
        dev.check_consistency()
        assert min(dev._valid) >= 0

    def test_wear_conservation(self):
        dev = fresh(free_block_pool=4)
        random_write_costs(dev, 500)
        w = dev.wear_stats()
        ppb = dev.profile.pages_per_block
        assert w["erases"] * ppb >= w["pages_programmed"] - w["initial_free_pages"]

    def test_monotone_locality(self):
        # shrinking the random-write area never increases the mean cost
        prof = builtin_profile("highend-ssd", capacity=64 * MB)
        means = []
        for slots in (64, 512, 1024):
            dev = SimulatedDevice(prof)
            costs = random_write_costs(dev, 800, span=slots * 32 * KB)
            means.append(np.mean(costs[400:]))
        assert means[0] <= means[1] * 1.05 <= means[2] * 1.10

    def test_virtual_clock_advances_by_costs(self):
        dev = fresh()
        t0 = dev.now_us()
        c = dev.write(0, 32 * KB)
        assert dev.now_us() == t0 + c
        dev.idle(5000)
        assert dev.now_us() == t0 + c + 5000


@st.composite
def small_profiles(draw):
    page = draw(st.sampled_from([512, 2048]))
    pages_per_block = draw(st.sampled_from([4, 8, 16]))
    block = page * pages_per_block
    pool = draw(st.integers(0, 4))
    batch = draw(st.integers(1, 4))
    deferred = draw(st.booleans())
    return SimProfile(
        capacity=draw(st.integers(8, 48)) * block,
        page_size=page,
        pages_per_block=pages_per_block,
        map_granularity=page * draw(st.sampled_from([1, 2, 4])),
        write_cache_blocks=draw(st.integers(0, 4)),
        free_block_pool=pool,
        gc_mode="deferred" if deferred else "synchronous",
        gc_batch_blocks=batch,
        stream_slots=draw(st.integers(0, 3)),
        detect_reverse_stream=draw(st.booleans()),
        hide_stream_gc=draw(st.booleans()),
        idle_drain_blocks_per_sec=500.0 if deferred else 0.0,
        busy_drain_blocks_per_sec=100.0 if deferred else 0.0,
        read_drain_extra_us=20 if deferred else 0,
        spare_blocks=pool + batch + 2 + draw(st.integers(0, 6)),
    )


victim_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "write", "read", "idle"]),
        st.floats(min_value=0.0, max_value=1.0),   # where on the device
        st.integers(min_value=1, max_value=96),    # sectors
    ),
    min_size=1,
    max_size=200,
)


def overcommitted(cls, prof, extra_batch, extra_pool):
    """A cls device on prof whose reclamation targets then rise past what
    its spare blocks allow (its constructor refuses such a profile), so
    that reclamation can stall."""
    dev = cls(prof)
    dev.profile = replace(
        prof,
        gc_batch_blocks=prof.gc_batch_blocks + extra_batch,
        free_block_pool=prof.free_block_pool + extra_pool,
    )
    return dev


def concrete(capacity, ops):
    """victim_ops as (kind, lba, size); an idle's size is its duration."""
    out = []
    for kind, where, sectors in ops:
        size = min(sectors * 512, capacity)
        lba = int(where * (capacity - size) // 512) * 512
        out.append((kind, 0, sectors * 1000) if kind == "idle" else (kind, lba, size))
    return out


def in_step(devices, ops):
    """Apply each op to every device; after each, the results (a stall's
    type and message) and the whole states must agree.  Returns False at the
    first stall, after checking the first device's maps: a stalled op of
    any kind, a write included, leaves them consistent."""
    dev = devices[0]
    for op in ops:
        kind, lba, size = op
        credit, pool = dev._drain_credit, len(dev._pool)
        results = []
        for d in devices:
            try:
                results.append(apply_ops(d, [op])[0])
            except SimulationStall as exc:
                results.append((type(exc), str(exc)))
        assert all(r == results[0] for r in results)
        state = device_state(dev)
        assert all(device_state(d) == state for d in devices[1:])
        if isinstance(results[0], tuple):
            if kind == "idle":
                # the credit paid for the blocks freed before the stall
                earned = credit + size * dev.profile.idle_drain_blocks_per_sec / 1e6
                assert dev._drain_credit == earned - (len(dev._pool) - pool)
            dev.check_consistency()
            return False
    return True


class TestVictimSelection:
    @given(
        small_profiles(),
        victim_ops,
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([(0, 0), (0, 0), (12, 0), (0, 12), (2, 60)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_victims_match_a_from_scratch_choice(self, prof, ops, cut, extra):
        # every op's result and snapshot equal the one-victim-at-a-time
        # oracle's, which chooses each victim on a copy of the maps
        dev = overcommitted(SimulatedDevice, prof, *extra)
        oracle = overcommitted(GreedyOracle, prof, *extra)
        ops = concrete(prof.capacity, ops)
        if extra != (0, 0):
            # a full device, so that the raised targets can stall
            block = prof.block_size
            ops = [("write", lba, block) for lba in range(0, prof.capacity, block)] + ops
        half = int(cut * len(ops))
        if not in_step((dev, oracle), ops[:half]):
            return
        dev.check_consistency()

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.bin"
            dev.save_state(path)
            restored = overcommitted(SimulatedDevice, prof, *extra)
            restored.load_state(path)
        restored.check_consistency()
        assert device_state(restored) == device_state(dev)
        if in_step((dev, oracle, restored), ops[half:]):
            dev.check_consistency()
            restored.check_consistency()

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("highend-ssd", {}),
            # the built-in 256 spare blocks would leave every victim empty
            ("lowend-usb", {"spare_blocks": 40}),
        ],
    )
    def test_builtin_profiles_match_the_oracle(self, name, overrides):
        # enforcement, random writes and a long drain at built-in scale
        prof = builtin_profile(name, capacity=16 * MB, **overrides)
        runs = []
        for cls in (SimulatedDevice, GreedyOracle):
            dev = cls(prof)
            enforce_random_state(dev, seed=3)
            costs = random_write_costs(dev, 2000)
            freed = dev.idle(2_000_000)
            runs.append((costs, freed, dev.wear_stats(), device_state(dev)))
        assert runs[0] == runs[1]
        assert runs[0][2]["gc_copies"] > 0
        if prof.gc_mode == "deferred":
            assert freed >= 100

    def test_two_byte_scores_match_the_oracle(self):
        # 256 map units per block: a score takes two bytes
        prof = SimProfile(
            capacity=16 * 128 * KB, page_size=512, pages_per_block=256,
            free_block_pool=2, gc_mode="deferred", gc_batch_blocks=2,
            idle_drain_blocks_per_sec=500.0, busy_drain_blocks_per_sec=100.0,
            read_drain_extra_us=20, spare_blocks=8,
        )
        rng = random.Random(3)
        ops = [("write", lba, 128 * KB) for lba in range(0, prof.capacity, 128 * KB)]
        for i in range(3000):
            size = rng.randint(1, 64) * 512
            ops.append(("write", rng.randrange((prof.capacity - size) // 512) * 512, size))
            if i % 10 == 0:
                ops.append(("idle", 0, rng.randrange(20_000)))
        runs = []
        for cls in (SimulatedDevice, GreedyOracle):
            dev = cls(prof)
            runs.append((apply_ops(dev, ops), dev.wear_stats(), device_state(dev)))
        assert SimulatedDevice(prof)._scores.itemsize == 2
        assert runs[0] == runs[1]
        assert runs[0][1]["gc_copies"] > 0


def stream_ops(rng, prof, n):
    """n writes from up to stream_slots + 2 interleaved forward and
    backward streams, and repeated writes inside one cache block."""
    cap, block = prof.capacity, prof.block_size
    streams = [
        (rng.randrange(cap // 512) * 512, rng.random() < 0.5)
        for _ in range(rng.randint(1, prof.stream_slots + 2))
    ]
    hot = rng.randrange(cap // block) * block
    ops = []
    for _ in range(n):
        i = rng.randrange(len(streams) + 1)
        if i == len(streams):
            off = rng.randrange(block // 512) * 512
            ops.append(("write", hot + off, rng.randint(1, (block - off) // 512) * 512))
            continue
        # a forward stream's next write starts at its cursor, a backward
        # one's ends there
        at, forward = streams[i]
        size = rng.randint(1, 2 * block // 512) * 512
        if forward:
            lba = at if at + size <= cap else 0
            streams[i] = (lba + size, True)
        else:
            lba = at - size if at >= size else cap - size
            streams[i] = (lba, False)
        ops.append(("write", lba, size))
    return ops


def recognition_cases(dev, lba, size):
    """The stream and cache cases a write of (lba, size) meets on dev."""
    p, end = dev.profile, lba + size
    cases = set()
    streams = list(zip(dev._stream_starts, dev._stream_ends))
    for i, (start, prev_end) in enumerate(streams):
        if lba == prev_end or (p.detect_reverse_stream and end == start):
            cases.add("forward hit" if lba == prev_end else "reverse hit")
            if i > 0:
                cases.add("hit past the first stream")
            break
    regions = set(range(lba // p.block_size, (end - 1) // p.block_size + 1))
    if len(regions) > 1:
        cases.add("two regions")
    if p.write_cache_blocks and len(regions | set(dev._cached_regions)) > p.write_cache_blocks:
        cases.add("cache eviction")
    return cases


class TestStreamRecognition:
    @given(small_profiles(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_costs_and_snapshots_match_the_oracle(self, prof, rng):
        # the oracle recognizes streams by a scan over (start, end) pairs
        ops = stream_ops(rng, prof, 80)
        in_step((SimulatedDevice(prof), GreedyOracle(prof)), ops)

    def test_reaches_every_case(self):
        prof = SimProfile(
            capacity=48 * 8 * KB, page_size=512, pages_per_block=16, map_granularity=1024,
            write_cache_blocks=4, free_block_pool=2, gc_batch_blocks=2, stream_slots=3,
            detect_reverse_stream=True, spare_blocks=8,
        )
        dev, oracle = SimulatedDevice(prof), GreedyOracle(prof)
        seen = set()
        for op in stream_ops(random.Random(5), prof, 400):
            seen |= recognition_cases(dev, *op[1:])
            assert in_step((dev, oracle), [op])
        assert seen == {
            "forward hit", "reverse hit", "hit past the first stream",
            "two regions", "cache eviction",
        }
        assert dev.wear_stats()["gc_copies"] > 0


def pinned_mix(capacity, seed=5):
    """A fixed op list: a sequential fill, then a mix of sequential, reverse,
    random, partial-unit, misaligned and in-cache writes with reads and
    idles, with a burst of random writes and no idle in the middle."""
    rng = random.Random(seed)
    seq, rev = 0, capacity - 32 * KB
    hot = rng.randrange(capacity // MB - 1) * MB

    def mixed(n):
        nonlocal seq, rev
        ops = []
        for _ in range(n):
            kind = rng.choice(("seq", "seq", "rev", "rand", "rand", "partial",
                               "misaligned", "cache", "read", "idle"))
            if kind == "seq":
                ops.append(("write", seq, 32 * KB))
                seq = (seq + 32 * KB) % capacity
            elif kind == "rev":
                ops.append(("write", rev, 32 * KB))
                rev = (rev - 32 * KB) % capacity
            elif kind == "rand":
                ops.append(("write", rng.randrange(capacity // (32 * KB)) * 32 * KB, 32 * KB))
            elif kind == "partial":
                lba = rng.randrange(capacity // 512 - 8) * 512
                ops.append(("write", lba, 512 * rng.randint(1, 8)))
            elif kind == "misaligned":
                lba = rng.randrange(capacity // (32 * KB) - 1) * 32 * KB
                ops.append(("write", lba + 2 * KB * rng.randint(1, 15), 32 * KB))
            elif kind == "cache":
                ops.append(("write", hot + rng.randrange(32) * 32 * KB, 32 * KB))
            elif kind == "read":
                lba = rng.randrange(capacity // (4 * KB)) * 4 * KB
                ops.append(("read", lba, 4 * KB * rng.randint(1, 8)))
            else:
                ops.append(("idle", 0, rng.randrange(200_000)))
        return ops

    fill = [("write", lba, 256 * KB) for lba in range(0, capacity, 256 * KB)]
    burst = [
        ("write", rng.randrange(capacity // (32 * KB)) * 32 * KB, 32 * KB)
        for _ in range(600)
    ]
    return fill + mixed(2000) + burst + mixed(1000)


def apply_ops(dev, ops):
    return [dev.idle(size) if op == "idle" else getattr(dev, op)(lba, size)
            for op, lba, size in ops]


# SHA-256 of the JSON list of values returned by pinned_mix's ops, and the
# final wear_stats(), per shrunk built-in profile.  A change to simulator
# results shows here; an intended behaviour change must update them.
PINNED_SIM = {
    "highend-ssd": (
        {"capacity": 16 * MB},
        "646cf99d88d948f4363b43f03b2c5db32889fcd1142647268c68ec6bbcf89665",
        {"erases": 4193, "pages_programmed": 67125, "gc_copies": 15567,
         "initial_free_pages": 2000, "free_pool": 122},
    ),
    "lowend-usb": (
        {"capacity": 32 * MB, "spare_blocks": 64},
        "2a259963e869a76bd981195d2692b4dc772ba591f896a48c2e0fccf7fd9e5f20",
        {"erases": 1869, "pages_programmed": 118560, "gc_copies": 49984,
         "initial_free_pages": 0, "free_pool": 16},
    ),
}


class TestPinnedBehaviour:
    @pytest.mark.parametrize("name", sorted(PINNED_SIM))
    def test_pinned_mix_costs_and_wear(self, name):
        overrides, digest, wear = PINNED_SIM[name]
        prof = builtin_profile(name, **overrides)
        ops = pinned_mix(prof.capacity)
        dev = SimulatedDevice(prof)
        half = len(ops) // 2
        head = apply_ops(dev, ops[:half])
        snap = dev.snapshot_state()
        tail = apply_ops(dev, ops[half:])
        assert hashlib.sha256(json.dumps(head + tail).encode()).hexdigest() == digest
        assert dev.wear_stats() == wear
        dev.check_consistency()

        resumed = SimulatedDevice(prof)
        resumed.restore_state(snap)
        assert apply_ops(resumed, ops[half:]) == tail
        assert resumed.snapshot_state() == dev.snapshot_state()


class TestProfiles:
    def test_json_round_trip(self):
        prof = builtin_profile("lowend-usb")
        assert from_data(SimProfile, json.loads(prof.to_json())) == prof

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_profile("ramdisk")

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SimProfile(capacity=1000)
        with pytest.raises(ValueError):
            SimProfile(map_granularity=3000)
        with pytest.raises(ValueError):
            SimProfile(gc_mode="lazy")

    @pytest.mark.parametrize("field, bad, least", [
        ("capacity", 0, 1), ("page_size", 0, 1), ("pages_per_block", 0, 1),
        ("map_granularity", 0, 1), ("gc_batch_blocks", 0, 1), ("read_page_us", 0, 1),
        ("program_page_us", 0, 1), ("erase_block_us", 0, 1),
        ("controller_overhead_us", -100, 0), ("write_cache_blocks", -3, 0),
        ("free_block_pool", -5, 0), ("stream_slots", -1, 0), ("write_miss_penalty_us", -1, 0),
        ("idle_drain_blocks_per_sec", -0.5, 0), ("busy_drain_blocks_per_sec", float("nan"), 0),
        ("read_drain_extra_us", -1, 0), ("spare_blocks", -1, 0),
    ])
    def test_out_of_range_value_named(self, field, bad, least):
        base = builtin_profile("lowend-usb", capacity=16 * MB, spare_blocks=40)
        with pytest.raises(ValueError, match=f"^{field} must be at least {least}, not"):
            replace(base, **{field: bad})
        if least == 0:
            assert getattr(replace(base, **{field: 0}), field) == 0


class TestRawBackend:
    def test_file_backed_read_write(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"\0" * (4 * MB))
        dev = RawDevice(str(path), require_direct=False)
        try:
            assert dev.capacity == 4 * MB
            assert dev.write(0, 32 * KB) >= 1
            assert dev.read(0, 32 * KB) >= 1
            with pytest.raises(DeviceError):
                dev.read(dev.capacity, 512)
        finally:
            dev.close()

    def test_write_payload_is_seeded_and_incompressible(self, tmp_path):
        # a device that compresses or dedupes its data cannot cheat
        written = []
        for k, seed in enumerate((1, 1, 2)):
            path = tmp_path / f"blob{k}"
            path.write_bytes(b"\0" * MB)
            dev = RawDevice(str(path), write_seed=seed, require_direct=False)
            try:
                dev.write(0, MB)
            finally:
                dev.close()
            written.append(path.read_bytes())
        assert written[0] == written[1] != written[2]
        assert len(zlib.compress(written[0])) > MB

    def test_fresh_thread_io_allocates_no_buffer(self, tmp_path, monkeypatch):
        # buffers allocated inside a timed IO would add to the gap after it
        import mmap
        import threading

        path = tmp_path / "blob"
        path.write_bytes(b"\0" * (4 * MB))
        dev = RawDevice(str(path), require_direct=False)
        calls = []
        real_mmap = mmap.mmap
        monkeypatch.setattr(mmap, "mmap", lambda *a, **k: calls.append(a) or real_mmap(*a, **k))

        done = []

        def io():
            done.extend([dev.write(0, MB), dev.read(MB, 512), dev.write(2 * MB, 32 * KB)])

        try:
            worker = threading.Thread(target=io)
            worker.start()
            worker.join()
            assert len(done) == 3
            assert calls == []
            dev.read(0, 2 * MB)  # an IO above 1 MB still gets a buffer
            assert len(calls) == 2
        finally:
            dev.close()

    def test_concurrent_ios_above_one_mb_complete(self, tmp_path):
        # threads growing the shared buffers at once must each get one
        # large enough for their own IO
        import sys
        import threading

        path = tmp_path / "blob"
        path.write_bytes(b"\0" * (4 * MB))
        dev = RawDevice(str(path), require_direct=False)
        done = []

        def io(w):
            for i in range(8):
                size = (1 + (w + i) % 3) * MB + 512 * w
                done.append(dev.write(0, size) and dev.read(0, size))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=io, args=(w,)) for w in range(4)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in workers)
            assert len(done) == 32
        finally:
            sys.setswitchinterval(interval)
            dev.close()

    def test_probe_reports_capabilities(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"\0" * MB)
        caps = probe_raw_capabilities(str(path))
        assert {"o_direct", "o_sync", "clock_resolution_us", "openable"} <= set(caps)

    def test_parallel_workers_share_handle_safely(self, tmp_path):
        # positional IO: concurrent threads must not race on an offset
        from flashmark.patterns import (
            Consecutive,
            Mode,
            ParallelSpec,
            PatternSpec,
            Sequential,
        )
        from flashmark.runner import execute_run

        path = tmp_path / "blob"
        path.write_bytes(b"\0" * (8 * MB))
        dev = RawDevice(str(path), require_direct=False)
        try:
            base = PatternSpec(
                timing=Consecutive(),
                location=Sequential(),
                mode=Mode.WRITE,
                io_size=32 * KB,
                io_shift=0,
                target_offset=0,
                target_size=4 * MB,
                io_count=64,
                seed=1,
            )
            trace = execute_run(dev, ParallelSpec(base=base, parallel_degree=4))
            assert trace.error is None
            assert len(trace.records) == 64
            assert {r.worker for r in trace.records} == {0, 1, 2, 3}
        finally:
            dev.close()

    def test_paused_run_waits_the_pause_after_each_completion(self, tmp_path):
        # a gapped run on the real clock: precision_sleep holds every IO
        # after the first until the pause has passed since the previous
        # IO completed, less 2 us for the us clock's rounding
        from flashmark.patterns import Pause, baseline_pattern
        from flashmark.runner import execute_run

        pause = 2000
        path = tmp_path / "blob"
        path.write_bytes(b"\0" * (4 * MB))
        dev = RawDevice(str(path), require_direct=False)
        try:
            pattern = baseline_pattern("RW", 32 * KB, 32, 4 * MB, seed=1, timing=Pause(pause))
            trace = execute_run(dev, pattern)
        finally:
            dev.close()
        assert trace.error is None
        records = trace.records
        assert len(records) == 32
        for prev, io in zip(records, records[1:]):
            completed = prev.actual_submit_us + prev.response_time_us
            assert io.actual_submit_us - completed >= pause - 2
