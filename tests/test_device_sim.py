import contextlib
import hashlib
import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest

from flashmark.device import (
    DeviceError,
    RawDevice,
    SimProfile,
    SimulatedDevice,
    builtin_profile,
    probe_raw_capabilities,
)
from flashmark.device.simulator import SimulationStall
from flashmark.patterns import uniform_index
from flashmark.serialization import from_data

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
        after = dev.snapshot_state()
        # identical except the clock advanced
        dev2 = fresh()
        dev2.restore_state(before)
        dev2.read(0, 32 * KB)
        assert dev2.snapshot_state() == after


class TestSnapshot:
    def test_round_trip_digest_identical(self):
        dev = fresh()
        random_write_costs(dev, 50)
        snap = dev.snapshot_state()
        dev2 = fresh()
        dev2.restore_state(snap)
        assert dev2.snapshot_state() == snap

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
            out = []
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
                capacity=16 * MB, free_block_pool=2, gc_mode="deferred",
                idle_drain_blocks_per_sec=1000.0, busy_drain_blocks_per_sec=100.0,
                read_drain_extra_us=50, map_granularity=granularity,
            )
            d1, d2 = SimulatedDevice(prof), SimulatedDevice(prof)
            assert apply(d1) == apply(d2)
            d1.check_consistency()
            assert d1.snapshot_state() == d2.snapshot_state()

    def test_map_consistency_after_mixed_workload(self):
        dev = fresh(free_block_pool=4)
        for i in range(200):
            if i % 3 == 0:
                dev.read((i * 17 % 1000) * 512, 2048)
            else:
                dev.write(uniform_index(3, i, 512) * 32 * KB, 32 * KB)
        dev.check_consistency()

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


def oracle_victim(dev):
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


def check_victims(dev):
    """Make dev compare every victim it chooses with oracle_victim."""
    choose = dev._choose_victim

    def checked():
        want = oracle_victim(dev)
        try:
            got = choose()
        except SimulationStall:
            got = None
        assert got == want
        if got is None:
            raise SimulationStall("no reclamation victim available")
        return got

    dev._choose_victim = checked


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


class TestVictimSelection:
    @given(small_profiles(), victim_ops, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_victims_match_a_from_scratch_choice(self, prof, ops, cut):
        def apply(dev, ops):
            for op, where, sectors in ops:
                size = min(sectors * 512, dev.capacity)
                lba = int(where * (dev.capacity - size) // 512) * 512
                if op == "idle":
                    dev.idle(sectors * 1000)
                else:
                    getattr(dev, op)(lba, size)

        dev = SimulatedDevice(prof)
        check_victims(dev)
        half = int(cut * len(ops))
        try:
            apply(dev, ops[:half])
        except SimulationStall:
            return
        dev.check_consistency()

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.bin"
            dev.save_state(path)
            restored = SimulatedDevice(prof)
            restored.load_state(path)
        restored.check_consistency()
        check_victims(restored)
        with contextlib.suppress(SimulationStall):
            restored._choose_victim()
        for d in (dev, restored):
            try:
                apply(d, ops[half:])
            except SimulationStall:
                continue
            d.check_consistency()
        assert restored.snapshot_state() == dev.snapshot_state()


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
