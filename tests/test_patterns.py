import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashmark.patterns import (
    Burst,
    Consecutive,
    MixSpec,
    Mode,
    Ordered,
    ParallelSpec,
    Partitioned,
    PatternError,
    PatternSpec,
    Pause,
    Random,
    Schedule,
    ScheduleError,
    Sequential,
    derive_seed,
    derive_seeds,
    generate_schedule,
    interleave_mix,
    split_parallel,
    uniform_index,
    uniform_indices,
)
from flashmark.serialization import dumps, from_data, to_data

KB = 1024


def make_spec(**kw):
    defaults = dict(
        timing=Consecutive(),
        location=Sequential(),
        mode=Mode.WRITE,
        io_size=32 * KB,
        io_shift=0,
        target_offset=0,
        target_size=4 * KB * KB,
        io_count=16,
        seed=42,
    )
    defaults.update(kw)
    return PatternSpec(**defaults)


# independent oracle shared with the acceptance suite
from oracles import oracle_lba  # noqa: E402


simple_locations = st.one_of(
    st.just(Sequential()),
    st.just(Random()),
    st.builds(Partitioned, partitions=st.sampled_from([1, 2, 3, 4, 8])),
    st.builds(Ordered, incr=st.sampled_from([-1, 0, 1])),
)


@st.composite
def pattern_specs(draw):
    io_size = draw(st.sampled_from([512, 1024, 2048, 32 * KB]))
    location = draw(simple_locations)
    if isinstance(location, Partitioned):
        slots = location.partitions * draw(st.integers(min_value=1, max_value=12))
    else:
        slots = draw(st.sampled_from([8, 24, 64, 96]))
    io_count = draw(st.integers(min_value=1, max_value=slots))
    shift_slots = io_size // 512
    io_shift = draw(st.integers(min_value=0, max_value=shift_slots - 1)) * 512
    return make_spec(
        location=location,
        io_size=io_size,
        io_shift=io_shift,
        target_offset=draw(st.sampled_from([0, 512, 1024 * KB])),
        target_size=slots * io_size,
        io_count=io_count,
        seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )


def lbas(spec):
    return generate_schedule(spec).lbas


class TestLbaAt:
    def test_sequential_direct_formula(self):
        spec = make_spec(io_size=32768, target_offset=0)
        assert lbas(spec)[3] == 98304

    def test_partitioned_hand_evaluated_walk(self):
        # 3 partitions over 6 slots of 512B: PS = 2 slots.
        spec = make_spec(
            location=Partitioned(partitions=3),
            io_size=512,
            target_size=6 * 512,
            io_count=6,
        )
        assert [lba // 512 for lba in lbas(spec)] == [0, 2, 4, 1, 3, 5]

    def test_ordered_in_place(self):
        spec = make_spec(location=Ordered(incr=0), target_offset=4096, io_count=32)
        assert set(lbas(spec)) == {4096}

    def test_random_same_index_same_address(self):
        # an IO's address depends on its index alone, not on the IO count
        spec = make_spec(location=Random(), io_count=64)
        assert lbas(replace(spec, io_count=8)) == lbas(spec)[:8]

    def test_ordered_negative_counts_down_from_top(self):
        spec = make_spec(location=Ordered(incr=-1), io_count=16, target_size=16 * 32 * KB)
        walk = lbas(spec)
        assert walk[0] == spec.target_size - spec.io_size
        assert walk[-1] == 0
        assert sorted(walk) == [i * spec.io_size for i in range(16)]

    def test_ordered_overflow_error_names_index(self):
        # a 64-slot step leaves the 16-slot space at the second IO
        spec = make_spec(location=Ordered(incr=64), io_count=16, target_size=16 * 32 * KB)
        with pytest.raises(ScheduleError) as exc:
            generate_schedule(spec)
        assert exc.value.index == 1

    def test_sequential_wraps_modulo_target(self):
        walk = lbas(make_spec(target_size=4 * 32 * KB, io_count=10))
        assert walk[4] == walk[0]
        assert walk[7] == walk[3]

    @given(pattern_specs())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, spec):
        assert lbas(spec) == [oracle_lba(spec, i) for i in range(spec.io_count)]

    @given(pattern_specs())
    @settings(max_examples=100, deadline=None)
    def test_containment_and_alignment(self, spec):
        for lba in lbas(spec):
            assert spec.target_offset <= lba
            assert lba + spec.io_size <= spec.target_offset + spec.target_size + spec.io_shift
            assert (lba - spec.target_offset - spec.io_shift) % spec.io_size == 0


class TestGenerateSchedule:
    def test_sequential_write_schedule(self):
        spec = make_spec(io_count=4, io_size=32768)
        assert generate_schedule(spec) == Schedule(
            gaps=[0] * 4,
            lbas=[0, 32768, 65536, 98304],
            sizes=[32768] * 4,
            writes=[True] * 4,
        )

    def test_pause_gap_precedes_every_io_but_the_first(self):
        sched = generate_schedule(make_spec(timing=Pause(pause_us=250), io_count=4))
        assert sched.gaps == [0, 250, 250, 250]

    def test_partitioned_is_permutation_of_sequential(self):
        part = make_spec(
            location=Partitioned(partitions=3), io_size=512, target_size=6 * 512, io_count=6
        )
        seq = replace(part, location=Sequential())
        assert sorted(lbas(part)) == sorted(lbas(seq))

    def test_zero_io_count_rejected(self):
        with pytest.raises(PatternError):
            make_spec(io_count=0)

    def test_identical_spec_identical_schedule(self):
        a = generate_schedule(make_spec(location=Random(), io_count=64))
        b = generate_schedule(make_spec(location=Random(), io_count=64))
        assert a == b

    def test_burst_identities_on_submit_offsets(self):
        p = 5000
        burst1 = generate_schedule(make_spec(timing=Burst(pause_us=p, burst_count=1), io_count=32))
        pause = generate_schedule(make_spec(timing=Pause(pause_us=p), io_count=32))
        assert burst1.gaps == pause.gaps

        burst0 = generate_schedule(make_spec(timing=Burst(pause_us=0, burst_count=9), io_count=32))
        cons = generate_schedule(make_spec(io_count=32))
        assert burst0.gaps == cons.gaps

    def test_burst_submit_lower_bounds(self):
        sched = generate_schedule(
            make_spec(timing=Burst(pause_us=100, burst_count=4), io_count=12)
        )
        # one pause before each group of 4 but the first
        assert sched.gaps == [
            0, 0, 0, 0, 100, 0, 0, 0, 100, 0, 0, 0,
        ]

    @given(pattern_specs())
    @settings(max_examples=50, deadline=None)
    def test_submit_times_non_decreasing(self, spec):
        # a gap is never negative, and the first IO waits for nothing
        gaps = generate_schedule(spec).gaps
        assert gaps[0] == 0
        assert all(gap >= 0 for gap in gaps)


class TestMix:
    def _mk_mix(self, ratio, first_count=20, second_count=20):
        first = make_spec(location=Random(), mode=Mode.READ, io_count=first_count)
        second = make_spec(
            location=Random(),
            mode=Mode.WRITE,
            io_count=second_count,
            target_offset=8 * KB * KB,
        )
        return MixSpec(first=first, second=second, ratio=ratio)

    def test_ratio_four_round_robin(self):
        mix = self._mk_mix(4, first_count=8, second_count=2)
        writes = interleave_mix(mix).writes
        assert writes == [False] * 4 + [True] + [False] * 4 + [True]

    def test_ratio_one_alternates(self):
        mix = self._mk_mix(1, first_count=3, second_count=3)
        assert interleave_mix(mix).writes == [False, True] * 3

    def test_truncates_when_first_exhausts(self):
        mix = self._mk_mix(4, first_count=6, second_count=100)
        # 4 reads, 1 write, then only 2 reads remain: stop there.
        assert interleave_mix(mix).writes == [False] * 4 + [True] + [False] * 2

    def test_component_indices_advance_independently(self):
        mix = self._mk_mix(2, first_count=6, second_count=3)
        seq = interleave_mix(mix)
        reads = [lba for lba, write in zip(seq.lbas, seq.writes) if not write]
        assert reads == lbas(mix.first)[: len(reads)]

    def test_overlapping_targets_rejected(self):
        first = make_spec(location=Random(), mode=Mode.READ)
        second = make_spec(location=Random(), mode=Mode.WRITE, target_offset=KB * KB)
        with pytest.raises(PatternError):
            MixSpec(first=first, second=second, ratio=2)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_exactly_ratio_firsts_between_seconds(self, ratio):
        mix = self._mk_mix(ratio, first_count=ratio * 5, second_count=5)
        runs = []
        count = 0
        for write in interleave_mix(mix).writes:
            if write:
                runs.append(count)
                count = 0
            else:
                count += 1
        assert all(n == ratio for n in runs)


class TestSplitParallel:
    def test_degree_one_keeps_geometry(self):
        base = make_spec(io_count=64)
        (only,) = split_parallel(ParallelSpec(base=base, parallel_degree=1))
        assert only.target_offset == base.target_offset
        assert only.target_size == base.target_size
        assert only.io_count == base.io_count

    def test_degree_four_disjoint_megabyte_slices(self):
        base = make_spec(target_size=4 * KB * KB, io_count=64)
        subs = split_parallel(ParallelSpec(base=base, parallel_degree=4))
        ranges = [(s.target_offset, s.target_offset + s.target_size) for s in subs]
        assert ranges == [
            (0, KB * KB),
            (KB * KB, 2 * KB * KB),
            (2 * KB * KB, 3 * KB * KB),
            (3 * KB * KB, 4 * KB * KB),
        ]

    def test_degree_sixteen_single_slot_each(self):
        base = make_spec(target_size=16 * 32 * KB, io_count=16)
        subs = split_parallel(ParallelSpec(base=base, parallel_degree=16))
        covered = set()
        for s in subs:
            assert s.target_size == 32 * KB
            covered.add((s.target_offset, s.target_offset + s.target_size))
        # pairwise disjoint and full coverage of the base range
        assert len(covered) == 16
        assert min(o for o, _ in covered) == base.target_offset
        assert max(e for _, e in covered) == base.target_offset + base.target_size

    def test_distinct_seeds(self):
        base = make_spec(target_size=4 * KB * KB, io_count=64)
        subs = split_parallel(ParallelSpec(base=base, parallel_degree=4))
        assert len({s.seed for s in subs}) == 4

    def test_fewer_ios_than_workers_rejected(self):
        with pytest.raises(PatternError, match="io_count smaller than parallel_degree"):
            ParallelSpec(base=make_spec(io_count=3), parallel_degree=4)

    @pytest.mark.parametrize("io_count", [4, 7, 16, 33])
    def test_worker_ios_sum_to_io_count(self, io_count):
        par = ParallelSpec(base=make_spec(io_count=io_count), parallel_degree=4)
        assert sum(s.io_count for s in split_parallel(par)) == par.io_count
        assert par.io_count == io_count // 4 * 4


class TestSerialization:
    def test_pattern_json_round_trip(self):
        spec = make_spec(
            timing=Burst(pause_us=100_000, burst_count=10),
            location=Partitioned(partitions=4),
            io_shift=512,
            target_size=8 * 32 * KB,
        )
        assert from_data(PatternSpec, json.loads(dumps(spec))) == spec

    def test_pattern_json_field_names(self):
        d = json.loads(dumps(make_spec()))
        assert set(d) == {
            "timing", "location", "mode", "io_size", "io_shift",
            "target_offset", "target_size", "io_count", "seed",
        }

    def test_mix_and_parallel_round_trip(self):
        first = make_spec(location=Random(), mode=Mode.READ)
        second = make_spec(location=Random(), mode=Mode.WRITE, target_offset=8 * KB * KB)
        mix = MixSpec(first=first, second=second, ratio=4)
        assert from_data(MixSpec, to_data(mix)) == mix
        par = ParallelSpec(base=make_spec(), parallel_degree=4)
        assert from_data(ParallelSpec, to_data(par)) == par


class TestInvariantValidation:
    def test_shift_must_be_less_than_io_size(self):
        with pytest.raises(PatternError):
            make_spec(io_shift=32 * KB)

    def test_target_smaller_than_io_rejected(self):
        with pytest.raises(PatternError):
            make_spec(target_size=16 * KB)

    def test_partition_divisibility(self):
        with pytest.raises(PatternError):
            make_spec(location=Partitioned(partitions=3), target_size=4 * 32 * KB)

    def test_unaligned_io_size(self):
        with pytest.raises(PatternError):
            make_spec(io_size=1000)


timings = st.one_of(
    st.just(Consecutive()),
    st.builds(Pause, pause_us=st.integers(min_value=0, max_value=10**6)),
    st.builds(
        Burst,
        pause_us=st.integers(min_value=0, max_value=10**6),
        burst_count=st.integers(min_value=1, max_value=9),
    ),
)


def reference_gap(spec, i):
    """The gap before IO i, one IO at a time."""
    t = spec.timing
    if i == 0:
        return 0
    if isinstance(t, Pause):
        return t.pause_us
    if isinstance(t, Burst) and i % t.burst_count == 0:
        return t.pause_us
    return 0


def reference_mix(mix):
    """interleave_mix one IO at a time: whose turn, then that component's
    next index, until the component whose turn it is has run out."""
    out = Schedule([], [], [], [])
    k = 0
    while True:
        group, turn = divmod(k, mix.ratio + 1)
        if turn < mix.ratio:
            sub, i = mix.first, group * mix.ratio + turn
        else:
            sub, i = mix.second, group
        if i >= sub.io_count:
            return out
        out.gaps.append(0)
        out.lbas.append(oracle_lba(sub, i))
        out.sizes.append(sub.io_size)
        out.writes.append(sub.mode is Mode.WRITE)
        k += 1


class TestSeedStreams:
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**62),
                st.one_of(st.just(1), st.integers(min_value=1, max_value=2**62)),
            ),
            min_size=1,
            max_size=50,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_uniform_indices_match_uniform_index(self, seed, draws):
        idx = [i for i, _ in draws]
        n = [m for _, m in draws]
        got = uniform_indices(seed, np.array(idx), np.array(n))
        assert got.tolist() == [uniform_index(seed, i, m) for i, m in draws]
        # a scalar slot count broadcasts over the indices
        assert uniform_indices(seed, np.array(idx), n[0]).tolist() == [
            uniform_index(seed, i, n[0]) for i in idx
        ]

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=4),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_derive_seeds_match_derive_seed(self, seed, tags, last):
        assert derive_seeds(seed, tuple(tags), last) == [derive_seed(seed, *tags, t) for t in last]

    @pytest.mark.parametrize("seed", [0, 1, 41, 2**63, 2**63 + 12345, 2**64 - 1])
    def test_uniform_indices_at_edge_seeds(self, seed):
        idx = np.arange(4096)
        for n in (1, 2, 255, 256, 2**31 - 1, 2**40 + 7):
            want = [uniform_index(seed, i, n) for i in range(4096)]
            assert uniform_indices(seed, idx, n).tolist() == want

    @given(pattern_specs(), timings, st.sampled_from(list(Mode)))
    @settings(max_examples=200, deadline=None)
    def test_schedule_rows_match_per_io_rows(self, spec, timing, mode):
        spec = replace(spec, timing=timing, mode=mode)
        n = spec.io_count
        schedule = generate_schedule(spec)
        assert len(schedule) == n
        assert schedule == Schedule(
            [reference_gap(spec, i) for i in range(n)],
            [oracle_lba(spec, i) for i in range(n)],
            [spec.io_size] * n,
            [spec.mode is Mode.WRITE] * n,
        )

    @given(
        st.sampled_from([Sequential(), Random()]),
        st.sampled_from([Sequential(), Random()]),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_mix_rows_match_per_io_rows(self, loc1, loc2, n1, n2, ratio, seed):
        first = make_spec(location=loc1, mode=Mode.READ, io_count=n1, seed=seed)
        second = make_spec(
            location=loc2, mode=Mode.WRITE, io_count=n2, io_size=4 * KB,
            target_offset=8 * KB * KB, seed=seed ^ 1,
        )
        mix = MixSpec(first=first, second=second, ratio=ratio)
        schedule = interleave_mix(mix)
        assert len(schedule) == mix.io_count
        assert schedule == reference_mix(mix)

    @pytest.mark.parametrize("incr", [-3, -1, 1, 2, 64, 10**15])
    def test_ordered_out_of_range_names_the_first_index(self, incr):
        spec = make_spec(location=Ordered(incr=incr), io_count=80, target_size=64 * 32 * KB)
        top = spec.target_size - spec.io_size
        start = 0 if incr > 0 else top
        first = next(
            i for i in range(spec.io_count)
            if not 0 <= start + incr * i * spec.io_size <= top
        )
        with pytest.raises(ScheduleError) as exc:
            generate_schedule(spec)
        assert exc.value.index == first
        assert str(exc.value) == (
            f"ordered pattern leaves target space at IO {first} "
            f"(incr={incr}, offset {start + incr * first * spec.io_size})"
        )
