import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashmark.patterns import (
    Burst,
    Consecutive,
    IORequest,
    MixSpec,
    Mode,
    Ordered,
    ParallelSpec,
    Partitioned,
    PatternError,
    PatternSpec,
    Pause,
    Random,
    ScheduleError,
    Sequential,
    generate_schedule,
    interleave_mix,
    lba_at,
    split_parallel,
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


class TestLbaAt:
    def test_sequential_direct_formula(self):
        spec = make_spec(io_size=32768, target_offset=0)
        assert lba_at(spec, 3) == 98304

    def test_partitioned_hand_evaluated_walk(self):
        # 3 partitions over 6 slots of 512B: PS = 2 slots.
        spec = make_spec(
            location=Partitioned(partitions=3),
            io_size=512,
            target_size=6 * 512,
            io_count=6,
        )
        units = [lba_at(spec, i) // 512 for i in range(6)]
        assert units == [0, 2, 4, 1, 3, 5]

    def test_ordered_in_place(self):
        spec = make_spec(location=Ordered(incr=0), target_offset=4096, io_count=32)
        assert {lba_at(spec, i) for i in range(32)} == {4096}

    def test_random_same_index_same_address(self):
        spec = make_spec(location=Random(), io_count=64)
        for i in (0, 7, 63):
            assert lba_at(spec, i) == lba_at(spec, i)

    def test_ordered_negative_counts_down_from_top(self):
        spec = make_spec(location=Ordered(incr=-1), io_count=16, target_size=16 * 32 * KB)
        lbas = [lba_at(spec, i) for i in range(16)]
        assert lbas[0] == spec.target_size - spec.io_size
        assert lbas[-1] == 0
        assert sorted(lbas) == [i * spec.io_size for i in range(16)]

    def test_ordered_overflow_error_names_index(self):
        spec = make_spec(location=Ordered(incr=64), io_count=16, target_size=16 * 32 * KB)
        with pytest.raises(ScheduleError) as exc:
            lba_at(spec, 15)
        assert exc.value.index == 15

    def test_sequential_wraps_modulo_target(self):
        spec = make_spec(target_size=4 * 32 * KB, io_count=10)
        assert lba_at(spec, 4) == lba_at(spec, 0)
        assert lba_at(spec, 7) == lba_at(spec, 3)

    @given(pattern_specs())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, spec):
        for i in range(spec.io_count):
            assert lba_at(spec, i) == oracle_lba(spec, i)

    @given(pattern_specs())
    @settings(max_examples=100, deadline=None)
    def test_containment_and_alignment(self, spec):
        for i in range(spec.io_count):
            lba = lba_at(spec, i)
            assert spec.target_offset <= lba
            assert lba + spec.io_size <= spec.target_offset + spec.target_size + spec.io_shift
            assert (lba - spec.target_offset - spec.io_shift) % spec.io_size == 0


class TestGenerateSchedule:
    def test_sequential_write_schedule(self):
        spec = make_spec(io_count=4, io_size=32768)
        sched = generate_schedule(spec)
        assert sched == [
            IORequest(gap_us=0, lba=lba, size=32768, mode=Mode.WRITE)
            for lba in (0, 32768, 65536, 98304)
        ]
        assert IORequest._fields == ("gap_us", "lba", "size", "mode")

    def test_pause_gap_precedes_every_io_but_the_first(self):
        sched = generate_schedule(make_spec(timing=Pause(pause_us=250), io_count=4))
        assert [r.gap_us for r in sched] == [0, 250, 250, 250]

    def test_partitioned_is_permutation_of_sequential(self):
        part = make_spec(
            location=Partitioned(partitions=3), io_size=512, target_size=6 * 512, io_count=6
        )
        seq = replace(part, location=Sequential())
        got = sorted(r.lba for r in generate_schedule(part))
        want = sorted(r.lba for r in generate_schedule(seq))
        assert got == want

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
        assert [r.gap_us for r in burst1] == [r.gap_us for r in pause]

        burst0 = generate_schedule(make_spec(timing=Burst(pause_us=0, burst_count=9), io_count=32))
        cons = generate_schedule(make_spec(io_count=32))
        assert [r.gap_us for r in burst0] == [r.gap_us for r in cons]

    def test_burst_submit_lower_bounds(self):
        sched = generate_schedule(
            make_spec(timing=Burst(pause_us=100, burst_count=4), io_count=12)
        )
        # one pause before each group of 4 but the first
        assert [r.gap_us for r in sched] == [
            0, 0, 0, 0, 100, 0, 0, 0, 100, 0, 0, 0,
        ]

    @given(pattern_specs())
    @settings(max_examples=50, deadline=None)
    def test_submit_times_non_decreasing(self, spec):
        # a gap is never negative, and the first IO waits for nothing
        sched = generate_schedule(spec)
        assert sched[0].gap_us == 0
        assert all(r.gap_us >= 0 for r in sched)


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
        modes = [r.mode for r in interleave_mix(mix)]
        assert modes == [Mode.READ] * 4 + [Mode.WRITE] + [Mode.READ] * 4 + [Mode.WRITE]

    def test_ratio_one_alternates(self):
        mix = self._mk_mix(1, first_count=3, second_count=3)
        modes = [r.mode for r in interleave_mix(mix)]
        assert modes == [Mode.READ, Mode.WRITE] * 3

    def test_truncates_when_first_exhausts(self):
        mix = self._mk_mix(4, first_count=6, second_count=100)
        seq = interleave_mix(mix)
        # 4 reads, 1 write, then only 2 reads remain: stop there.
        assert [r.mode for r in seq] == [Mode.READ] * 4 + [Mode.WRITE] + [Mode.READ] * 2

    def test_component_indices_advance_independently(self):
        mix = self._mk_mix(2, first_count=6, second_count=3)
        seq = interleave_mix(mix)
        reads = [r for r in seq if r.mode is Mode.READ]
        from flashmark.patterns import lba_at as _lba

        assert [r.lba for r in reads] == [_lba(mix.first, i) for i in range(len(reads))]

    def test_overlapping_targets_rejected(self):
        first = make_spec(location=Random(), mode=Mode.READ)
        second = make_spec(location=Random(), mode=Mode.WRITE, target_offset=KB * KB)
        with pytest.raises(PatternError):
            MixSpec(first=first, second=second, ratio=2)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_exactly_ratio_firsts_between_seconds(self, ratio):
        mix = self._mk_mix(ratio, first_count=ratio * 5, second_count=5)
        seq = interleave_mix(mix)
        runs = []
        count = 0
        for r in seq:
            if r.mode is Mode.WRITE:
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
