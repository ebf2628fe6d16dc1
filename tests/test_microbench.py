import pytest

from flashmark.microbench import (
    BASELINES,
    CapacityError,
    ExpansionError,
    ExperimentSpec,
    Micro,
    MIX_PAIRS,
    SuiteConfig,
    assign_target_offsets,
    expand,
    expand_suite,
)
from flashmark.patterns import (
    Consecutive,
    MixSpec,
    Mode,
    ParallelSpec,
    Partitioned,
    PatternSpec,
    Random,
    Sequential,
)
from flashmark.serialization import from_data, to_data

KB = 1024
MB = 1024 * 1024
GB = 1024 * MB


@pytest.fixture
def cfg():
    return SuiteConfig()


def sw_experiment(target_size, tag=0):
    pat = PatternSpec(
        timing=Consecutive(),
        location=Sequential(),
        mode=Mode.WRITE,
        io_size=32 * KB,
        io_shift=0,
        target_offset=0,
        target_size=target_size,
        io_count=target_size // (32 * KB),
        seed=tag,
    )
    return ExperimentSpec(
        micro=Micro.GRANULARITY, baseline="SW", varying_name="io_size",
        varying_value=32 * KB + tag, pattern=pat,
    )


class TestGranularity:
    def test_power_of_two_sizes_and_extras(self, cfg):
        exps = expand(Micro.GRANULARITY, cfg)
        sizes = sorted({e.varying_value for e in exps})
        assert [s for s in sizes if (s & (s - 1)) == 0] == [512 * (1 << k) for k in range(10)]
        assert set(cfg.extra_io_sizes) <= set(sizes)
        assert len(exps) == (10 + len(cfg.extra_io_sizes)) * 4

    def test_each_size_on_all_four_baselines(self, cfg):
        exps = expand(Micro.GRANULARITY, cfg)
        for size in {e.varying_value for e in exps}:
            assert {e.baseline for e in exps if e.varying_value == size} == set(BASELINES)


class TestAlignment:
    def test_degenerate_512_byte_io(self):
        cfg = SuiteConfig(base_io_size=512)
        exps = expand(Micro.ALIGNMENT, cfg)
        assert {e.varying_value for e in exps} == {0}
        assert len(exps) == 4

    def test_shift_values_for_32k(self, cfg):
        exps = expand(Micro.ALIGNMENT, cfg)
        shifts = sorted({e.varying_value for e in exps})
        assert shifts == [0, 512, 1024, 2048, 4096, 8192, 16384]
        assert all(e.pattern.io_shift == e.varying_value for e in exps)


class TestLocality:
    def test_random_and_sequential_ranges(self, cfg):
        exps = expand(Micro.LOCALITY, cfg)
        rnd = {e.varying_value for e in exps if e.baseline == "RW"}
        seq = {e.varying_value for e in exps if e.baseline == "SW"}
        assert rnd == {cfg.base_io_size * (1 << k) for k in range(17)}
        assert seq == {cfg.base_io_size * (1 << k) for k in range(9)}
        assert len(exps) == 17 * 2 + 9 * 2

    def test_oversized_points_dropped(self):
        cfg = SuiteConfig(max_target_size=64 * MB)
        exps = expand(Micro.LOCALITY, cfg)
        assert all(e.varying_value <= 64 * MB for e in exps)
        assert max(e.varying_value for e in exps) == 64 * MB


class TestPartitioningAndOrder:
    def test_partition_range_and_sequential_only(self, cfg):
        exps = expand(Micro.PARTITIONING, cfg)
        assert sorted({e.varying_value for e in exps}) == [1 << k for k in range(9)]
        assert {e.baseline for e in exps} == {"SR", "SW"}
        for e in exps:
            assert isinstance(e.pattern.location, Partitioned)
            assert e.pattern.target_size % e.pattern.location.partitions == 0

    def test_order_increments(self):
        cfg = SuiteConfig(max_target_size=None)
        exps = expand(Micro.ORDER, cfg)
        incrs = sorted({e.varying_value for e in exps})
        assert incrs == [-1, 0] + [1 << k for k in range(9)]
        assert {e.baseline for e in exps} == {"SR", "SW"}

    def test_no_random_patterns_in_either(self, cfg):
        for micro in (Micro.PARTITIONING, Micro.ORDER):
            for e in expand(micro, cfg):
                assert not isinstance(e.pattern.location, Random)

    def test_order_oversized_increments_dropped(self):
        cfg = SuiteConfig(max_target_size=1 * GB)
        exps = expand(Micro.ORDER, cfg)
        for e in exps:
            assert e.pattern.target_size <= 1 * GB


class TestParallelismMixTiming:
    def test_parallel_degrees_on_all_baselines(self, cfg):
        exps = expand(Micro.PARALLELISM, cfg)
        assert sorted({e.varying_value for e in exps}) == [1, 2, 4, 8, 16]
        assert len(exps) == 5 * 4
        for e in exps:
            assert isinstance(e.pattern, ParallelSpec)
            assert e.pattern.base.target_size % e.pattern.parallel_degree == 0

    def test_mix_is_six_pairs_by_seven_ratios(self, cfg):
        exps = expand(Micro.MIX, cfg)
        assert len(exps) == 6 * 7
        assert {e.baseline for e in exps} == {f"{a}+{b}" for a, b in MIX_PAIRS}
        for e in exps:
            assert isinstance(e.pattern, MixSpec)
            assert e.pattern.ratio == e.varying_value

    def test_pause_sweep(self, cfg):
        exps = expand(Micro.PAUSE, cfg)
        assert sorted({e.varying_value for e in exps}) == [100 * (1 << k) for k in range(9)]
        assert len(exps) == 9 * 4

    def test_burst_sweep_with_fixed_pause(self, cfg):
        exps = expand(Micro.BURSTS, cfg)
        assert sorted({e.varying_value for e in exps}) == [10 * (1 << k) for k in range(7)]
        for e in exps:
            assert e.pattern.timing.pause_us == cfg.burst_fixed_pause_us

    def test_unknown_micro_rejected(self, cfg):
        with pytest.raises(ExpansionError):
            expand("warmup", cfg)


# fields legitimately tied to the swept parameter, per micro-benchmark
DERIVED_FIELDS = {
    Micro.GRANULARITY: {"io_size", "target_size"},
    Micro.ALIGNMENT: {"io_shift"},
    Micro.LOCALITY: {"target_size"},
    Micro.PARTITIONING: {"location"},
    Micro.ORDER: {"location", "target_size"},
    Micro.PARALLELISM: set(),
    Micro.PAUSE: {"timing"},
    Micro.BURSTS: {"timing"},
}


class TestSingleVaryingParameter:
    @pytest.mark.parametrize("micro", [m for m in Micro if m not in (Micro.MIX, Micro.PARALLELISM)])
    def test_only_declared_fields_vary(self, micro, cfg):
        exps = expand(micro, cfg)
        excluded = DERIVED_FIELDS[micro] | {"seed"}
        by_baseline = {}
        for e in exps:
            by_baseline.setdefault(e.baseline, []).append(e.pattern)
        for patterns in by_baseline.values():
            ref = {k: v for k, v in patterns[0].__dict__.items() if k not in excluded}
            for p in patterns[1:]:
                assert {k: v for k, v in p.__dict__.items() if k not in excluded} == ref

    def test_parallel_base_constant_per_baseline(self, cfg):
        exps = expand(Micro.PARALLELISM, cfg)
        by_baseline = {}
        for e in exps:
            by_baseline.setdefault(e.baseline, []).append(e.pattern)
        for pars in by_baseline.values():
            bases = {
                tuple(sorted((k, str(v)) for k, v in p.base.__dict__.items() if k != "seed"))
                for p in pars
            }
            assert len(bases) == 1


class TestAssignTargetOffsets:
    def test_two_sequential_writers_get_disjoint_offsets(self):
        exps = [sw_experiment(256 * MB, tag=0), sw_experiment(256 * MB, tag=1)]
        out, resets = assign_target_offsets(exps, device_capacity=32 * GB)
        assert [e.pattern.target_offset for e in out] == [0, 256 * MB]
        assert resets == set()

    def test_overflow_inserts_reset_marker(self):
        exps = [sw_experiment(600 * MB, tag=i) for i in range(3)]
        out, resets = assign_target_offsets(exps, device_capacity=1 * GB + 256 * MB)
        # third writer would overflow: reset and restart packing at base
        assert resets == {2}
        assert [e.pattern.target_offset for e in out] == [0, 600 * MB, 0]

    def test_no_sequential_writers_all_share_base(self, cfg):
        exps = expand(Micro.PAUSE, cfg)
        readers = [e for e in exps if not e.sequential_write_bearing]
        out, resets = assign_target_offsets(readers, device_capacity=32 * GB, base_offset=4096)
        assert resets == set()
        assert all(e.pattern.target_offset == 4096 for e in out)

    def test_single_experiment_larger_than_capacity_rejected(self):
        with pytest.raises(CapacityError):
            assign_target_offsets([sw_experiment(2 * GB)], device_capacity=1 * GB)

    def test_passive_mix_whose_ranges_fit_only_apart_rejected(self):
        # on 64 MB, SR+RR at ratio 8 reads 1688 sequential IOs (52.75 MB)
        # beside a 16 MB random roam: each range fits, the two do not
        suite = SuiteConfig.for_device(
            64 * MB, io_count_by_pattern={"SR": 1900, "RR": 64, "SW": 64, "RW": 64}
        )
        exps = [e for e in expand(Micro.MIX, suite) if e.experiment_id == "mix/SR+RR/ratio=8"]
        (mix,) = exps
        assert not mix.sequential_write_bearing
        assert [size for _, size in mix.target_ranges] == [1688 * 32 * KB, 16 * MB]
        with pytest.raises(
            CapacityError, match=r"^mix/SR\+RR/ratio=8: target of 72089600 bytes exceeds capacity$"
        ):
            assign_target_offsets(exps, device_capacity=64 * MB)

    def test_sequential_writers_grouped_last(self, cfg):
        exps = expand_suite(cfg, [Micro.GRANULARITY])
        out, _ = assign_target_offsets(exps, device_capacity=32 * GB)
        flags = [e.sequential_write_bearing for e in out]
        assert flags == sorted(flags)

    def test_mix_components_stay_disjoint_after_rebase(self, cfg):
        exps = expand(Micro.MIX, cfg)
        out, _ = assign_target_offsets(exps, device_capacity=32 * GB)
        assert len(out) == len(exps)  # MixSpec validation re-ran on rebase


class TestSuiteSerialization:
    def test_expansion_round_trips_through_plan_encoding(self, cfg):
        for exp in expand(Micro.MIX, cfg)[:3] + expand(Micro.PARALLELISM, cfg)[:3]:
            assert from_data(ExperimentSpec, to_data(exp)) == exp


class TestExperimentSpec:
    def test_experiment_id_shape(self, cfg):
        e = expand(Micro.GRANULARITY, cfg)[0]
        assert e.experiment_id == f"granularity/{e.baseline}/io_size={e.varying_value}"

    def test_io_ignore_override_clamps(self):
        e = sw_experiment(32 * MB)
        assert e.with_io_ignore(10_000_000).io_ignore == e.io_count - 1

    def test_mix_io_count_is_merged_length(self, cfg):
        # counted one turn at a time: the merged stream stops at the first
        # turn whose component has no IO left
        for e in expand(Micro.MIX, cfg):
            n1, n2, r = e.pattern.first.io_count, e.pattern.second.io_count, e.pattern.ratio
            k = 0
            while True:
                group, turn = divmod(k, r + 1)
                if group * r + turn >= n1 if turn < r else group >= n2:
                    break
                k += 1
            assert e.io_count == k, e.experiment_id

    def test_repetitions_default_three(self, cfg):
        assert all(e.repetitions == 3 for e in expand(Micro.PAUSE, cfg))
