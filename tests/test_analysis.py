import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashmark.analysis import (
    ExperimentOutcome,
    SummaryThresholds,
    build_summary,
    detect_startup,
    emit_phase_trace,
    emit_plot_data,
    estimate_period,
    largest_within,
    order_ratios,
    running_average,
)
from flashmark.microbench import Micro, SuiteConfig, expand_suite
from flashmark.serialization import dumps

KB = 1024
MB = 1024 * 1024


def alternating_tail_series(startup, cheap=400.0, expensive=27_000.0, n=512):
    """startup cheap IOs, then alternating cheap/expensive."""
    out = [cheap] * startup
    for i in range(n - startup):
        out.append(expensive if i % 2 else cheap)
    return out


class TestDetectStartup:
    def test_alternating_running_phase_recovers_125(self):
        est = detect_startup(alternating_tail_series(125))
        assert est.conclusive
        assert abs(est.count - 125) <= 12.5

    def test_constant_series_has_no_startup(self):
        assert detect_startup([500.0] * 400).count == 0

    def test_oscillating_series_without_prefix_reports_zero(self):
        est = detect_startup(alternating_tail_series(0))
        assert est.count == 0

    def test_too_short_series_is_inconclusive(self):
        est = detect_startup([100.0, 200.0] * 8)
        assert not est.conclusive

    def test_spiky_series_with_huge_variance_reports_zero(self):
        # mild cheap/expensive imbalance never crosses the significance bar
        x = [2400.0] * 10 + ([2400.0] * 127 + [530_000.0]) * 8
        assert detect_startup(x).count == 0

    @given(st.integers(min_value=50, max_value=800))
    @settings(max_examples=25, deadline=None)
    def test_shift_equivariance(self, k):
        base = [1000.0 + (50.0 if i % 2 else -50.0) for i in range(4000)]
        assert detect_startup(base).count == 0
        shifted = [100.0] * k + base
        est = detect_startup(shifted)
        assert abs(est.count - k) <= max(2, 0.1 * k)

    def test_startup_at_one_thousand(self):
        series = [400.0] * 1000 + ([400.0] * 7 + [36_000.0]) * 400
        est = detect_startup(series)
        assert abs(est.count - 1000) <= 100


class TestEstimatePeriod:
    def test_square_wave_128(self):
        x = [100.0 if (i % 128) < 64 else 900.0 for i in range(4096)]
        est = estimate_period(x)
        assert est.period == 128
        assert est.confident

    def test_constant_series(self):
        est = estimate_period([42.0] * 1024)
        assert est.period == 1
        assert not est.confident

    def test_superposed_periods_pick_dominant_large_lag(self):
        x = [
            (1.0 if (i % 8) < 4 else -1.0) + (1.0 if (i % 64) < 32 else -1.0)
            for i in range(8192)
        ]
        assert estimate_period(x).period == 64

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 16, 60, 128, 300, 512])
    def test_exact_on_noiseless_square_waves(self, p):
        n = max(4096, 16 * p)
        x = [10.0 if (i % p) < max(1, p // 2) else 1000.0 for i in range(n)]
        assert estimate_period(x).period == p

    def test_tolerates_five_percent_noise(self):
        rng = np.random.RandomState(7)
        base = np.array([100.0 if (i % 128) < 64 else 900.0 for i in range(8192)])
        noisy = base * (1.0 + 0.05 * rng.standard_normal(base.size))
        est = estimate_period(noisy)
        assert abs(est.period - 128) <= 12.8

    def test_spike_train(self):
        x = [2400.0] * 4096
        for i in range(100, 4096, 128):
            x[i] = 66_000.0
        assert estimate_period(x).period == 128


def outcome(micro, baseline, name, value, mean, flagged=False):
    return ExperimentOutcome(micro, baseline, name, value, mean, flagged)


def summary(outcomes, device="d"):
    """build_summary at a 32 KB IO size with the default thresholds."""
    return build_summary(outcomes, device, 32 * KB, SummaryThresholds())


class TestLocalityArea:
    """largest_within on a locality/RW sweep, as build_summary passes it:
    the points larger than one IO."""

    SWEEP = [
        (32 * KB, 600.0),      # degenerate: equals io_size, excluded
        (1 * MB, 700.0),
        (8 * MB, 790.0),
        (64 * MB, 5_000.0),
        (256 * MB, 9_000.0),
    ]
    AREAS = [(size, mean) for size, mean in SWEEP if size > 32 * KB]

    def test_midrange_area_with_factor(self):
        got = largest_within(self.AREAS, sw_mean_us=400.0, factor=2.0)
        assert got is not None
        area, factor = got
        assert area == 8 * MB
        assert factor == pytest.approx(790.0 / 400.0)

    def test_no_qualifying_area(self):
        sweep = [(1 * MB, 9_000.0), (8 * MB, 12_000.0)]
        assert largest_within(sweep, sw_mean_us=400.0, factor=2.0) is None

    def test_degenerate_point_alone_does_not_qualify(self):
        out = [
            outcome("granularity", "SW", "io_size", 32 * KB, 400.0),
            outcome("locality", "RW", "target_size", 32 * KB, 500.0),
            outcome("locality", "RW", "target_size", 1 * MB, 30_000.0),
        ]
        assert summary(out).locality_area is None

    @given(st.floats(min_value=1.1, max_value=10.0), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_threshold(self, t1, dt):
        a1 = largest_within(self.AREAS, 400.0, t1)
        a2 = largest_within(self.AREAS, 400.0, t1 + dt)
        if a1 is not None:
            assert a2 is not None and a2[0] >= a1[0]


class TestPartitionThreshold:
    """largest_within on a partitioning/SW sweep."""

    SWEEP = [(1, 400.0), (2, 400.0), (4, 430.0), (8, 460.0), (16, 4_000.0), (256, 9_000.0)]

    def test_generous_device_threshold(self):
        parts, factor = largest_within(self.SWEEP, sw_mean_us=400.0, factor=2.0)
        assert parts == 8
        assert factor == pytest.approx(460.0 / 400.0)

    def test_strict_device_threshold(self):
        sweep = [(1, 2900.0), (2, 3300.0), (4, 14_000.0), (8, 60_000.0)]
        parts, factor = largest_within(sweep, sw_mean_us=2900.0, factor=5.0)
        assert parts == 4
        assert factor == pytest.approx(14_000.0 / 2900.0)

    def test_single_partition_always_qualifies(self):
        got = largest_within([(1, 700.0)], sw_mean_us=700.0, factor=1.01)
        assert got == (1, 1.0)

    @given(st.floats(min_value=1.05, max_value=4.0), st.floats(min_value=0.0, max_value=8.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_threshold(self, t1, dt):
        p1 = largest_within(self.SWEEP, 400.0, t1)
        p2 = largest_within(self.SWEEP, 400.0, t1 + dt)
        if p1 is not None:
            assert p2 is not None and p2[0] >= p1[0]


class TestOrderRatios:
    def test_in_place_writes_can_save_time(self):
        sweep = [(-1, 900.0), (0, 360.0), (1, 600.0), (32, 36_000.0), (64, 36_000.0)]
        got = order_ratios(sweep, 600.0, 18_000.0, 32 * KB, MB)
        assert got["in_place"] == pytest.approx(0.6)
        assert got["reverse"] == pytest.approx(1.5)
        assert got["large_incr"] == pytest.approx(2.0)

    def test_in_place_writes_can_be_penalized(self):
        sweep = [(0, 116_000.0)]
        got = order_ratios(sweep, 2900.0, 256_000.0, 32 * KB, MB)
        assert got["in_place"] == pytest.approx(40.0)
        assert got["reverse"] is None

    def test_incr_one_identity_against_same_trace(self):
        sweep = [(1, 740.0)]
        sw_mean = 740.0  # same trace supplied both numbers
        assert dict(sweep)[1] / sw_mean == 1.0

    def test_large_incr_uses_stride_cutoff(self):
        # io 32 KB: incr 32 is the first 1 MB stride
        sweep = [(16, 5_000.0), (32, 8_000.0), (64, 12_000.0)]
        got = order_ratios(sweep, 400.0, 10_000.0, 32 * KB, MB)
        assert got["large_incr"] == pytest.approx(np.mean([8_000.0, 12_000.0]) / 10_000.0)


class TestBuildSummary:
    def _full_outcomes(self):
        out = []
        cost = {"SR": 400.0, "RR": 500.0, "SW": 400.0, "RW": 9_000.0}
        for b, mean in cost.items():
            out.append(outcome("granularity", b, "io_size", 32 * KB, mean))
            out.append(outcome("granularity", b, "io_size", 64 * KB, 2 * mean))
        for pause, mean in [(100, 9_000.0), (3200, 6_000.0), (6400, 420.0), (12800, 410.0)]:
            out.append(outcome("pause", "RW", "pause_us", pause, mean))
        out.append(outcome("locality", "RW", "target_size", 32 * KB, 500.0))
        out.append(outcome("locality", "RW", "target_size", 8 * MB, 640.0))
        out.append(outcome("locality", "RW", "target_size", 64 * MB, 7_000.0))
        out.append(outcome("partitioning", "SW", "partitions", 1, 400.0))
        out.append(outcome("partitioning", "SW", "partitions", 8, 560.0))
        out.append(outcome("partitioning", "SW", "partitions", 64, 9_000.0))
        out.append(outcome("order", "SW", "incr", -1, 400.0))
        out.append(outcome("order", "SW", "incr", 0, 404.0))
        out.append(outcome("order", "SW", "incr", 64, 18_000.0))
        out.append(outcome("alignment", "RW", "io_shift", 0, 18_000.0))
        out.append(outcome("alignment", "RW", "io_shift", 16 * KB, 32_000.0))
        out.append(outcome("mix", "SR+RW", "ratio", 4, (4 * 400.0 + 9_000.0) / 5 * 1.1))
        out.append(outcome("parallelism", "SW", "parallel_degree", 1, 400.0))
        out.append(outcome("parallelism", "SW", "parallel_degree", 4, 1_600.0, flagged=True))
        return out

    def test_assembles_all_fields(self):
        rep = summary(self._full_outcomes(), device="demo")
        assert rep.baseline_cost_us == {
            "SR": 400.0, "RR": 500.0, "SW": 400.0, "RW": 9_000.0,
        }
        assert rep.pause_effect_us == 6400
        assert rep.locality_area == (8 * MB, pytest.approx(1.6))
        assert rep.partition_threshold == (8, pytest.approx(1.4))
        assert rep.order["reverse"] == pytest.approx(1.0)
        assert rep.order["in_place"] == pytest.approx(1.01)
        assert rep.order["large_incr"] == pytest.approx(2.0)
        assert rep.alignment_penalty == pytest.approx(32_000.0 / 18_000.0)
        assert rep.mix_deviation["SR+RW"] == pytest.approx(1.1)
        assert rep.parallel_degradation["SW"] == {4: pytest.approx(4.0)}
        assert rep.dispersion_flags == ["parallelism/SW/parallel_degree=4"]

    def test_pause_never_effective_reports_none(self):
        out = [
            outcome("granularity", "SW", "io_size", 32 * KB, 400.0),
            outcome("granularity", "RW", "io_size", 32 * KB, 9_000.0),
            outcome("pause", "RW", "pause_us", 100, 9_000.0),
            outcome("pause", "RW", "pause_us", 25_600, 8_800.0),
        ]
        assert summary(out).pause_effect_us is None

    def _declared_sweeps(self):
        """One outcome per declared point of the locality and partitioning
        sweeps, with the SW cost that the summary judges them against."""
        experiments = expand_suite(SuiteConfig(), [Micro.LOCALITY, Micro.PARTITIONING])
        return [outcome("granularity", "SW", "io_size", 32 * KB, 400.0)] + [
            outcome(e.micro.value, e.baseline, e.varying_name, e.varying_value, 500.0)
            for e in experiments
        ]

    def test_every_declared_sweep_point_gives_no_note(self):
        assert summary(self._declared_sweeps()).notes == []

    def test_one_missing_sweep_point_gives_a_partial_note(self):
        out = [
            o for o in self._declared_sweeps()
            if (o.micro, o.baseline, o.varying_value) not in
            {("locality", "RW", 32 * KB), ("partitioning", "SW", 4)}
        ]
        assert summary(out).notes == [
            "locality/RW sweep partial: 16 of 17 points (largest 2147483648 bytes)",
            "partitioning/SW sweep partial: 8 of 9 points",
        ]

    def test_empty_outcomes_give_null_report(self):
        rep = summary([], device="empty")
        assert rep.baseline_cost_us == {}
        assert rep.pause_effect_us is None
        assert rep.locality_area is None
        assert rep.partition_threshold is None
        assert rep.order == {"reverse": None, "in_place": None, "large_incr": None}
        assert rep.alignment_penalty is None
        data = json.loads(dumps(rep))
        assert data["device"] == "empty"

    def test_text_table_renders_missing_as_dashes(self):
        text = summary([], device="empty").to_text()
        assert "empty" in text.splitlines()[1]
        assert "No" in text  # locality column


class TestPlotData:
    def test_xy_series_format(self, tmp_path):
        emit_plot_data([outcome("granularity", "SW", "io_size", 512, 3300.0)], tmp_path)
        lines = (tmp_path / "granularity.tsv").read_text().splitlines()
        assert lines[0] == "# axis: x=io_size_bytes y=mean_rt_us"
        assert lines[1] == "series\tx\ty"
        assert lines[2] == "SW\t512\t3300.0"
        meta = json.loads((tmp_path / "granularity.tsv.meta.json").read_text())
        assert meta == {"x_axis": "io_size_bytes", "y_axis": "mean_rt_us", "series": ["SW"]}

    def test_phase_trace_includes_both_running_averages(self, tmp_path):
        path = tmp_path / "trace.tsv"
        emit_phase_trace(path, [100.0, 100.0, 900.0, 900.0], io_ignore=2)
        lines = path.read_text().splitlines()
        assert lines[1].split("\t") == ["index", "rt", "avg_all", "avg_after_ignore"]
        last = lines[-1].split("\t")
        assert float(last[2]) == pytest.approx(500.0)   # includes startup
        assert float(last[3]) == pytest.approx(900.0)   # startup excluded

    def test_emit_plot_data_selects_micro(self, tmp_path):
        oc = [
            outcome("granularity", "SR", "io_size", 512, 150.0),
            outcome("pause", "RW", "pause_us", 100, 9_000.0),
        ]
        emit_plot_data(oc, tmp_path)
        body = (tmp_path / "granularity.tsv").read_text()
        assert "SR\t512\t150.0" in body
        assert "pause" not in body
        assert "RW\t100\t9000.0" in (tmp_path / "pause.tsv").read_text()

    def test_no_outcomes_write_no_table(self, tmp_path):
        emit_plot_data([], tmp_path / "plots")
        assert not (tmp_path / "plots").exists()

    def test_running_average(self):
        assert running_average([1.0, 3.0, 5.0]).tolist() == [1.0, 2.0, 3.0]
