"""Trace analysis: phase detection, period estimation, and summary metrics.

Flash devices answer a freshly enforced state with two phases: a start-up
phase of artificially cheap IOs (buffered or pre-erased writes) followed
by a running phase where response time oscillates between cheap and
expensive operations.  The detectors below recover the start-up length
and the oscillation period from per-IO response-time series; the
aggregators turn swept experiment results into a compact device
characterization (per-baseline costs, pause effect, locality area,
partition threshold, order ratios, alignment/mix/parallel factors).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .microbench import LOCALITY_RANDOM_MULTIPLES, PARTITION_COUNTS, ExperimentSpec
from .patterns import BASELINES
from .serialization import write_atomic


STARTUP_MIN_SERIES = 64  # shorter series report no start-up, inconclusively
STARTUP_CHEAP_RATIO = 0.5  # start-up IOs cost less than this share of the running level
STARTUP_PERIOD_GUARD = 1.5  # a cheap prefix up to this many periods long is phase
DISPERSION_THRESHOLD = 0.05  # default relative range of run means that flags an experiment


@dataclass(frozen=True)
class StartupEstimate:
    count: int
    conclusive: bool = True


@dataclass(frozen=True)
class PeriodEstimate:
    period: int
    confident: bool = True


def detect_startup(rts: Sequence[float]) -> StartupEstimate:
    """Length of the cheap start-up prefix of a response-time series.

    The running-phase level is taken from the second half of the series
    (callers provide series at least twice the longest expected
    start-up).  The start-up candidate is the initial maximal run of
    samples below STARTUP_CHEAP_RATIO times that level.  A cheap stretch no
    longer than about one oscillation of the remaining series is phase,
    not start-up, and reports 0, as do series whose prefix is not
    clearly cheaper (constant or purely oscillating traces).
    """
    x = np.asarray(rts, dtype=float)
    n = x.size
    if n < STARTUP_MIN_SERIES:
        return StartupEstimate(0, conclusive=False)
    running_level = float(x[n // 2 :].mean())
    threshold = STARTUP_CHEAP_RATIO * running_level
    exceed = np.flatnonzero(x > threshold)
    if exceed.size == 0 or exceed[0] == 0:
        return StartupEstimate(0)
    s = int(exceed[0])
    if not float(x[:s].mean()) < threshold:
        return StartupEstimate(0)
    per = estimate_period(x[s:])
    guard = per.period if per.confident else 1
    if s <= STARTUP_PERIOD_GUARD * guard:
        return StartupEstimate(0)
    return StartupEstimate(s)


def estimate_period(rts: Sequence[float]) -> PeriodEstimate:
    """Dominant oscillation period of a (start-up-free) series, in IOs.

    Uses the unnormalized autocorrelation of the mean-subtracted series
    and picks the local peak with the greatest mass; among equal peaks
    the largest lag wins, so superposed periods resolve to the slowest
    component.  Constant or aperiodic series report period 1 with the
    confidence flag cleared.
    """
    x = np.asarray(rts, dtype=float)
    n = x.size
    if n < 8 or float(x.std()) == 0.0:
        return PeriodEstimate(1, confident=False)
    d = x - x.mean()
    size = 1 << int(np.ceil(np.log2(2 * n)))
    spectrum = np.fft.rfft(d, size)
    r = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n]
    limit = min(n // 2, n - 2)
    if limit < 2:
        return PeriodEstimate(1, confident=False)
    interior = r[1 : limit + 1]
    peaks = np.flatnonzero(
        (interior >= np.concatenate(([r[0]], interior[:-1])))
        & (interior >= np.concatenate((interior[1:], [-np.inf])))
    )
    # a peak at lag 1 that just continues r[0] is the zero-lag skirt
    peaks = peaks[interior[peaks] > 0]
    if peaks.size == 0:
        return PeriodEstimate(1, confident=False)
    best_mass = interior[peaks].max()
    candidates = peaks[interior[peaks] >= best_mass * (1.0 - 1e-12)]
    lag = int(candidates.max()) + 1
    confident = bool(best_mass >= 0.1 * r[0])
    return PeriodEstimate(lag, confident=confident)


def running_average(rts: Sequence[float]) -> np.ndarray:
    x = np.asarray(rts, dtype=float)
    return np.cumsum(x) / np.arange(1, x.size + 1)


@dataclass(frozen=True)
class ExperimentOutcome:
    """Mean response time of one experiment, keyed by what was swept."""

    micro: str
    baseline: str
    varying_name: str
    varying_value: int
    mean_us: float
    dispersion_flagged: bool = False


def aggregate(
    exp: ExperimentSpec, run_means: Sequence[float], dispersion_threshold: float
) -> ExperimentOutcome:
    """Average an experiment's run means.

    The dispersion flag is set when the relative range of the run means,
    (max - min) / min, exceeds the threshold: such a result should not be
    trusted without more repetitions.
    """
    mean = sum(run_means) / len(run_means)
    lo = min(run_means)
    dispersion = (max(run_means) - lo) / lo if lo > 0 else 0.0
    return ExperimentOutcome(
        micro=exp.micro.value,
        baseline=exp.baseline,
        varying_name=exp.varying_name,
        varying_value=exp.varying_value,
        mean_us=mean,
        dispersion_flagged=dispersion > dispersion_threshold,
    )


def sweeps(outcomes: Iterable[ExperimentOutcome]) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """Every measured sweep, keyed (micro, baseline): its (swept value,
    mean response time) points in value order."""
    out: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for o in outcomes:
        out.setdefault((o.micro, o.baseline), []).append((o.varying_value, o.mean_us))
    return {key: sorted(pts) for key, pts in out.items()}


def largest_within(
    sweep: Iterable[tuple[int, float]], sw_mean_us: float, factor: float
) -> tuple[int, float] | None:
    """The largest swept point whose mean stays within factor times the
    sequential-write cost, as (value, its cost relative to sequential
    writes); None when no point does.

    The one qualification rule behind both the locality area (the largest
    random-write target still behaving like sequential writes) and the
    partition threshold (the most partitions writable without significant
    degradation).
    """
    within = [(value, mean / sw_mean_us) for value, mean in sweep if mean <= factor * sw_mean_us]
    return max(within) if within else None


def order_ratios(
    order_sw: Sequence[tuple[int, float]],
    sw_mean_us: float,
    rw_mean_us: float,
    io_size: int,
    large_stride_bytes: int,
) -> dict:
    """Reverse / in-place / large-increment cost ratios.

    Reverse (incr=-1) and in-place (incr=0) are relative to sequential
    writes; strides of at least large_stride_bytes are relative to the
    random-write baseline.
    """
    by_incr = dict(order_sw)
    out = {"reverse": None, "in_place": None, "large_incr": None}
    if -1 in by_incr:
        out["reverse"] = by_incr[-1] / sw_mean_us
    if 0 in by_incr:
        out["in_place"] = by_incr[0] / sw_mean_us
    large = [m for incr, m in by_incr.items() if incr >= 1 and incr * io_size >= large_stride_bytes]
    if large and rw_mean_us:
        out["large_incr"] = float(np.mean(large)) / rw_mean_us
    return out


@dataclass
class SummaryThresholds:
    locality_factor: float = 2.0
    partition_factor: float = 2.0
    pause_factor: float = 1.2
    large_stride_bytes: int = 1024 * 1024


@dataclass
class SummaryReport:
    """Table-style device characterization derived from a full suite."""

    device: str
    io_size: int
    baseline_cost_us: dict = field(default_factory=dict)  # SR/RR/SW/RW -> mean us
    pause_effect_us: int | None = None
    locality_area: tuple[int, float] | None = None
    partition_threshold: tuple[int, float] | None = None
    order: dict = field(default_factory=lambda: {"reverse": None, "in_place": None, "large_incr": None})
    alignment_penalty: float | None = None
    mix_deviation: dict = field(default_factory=dict)  # "SR+RW" -> worst factor vs blend
    parallel_degradation: dict = field(default_factory=dict)  # baseline -> {degree: factor}
    dispersion_flags: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # partial sweeps, capacity clamps
    thresholds: SummaryThresholds = field(default_factory=SummaryThresholds)

    def to_text(self) -> str:
        ms = {
            b: (f"{v / 1000:.2f}" if v is not None else "-")
            for b, v in ((b, self.baseline_cost_us.get(b)) for b in BASELINES)
        }
        loc = "No" if self.locality_area is None else (
            f"{self.locality_area[0] // (1024 * 1024)}MB (x{self.locality_area[1]:.1f})"
        )
        parts = "No" if self.partition_threshold is None else (
            f"{self.partition_threshold[0]} (x{self.partition_threshold[1]:.1f})"
        )
        pause = "-" if self.pause_effect_us is None else f"{self.pause_effect_us / 1000:.1f}"

        def ratio(key):
            v = self.order.get(key)
            return "-" if v is None else f"x{v:.1f}"

        header = (
            f"{'Device':<14} {'SR(ms)':>7} {'RR(ms)':>7} {'SW(ms)':>7} {'RW(ms)':>8} "
            f"{'Pause(ms)':>9} {'Locality':>12} {'Partitions':>12} "
            f"{'Reverse':>8} {'InPlace':>8} {'LargeIncr':>9}"
        )
        row = (
            f"{self.device:<14} {ms['SR']:>7} {ms['RR']:>7} {ms['SW']:>7} {ms['RW']:>8} "
            f"{pause:>9} {loc:>12} {parts:>12} "
            f"{ratio('reverse'):>8} {ratio('in_place'):>8} {ratio('large_incr'):>9}"
        )
        return header + "\n" + row


def build_summary(
    outcomes: Sequence[ExperimentOutcome],
    device: str,
    io_size: int,
    thresholds: SummaryThresholds,
) -> SummaryReport:
    """Assemble the characterization report from measured experiment means.

    Metrics whose micro-benchmark is missing stay None; nothing is ever
    extrapolated.
    """
    report = SummaryReport(device=device, io_size=io_size, thresholds=thresholds)
    by_key = sweeps(outcomes)

    def sweep(micro: str, baseline: str) -> list[tuple[int, float]]:
        return by_key.get((micro, baseline), [])

    for b in BASELINES:
        pts = dict(sweep("granularity", b))
        if io_size in pts:
            report.baseline_cost_us[b] = pts[io_size]
    sw = report.baseline_cost_us.get("SW")
    rw = report.baseline_cost_us.get("RW")

    pause_rw = sweep("pause", "RW")
    if pause_rw and sw:
        hits = [p for p, mean in pause_rw if mean <= thresholds.pause_factor * sw]
        report.pause_effect_us = min(hits) if hits else None

    loc = sweep("locality", "RW")
    if loc and sw:
        # a one-IO target degenerates to in-place writes
        report.locality_area = largest_within(
            [(size, mean) for size, mean in loc if size > io_size], sw, thresholds.locality_factor
        )
        declared = len(LOCALITY_RANDOM_MULTIPLES)
        if len(loc) < declared:
            report.notes.append(
                f"locality/RW sweep partial: {len(loc)} of {declared} points "
                f"(largest {max(s for s, _ in loc)} bytes)"
            )

    parts = sweep("partitioning", "SW")
    if parts and sw:
        report.partition_threshold = largest_within(parts, sw, thresholds.partition_factor)
        declared = len(PARTITION_COUNTS)
        if len(parts) < declared:
            report.notes.append(f"partitioning/SW sweep partial: {len(parts)} of {declared} points")

    order = sweep("order", "SW")
    if order and sw and rw:
        report.order = order_ratios(order, sw, rw, io_size, thresholds.large_stride_bytes)

    penalties = []
    for b in BASELINES:
        align = dict(sweep("alignment", b))
        if 0 in align and len(align) > 1:
            aligned = align[0]
            penalties.extend(m / aligned for shift, m in align.items() if shift)
    if penalties:
        report.alignment_penalty = max(penalties)

    for pair in sorted(baseline for micro, baseline in by_key if micro == "mix"):
        b1, _, b2 = pair.partition("+")
        m1 = report.baseline_cost_us.get(b1)
        m2 = report.baseline_cost_us.get(b2)
        if m1 is None or m2 is None:
            continue
        worst = None
        for ratio, mean in sweep("mix", pair):
            blend = (ratio * m1 + m2) / (ratio + 1)
            factor = mean / blend
            if worst is None or abs(np.log(factor)) > abs(np.log(worst)):
                worst = factor
        if worst is not None:
            report.mix_deviation[pair] = worst

    for b in BASELINES:
        par = dict(sweep("parallelism", b))
        if 1 in par and len(par) > 1:
            report.parallel_degradation[b] = {
                deg: mean / par[1] for deg, mean in par.items() if deg != 1
            }

    report.dispersion_flags = sorted(
        f"{o.micro}/{o.baseline}/{o.varying_name}={o.varying_value}"
        for o in outcomes
        if o.dispersion_flagged
    )
    return report


# ------------------------------------------------------------- plot data


def _write_table(
    path: Path, x_axis: str, y_axis: str, header: list[str], rows: list[str], **meta
) -> None:
    """Write tab-separated rows under an `# axis:` line and a header, plus
    a `.meta.json` sidecar naming the axes followed by meta."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# axis: x={x_axis} y={y_axis}", "\t".join(header), *rows]
    write_atomic(path, "\n".join(lines) + "\n")
    meta = {"x_axis": x_axis, "y_axis": y_axis, **meta}
    write_atomic(path.with_suffix(path.suffix + ".meta.json"), json.dumps(meta, indent=2))


def emit_phase_trace(path: str | Path, rts: Sequence[float], io_ignore: int) -> None:
    """Per-IO scatter plus the two running averages (with and without the
    start-up prefix), the trace view used to pick warm-up lengths."""
    x = np.asarray(rts, dtype=float)
    with_startup = running_average(x)
    without = np.full(x.size, np.nan)
    if io_ignore < x.size:
        without[io_ignore:] = running_average(x[io_ignore:])
    rows = []
    for i in range(x.size):
        tail = "" if np.isnan(without[i]) else f"{without[i]:.3f}"
        rows.append(f"{i}\t{x[i]:.3f}\t{with_startup[i]:.3f}\t{tail}")
    columns = ["index", "rt", "avg_all", "avg_after_ignore"]
    _write_table(
        Path(path), "io_index", "response_time_us", columns, rows,
        io_ignore=io_ignore, columns=columns,
    )


# the x axis of each micro-benchmark's plot table
PLOT_X_AXIS = {
    "granularity": "io_size_bytes",
    "alignment": "io_shift_bytes",
    "locality": "target_size_bytes",
    "partitioning": "partitions",
    "order": "incr",
    "parallelism": "parallel_degree",
    "mix": "ratio",
    "pause": "pause_us",
    "bursts": "burst_count",
}


def emit_plot_data(outcomes: Sequence[ExperimentOutcome], out_dir: str | Path) -> None:
    """Write one plot table, `<micro>.tsv`, per measured micro-benchmark:
    a (series, x, y) row per sweep point, series being the baseline."""
    by_key = sweeps(outcomes)
    for micro in sorted({m for m, _ in by_key}):
        labels = sorted(b for m, b in by_key if m == micro)
        rows = [f"{b}\t{x}\t{y}" for b in labels for x, y in by_key[micro, b]]
        _write_table(
            Path(out_dir) / f"{micro}.tsv", PLOT_X_AXIS[micro], "mean_rt_us",
            ["series", "x", "y"], rows, series=labels,
        )
