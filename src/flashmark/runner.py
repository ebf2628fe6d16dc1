"""Run execution: submit schedules to a device and record per-IO traces.

Timing semantics: an IO's successor is submitted as soon as the IO
completes, plus whatever gap the schedule encodes (pause and burst
schedules carry cumulative lower-bound offsets, so the gap between two
IOs is the difference of their earliest_submit times).  Parallel
patterns run one worker per sub-schedule; on the simulator the workers
are interleaved on its serialized virtual timeline (ties broken by
worker id), on a raw device they are real threads released together by
a barrier.  Response time is completion minus submission, which for
queued simulator workers includes time spent waiting for the device.
"""

from __future__ import annotations

import csv
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

from .device import BlockDevice, DeviceError
from .microbench import ExperimentSpec
from .patterns import (
    IORequest,
    MixSpec,
    Mode,
    ParallelSpec,
    PatternSpec,
    generate_schedule,
    interleave_mix,
    split_parallel,
)

TRACE_CSV_HEADER = ["index", "actual_submit_us", "response_time_us", "lba", "size", "mode", "worker"]


@dataclass(frozen=True)
class TraceRecord:
    index: int
    actual_submit_us: int
    response_time_us: int
    lba: int
    size: int
    mode: Mode
    worker: int = 0


@dataclass
class Trace:
    experiment_id: str
    run_index: int
    seed: int
    device_id: str
    wallclock_start: float
    records: list[TraceRecord] = field(default_factory=list)
    clock_warning: bool = False
    error: str | None = None

    @property
    def rts(self) -> list[int]:
        return [r.response_time_us for r in self.records]


@dataclass(frozen=True)
class RunStats:
    min_us: float
    max_us: float
    mean_us: float
    stddev_us: float
    count_ignored: int
    count_kept: int


class EmptySummaryError(ValueError):
    """io_ignore left no records to summarize."""


def summarize(trace: Trace, io_ignore: int) -> RunStats:
    """Population statistics over the records past the warm-up prefix.

    The prefix is taken in submission order, so mixed and parallel runs
    scale the ignored share across their components naturally.
    """
    if io_ignore >= len(trace.records):
        raise EmptySummaryError(
            f"io_ignore={io_ignore} leaves no records of {len(trace.records)}"
        )
    kept = [r.response_time_us for r in trace.records[io_ignore:]]
    n = len(kept)
    mean = sum(kept) / n
    var = sum((v - mean) ** 2 for v in kept) / n
    return RunStats(
        min_us=float(min(kept)),
        max_us=float(max(kept)),
        mean_us=mean,
        stddev_us=math.sqrt(var),
        count_ignored=io_ignore,
        count_kept=n,
    )


def _check_clock() -> bool:
    return time.get_clock_info("perf_counter").resolution > 1e-6


def _submit(device: BlockDevice, req: IORequest) -> int:
    if req.mode is Mode.READ:
        return device.read(req.lba, req.size)
    return device.write(req.lba, req.size)


def execute_run(
    device: BlockDevice,
    pattern: PatternSpec | MixSpec | ParallelSpec,
    experiment_id: str = "adhoc",
    run_index: int = 0,
) -> Trace:
    """Execute one run of a pattern and return its trace.

    On a device IO failure the trace is truncated at the failing request
    and its error field names the index; callers decide whether to
    propagate.
    """
    seed = pattern.base.seed if isinstance(pattern, ParallelSpec) else (
        pattern.first.seed if isinstance(pattern, MixSpec) else pattern.seed
    )
    trace = Trace(
        experiment_id=experiment_id,
        run_index=run_index,
        seed=seed,
        device_id=device.device_id,
        wallclock_start=time.time(),
        clock_warning=not getattr(device, "virtual_timeline", False) and _check_clock(),
    )
    if isinstance(pattern, ParallelSpec) and pattern.parallel_degree > 1:
        schedules = [generate_schedule(s) for s in split_parallel(pattern)]
        if getattr(device, "virtual_timeline", False):
            _run_parallel_virtual(device, schedules, trace)
        else:
            _run_parallel_threads(device, schedules, trace)
        return trace

    if isinstance(pattern, MixSpec):
        schedule = interleave_mix(pattern)
    elif isinstance(pattern, ParallelSpec):
        schedule = generate_schedule(split_parallel(pattern)[0])
    else:
        schedule = generate_schedule(pattern)
    _run_worker(device, schedule, worker=0, trace=trace)
    return trace


def _run_worker(device: BlockDevice, schedule: Sequence[IORequest], worker: int, trace: Trace, lock=None) -> None:
    run_start = device.now_us()
    prev_submit_floor = 0
    for req in schedule:
        gap = req.earliest_submit_us - prev_submit_floor
        prev_submit_floor = req.earliest_submit_us
        if gap > 0:
            device.idle(gap)
        submit = device.now_us()
        try:
            rt = _submit(device, req)
        except DeviceError as exc:
            trace.error = f"IO {req.index} failed: {exc}"
            return
        record = TraceRecord(
            index=req.index,
            actual_submit_us=submit - run_start,
            response_time_us=rt,
            lba=req.lba,
            size=req.size,
            mode=req.mode,
            worker=worker,
        )
        if lock:
            with lock:
                trace.records.append(record)
        else:
            trace.records.append(record)


def _run_parallel_virtual(device: BlockDevice, schedules: list, trace: Trace) -> None:
    """Interleave workers on the simulator's serialized timeline.

    Each worker is synchronous: its next IO becomes ready when its
    previous one completes.  The device serves one IO at a time in
    ready-time order (ties to the lowest worker id); response time
    includes any wait behind other workers.
    """
    run_start = device.now_us()
    n_workers = len(schedules)
    heads = [0] * n_workers
    ready = [run_start] * n_workers
    while True:
        live = [w for w in range(n_workers) if heads[w] < len(schedules[w])]
        if not live:
            return
        w = min(live, key=lambda i: (ready[i], i))
        req = schedules[w][heads[w]]
        submit = ready[w]
        now = device.now_us()
        if now < submit:
            device.idle(submit - now)
        try:
            _submit(device, req)
        except DeviceError as exc:
            trace.error = f"worker {w} IO {req.index} failed: {exc}"
            return
        completion = device.now_us()
        trace.records.append(
            TraceRecord(
                index=req.index,
                actual_submit_us=submit - run_start,
                response_time_us=completion - submit,
                lba=req.lba,
                size=req.size,
                mode=req.mode,
                worker=w,
            )
        )
        gap = 0
        if heads[w] + 1 < len(schedules[w]):
            gap = schedules[w][heads[w] + 1].earliest_submit_us - req.earliest_submit_us
        ready[w] = completion + gap
        heads[w] += 1


def _run_parallel_threads(device: BlockDevice, schedules: list, trace: Trace) -> None:
    barrier = threading.Barrier(len(schedules))
    lock = threading.Lock()

    def work(worker: int) -> None:
        barrier.wait()
        _run_worker(device, schedules[worker], worker=worker, trace=trace, lock=lock)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(len(schedules))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    trace.records.sort(key=lambda r: (r.actual_submit_us, r.worker))


# ----------------------------------------------------------------- files


def trace_relpath(exp: ExperimentSpec, run_index: int, device_id: str) -> Path:
    return (
        Path(device_id)
        / exp.micro.value
        / exp.baseline
        / f"{exp.varying_name}={exp.varying_value}"
        / f"run{run_index}.csv"
    )


def write_trace_csv(trace: Trace, fp: IO[str]) -> None:
    w = csv.writer(fp, lineterminator="\n")
    w.writerow(TRACE_CSV_HEADER)
    for r in trace.records:
        w.writerow(
            [r.index, r.actual_submit_us, r.response_time_us, r.lba, r.size, r.mode.value, r.worker]
        )


def read_trace_csv(fp: IO[str], experiment_id: str = "", run_index: int = 0) -> Trace:
    rd = csv.reader(fp)
    header = next(rd)
    if header != TRACE_CSV_HEADER:
        raise ValueError(f"unexpected trace header: {header}")
    trace = Trace(
        experiment_id=experiment_id,
        run_index=run_index,
        seed=0,
        device_id="",
        wallclock_start=0.0,
    )
    for row in rd:
        trace.records.append(
            TraceRecord(
                index=int(row[0]),
                actual_submit_us=int(row[1]),
                response_time_us=int(row[2]),
                lba=int(row[3]),
                size=int(row[4]),
                mode=Mode(row[5]),
                worker=int(row[6]),
            )
        )
    return trace


def save_trace(trace: Trace, root: Path, exp: ExperimentSpec) -> Path:
    path = root / trace_relpath(exp, trace.run_index, trace.device_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fp:
        write_trace_csv(trace, fp)
    return path

