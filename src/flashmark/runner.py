"""Run execution: submit schedules to a device and record per-IO traces.

Timing semantics: an IO's successor is submitted as soon as the IO
completes, plus whatever gap the schedule encodes (pause and burst
schedules carry cumulative lower-bound offsets, so the gap between two
IOs is the difference of their earliest_submit times).  Every pattern
runs as one or more workers, one per schedule: a plain or mixed pattern
is one worker, a parallel pattern one per degree.  On the simulator the
workers are interleaved on its serialized virtual timeline (ties broken
by worker id), on a raw device they are real threads released together
by a barrier.  Response time is completion minus submission, which for
queued simulator workers includes time spent waiting for the device.

A trace is its rows: one TraceRecord per IO, whose fields are the trace
CSV's columns in order.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, NamedTuple, Sequence

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


class TraceRecord(NamedTuple):
    index: int
    actual_submit_us: int
    response_time_us: int
    lba: int
    size: int
    mode: str  # a Mode value: "read" or "write"
    worker: int


TRACE_CSV_HEADER = ",".join(TraceRecord._fields)
_ROW = "%d,%d,%d,%d,%d,%s,%d\n"


@dataclass
class Trace:
    records: list[TraceRecord] = field(default_factory=list)
    error: str | None = None

    @property
    def rts(self) -> list[int]:
        return [r.response_time_us for r in self.records]


class EmptySummaryError(ValueError):
    """io_ignore left no records to summarize."""


def summarize(trace: Trace, io_ignore: int) -> float:
    """Mean response time of the records past the warm-up prefix.

    The prefix is taken in submission order, so mixed and parallel runs
    scale the ignored share across their components naturally.
    """
    if io_ignore >= len(trace.records):
        raise EmptySummaryError(
            f"io_ignore={io_ignore} leaves no records of {len(trace.records)}"
        )
    kept = trace.records[io_ignore:]
    return sum(r.response_time_us for r in kept) / len(kept)


def execute_run(device: BlockDevice, pattern: PatternSpec | MixSpec | ParallelSpec) -> Trace:
    """Execute one run of a pattern and return its trace.

    On a device IO failure the failing worker stops at the failing
    request and the trace's error field names it; callers decide whether
    to propagate.
    """
    if isinstance(pattern, ParallelSpec):
        schedules = [generate_schedule(s) for s in split_parallel(pattern)]
    elif isinstance(pattern, MixSpec):
        schedules = [interleave_mix(pattern)]
    else:
        schedules = [generate_schedule(pattern)]
    trace = Trace()
    if getattr(device, "virtual_timeline", False):
        _run_virtual(device, schedules, trace)
    else:
        _run_threads(device, schedules, trace)
    return trace


def _failure(worker: int, req: IORequest, exc: DeviceError) -> str:
    return f"worker {worker} IO {req.index} failed: {exc}"


def _run_virtual(device: BlockDevice, schedules: list[list[IORequest]], trace: Trace) -> None:
    """Interleave workers on the simulator's serialized timeline.

    Each worker is synchronous: its next IO becomes ready when its
    previous one completes, plus the schedule's gap.  The device serves
    one IO at a time in ready-time order (ties to the lowest worker id);
    response time includes any wait behind other workers.
    """
    now_us, idle, read, write = device.now_us, device.idle, device.read, device.write
    append = trace.records.append
    run_start = now_us()
    # (ready time, worker, position in its schedule); the heap's head is
    # the worker the device serves next
    ready = [(run_start, w, 0) for w, s in enumerate(schedules) if s]
    while ready:
        submit, w, i = ready[0]
        schedule = schedules[w]
        req = schedule[i]
        now = now_us()
        if now < submit:
            idle(submit - now)
        try:
            (read if req.mode is Mode.READ else write)(req.lba, req.size)
        except DeviceError as exc:
            trace.error = _failure(w, req, exc)
            return
        completion = now_us()
        append(TraceRecord(
            req.index, submit - run_start, completion - submit, req.lba, req.size,
            req.mode.value, w,
        ))
        i += 1
        if i < len(schedule):
            gap = schedule[i].earliest_submit_us - req.earliest_submit_us
            heapq.heapreplace(ready, (completion + gap, w, i))
        else:
            heapq.heappop(ready)


def _run_threads(device: BlockDevice, schedules: list[list[IORequest]], trace: Trace) -> None:
    """One thread per worker, released together by a barrier."""
    barrier = threading.Barrier(len(schedules))
    rows: list[list[TraceRecord]] = [[] for _ in schedules]

    def work(w: int, schedule: Sequence[IORequest]) -> None:
        barrier.wait()
        run_start = device.now_us()
        prev_submit_floor = 0
        for req in schedule:
            gap = req.earliest_submit_us - prev_submit_floor
            prev_submit_floor = req.earliest_submit_us
            if gap > 0:
                device.idle(gap)
            submit = device.now_us()
            try:
                if req.mode is Mode.READ:
                    rt = device.read(req.lba, req.size)
                else:
                    rt = device.write(req.lba, req.size)
            except DeviceError as exc:
                trace.error = _failure(w, req, exc)
                return
            rows[w].append(TraceRecord(
                req.index, submit - run_start, rt, req.lba, req.size, req.mode.value, w
            ))

    # the calling thread is worker 0: a one-worker run starts no thread and
    # keeps the device's per-thread IO buffers from run to run
    threads = [threading.Thread(target=work, args=ws) for ws in enumerate(schedules) if ws[0]]
    for t in threads:
        t.start()
    try:
        work(0, schedules[0])
    finally:
        for t in threads:
            t.join()
    trace.records = sorted(
        (r for worker_rows in rows for r in worker_rows),
        key=lambda r: (r.actual_submit_us, r.worker),
    )


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
    fp.write(TRACE_CSV_HEADER + "\n" + "".join([_ROW % r for r in trace.records]))


def read_trace_csv(fp: IO[str]) -> Trace:
    lines = fp.read().splitlines()
    if not lines or lines[0] != TRACE_CSV_HEADER:
        raise ValueError(f"unexpected trace header: {lines[:1]}")
    return Trace([
        TraceRecord(int(i), int(submit), int(rt), int(lba), int(size), mode, int(w))
        for i, submit, rt, lba, size, mode, w in (line.split(",") for line in lines[1:])
    ])


def save_trace(trace: Trace, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fp:
        write_trace_csv(trace, fp)
