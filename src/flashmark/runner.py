"""Run execution: submit schedules to a device and record per-IO traces.

Timing semantics: an IO is submitted as soon as its predecessor
completes, plus the gap its schedule carries (0 for consecutive
timing); its trace index is its position in its worker's schedule, and
its submit time is counted from the device clock when the run starts.
Every pattern runs as one or more workers, one per schedule: a plain or
mixed pattern is one worker, a parallel pattern one per degree.

A worker hands its whole schedule, as columns, to one call (issuer):
the simulator's own `issue`, which serves it in one loop on the virtual
clock, so an IO's response time is its cost and no harness time falls
between IOs; or, on a device without that call (a raw device), the
per-IO loop _run_worker, which reads the device clock before each IO and
records the time the IO call took.  The trace rows are then built from
the returned columns in one pass.  Several workers on the simulator are
interleaved IO by IO on its serialized virtual timeline (ties broken by
worker id), each IO a one-row call of that same call; on a raw device
they are real threads released together by a barrier.  Response time is completion
minus submission, which for queued simulator workers includes time spent
waiting for the device.

A trace is its rows: one TraceRecord per IO, whose fields are the trace
CSV's columns in order.
"""

from __future__ import annotations

import heapq
import io
import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import IO, Callable, NamedTuple

from .device import BlockDevice, DeviceError
from .microbench import RunStep
from .patterns import (
    MixSpec,
    ParallelSpec,
    PatternSpec,
    Schedule,
    generate_schedule,
    interleave_mix,
    split_parallel,
)
from .serialization import write_atomic


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
    if len(schedules) == 1:
        trace.error = _run_one(issuer(device), 0, schedules[0], trace.records)
    elif getattr(device, "virtual_timeline", False):
        _run_virtual(device, schedules, trace)
    else:
        _run_threads(device, schedules, trace)
    return trace


Issue = Callable[..., "tuple[list[int], list[int], DeviceError | None]"]


def issuer(device: BlockDevice) -> Issue:
    """The call that issues a schedule's columns (gaps, lbas, sizes,
    writes) on device and returns (submit offsets, response times,
    failure): the device's own `issue` (SimulatedDevice.issue) while its
    read and write are marked as one-row calls of it, else _run_worker,
    which issues IO by IO through read and write."""
    issue = getattr(device, "issue", None)
    if issue is not None and all(getattr(op, "issue_row", False)
                                 for op in (device.read, device.write)):
        return issue
    return partial(_run_worker, device)


_record = partial(tuple.__new__, TraceRecord)  # a TraceRecord from one tuple, in C
_MODE_NAMES = ("read", "write")  # indexed by a schedule's write flag


def _run_one(issue: Issue, w: int, schedule: Schedule, rows: list[TraceRecord]) -> str | None:
    """Issue worker w's schedule in one call, appending one record per IO
    served to rows; the failure of the IO it stopped at, or None."""
    submits, rts, failure = issue(schedule.gaps, schedule.lbas, schedule.sizes, schedule.writes)
    rows += map(_record, zip(
        range(len(rts)), submits, rts, schedule.lbas, schedule.sizes,
        map(_MODE_NAMES.__getitem__, schedule.writes), repeat(w),
    ))
    return None if failure is None else _failure(w, len(rts), failure)


def _failure(worker: int, i: int, exc: DeviceError) -> str:
    return f"worker {worker} IO {i} failed: {exc}"


def _run_worker(device: BlockDevice, gaps, lbas, sizes, writes
                ) -> tuple[list[int], list[int], DeviceError | None]:
    """issuer's call for a device without its own: idle each positive
    gap, then take the submit time and issue the IO.  A device that only
    writes (a replay stub) needs no read or idle for a write-only,
    gapless schedule."""
    now_us = device.now_us
    submits: list[int] = []
    rts: list[int] = []
    run_start = now_us()
    for gap, lba, size, write in zip(gaps, lbas, sizes, writes):
        if gap > 0:
            device.idle(gap)
        submit = now_us()
        try:
            rt = device.write(lba, size) if write else device.read(lba, size)
        except DeviceError as exc:
            return submits, rts, exc
        submits.append(submit - run_start)
        rts.append(rt)
    return submits, rts, None


def _run_virtual(device: BlockDevice, schedules: list[Schedule], trace: Trace) -> None:
    """Interleave workers on the simulator's serialized timeline.

    Each worker is synchronous: its next IO becomes ready when its
    previous one completes, plus the schedule's gap.  The device serves
    one IO at a time in ready-time order (ties to the lowest worker id);
    response time includes any wait behind other workers.
    """
    now_us, idle, issue = device.now_us, device.idle, issuer(device)
    append = trace.records.append
    run_start = now_us()
    # (ready time, worker, position in its schedule); the heap's head is
    # the worker the device serves next
    ready = [(run_start, w, 0) for w, s in enumerate(schedules) if s]
    while ready:
        submit, w, i = ready[0]
        schedule = schedules[w]
        lba, size, is_write = schedule.lbas[i], schedule.sizes[i], schedule.writes[i]
        now = now_us()
        if now < submit:
            idle(submit - now)
        failure = issue((0,), (lba,), (size,), (is_write,))[2]
        if failure is not None:
            trace.error = _failure(w, i, failure)
            return
        completion = now_us()
        append(_record((i, submit - run_start, completion - submit, lba, size,
                        _MODE_NAMES[is_write], w)))
        i += 1
        if i < len(schedule):
            heapq.heapreplace(ready, (completion + schedule.gaps[i], w, i))
        else:
            heapq.heappop(ready)


def _run_threads(device: BlockDevice, schedules: list[Schedule], trace: Trace) -> None:
    """One thread per worker, released together by a barrier."""
    barrier = threading.Barrier(len(schedules))
    rows: list[list[TraceRecord]] = [[] for _ in schedules]
    issue = issuer(device)

    def work(w: int, schedule: Schedule) -> None:
        barrier.wait()
        error = _run_one(issue, w, schedule, rows[w])
        if error:
            trace.error = error

    # the calling thread is worker 0
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


def trace_relpath(step: RunStep, device_label: str) -> Path:
    return Path(device_label) / f"{step.step_id}.csv"


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


def save_trace(trace: Trace, path: Path) -> int:
    """Write the trace CSV atomically into an existing directory; returns
    its size in bytes."""
    text = io.StringIO()
    write_trace_csv(trace, text)
    data = text.getvalue().encode()
    write_atomic(path, data)
    return len(data)
