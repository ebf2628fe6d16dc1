"""Run execution: submit schedules to a device and record per-IO traces.

Timing semantics: an IO is submitted as soon as its predecessor
completes, plus the gap its schedule carries (0 for consecutive
timing); its trace index is its position in its worker's schedule, and
its submit time is counted from the device clock when the run starts.
Every pattern runs as one or more workers, one per schedule: a plain or
mixed pattern is one worker, a parallel pattern one per degree.

Every IO loop serves (gap, lba, size, write) rows, appends each IO's
submit and response time to two lists and returns the failure it
stopped at, or None; there is one loop per clock.  The simulator's,
`issue_rows`, serves a run in one call that leaves no harness time
between IOs; a parallel run's rows come from a generator that merges its
workers on the device's serialized timeline (ties to the lowest worker
id), taking each gap from the completion of the IO served before, so a
queued worker's response time includes its wait for the device.  A
device without it (a raw device) is served by _run_worker, which reads
the clock before each IO and records the time the IO call took, in one
thread per worker, released together by a barrier.

A trace is its rows: one TraceRecord per IO, whose fields are the trace
CSV's columns in order.
"""

from __future__ import annotations

import heapq
import io
import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import count, repeat
from pathlib import Path
from typing import IO, Callable, Iterable, NamedTuple

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
    elif hasattr(device, "issue_rows"):
        _run_merged(device, schedules, trace)
    else:
        _run_threads(device, schedules, trace)
    return trace


Row = tuple[int, int, int, bool]  # (gap, lba, size, write)
Issue = Callable[[Iterable[Row], list[int], list[int]], DeviceError | None]


def issuer(device: BlockDevice) -> Issue:
    """The loop that serves rows on device, appending each IO's submit
    offset and response time to submits and rts, and returns the failure
    it stopped at, or None: the device's own `issue_rows`, else
    _run_worker, which issues IO by IO through read and write."""
    issue = getattr(device, "issue_rows", None)
    return issue if issue is not None else partial(_run_worker, device)


_record = partial(tuple.__new__, TraceRecord)  # a TraceRecord from one tuple, in C
_MODE_NAMES = ("read", "write")  # indexed by a schedule's write flag


def _run_one(issue: Issue, w: int, schedule: Schedule, rows: list[TraceRecord]) -> str | None:
    """Issue worker w's schedule in one call, appending one record per IO
    served to rows; the failure of the IO it stopped at, or None."""
    submits: list[int] = []
    rts: list[int] = []
    failure = issue(zip(schedule.gaps, schedule.lbas, schedule.sizes, schedule.writes), submits, rts)
    rows += map(_record, zip(
        range(len(rts)), submits, rts, schedule.lbas, schedule.sizes,
        map(_MODE_NAMES.__getitem__, schedule.writes), repeat(w),
    ))
    return None if failure is None else _failure(w, len(rts), failure)


def _failure(worker: int, i: int, exc: DeviceError) -> str:
    return f"worker {worker} IO {i} failed: {exc}"


def _run_worker(device: BlockDevice, rows: Iterable[Row], submits: list[int], rts: list[int]
                ) -> DeviceError | None:
    """issuer's loop for a device without its own: idle each positive
    gap, then take the submit time and issue the IO.  A device that only
    writes (a replay stub) needs no read or idle for write-only, gapless
    rows."""
    now_us = device.now_us
    run_start = now_us()
    for gap, lba, size, write in rows:
        if gap > 0:
            device.idle(gap)
        submit = now_us()
        try:
            rt = device.write(lba, size) if write else device.read(lba, size)
        except DeviceError as exc:
            return exc
        submits.append(submit - run_start)
        rts.append(rt)
    return None


def _run_merged(device: BlockDevice, schedules: list[Schedule], trace: Trace) -> None:
    """Serve workers, merged on the device's timeline, in one issue_rows call.

    Each worker is synchronous: its next IO becomes ready when its
    previous one completes, plus the schedule's gap.  The device serves
    one IO at a time in ready-time order (ties to the lowest worker id);
    an IO's submit time is its ready time, so its response time includes
    any wait behind other workers.
    """
    submits: list[int] = []
    rts: list[int] = []
    workers = [zip(count(), s.gaps, s.lbas, s.sizes, s.writes) for s in schedules]
    # (ready time, worker, its next row); the heap's head is the IO the
    # device serves next
    ready = [(0, w, row) for w, row in enumerate(next(it, None) for it in workers) if row]
    append = trace.records.append

    def rows():
        completion = 0  # of the IO served last, from the run's start
        while ready:
            at, w, (i, _, lba, size, write) = ready[0]
            yield at - completion, lba, size, write
            completion = submits[-1] + rts[-1]
            append(_record((i, at, completion - at, lba, size, _MODE_NAMES[write], w)))
            row = next(workers[w], None)
            if row is None:
                heapq.heappop(ready)
            else:
                heapq.heapreplace(ready, (completion + row[1], w, row))

    failure = device.issue_rows(rows(), submits, rts)
    if failure is not None:  # the head is the IO that failed
        _, w, (i, *_) = ready[0]
        trace.error = _failure(w, i, failure)


def _run_threads(device: BlockDevice, schedules: list[Schedule], trace: Trace) -> None:
    """One thread per worker, released together by a barrier.  Once all
    end, the lowest raising worker's exception is raised, else the lowest
    failing worker's failure is the trace's error."""
    barrier = threading.Barrier(len(schedules))
    rows: list[list[TraceRecord]] = [[] for _ in schedules]
    issue = issuer(device)
    ends: list[str | Exception | None] = [None] * len(schedules)

    def work(w: int) -> None:
        barrier.wait()
        try:
            ends[w] = _run_one(issue, w, schedules[w], rows[w])
        except Exception as exc:  # a thread's exception is otherwise lost
            ends[w] = exc

    # the calling thread is worker 0
    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, len(schedules))]
    for t in threads:
        t.start()
    try:
        work(0)
    finally:
        for t in threads:
            t.join()
    raised = [e for e in ends if isinstance(e, Exception)]
    if raised:
        raise raised[0]
    trace.error = next(filter(None, ends), None)
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
