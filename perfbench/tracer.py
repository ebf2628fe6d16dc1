"""Outside-in span tracer for one campaign.

The tracer wraps the public functions of each flashmark layer from the
outside: every name is replaced where its caller looks it up (for
example ``flashmark.cli.execute_run`` and ``flashmark.methodology.execute_run``
separately), so the program itself carries no tracing code.  Each call
records one span (name, start, end, parent, count) in flat in-memory
columns; spans are written out once, after the campaign.

A span's self time is its duration minus the durations of its direct
children.  The per-layer metrics in ``layer_metrics`` are computed from
these columns.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _records(args, result):
    return len(result.records)


def _schedule_len(args, result):
    return len(result)


def _arg_records(args, result):
    return len(args[0].records)


def _ios_issued(args, result):
    return result.ios_issued


def _returned(args, result):
    return int(result or 0)


def _write_size(args, result):
    return args[2]  # (self, lba, size)


def _file_size(args, result):
    return os.path.getsize(args[1])  # (self, path)


# (span name, module, attribute where the caller looks the name up, count)
# The count turns a span into a work measure: IOs, rows, bytes or blocks.
PATCHES = [
    ("cli.persist_device", "flashmark.cli", "CampaignConfig.persist_device", None),
    ("methodology.enforce_random_state", "flashmark.cli", "enforce_random_state", _ios_issued),
    ("methodology.calibrate_phases", "flashmark.cli", "calibrate_phases", None),
    ("methodology.calibrate_pause", "flashmark.cli", "calibrate_pause", None),
    ("methodology.build_plan", "flashmark.cli", "build_plan", None),
    ("methodology.verify_plan", "flashmark.cli", "verify_plan", None),
    ("methodology.verify_plan", "flashmark.methodology", "verify_plan", None),
    ("runner.execute_run", "flashmark.cli", "execute_run", _records),
    ("runner.execute_run", "flashmark.methodology", "execute_run", _records),
    ("runner.save_trace", "flashmark.cli", "save_trace", _arg_records),
    ("runner.read_trace_csv", "flashmark.cli", "read_trace_csv", _records),
    ("runner.summarize", "flashmark.cli", "summarize", None),
    ("patterns.generate_schedule", "flashmark.runner", "generate_schedule", _schedule_len),
    ("patterns.interleave_mix", "flashmark.runner", "interleave_mix", _schedule_len),
    ("patterns.interleave_mix", "flashmark.microbench", "interleave_mix", _schedule_len),
    ("patterns.split_parallel", "flashmark.runner", "split_parallel", None),
    ("microbench.expand_suite", "flashmark.cli", "expand_suite", None),
    ("microbench.assign_target_offsets", "flashmark.methodology", "assign_target_offsets", None),
    ("analysis.detect_startup", "flashmark.methodology", "detect_startup", None),
    ("analysis.estimate_period", "flashmark.methodology", "estimate_period", None),
    ("analysis.build_summary", "flashmark.cli", "build_summary", None),
    ("analysis.emit_plot_data", "flashmark.cli", "emit_plot_data", None),
    ("analysis.emit_phase_trace", "flashmark.cli", "emit_phase_trace", None),
    ("journal.record", "flashmark.journal", "Journal.record", None),
    ("journal.load", "flashmark.journal", "Journal.__init__", None),
    ("serialization.plan_to_dict", "flashmark.serialization", "plan_to_dict", None),
    ("serialization.plan_from_dict", "flashmark.serialization", "plan_from_dict", None),
    ("device.simulator.write", "flashmark.device.simulator", "SimulatedDevice.write", _write_size),
    ("device.simulator.read", "flashmark.device.simulator", "SimulatedDevice.read", None),
    ("device.simulator.idle", "flashmark.device.simulator", "SimulatedDevice.idle", _returned),
    ("device.simulator.save_state", "flashmark.device.simulator", "SimulatedDevice.save_state", _file_size),
    ("device.simulator.load_state", "flashmark.device.simulator", "SimulatedDevice.load_state", None),
]


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.count.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        nid = self._name_id(name)
        names, parents, starts, ends, counts = (
            self.name, self.parent, self.start, self.end, self.count
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            counts.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                counts[i] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of PATCHES that exists in the loaded program.

        A name that a later version of the program no longer has is
        listed in ``missing`` and its metrics read zero.
        """
        for name, module, attr, count in PATCHES:
            self._name_id(name)
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, fn, count))

    # ------------------------------------------------------------ results

    def columns(self) -> dict[str, np.ndarray]:
        # Copies: a view would pin the arrays and make further spans fail.
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "count": np.array(self.count, dtype=np.int64),
        }

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, total seconds, self seconds and summed count per span name."""
        c = self.columns()
        dur = c["end"] - c["start"]
        child = np.zeros(dur.size)
        has_parent = c["parent"] >= 0
        np.add.at(child, c["parent"][has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(c["name"], minlength=n)
        total = np.bincount(c["name"], weights=dur, minlength=n)
        self_s = np.bincount(c["name"], weights=dur - child, minlength=n)
        counts = np.bincount(c["name"], weights=c["count"], minlength=n)
        return {
            name: {
                "calls": int(calls[k]),
                "s": float(total[k]),
                "self_s": float(self_s[k]),
                "count": int(counts[k]),
            }
            for k, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced campaign, named as in BENCHMARK.json."""
    t = tracer.per_name()
    out: dict[str, float] = {}
    for stage in ("format", "calibrate", "plan", "run", "report"):
        out[f"cli.{stage}_s"] = t[f"cli.{stage}"]["s"]
    out["cli.campaign_s"] = t["cli.campaign"]["s"]
    out["cli.persist_device.calls"] = t["cli.persist_device"]["calls"]
    out["cli.persist_device.s"] = t["cli.persist_device"]["s"]

    enforce = t["methodology.enforce_random_state"]
    out["methodology.enforce_random_state.calls"] = enforce["calls"]
    out["methodology.enforce_random_state.s"] = enforce["s"]
    out["methodology.enforce_random_state.self_s"] = enforce["self_s"]
    out["methodology.enforce_random_state.ios_per_s"] = _rate(enforce["count"], enforce["s"])
    for fn in ("calibrate_phases", "calibrate_pause", "build_plan", "verify_plan"):
        out[f"methodology.{fn}.s"] = t[f"methodology.{fn}"]["s"]

    write = t["device.simulator.write"]
    out["device.simulator.write.calls"] = write["calls"]
    out["device.simulator.write.s"] = write["s"]
    out["device.simulator.write.us_per_call"] = _rate(write["s"] * 1e6, write["calls"])
    out["device.simulator.read.calls"] = t["device.simulator.read"]["calls"]
    out["device.simulator.read.s"] = t["device.simulator.read"]["s"]
    idle = t["device.simulator.idle"]
    out["device.simulator.idle.calls"] = idle["calls"]
    out["device.simulator.idle.s"] = idle["s"]
    out["device.simulator.idle.blocks_reclaimed"] = idle["count"]
    save = t["device.simulator.save_state"]
    out["device.simulator.save_state.calls"] = save["calls"]
    out["device.simulator.save_state.s"] = save["s"]
    out["device.simulator.save_state.mb"] = save["count"] / 1e6
    out["device.simulator.load_state.s"] = t["device.simulator.load_state"]["s"]

    run = t["runner.execute_run"]
    out["runner.execute_run.calls"] = run["calls"]
    out["runner.execute_run.ios"] = run["count"]
    out["runner.execute_run.self_s"] = run["self_s"]
    out["runner.overhead_us_per_io"] = _rate(run["self_s"] * 1e6, run["count"])
    for fn in ("save_trace", "read_trace_csv"):
        span = t[f"runner.{fn}"]
        out[f"runner.{fn}.s"] = span["s"]
        out[f"runner.{fn}.rows_per_s"] = _rate(span["count"], span["s"])
    out["runner.summarize.s"] = t["runner.summarize"]["s"]

    sched = t["patterns.generate_schedule"]
    out["patterns.generate_schedule.calls"] = sched["calls"]
    out["patterns.generate_schedule.s"] = sched["s"]
    out["patterns.generate_schedule.ios_per_s"] = _rate(sched["count"], sched["s"])
    out["patterns.interleave_mix.s"] = t["patterns.interleave_mix"]["s"]
    out["patterns.split_parallel.s"] = t["patterns.split_parallel"]["s"]

    for name in (
        "microbench.expand_suite",
        "microbench.assign_target_offsets",
        "analysis.detect_startup",
        "analysis.estimate_period",
        "analysis.build_summary",
        "analysis.emit_plot_data",
        "analysis.emit_phase_trace",
        "journal.load",
        "serialization.plan_to_dict",
        "serialization.plan_from_dict",
    ):
        out[f"{name}.s"] = t[name]["s"]
    out["journal.record.calls"] = t["journal.record"]["calls"]
    out["journal.record.s"] = t["journal.record"]["s"]
    return out
