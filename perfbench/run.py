"""Campaign benchmark for flashmark.

Runs complete five-stage CLI campaigns (format, calibrate, plan, run,
report) on a built-in simulator profile, each repetition in a fresh
child process (``campaign.py``), checks every repetition's results, and
prints the metrics.  Run it from the root of a flashmark checkout:

    python3 perfbench/run.py --workload campaign-highend --seed 41 --seconds 30 --trace 0

Repetitions are run until ``--seconds`` of wall time have passed (at
least one).  With ``--trace 0`` set-up-only repetitions follow until at
least three set-ups have been timed, and the last line reports the
end-to-end metrics, each the median over the repetitions.  With ``--trace 1`` one
traced repetition follows, and the last line reports its per-layer
metrics; ``trace.overhead_s`` is its campaign time minus the untraced
median.  The lines before the last one list every repetition with its
exact counters.

A repetition fails the correctness gate when a stage exits non-zero,
when the report breaks the directional checks of the acceptance suite,
when its digest or exact counters differ from the first repetition of
the run, or, for seed 41, when its digest differs from the committed
one in ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaign-highend", "campaign-lowend")
STAGES = ("format", "calibrate", "plan", "run", "report")
SETUP_STAGES = STAGES[:3]
# An untraced run times at least this many set-ups for the median of
# setup_s, adding set-up-only repetitions when fewer full campaigns fit.
MIN_SETUPS = 3
REFERENCE_SEED = 41
WORK_DIR = ".perfbench-work"
# Keep one run under three minutes, with a margin for start-up and reporting.
RUN_BUDGET_S = 170.0
# Counters that repeat exactly for one seed, whatever the machine does.
EXACT = (
    "digest",
    "sim_ios",
    "written_bytes",
    "device_us",
    "erases",
    "gc_copies",
    "write_amplification",
)


def setup_s(rep: dict) -> float:
    return sum(rep["stages"][k] for k in SETUP_STAGES)


def end_to_end(rep: dict) -> dict[str, float]:
    st = rep["stages"]
    return {
        "run_s": st["run"],
        "campaign_s": rep["campaign_s"],
        "sim_ios_per_s": rep["sim_ios"] / rep["campaign_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "written_mb": rep["written_bytes"] / 1e6,
        "device_h": rep["device_us"] / 3.6e9,
    }


def declared_units(root: Path, section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_repetition(args, root: Path, timeout: float, *flags: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "campaign.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", str(root / WORK_DIR / args.workload),
        *flags,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # One compute thread: the campaign is single-threaded Python, and
    # idle BLAS threads only add start-up work and memory.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"repetition exceeded {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"errors": [f"campaign exited {proc.returncode}: " + " | ".join(tail)]}


def gate(reps: list[dict], seed: int, reference: dict) -> None:
    """Append correctness errors to each repetition in place.

    Within a run every exact counter must match the first good
    repetition; for seed 41 the digest must also match the committed one.
    """
    first = next((r for r in reps if not r["errors"]), None)
    for rep in reps:
        if rep["errors"] or first is None:
            continue
        for key in EXACT:
            if rep[key] != first[key]:
                rep["errors"].append(f"{key} {rep[key]} differs from first repetition {first[key]}")
        if seed == REFERENCE_SEED and rep["digest"] != reference["digest"]:
            rep["errors"].append(
                f"digest {rep['digest']} differs from committed {reference['digest']}"
            )


def describe(label: str, rep: dict) -> str:
    status = "ok" if not rep["errors"] else f"FAILED {rep['errors']}"
    stages = " ".join(f"{k} {rep['stages'][k]:.2f}" for k in STAGES if k in rep.get("stages", {}))
    if "campaign_s" not in rep or len(rep["stages"]) < len(STAGES):
        return f"{label}: [{stages}] {status}"
    exact = " ".join(f"{k}={rep.get(k)}" for k in EXACT)
    return (
        f"{label}: campaign {rep['campaign_s']:.2f} s [{stages}] cpu {rep['cpu_s']:.2f} s "
        f"rss {rep['peak_rss_mb']:.1f} MB | {exact} | {status}"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description="flashmark campaign benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "flashmark" / "cli.py").is_file():
        print(f"error: {root} holds no flashmark sources (src/flashmark)", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    start = time.perf_counter()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - start)

    untraced: list[dict] = []
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(run_repetition(args, root, remaining()))
    traced = [run_repetition(args, root, remaining(), "--trace")] if args.trace else []
    setups: list[dict] = []
    if not args.trace:
        while len(untraced) + len(setups) < MIN_SETUPS:
            setups.append(run_repetition(args, root, remaining(), "--setup-only"))
    gate(untraced + traced, args.seed, reference)

    labelled = (
        [(f"rep {i}", r) for i, r in enumerate(untraced)]
        + [("traced rep", r) for r in traced]
        + [(f"set-up rep {i}", r) for i, r in enumerate(setups)]
    )
    for label, rep in labelled:
        print(describe(label, rep))
    failed = sum(bool(r["errors"]) for _, r in labelled)
    good = [r for r in untraced if not r["errors"]]
    values: dict[str, float] = {}
    if good and not args.trace:
        per_rep = [end_to_end(r) for r in good]
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        values["setup_s"] = statistics.median(
            setup_s(r) for r in good + [r for r in setups if not r["errors"]]
        )
    elif good and not traced[0]["errors"]:
        values = dict(traced[0]["layers"])
        values["trace.overhead_s"] = traced[0]["campaign_s"] - statistics.median(
            r["campaign_s"] for r in good
        )
        if traced[0].get("unpatched"):
            print(f"not traced (absent from this version): {traced[0]['unpatched']}")
    units = declared_units(root, "per_layer" if args.trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    if values and len(metrics) < len(units):
        print(f"no value for declared metrics: {sorted(set(units) - set(metrics))}")
    print(json.dumps(
        {"correct": failed == 0 and len(metrics) == len(units), "attempted": len(labelled),
         "failed": failed,
         "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
