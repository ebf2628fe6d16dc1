"""One repetition of a benchmark campaign, run in a fresh process.

Drives the five CLI stages (format, calibrate, plan, run, report)
in-process through the click entry point, times each stage, then derives
the campaign's exact counters and its result digest from the artifacts.
Prints one JSON object on the last line of standard output.

    python3 perfbench/campaign.py --workload campaign-lowend --seed 41 \
        --workdir .perfbench-work/campaign-lowend [--trace | --setup-only]

``--setup-only`` stops after the plan stage and reports only the stage
times; it gives ``run.py`` more set-up samples per run.

The flashmark package is imported from ``src/`` of the current
directory; ``run.py`` starts this script with that on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import time
import traceback
from pathlib import Path

STAGES = ("format", "calibrate", "plan", "run", "report")

# Acceptance 8's reduced suite and calibration counts, on the built-in
# profiles shrunk from 256 MB to 128 MB.  That halves the state-reset
# writes and the snapshot bytes.  It is the smallest power of two on
# which every seed keeps acceptance 8's directional checks: at 64 MB the
# highend RW/SW ratio falls below 10 for some seeds.
SUITE = {"io_count_by_pattern": {"SR": 192, "RR": 192, "SW": 256, "RW": 384}}
CAPACITY = 128 * 2**20
CALIBRATION = {
    "long_io_count": 4096,
    "probe_reads": 512,
    "disturb_writes": 1024,
    "observe_reads": 8192,
}
CALIBRATION_IO_SIZE = 32 * 1024
PROFILES = {"campaign-highend": "highend-ssd", "campaign-lowend": "lowend-usb"}
OUTPUT_DIR = "out"
PROFILE_FILE = "profile.json"


def campaign_config(workload: str, seed: int) -> dict:
    from flashmark.device.simulator import builtin_profile

    profile = builtin_profile(PROFILES[workload], capacity=CAPACITY)
    Path(PROFILE_FILE).write_text(profile.to_json())
    return {
        "device": {"simulator_profile": PROFILE_FILE},
        "output_dir": OUTPUT_DIR,
        "seed": seed,
        "suite": SUITE,
        "calibration": CALIBRATION,
    }


def _wchar() -> int:
    with open("/proc/self/io") as fp:
        for line in fp:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _invoke(main, stage: str) -> str | None:
    """Run one CLI stage; returns an error description or None."""
    try:
        main.main(args=[stage, "--config", "config.json"], prog_name="flashmark",
                  standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return f"{stage} exited with code {exc.code}"
    except Exception:
        return f"{stage} raised:\n{traceback.format_exc()}"
    return None


class _NullDevice:
    """Accepts writes and costs nothing: replays a state reset's IO sequence."""

    def __init__(self, capacity: int):
        self.capacity = capacity

    def write(self, lba: int, size: int) -> int:
        return 0

    def now_us(self) -> int:
        return 0


def _ledger(out: Path, seed: int, capacity: int) -> dict:
    """Host-side IO count, host write bytes and digest of one campaign.

    IOs are counted from what the campaign itself records: the format
    manifest, the calibration counts above, one trace row per run-stage
    IO, and a replay of each plan state reset on a device that does
    nothing (the reset write sequence is a pure function of its seed).
    The digest is the SHA-256 over every trace CSV and
    report/summary.json, each preceded by its relative path.
    """
    from flashmark.methodology import enforce_random_state
    from flashmark.patterns import derive_seed

    fmt = json.loads((out / "manifest-format.json").read_text())
    ios = fmt["ios"]
    host_write = fmt["bytes_written"]

    c = CALIBRATION
    ios += 4 * c["long_io_count"] + c["probe_reads"] + c["disturb_writes"] + c["observe_reads"]
    host_write += (2 * c["long_io_count"] + c["disturb_writes"]) * CALIBRATION_IO_SIZE

    digest = hashlib.sha256()
    files = sorted(out.glob("traces/**/*.csv")) + [out / "report" / "summary.json"]
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(data + b"\0")
        if path.suffix != ".csv":
            continue
        for row in data.splitlines()[1:]:
            fields = row.split(b",")  # index,submit,rt,lba,size,mode,worker
            ios += 1
            if fields[5] == b"write":
                host_write += int(fields[4])

    plan = json.loads((out / "plan.json").read_text())
    for i, step in enumerate(plan["steps"]):
        if step["kind"] == "state_reset":
            reset = enforce_random_state(_NullDevice(capacity), seed=derive_seed(seed, 0xF0, i))
            ios += reset.ios_issued
            host_write += reset.bytes_written
    return {"sim_ios": ios, "host_write_bytes": host_write, "digest": digest.hexdigest()}


def _report_checks(workload: str, summary: dict) -> list[str]:
    """Acceptance 8's directional checks on the campaign report."""
    errors = []
    cost = summary["baseline_cost_us"]
    ratio = cost["RW"] / cost["SW"]
    in_place = summary["order"]["in_place"]
    locality = summary["locality_area"]
    if workload == "campaign-highend":
        if not ratio > 10:
            errors.append(f"RW/SW {ratio:.2f} <= 10")
        if locality is None:
            errors.append("no locality area")
        if in_place is None or not 0.5 < in_place < 2.0:
            errors.append(f"in-place ratio {in_place} outside (0.5, 2.0)")
    else:
        if not ratio > 50:
            errors.append(f"RW/SW {ratio:.2f} <= 50")
        if locality is not None:
            errors.append(f"unexpected locality area {locality}")
        if in_place is None or not in_place > 5.0:
            errors.append(f"in-place ratio {in_place} <= 5")
    return errors


def run_campaign(
    workload: str, seed: int, workdir: Path, traced: bool, stages: tuple[str, ...]
) -> dict:
    from flashmark import cli

    src = Path("src").resolve()
    if Path(cli.__file__).resolve().parents[1] != src:
        raise RuntimeError(f"flashmark imported from {cli.__file__}, not from {src}")

    tracer = None
    if traced:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    Path("config.json").write_text(json.dumps(campaign_config(workload, seed)))

    result: dict = {"errors": [], "stages": {}}
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with open("cli.log", "w") as log:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            wchar0 = _wchar()
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            with span("cli.campaign"):
                for stage in stages:
                    s0 = time.perf_counter()
                    with span(f"cli.{stage}"):
                        error = _invoke(cli.main, stage)
                    result["stages"][stage] = time.perf_counter() - s0
                    if error:
                        result["errors"].append(error)
                        break
            result["campaign_s"] = time.perf_counter() - t0
            result["cpu_s"] = time.process_time() - cpu0
            log.flush()
            result["written_bytes"] = _wchar() - wchar0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer and not result["errors"]:
        # Before any post-processing call adds spans of its own.
        result["layers"] = layer_metrics(tracer)
        result["layers"]["cli.campaign_cpu_s"] = result["cpu_s"]
        result["unpatched"] = tracer.missing
    out = Path(OUTPUT_DIR)
    if result["errors"] or stages != STAGES:
        shutil.rmtree(out, ignore_errors=True)
        return result

    summary = json.loads((out / "report" / "summary.json").read_text())
    result["errors"] += _report_checks(workload, summary)

    dev = cli.CampaignConfig.load("config.json").open_device()
    wear = dev.wear_stats()
    result["device_us"] = dev.now_us()
    result["erases"] = wear["erases"]
    result["gc_copies"] = wear["gc_copies"]
    result.update(_ledger(out, seed, dev.capacity))
    result["write_amplification"] = (
        wear["pages_programmed"] * dev.profile.page_size / result["host_write_bytes"]
    )
    if tracer:
        result["layers"]["device.simulator.erases"] = wear["erases"]
        result["layers"]["device.simulator.gc_copies"] = wear["gc_copies"]
        result["layers"]["device.simulator.write_amplification"] = result["write_amplification"]
        tracer.save("spans.npz")
    # Drop the campaign's files now, so their dirty pages are not written
    # back while the next repetition is being timed.
    shutil.rmtree(out)
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROFILES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="run format, calibrate and plan only, for set-up timing")
    args = ap.parse_args()
    try:
        result = run_campaign(args.workload, args.seed, Path(args.workdir).resolve(), args.trace,
                              STAGES[:3] if args.setup_only else STAGES)
    except Exception:
        result = {"errors": [f"campaign.py raised:\n{traceback.format_exc()}"]}
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
