import hashlib
import json
import os
import re
import time
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from flashmark.analysis import SummaryThresholds
from flashmark import cli
from flashmark.cli import CampaignConfig, DeviceConfig, main
from flashmark.device import SimProfile, SimulatedDevice, builtin_profile
from flashmark.methodology import CalibrationConfig
from flashmark.microbench import SuiteConfig
from flashmark.patterns import BASELINES
from flashmark.serialization import PLAN_FORMAT_VERSION
from faults import failing_writes

MB = 1024 * 1024
GB = 1024 * MB
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def campaign(tmp_path):
    profile = SimProfile(capacity=32 * MB, name="tinysim", free_block_pool=8)
    profile_path = tmp_path / "tinysim.json"
    profile_path.write_text(profile.to_json())
    out = tmp_path / "out"
    config = {
        "device": {"simulator_profile": str(profile_path)},
        "output_dir": str(out),
        "seed": 3,
        "suite": {
            "micros": ["granularity"],
            "io_count_by_pattern": {"SR": 16, "RR": 16, "SW": 16, "RW": 16},
            "base_target_size": 4 * MB,
            "extra_io_sizes": [],
        },
        "calibration": {
            "long_io_count": 256,
            "settle_pause_us": 1_000_000,
            "observe_reads": 256,
            "disturb_writes": 64,
            "probe_reads": 64,
        },
    }
    config_path = tmp_path / "campaign.json"
    config_path.write_text(json.dumps(config))
    return config_path, out


def invoke(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def record_device_ios(monkeypatch) -> list:
    """The simulator's issue calls, each recorded as ("issue",) whether it
    serves one schedule or a parallel run's merged workers, and its idles,
    from now on, in order."""
    ios = []
    issue_rows, idle = SimulatedDevice.issue_rows, SimulatedDevice.idle

    def record_issue(self, *args):
        ios.append(("issue",))
        return issue_rows(self, *args)

    def record_idle(self, duration_us):
        ios.append(("idle", duration_us))
        return idle(self, duration_us)

    monkeypatch.setattr(SimulatedDevice, "issue_rows", record_issue)
    monkeypatch.setattr(SimulatedDevice, "idle", record_idle)
    return ios


def edit_journal(out, step, edit):
    """Replace the latest journal entry of step by edit(entry)."""
    path = out / "journal.jsonl"
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    i = max(k for k, e in enumerate(entries) if e["step"] == step)
    entries[i] = edit(entries[i])
    path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))


class TestPipeline:
    def test_full_pipeline(self, campaign):
        config_path, out = campaign
        r = invoke(["format", "--config", str(config_path)])
        assert r.exit_code == 0, r.output
        assert (out / "device_state.bin").exists()
        assert (out / "manifest-format.json").exists()

        r = invoke(["calibrate", "--config", str(config_path)])
        assert r.exit_code == 0, r.output
        profile = json.loads((out / "device_profile.json").read_text())
        assert set(profile["startup"]) == {"SR", "RR", "SW", "RW"}

        r = invoke(["plan", "--config", str(config_path), "--dry-run"])
        assert r.exit_code == 0, r.output
        assert "granularity" in r.output
        assert not (out / "plan.json").exists()

        r = invoke(["plan", "--config", str(config_path)])
        assert r.exit_code == 0, r.output
        plan = json.loads((out / "plan.json").read_text())
        assert plan["format_version"] == PLAN_FORMAT_VERSION

        r = invoke(["run", "--config", str(config_path)])
        assert r.exit_code == 0, r.output
        traces = list((out / "traces").rglob("run*.csv"))
        assert traces, "no traces written"

        r = invoke(["report", "--config", str(config_path)])
        assert r.exit_code == 0, r.output
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert summary["baseline_cost_us"]["SR"] > 0
        # micro-benchmarks that never ran stay null, not fabricated
        assert summary["locality_area"] is None
        assert summary["pause_effect_us"] is None
        assert summary["order"] == {"reverse": None, "in_place": None, "large_incr": None}
        assert (out / "report" / "plots" / "granularity.tsv").exists()
        assert (out / "report" / "summary.txt").read_text().count("\n") >= 2

    def test_rerun_performs_zero_ios(self, campaign):
        config_path, out = campaign
        for cmd in (["format"], ["calibrate"], ["plan"], ["run"]):
            assert invoke(cmd + ["--config", str(config_path)]).exit_code == 0
        r = invoke(["run", "--config", str(config_path)])
        assert r.exit_code == 0
        assert "runs executed: 0" in r.output

    def test_format_already_done_short_circuits(self, campaign):
        config_path, _ = campaign
        assert invoke(["format", "--config", str(config_path)]).exit_code == 0
        r = invoke(["format", "--config", str(config_path)])
        assert r.exit_code == 0
        assert "already complete" in r.output

    def test_manifest_contents(self, campaign):
        config_path, out = campaign
        invoke(["format", "--config", str(config_path)])
        manifest = json.loads((out / "manifest-format.json").read_text())
        assert manifest["tool_version"]
        assert manifest["seed"] == 3
        assert len(manifest["config_hash"]) == 64

    def test_raw_format_manifest_records_capabilities(self, tmp_path):
        disk = tmp_path / "disk"
        disk.write_bytes(b"\0" * MB)
        try:
            os.close(os.open(disk, os.O_RDWR | os.O_DIRECT))
        except (AttributeError, OSError) as exc:
            pytest.skip(f"no O_DIRECT open here: {exc}")
        p = tmp_path / "c.json"
        # the default suite cannot be planned on 1 MB, and format checks that
        suite = {"micros": ["pause"], "io_count_by_pattern": dict.fromkeys(BASELINES, 16)}
        p.write_text(json.dumps(
            {"device": {"raw_path": str(disk)}, "output_dir": str(tmp_path / "out"), "suite": suite}
        ))
        r = invoke(["format", "--config", str(p), "--force"])
        assert r.exit_code == 0, r.output
        manifest = json.loads((tmp_path / "out" / "manifest-format.json").read_text())
        caps = manifest["capabilities"]
        assert caps["path"] == str(disk)
        assert caps["openable"] is True
        assert caps["size"] == MB
        assert caps["clock_resolution_us"] > 0

    def test_format_interrupted_after_checkpoint_resumes_identically(
        self, tmp_path, monkeypatch
    ):
        # a 128 MB device formats in about 3100 IOs, so a failure at write
        # 2500 comes after the checkpoint journaled at IO 2048
        profile_path = tmp_path / "midsim.json"
        profile_path.write_text(SimProfile(capacity=128 * MB, name="midsim").to_json())
        configs = {}
        for tag in ("whole", "interrupted"):
            configs[tag] = tmp_path / f"{tag}.json"
            configs[tag].write_text(json.dumps({
                "device": {"simulator_profile": str(profile_path)},
                "output_dir": str(tmp_path / tag),
                "seed": 3,
                "suite": {"micros": ["pause"]},  # the default suite needs 256 MB
            }))
        assert invoke(["format", "--config", str(configs["whole"])]).exit_code == 0

        monkeypatch.setattr(cli, "COMMIT_IOS", 2048)
        with failing_writes(2500):
            r = invoke(["format", "--config", str(configs["interrupted"])])
        assert r.exit_code == 3
        r = invoke(["format", "--config", str(configs["interrupted"])])
        assert r.exit_code == 0, r.output
        assert "resuming format at IO 2048" in r.output

        whole = (tmp_path / "whole" / "device_state.bin").read_bytes()
        assert (tmp_path / "interrupted" / "device_state.bin").read_bytes() == whole

    def test_calibrate_after_unfinished_format_exits_two(self, tmp_path, monkeypatch):
        # format fails at write 2500, after the checkpoint and snapshot at IO 2048
        profile_path = tmp_path / "midsim.json"
        profile_path.write_text(SimProfile(capacity=128 * MB, name="midsim").to_json())
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "device": {"simulator_profile": str(profile_path)},
            "output_dir": str(tmp_path / "out"),
            "suite": {"micros": ["pause"]},
        }))
        monkeypatch.setattr(cli, "COMMIT_IOS", 2048)
        with failing_writes(2500):
            assert invoke(["format", "--config", str(config_path)]).exit_code == 3
        out = tmp_path / "out"
        state = (out / "device_state.bin").read_bytes()
        journal = (out / "journal.jsonl").read_bytes()
        r = invoke(["calibrate", "--config", str(config_path)])
        assert r.exit_code == 2
        assert "format has not finished" in r.output
        assert not (out / "device_profile.json").exists()
        assert (out / "device_state.bin").read_bytes() == state
        assert (out / "journal.jsonl").read_bytes() == journal

    def test_run_before_calibrate_exits_two(self, campaign, monkeypatch):
        config_path, out = campaign
        for cmd in ("format", "plan"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        state = (out / "device_state.bin").read_bytes()
        journal = (out / "journal.jsonl").read_bytes()
        ios = record_device_ios(monkeypatch)
        r = invoke(["run", "--config", str(config_path)])
        assert r.exit_code == 2
        assert "calibrate has not finished (journal); run calibrate first" in r.output
        assert ios == []
        assert not (out / "traces").exists()
        assert (out / "device_state.bin").read_bytes() == state
        assert (out / "journal.jsonl").read_bytes() == journal

    def test_calibrate_prints_its_flags(self, campaign):
        # 256-IO calibration series are too short for a confident period
        config_path, out = campaign
        assert invoke(["format", "--config", str(config_path)]).exit_code == 0
        r = invoke(["calibrate", "--config", str(config_path)])
        assert r.exit_code == 0, r.output
        flags = json.loads((out / "device_profile.json").read_text())["flags"]
        assert "period:SR:low-confidence" in flags
        printed = [line for line in r.output.splitlines() if line.startswith("  flag: ")]
        assert printed == [f"  flag: {flag}" for flag in flags]

    def test_resumed_format_eta_counts_coverage_since_the_restart(self, campaign, monkeypatch):
        # a fake clock that advances 100 s per reading: the resumed format's
        # ETA extrapolates the coverage gained since its restart, not the
        # coverage replayed from its checkpoint
        config_path, out = campaign
        monkeypatch.setattr(cli, "CHECKPOINT_IOS", 64)
        monkeypatch.setattr(cli, "COMMIT_IOS", 1)
        with failing_writes(700):  # of 777: resumes at IO 640
            assert invoke(["format", "--config", str(config_path)]).exit_code == 3
        clock = iter(range(0, 10**6, 100))
        monkeypatch.setattr(cli, "time", SimpleNamespace(
            time=lambda: float(next(clock)), strftime=time.strftime
        ))
        r = invoke(["format", "--config", str(config_path)])
        assert r.exit_code == 0, r.output
        assert "resuming format at IO 640" in r.output

        coverage = {e["ios"]: e["coverage"] for e in cli.Journal(out / "journal.jsonl").entries}
        shown = re.findall(r"format: coverage +[\d.]+%  ios (\d+)  eta +(\d+)s", r.output)
        assert [int(ios) for ios, _ in shown] == [704, 768, 777]
        start = coverage[640]
        for k, (ios, eta) in enumerate(shown, start=1):
            c = coverage[int(ios)]
            assert eta == f"{100 * k * (1 - c) / (c - start):.0f}"
        assert int(shown[0][1]) > 100 * (1 - coverage[704]) / coverage[704] + 1

    def test_inter_run_pause_precedes_every_run(self, campaign, monkeypatch):
        # the device idles the plan's pause right before each run's first IO,
        # also before the first run of a resumed `run`
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        plan = json.loads((out / "plan.json").read_text())
        runs = [s for s in plan["steps"] if s["kind"] == "run"]
        events = record_device_ios(monkeypatch)
        real_execute_run = cli.execute_run

        def execute_run(dev, pattern):
            events.append(("run",))
            return real_execute_run(dev, pattern)

        monkeypatch.setattr(cli, "execute_run", execute_run)
        monkeypatch.setattr(cli, "COMMIT_IOS", 1)  # only the failed run is redone
        with failing_writes(20):
            assert invoke(["run", "--config", str(config_path)]).exit_code == 3
        resumed_at = len(events)
        r = invoke(["run", "--config", str(config_path)])
        assert r.exit_code == 0, r.output

        starts = [i for i, e in enumerate(events) if e == ("run",)]
        assert len(starts) == len(runs) + 1  # the failed run ran twice
        assert any(i > resumed_at for i in starts)
        for i in starts:
            assert events[i - 1] == ("idle", plan["inter_run_pause_us"])
            assert events[i + 1] == ("issue",)

    def test_run_failure_keeps_partial_trace_and_resumes(self, campaign, monkeypatch):
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        plan = json.loads((out / "plan.json").read_text())
        runs = [s for s in plan["steps"] if s["kind"] == "run"]

        monkeypatch.setattr(cli, "COMMIT_IOS", 1)
        with failing_writes(20):
            r = invoke(["run", "--config", str(config_path)])
        assert r.exit_code == 3
        partial = Path(re.search(r"partial trace at (\S+)\)", r.output).group(1))
        rows = partial.read_text().splitlines()
        assert rows[0].startswith("index,")
        assert 1 <= len(rows) - 1 < 16  # truncated at the failing IO

        entries = [json.loads(line) for line in (out / "journal.jsonl").read_text().splitlines()]
        failed = [e for e in entries if e.get("status") == "failed"]
        assert len(failed) == 1 and "injected write failure" in failed[0]["error"]
        done_before = sum(1 for e in entries if e.get("status") == "done" and "/run" in e["step"])
        assert 0 < done_before < len(runs)

        r = invoke(["run", "--config", str(config_path)])
        assert r.exit_code == 0, r.output
        assert f"runs executed: {len(runs) - done_before}, resumed past: {done_before}" in r.output
        assert len(partial.read_text().splitlines()) == 17  # re-run rewrote the full trace

    @pytest.mark.parametrize("at, rows_kept", [(17, 0), (20, 3)])
    def test_report_leaves_out_runs_not_journaled_done(
        self, campaign, monkeypatch, at, rows_kept
    ):
        # write 17 fails the first IO of a run, write 20 its fourth; either
        # way the failed run's trace is partial and must not be averaged
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        runs = len([s for s in json.loads((out / "plan.json").read_text())["steps"]
                    if s["kind"] == "run"])
        with failing_writes(at):
            r = invoke(["run", "--config", str(config_path)])
        assert r.exit_code == 3
        partial = Path(re.search(r"partial trace at (\S+)\)", r.output).group(1))
        assert len(partial.read_text().splitlines()) - 1 == rows_kept
        entries = [json.loads(line) for line in (out / "journal.jsonl").read_text().splitlines()]
        done = sum(1 for e in entries if e.get("status") == "done" and "/run" in e["step"])

        r = invoke(["report", "--config", str(config_path)])
        assert r.exit_code == 0, r.output
        summary = (out / "report" / "summary.json").read_text()
        assert json.loads(summary)["notes"] == [
            f"{runs - done} of {runs} planned runs left out: not journaled done"
        ]
        # the report does not depend on the partial trace
        partial.unlink()
        assert invoke(["report", "--config", str(config_path)]).exit_code == 0
        assert (out / "report" / "summary.json").read_text() == summary

    def test_report_refuses_a_truncated_done_trace(self, campaign):
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan", "run"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        trace = sorted((out / "traces").rglob("run*.csv"))[0]
        rows = trace.read_text().splitlines()
        assert len(rows) - 1 == 16
        trace.write_text("\n".join(rows[:-1]) + "\n")
        r = invoke(["report", "--config", str(config_path)])
        assert r.exit_code == 2, r.output
        assert f"{trace}: 15 rows, but its run is journaled done with 16 IOs" in r.output
        assert not (out / "report").exists()

    def test_report_reads_run_means_from_the_journal(self, campaign):
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan", "run", "report"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        summary = json.loads((out / "report" / "summary.json").read_text())
        step = "granularity/SR/io_size=32768/run0"  # a point of the SR baseline cost
        edit_journal(out, step, lambda e: {**e, "mean_us": e["mean_us"] * 1.1})
        assert invoke(["report", "--config", str(config_path)]).exit_code == 0
        edited = json.loads((out / "report" / "summary.json").read_text())
        assert edited["baseline_cost_us"]["SR"] > summary["baseline_cost_us"]["SR"]
        assert edited["baseline_cost_us"]["RR"] == summary["baseline_cost_us"]["RR"]

    @pytest.mark.parametrize("damage, message", [
        ("journal", "granularity/SR/io_size=32768/run0 is journaled done without its mean_us"),
        ("trace", "SR/io_size=32768/run0.csv: missing, but its run is journaled done"),
    ])
    def test_report_refuses_a_done_run_without_its_result(self, campaign, damage, message):
        # a journal from before runs journaled their means, or a deleted trace
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan", "run"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        step = "granularity/SR/io_size=32768/run0"
        if damage == "journal":
            edit_journal(out, step, lambda e: {k: v for k, v in e.items() if k != "mean_us"})
        else:
            next((out / "traces").rglob("SR/io_size=32768/run0.csv")).unlink()
        r = invoke(["report", "--config", str(config_path)])
        assert r.exit_code == 2, r.output
        assert message in r.output
        assert not (out / "report").exists()

    def test_report_refuses_a_plan_other_than_the_one_run_began_on(self, campaign):
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan", "run", "report"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        begun = hashlib.sha256((out / "plan.json").read_bytes()).hexdigest()
        config = json.loads(config_path.read_text())
        config["suite"]["repetitions"] = 2
        config_path.write_text(json.dumps(config))
        assert invoke(["plan", "--config", str(config_path)]).exit_code == 0
        replaced = hashlib.sha256((out / "plan.json").read_bytes()).hexdigest()
        assert replaced != begun
        summary = (out / "report" / "summary.json").read_bytes()
        r = invoke(["report", "--config", str(config_path)])
        assert r.exit_code == 2, r.output
        assert f"plan.json is {replaced}, but run began on plan {begun}" in r.output
        assert (out / "report" / "summary.json").read_bytes() == summary

    def test_report_refuses_a_config_that_no_longer_builds_the_plan(self, campaign):
        # the alignment sweep makes the plan's steps depend on base_io_size
        config_path, out = campaign
        edit_config(config_path, lambda c: c["suite"].update(micros=["granularity", "alignment"]))
        for cmd in ("format", "calibrate", "plan", "run", "report"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        report = {p: p.read_bytes() for p in (out / "report").rglob("*") if p.is_file()}
        edit_config(config_path, lambda c: c["suite"].update(base_io_size=64 * 1024))
        r = invoke(["report", "--config", str(config_path)])
        assert r.exit_code == 2, r.output
        assert PLAN_DRIFT in r.output
        assert {p: p.read_bytes() for p in (out / "report").rglob("*") if p.is_file()} == report

    def test_report_refuses_an_io_size_the_plan_was_not_built_with(self, campaign):
        # the granularity sweep's sizes do not depend on base_io_size, but
        # the plan holds the size at which report states baseline costs
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan", "run", "report"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        report = {p: p.read_bytes() for p in (out / "report").rglob("*") if p.is_file()}
        edit_config(config_path, lambda c: c["suite"].update(base_io_size=64 * 1024))
        r = invoke(["report", "--config", str(config_path)])
        assert r.exit_code == 2, r.output
        assert PLAN_DRIFT in r.output
        assert {p: p.read_bytes() for p in (out / "report").rglob("*") if p.is_file()} == report

    def test_plan_json_indented_as_before_still_runs_and_reports(self, campaign):
        # plan.json was written indented until the same format 6 went
        # compact; a campaign planned then resumes, and run journals the
        # hash of the file it finds
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        compact = (out / "plan.json").read_text()
        assert "\n" not in compact
        indented = json.dumps(json.loads(compact), indent=2, sort_keys=True)
        (out / "plan.json").write_text(indented)
        for cmd in ("run", "report", "report"):
            r = invoke([cmd, "--config", str(config_path)])
            assert r.exit_code == 0, r.output
        journal = (out / "journal.jsonl").read_text().splitlines()
        runs = [e for e in map(json.loads, journal) if e["step"] == "run"]
        assert runs and {e["plan"] for e in runs} == {hashlib.sha256(indented.encode()).hexdigest()}
        assert (out / "plan.json").read_text() == indented

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["steps"][0].update(experiment=len(p["experiments"])), "out of range"),
        (lambda p: p["steps"][0].update(experiment=-1), "experiment -1 out of range"),
        (lambda p: p["experiments"].append(p["experiments"][0]), "no run step names it"),
    ], ids=["out-of-range", "negative", "unnamed"])
    def test_run_and_report_refuse_a_plan_with_a_bad_reference(self, campaign, monkeypatch,
                                                               edit, message):
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        plan = json.loads((out / "plan.json").read_text())
        edit(plan)
        (out / "plan.json").write_text(json.dumps(plan))
        ios = record_device_ios(monkeypatch)
        for cmd in ("run", "report"):
            r = invoke([cmd, "--config", str(config_path)])
            assert r.exit_code == 2, r.output
            assert message in r.output
        assert ios == []
        assert not (out / "traces").exists() and not (out / "report").exists()

    def test_run_refuses_a_seed_that_no_longer_builds_the_plan(self, campaign, monkeypatch):
        # the plan's reset seeds, like its pattern seeds, come from the old seed
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        edit_config(config_path, lambda c: c.update(seed=4))
        assert_run_refuses_the_plan(config_path, out, monkeypatch)

    def test_run_refuses_a_plan_written_before_calibrate(self, campaign, monkeypatch):
        # plan took the default IO counts; calibrate then recommends 125 more
        # RW IOs for the highend start-up
        config_path, out = campaign
        profile_path = config_path.parent / "highend.json"
        profile_path.write_text(builtin_profile("highend-ssd", capacity=64 * MB).to_json())
        edit_config(config_path, lambda c: c.update(
            device={"simulator_profile": str(profile_path)}, suite={"micros": ["alignment"]}
        ))
        for cmd in ("format", "plan", "calibrate"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        assert json.loads((out / "device_profile.json").read_text())["startup"]["RW"] > 0
        assert_run_refuses_the_plan(config_path, out, monkeypatch)


def assert_run_refuses_the_plan(config_path, out, monkeypatch):
    """run exits 2 on plan drift, before any device IO."""
    state = (out / "device_state.bin").read_bytes()
    ios = record_device_ios(monkeypatch)
    r = invoke(["run", "--config", str(config_path)])
    assert r.exit_code == 2, r.output
    assert PLAN_DRIFT in r.output
    assert ios == []
    assert not (out / "traces").exists()
    assert (out / "device_state.bin").read_bytes() == state


PLAN_DRIFT = "plan.json is not the plan that the config and device_profile.json build"


def edit_config(config_path, edit):
    config = json.loads(config_path.read_text())
    edit(config)
    config_path.write_text(json.dumps(config))


# Config and simulator-profile inputs that must stop a command with exit 2
# before it touches the device: (edit of config, profile, raw file path;
# the key the error message names).
MALFORMED_INPUTS = [
    pytest.param(
        lambda c, p, raw: c.update(device={"raw_path": str(raw)}, force="false"),
        "force", id="force-string",
    ),
    pytest.param(lambda c, p, raw: c.update(seed=None), "seed", id="seed-null"),
    pytest.param(lambda c, p, raw: p.update(page_size=None), "page_size", id="profile-page-size-null"),
    pytest.param(
        lambda c, p, raw: c["calibration"].update(long_io_cout=4096), "long_io_cout",
        id="calibration-misspelt",
    ),
    pytest.param(
        lambda c, p, raw: c.update(thresholds={"dispersoin": 0.1}), "dispersoin",
        id="thresholds-misspelt",
    ),
    pytest.param(lambda c, p, raw: c.update(sede=4), "sede", id="top-level-misspelt"),
    pytest.param(
        lambda c, p, raw: c["device"].update(raw_pth=str(raw)), "raw_pth", id="device-misspelt"
    ),
    pytest.param(
        lambda c, p, raw: c["suite"].update(
            io_ignore_by_pattern={"SR": 10, "RR": 10, "SW": 10, "RW": 10}
        ),
        "io_ignore_by_pattern", id="suite-io-ignore",
    ),
    pytest.param(lambda c, p, raw: p.update(seed=7), "seed", id="profile-seed"),
    pytest.param(
        lambda c, p, raw: c["suite"].update(io_count_by_pattern={"SR": 16, "SW": 16, "RW": 16}),
        "io_count_by_pattern", id="suite-count-missing-baseline",
    ),
    pytest.param(
        lambda c, p, raw: c["suite"].update(
            io_count_by_pattern={"SR": 16, "RR": 0, "SW": 16, "RW": 16}
        ),
        "io_count_by_pattern", id="suite-count-zero",
    ),
    pytest.param(
        lambda c, p, raw: c["suite"].update(base_io_size=1000), "base_io_size",
        id="suite-io-size-unaligned",
    ),
    pytest.param(
        lambda c, p, raw: c["suite"].update(extra_io_sizes=[700]), "extra_io_sizes",
        id="suite-extra-size-unaligned",
    ),
    pytest.param(
        lambda c, p, raw: c["suite"].update(base_target_offset=100), "base_target_offset",
        id="suite-offset-unaligned",
    ),
    pytest.param(
        lambda c, p, raw: c["suite"].update(repetitions=0), "repetitions",
        id="suite-repetitions-zero",
    ),
    pytest.param(
        lambda c, p, raw: c["suite"].update(burst_fixed_pause_us=-1), "burst_fixed_pause_us",
        id="suite-pause-negative",
    ),
    pytest.param(
        lambda c, p, raw: c["calibration"].update(observe_reads=0), "observe_reads",
        id="calibration-observe-zero",
    ),
    pytest.param(
        lambda c, p, raw: c["calibration"].update(long_io_count=0), "long_io_count",
        id="calibration-long-zero",
    ),
    pytest.param(
        lambda c, p, raw: c["calibration"].update(settle_pause_us=-5), "settle_pause_us",
        id="calibration-settle-negative",
    ),
    # valid alone, but no plan can be built from them on this device
    pytest.param(
        lambda c, p, raw: c["suite"].update(base_target_size=1024), "target_size",
        id="suite-target-below-io-size",
    ),
    pytest.param(
        lambda c, p, raw: c["suite"].update(base_target_offset=1 * GB), "base_target_offset",
        id="suite-offset-past-capacity",
    ),
    pytest.param(
        lambda c, p, raw: c["suite"].update(micros=["locality"], max_target_size=None),
        "locality/RR/target_size=67108864", id="suite-target-past-capacity",
    ),
]


class TestValidation:
    @pytest.mark.parametrize("edit, key", MALFORMED_INPUTS)
    def test_malformed_input_exits_two_before_device_io(self, campaign, edit, key):
        config_path, out = campaign
        config = json.loads(config_path.read_text())
        profile_path = Path(config["device"]["simulator_profile"])
        profile = json.loads(profile_path.read_text())
        raw = config_path.parent / "disk"
        blob = bytes(range(256)) * 4096
        raw.write_bytes(blob)
        edit(config, profile, raw)
        config_path.write_text(json.dumps(config))
        profile_path.write_text(json.dumps(profile))

        r = invoke(["format", "--config", str(config_path)])
        assert r.exit_code == 2, r.output
        assert key in r.output
        assert not (out / "device_state.bin").exists()
        assert raw.read_bytes() == blob

    def test_calibrated_counts_that_cannot_be_planned_exit_two(self, tmp_path):
        # the default IO counts fit a 256 MB lowend-usb, the calibrated
        # ones (SW 2560) do not: calibrate stops before saving the profile
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "device": {"simulator_profile": "lowend-usb"},
            "output_dir": str(tmp_path / "out"),
            "suite": {"micros": ["granularity"]},
            "calibration": {"long_io_count": 4096, "settle_pause_us": 1_000_000,
                            "observe_reads": 256, "disturb_writes": 64, "probe_reads": 64},
        }))
        assert invoke(["format", "--config", str(config_path)]).exit_code == 0
        r = invoke(["calibrate", "--config", str(config_path)])
        assert r.exit_code == 2
        assert "granularity/SW/io_size=131072: target of 335544320 bytes exceeds capacity" in r.output
        assert not (tmp_path / "out" / "device_profile.json").exists()

    def test_suite_whose_runs_fit_only_range_by_range_exits_two_before_format(self, tmp_path):
        # on 64 MB, mix/SR+RR at ratio 8 places 52.75 MB of sequential
        # reads beside a 16 MB random roam: each range fits, the two do not
        profile_path = tmp_path / "highend.json"
        profile_path.write_text(builtin_profile("highend-ssd", capacity=64 * MB).to_json())
        out = tmp_path / "out"
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "device": {"simulator_profile": str(profile_path)},
            "output_dir": str(out),
            "suite": {"micros": ["mix"],
                      "io_count_by_pattern": {"SR": 1900, "RR": 64, "SW": 64, "RW": 64}},
        }))
        r = invoke(["format", "--config", str(config_path)])
        assert r.exit_code == 2, r.output
        assert "mix/SR+RR/ratio=8: target of 72089600 bytes exceeds capacity" in r.output
        assert not (out / "device_state.bin").exists()
        journal = out / "journal.jsonl"
        assert not journal.exists() or '"format"' not in journal.read_text()

    @pytest.mark.parametrize("extra", [[4096], [1536, 1536]], ids=["sweep-point", "listed-twice"])
    def test_repeated_step_ids_exit_two_before_device_io(self, campaign, extra):
        # 4096 is already a point of the granularity sweep, and a size listed
        # twice is swept twice: two experiments would share one id, so their
        # runs would share trace files and journal steps
        config_path, out = campaign
        message = f"granularity/SR/io_size={extra[0]}/run0: repeated step id"
        edit_config(config_path, lambda c: c["suite"].update(extra_io_sizes=extra))
        r = invoke(["format", "--config", str(config_path)])
        assert r.exit_code == 2, r.output
        assert message in r.output
        assert not (out / "device_state.bin").exists()

        edit_config(config_path, lambda c: c["suite"].update(extra_io_sizes=[]))
        assert invoke(["format", "--config", str(config_path)]).exit_code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        edit_config(config_path, lambda c: c["suite"].update(extra_io_sizes=extra))
        for stage in ("calibrate", "plan"):
            r = invoke([stage, "--config", str(config_path)])
            assert r.exit_code == 2, r.output
            assert message in r.output
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize("field, value", [
        ("page_size", 0), ("gc_batch_blocks", 0), ("controller_overhead_us", -100),
    ])
    def test_out_of_range_profile_value_exits_two_before_any_io(self, tmp_path, field, value):
        # these failed with a ZeroDivisionError, failed with an IndexError
        # once format's writes had begun, and were accepted, in that order
        profile = builtin_profile("lowend-usb", capacity=16 * MB, spare_blocks=40)
        profile = json.loads(profile.to_json())
        profile[field] = value
        profile_path = tmp_path / "lowend.json"
        profile_path.write_text(json.dumps(profile))
        out = tmp_path / "out"
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "device": {"simulator_profile": str(profile_path)},
            "output_dir": str(out),
            "suite": {"micros": ["order"]},
        }))
        r = invoke(["format", "--config", str(config_path)])
        assert r.exit_code == 2, r.output
        assert f"{field} must be at least" in r.output
        assert not (out / "journal.jsonl").exists()
        assert not (out / "device_state.bin").exists()

    def test_missing_simulator_profile_file_named(self, tmp_path):
        missing = tmp_path / "prof" / "missing.json"
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "device": {"simulator_profile": str(missing)},
            "output_dir": str(tmp_path / "out"),
        }))
        r = invoke(["format", "--config", str(config_path)])
        assert r.exit_code == 2, r.output
        assert f"No such file or directory: '{missing}'" in r.output
        assert "unknown profile" not in r.output

    def test_raw_device_requires_force(self, tmp_path):
        blob = tmp_path / "disk"
        blob.write_bytes(b"\0" * MB)
        config = {
            "device": {"raw_path": str(blob)},
            "output_dir": str(tmp_path / "out"),
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(config))
        r = invoke(["format", "--config", str(p)])
        assert r.exit_code == 2
        assert "force" in r.output

    def test_two_device_selectors_rejected(self, tmp_path):
        config = {
            "device": {"raw_path": "/dev/null", "simulator_profile": "highend-ssd"},
            "output_dir": str(tmp_path / "out"),
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(config))
        r = invoke(["plan", "--config", str(p)])
        assert r.exit_code == 2

    def test_run_without_plan_fails_validation(self, campaign):
        config_path, _ = campaign
        r = invoke(["run", "--config", str(config_path)])
        assert r.exit_code == 2

    def test_unopenable_raw_device_exits_three(self, tmp_path):
        config = {
            "device": {"raw_path": str(tmp_path / "does-not-exist")},
            "output_dir": str(tmp_path / "out"),
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(config))
        r = invoke(["format", "--config", str(p), "--force"])
        assert r.exit_code == 3

    def test_misspelt_simulator_profile_key_rejected(self, tmp_path):
        profile = json.loads(SimProfile(capacity=32 * MB, name="tinysim").to_json())
        profile["page_sise"] = profile.pop("page_size")
        profile_path = tmp_path / "tinysim.json"
        profile_path.write_text(json.dumps(profile))
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "device": {"simulator_profile": str(profile_path)},
            "output_dir": str(tmp_path / "out"),
        }))
        r = invoke(["format", "--config", str(p)])
        assert r.exit_code == 2
        assert "page_sise" in r.output

    def test_unknown_suite_option_rejected(self, tmp_path):
        config = {
            "device": {"simulator_profile": "highend-ssd"},
            "output_dir": str(tmp_path / "out"),
            "suite": {"warp_speed": True},
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(config))
        r = invoke(["plan", "--config", str(p)])
        assert r.exit_code == 2


class TestDocs:
    def test_readme_config_table_lists_every_decoded_key(self):
        text = README.read_text()
        table = text[text.index("### Config keys"):].split("\n### ")[0]
        documented = set(re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE))

        def section(prefix, cls, leave_out=()):
            return {f"{prefix}{f.name}" for f in fields(cls) if f.name not in leave_out}

        decoded = (
            section("", CampaignConfig)
            | section("device.", DeviceConfig)
            | section("suite.", SuiteConfig, leave_out={"seed"}) | {"suite.micros"}
            | section("calibration.", CalibrationConfig)
            | section("thresholds.", SummaryThresholds) | {"thresholds.dispersion"}
        )
        assert documented == decoded
