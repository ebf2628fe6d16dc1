import json
import os
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from flashmark.cli import main
from flashmark.device import DeviceError, SimProfile, SimulatedDevice

MB = 1024 * 1024


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


def fail_simulator_write(monkeypatch, at):
    """Make the at-th simulator write from now on raise a DeviceError."""
    real_write = SimulatedDevice.write
    count = [0]

    def write(self, lba, size):
        count[0] += 1
        if count[0] == at:
            raise DeviceError("injected write failure")
        return real_write(self, lba, size)

    monkeypatch.setattr(SimulatedDevice, "write", write)


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
        assert plan["format_version"] == 3

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
        p.write_text(json.dumps(
            {"device": {"raw_path": str(disk)}, "output_dir": str(tmp_path / "out")}
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
            }))
        assert invoke(["format", "--config", str(configs["whole"])]).exit_code == 0

        with monkeypatch.context() as m:
            fail_simulator_write(m, at=2500)
            r = invoke(["format", "--config", str(configs["interrupted"])])
        assert r.exit_code == 3
        r = invoke(["format", "--config", str(configs["interrupted"])])
        assert r.exit_code == 0, r.output
        assert "resuming format at IO 2048" in r.output

        whole = (tmp_path / "whole" / "device_state.bin").read_bytes()
        assert (tmp_path / "interrupted" / "device_state.bin").read_bytes() == whole

    def test_run_failure_keeps_partial_trace_and_resumes(self, campaign, monkeypatch):
        config_path, out = campaign
        for cmd in ("format", "calibrate", "plan"):
            assert invoke([cmd, "--config", str(config_path)]).exit_code == 0
        plan = json.loads((out / "plan.json").read_text())
        runs = [s for s in plan["steps"] if s["kind"] == "run"]

        with monkeypatch.context() as m:
            fail_simulator_write(m, at=20)
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
        with monkeypatch.context() as m:
            fail_simulator_write(m, at=at)
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

    def test_resume_false_repeats_runs(self, campaign):
        config_path, out = campaign
        for cmd in (["format"], ["calibrate"], ["plan"], ["run"]):
            assert invoke(cmd + ["--config", str(config_path)]).exit_code == 0
        cfg = json.loads(config_path.read_text())
        cfg["resume"] = False
        config_path.write_text(json.dumps(cfg))
        r = invoke(["run", "--config", str(config_path)])
        assert r.exit_code == 0
        assert "runs executed: 0" not in r.output

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
