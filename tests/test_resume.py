"""Interrupted campaigns: the journal, the simulator snapshot it is cut
back to, and the property that a resumed campaign's artifacts equal an
uninterrupted one's."""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from flashmark import cli
from flashmark.device import builtin_profile
from flashmark.journal import Journal
from flashmark.microbench import StateReset
from flashmark.runner import trace_relpath
from flashmark.serialization import load_plan
from faults import failing_writes
from test_cli import assert_run_refuses_the_plan, record_device_ios
from test_device_sim import with_header

MB = 1024 * 1024
STAGES = ("format", "calibrate", "plan", "run", "report")


def invoke(stage, config_path):
    return CliRunner().invoke(cli.main, [stage, "--config", str(config_path)],
                              catch_exceptions=False)


def write_campaign(root: Path, profile: str) -> Path:
    """A 4 MB campaign whose plan holds state resets and 118 runs, mixed
    and multi-worker ones among them."""
    root.mkdir(parents=True, exist_ok=True)
    profile_path = root / "profile.json"
    profile_path.write_text(builtin_profile(profile, capacity=4 * MB).to_json())
    config = {
        "device": {"simulator_profile": str(profile_path)},
        "output_dir": str(root / "out"),
        "seed": 5,
        "suite": {
            "micros": ["granularity", "mix", "parallelism"],
            "io_count_by_pattern": {"SR": 16, "RR": 16, "SW": 16, "RW": 16},
            "repetitions": 1,
            "base_target_size": 2 * MB,
        },
        "calibration": {"long_io_count": 256, "settle_pause_us": 1_000_000,
                        "observe_reads": 256, "disturb_writes": 64, "probe_reads": 64},
    }
    config_path = root / "campaign.json"
    config_path.write_text(json.dumps(config))
    return config_path


def run_campaign(config_path: Path, fail_at=frozenset()) -> int:
    """Every stage, each re-run until it exits 0; the simulator writes
    whose 1-based index (over the whole campaign) is in fail_at fail.
    Returns the number of writes issued."""
    with failing_writes(*fail_at) as count:
        for stage in STAGES:
            for _ in range(len(fail_at) + 1):
                r = invoke(stage, config_path)
                if r.exit_code == 0:
                    break
                assert r.exit_code == 3, r.output
            assert r.exit_code == 0, r.output
    return count[0]


def artifacts(out: Path) -> dict[str, bytes]:
    files = [*out.glob("traces/**/*.csv"), *out.glob("report/**/*.*"),
             out / "device_state.bin", out / "journal.jsonl"]
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in files}


class Campaigns(dict):
    def __repr__(self):  # hypothesis prints it with each falsifying example
        return f"<uninterrupted campaigns on {sorted(self)}>"


# formats and state resets of the 4 MB campaign are about 70 IOs: at 16 IOs
# a checkpoint they resume at lands inside them
CHECKPOINT_IOS = (16, cli.CHECKPOINT_IOS)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Per built-in profile and checkpoint interval: the artifacts and
    write count of a campaign."""
    out = Campaigns()
    for profile in ("highend-ssd", "lowend-usb"):
        for checkpoint_ios in CHECKPOINT_IOS:
            root = tmp_path_factory.mktemp(profile)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(cli, "CHECKPOINT_IOS", checkpoint_ios)
                config_path = write_campaign(root, profile)
                writes = run_campaign(config_path)
            out[profile, checkpoint_ios] = (artifacts(root / "out"), writes)
    return out


@settings(max_examples=24, deadline=None)
@given(
    profile=st.sampled_from(["highend-ssd", "lowend-usb"]),
    commit_ios=st.sampled_from([1, 300, cli.COMMIT_IOS]),
    checkpoint_ios=st.sampled_from(CHECKPOINT_IOS),
    data=st.data(),
)
def test_interrupted_campaign_equals_uninterrupted(
    uninterrupted, profile, commit_ios, checkpoint_ios, data
):
    # the failures land in format, calibrate, state resets and runs alike
    expected, writes = uninterrupted[profile, checkpoint_ios]
    fail_at = data.draw(st.sets(st.integers(1, writes), min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "COMMIT_IOS", commit_ios)
        m.setattr(cli, "CHECKPOINT_IOS", checkpoint_ios)
        config_path = write_campaign(Path(tmp), profile)
        run_campaign(config_path, frozenset(fail_at))
        got = artifacts(config_path.parent / "out")
    assert sorted(k for k in expected.keys() | got.keys() if got.get(k) != expected.get(k)) == []


def test_state_reset_resumes_at_its_checkpoint(tmp_path, monkeypatch):
    # a write of the first state reset fails after its first checkpoint; the
    # re-run resumes the reset there and issues only the writes left
    monkeypatch.setattr(cli, "COMMIT_IOS", 1)
    monkeypatch.setattr(cli, "CHECKPOINT_IOS", 16)
    configs = {tag: write_campaign(tmp_path / tag, "lowend-usb") for tag in ("whole", "killed")}
    for config_path in configs.values():
        for stage in ("format", "calibrate", "plan"):
            assert invoke(stage, config_path).exit_code == 0
    with failing_writes() as run_writes:
        assert invoke("run", configs["whole"]).exit_code == 0

    whole = tmp_path / "whole" / "out"
    plan = load_plan(whole / "plan.json")
    reset = next(i for i, s in enumerate(plan.steps) if isinstance(s, StateReset))
    writes_before = sum(
        row.split(",")[5] == "write"
        for _, step_id in map(plan.resolve, plan.steps[:reset])
        for row in (whole / "traces" / trace_relpath(step_id, "lowend-usb")).read_text().splitlines()
    )
    # the reset's 20th write fails: the checkpoint at 16 IOs is journaled
    with failing_writes(writes_before + 20):
        assert invoke("run", configs["killed"]).exit_code == 3
    with failing_writes() as resumed_writes:
        r = invoke("run", configs["killed"])
    assert r.exit_code == 0, r.output
    assert f"resuming reset/{reset} at IO 16" in r.output
    assert resumed_writes[0] == run_writes[0] - writes_before - 16

    for config_path in configs.values():
        assert invoke("report", config_path).exit_code == 0
    assert artifacts(tmp_path / "killed" / "out") == artifacts(whole)


def test_run_seeds_each_reset_from_the_plan(tmp_path, monkeypatch):
    config_path = write_campaign(tmp_path, "lowend-usb")
    for stage in ("format", "calibrate", "plan"):
        assert invoke(stage, config_path).exit_code == 0
    seeds = []
    real_enforce = cli.enforce_random_state

    def enforce(dev, seed, **kwargs):
        seeds.append(seed)
        return real_enforce(dev, seed, **kwargs)

    monkeypatch.setattr(cli, "enforce_random_state", enforce)
    assert invoke("run", config_path).exit_code == 0
    plan = load_plan(tmp_path / "out" / "plan.json")
    assert seeds == [s.seed for s in plan.steps if isinstance(s, StateReset)]
    assert len(set(seeds)) == len(seeds) > 1


def test_run_refuses_a_plan_with_an_edited_reset_seed(tmp_path, monkeypatch):
    config_path = write_campaign(tmp_path, "lowend-usb")
    out = tmp_path / "out"
    for stage in ("format", "calibrate", "plan"):
        assert invoke(stage, config_path).exit_code == 0
    plan = json.loads((out / "plan.json").read_text())
    next(s for s in plan["steps"] if s["kind"] == "state_reset")["seed"] += 1
    (out / "plan.json").write_text(json.dumps(plan))
    assert_run_refuses_the_plan(config_path, out, monkeypatch)


def test_rerun_of_a_finished_campaign_is_a_no_op(tmp_path, monkeypatch):
    # each stage finds its work journaled done: no device IO, and the
    # snapshot and journal keep their bytes
    config_path = write_campaign(tmp_path, "highend-ssd")
    run_campaign(config_path)
    out = tmp_path / "out"
    state = (out / "device_state.bin").read_bytes()
    journal = (out / "journal.jsonl").read_bytes()
    ios = record_device_ios(monkeypatch)
    outputs = {}
    for stage in ("format", "calibrate", "plan", "run"):
        r = invoke(stage, config_path)
        assert r.exit_code == 0, r.output
        outputs[stage] = r.output
    assert ios == []
    assert (out / "device_state.bin").read_bytes() == state
    assert (out / "journal.jsonl").read_bytes() == journal
    assert "calibrate already complete" in outputs["calibrate"]
    assert "runs executed: 0" in outputs["run"]


class TestJournal:
    def test_torn_last_line_is_dropped_before_the_next_entry(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.record("a", status="done")
        journal.record("b", status="done")
        with path.open("a") as fp:
            fp.write('{"status": "do')  # a crash mid-append
        journal = Journal(path)
        journal.record("c", status="done")
        journal.record("d", status="done")
        assert [e["step"] for e in Journal(path).entries] == ["a", "b", "c", "d"]

    def test_cut_keeps_a_prefix_and_rewrites_the_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        for step in "abc":
            journal.record(step)
        journal.cut(1)
        assert [e["step"] for e in Journal(path).entries] == ["a"]
        with pytest.raises(ValueError, match="journal holds 1 entries, but the device snapshot reflects 2"):
            journal.cut(2)


class TestResume:
    def test_journal_shorter_than_snapshot_exits_two(self, tmp_path):
        config_path = write_campaign(tmp_path, "lowend-usb")
        out = tmp_path / "out"
        for stage in ("format", "calibrate", "plan"):
            assert invoke(stage, config_path).exit_code == 0
        (out / "journal.jsonl").write_text("")
        r = invoke("run", config_path)
        assert r.exit_code == 2
        # calibrate's snapshot reflects format done and calibrate done
        assert "journal holds 0 entries, but the device snapshot reflects 2" in r.output
        assert "start the campaign again from format in a new output_dir" in r.output

    def test_format_two_snapshot_exits_three_and_keeps_the_journal(self, tmp_path):
        config_path = write_campaign(tmp_path, "lowend-usb")
        out = tmp_path / "out"
        assert invoke("format", config_path).exit_code == 0
        blob = (out / "device_state.bin").read_bytes()
        n = int.from_bytes(blob[:8], "little")
        header = json.loads(blob[8 : 8 + n])
        header["version"] = 2
        del header["journaled"]
        head = json.dumps(header, sort_keys=True).encode()
        (out / "device_state.bin").write_bytes(len(head).to_bytes(8, "little") + head + blob[8 + n :])
        journal = (out / "journal.jsonl").read_bytes()
        r = invoke("format", config_path)
        assert r.exit_code == 3
        assert "snapshot version mismatch: 2" in r.output
        assert (out / "journal.jsonl").read_bytes() == journal

    @pytest.mark.parametrize("damage", ["truncated", "no-pool", "journaled-a-string"])
    def test_unusable_snapshot_exits_three_and_changes_nothing(self, tmp_path, damage):
        config_path = write_campaign(tmp_path, "highend-ssd")
        out = tmp_path / "out"
        assert invoke("format", config_path).exit_code == 0
        blob = (out / "device_state.bin").read_bytes()
        header = json.loads(blob[8 : 8 + int.from_bytes(blob[:8], "little")])
        if damage == "truncated":
            blob = blob[:-100]
        elif damage == "no-pool":
            blob = with_header(blob, {k: v for k, v in header.items() if k != "pool"})
        else:
            blob = with_header(blob, {**header, "journaled": str(header["journaled"])})
        (out / "device_state.bin").write_bytes(blob)
        journal = (out / "journal.jsonl").read_bytes()
        r = invoke("calibrate", config_path)
        assert r.exit_code == 3, r.output
        assert (out / "device_state.bin").read_bytes() == blob
        assert (out / "journal.jsonl").read_bytes() == journal
        assert not (out / "device_profile.json").exists()

    def test_run_against_a_replanned_suite_exits_two(self, tmp_path):
        config_path = write_campaign(tmp_path, "lowend-usb")
        out = tmp_path / "out"
        for stage in ("format", "calibrate", "plan", "run"):
            assert invoke(stage, config_path).exit_code == 0
        old = hashlib.sha256((out / "plan.json").read_bytes()).hexdigest()
        config = json.loads(config_path.read_text())
        config["suite"]["repetitions"] = 2
        config_path.write_text(json.dumps(config))
        assert invoke("plan", config_path).exit_code == 0
        new = hashlib.sha256((out / "plan.json").read_bytes()).hexdigest()
        state = (out / "device_state.bin").read_bytes()
        r = invoke("run", config_path)
        assert r.exit_code == 2
        assert old in r.output and new in r.output
        assert (out / "device_state.bin").read_bytes() == state
