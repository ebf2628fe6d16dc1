import json
from dataclasses import replace
from pathlib import Path

import pytest

from flashmark.device import SimProfile
from flashmark.methodology import DeviceProfile
from flashmark.microbench import (
    BenchmarkPlan,
    ExperimentSpec,
    Micro,
    RunStep,
    StateReset,
)
from flashmark.patterns import Burst, Consecutive, MixSpec, Mode, PatternSpec, Random, Sequential
from flashmark.runner import Trace, TraceRecord, save_trace
from flashmark.serialization import (
    PLAN_FORMAT_VERSION,
    SchemaError,
    from_data,
    plan_from_dict,
    plan_to_dict,
    save_plan,
    to_data,
)

KB = 1024
MB = 1024 * KB


def make_spec(**kw):
    base = dict(
        timing=Consecutive(), location=Sequential(), mode=Mode.WRITE,
        io_size=32 * KB, io_shift=0, target_offset=0, target_size=1 * MB,
        io_count=16, seed=7,
    )
    base.update(kw)
    return PatternSpec(**base)


def small_plan() -> BenchmarkPlan:
    exp = ExperimentSpec(
        micro=Micro.BURSTS, baseline="SW", varying_name="burst_count", varying_value=4,
        pattern=make_spec(timing=Burst(pause_us=1000, burst_count=4)),
    )
    return BenchmarkPlan(
        steps=[StateReset(seed=11), RunStep(exp, 0)], capacity=64 * MB, io_size=32 * KB
    )


def plan_data() -> dict:
    return json.loads(json.dumps(plan_to_dict(small_plan())))


class TestTags:
    def test_union_positions_carry_kind(self):
        d = plan_data()
        assert d["format_version"] == PLAN_FORMAT_VERSION
        assert [s["kind"] for s in d["steps"]] == ["state_reset", "run"]
        pattern = d["steps"][1]["experiment"]["pattern"]
        assert pattern["kind"] == "pattern"
        assert pattern["timing"] == {"kind": "burst", "pause_us": 1000, "burst_count": 4}
        assert pattern["location"] == {"kind": "sequential"}

    def test_field_that_fixes_the_class_is_untagged(self):
        mix = MixSpec(
            first=make_spec(),
            second=make_spec(location=Random(), target_offset=4 * MB),
            ratio=2,
        )
        d = to_data(mix)
        assert "kind" not in d
        assert "kind" not in d["first"] and "kind" not in d["second"]

    def test_plan_round_trip(self):
        plan = small_plan()
        assert plan_from_dict(plan_data()) == plan


class TestStrictness:
    def test_unknown_kind_rejected(self):
        d = plan_data()
        d["steps"][1]["experiment"]["pattern"]["timing"]["kind"] = "jitter"
        with pytest.raises(SchemaError, match="jitter"):
            plan_from_dict(d)

    def test_unknown_step_kind_rejected(self):
        d = plan_data()
        d["steps"][0]["kind"] = "trim"
        with pytest.raises(SchemaError, match="trim"):
            plan_from_dict(d)

    def test_unknown_key_rejected(self):
        d = plan_data()
        d["steps"][1]["experiment"]["pattern"]["io_sise"] = 4096
        with pytest.raises(SchemaError, match="io_sise"):
            plan_from_dict(d)

    def test_missing_key_rejected(self):
        d = plan_data()
        del d["steps"][1]["run_index"]
        with pytest.raises(SchemaError, match="run_index"):
            plan_from_dict(d)
        d = plan_data()
        del d["steps"][0]["seed"]
        with pytest.raises(SchemaError, match=r"StateReset: missing key\(s\) \['seed'\]"):
            plan_from_dict(d)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_format_plan_rejected(self, version):
        d = plan_data()
        d["format_version"] = version
        if version == 3:  # format 3 held a pause step before every run
            d["steps"].insert(1, {"kind": "pause", "duration_us": 1_000_000})
        if version == 4:  # format 4 held no reset seeds and no summary IO size
            del d["steps"][0]["seed"], d["io_size"]
        with pytest.raises(SchemaError, match=f"plan format {version} not supported"):
            plan_from_dict(d)

    def test_unknown_profile_key_rejected(self):
        with pytest.raises(SchemaError, match="page_sise"):
            from_data(SimProfile, {"page_sise": 2048})

    def test_profile_defaults_fill_missing_keys(self):
        assert from_data(DeviceProfile, {"inter_run_pause_us": 5}) == DeviceProfile(
            inter_run_pause_us=5
        )
        assert from_data(DeviceProfile, {"flags": ["a"]}).flags == ("a",)


class TestScalarTypes:
    def test_bool_for_int_field_rejected(self):
        with pytest.raises(SchemaError, match=r"BenchmarkPlan\.capacity"):
            from_data(BenchmarkPlan, {"steps": [], "capacity": True, "io_size": 32 * KB})

    def test_string_for_bool_field_rejected(self):
        with pytest.raises(SchemaError, match=r"SimProfile\.hide_stream_gc"):
            from_data(SimProfile, {"hide_stream_gc": "false"})

    def test_null_for_non_optional_field_rejected(self):
        with pytest.raises(SchemaError, match=r"SimProfile\.page_size"):
            from_data(SimProfile, {"page_size": None})

    def test_null_for_optional_field_accepted(self):
        assert from_data(SimProfile, {"spare_blocks": None}).spare_blocks is None

    def test_int_for_float_field_decodes_to_float(self):
        rate = from_data(SimProfile, {"idle_drain_blocks_per_sec": 3}).idle_drain_blocks_per_sec
        assert rate == 3.0 and type(rate) is float

    def test_nested_mismatch_names_the_path(self):
        d = plan_data()
        d["steps"][1]["experiment"]["pattern"]["io_count"] = "16"
        with pytest.raises(SchemaError, match=r"PatternSpec\.io_count: expected int, got '16'"):
            plan_from_dict(d)


class TestAtomicWrites:
    """An artifact a later stage reads is replaced whole or not at all."""

    @pytest.mark.parametrize("artifact", ["plan", "trace"])
    def test_failed_write_keeps_the_previous_bytes(self, tmp_path, monkeypatch, artifact):
        path = tmp_path / f"{artifact}.out"
        if artifact == "plan":
            old, new = small_plan(), replace(small_plan(), capacity=128 * MB)
            save = save_plan
        else:
            old, new = (Trace([TraceRecord(i, 0, rt, 0, 512, "write", 0) for i in range(4)])
                        for rt in (10, 20))
            save = save_trace
        save(old, path)
        before = path.read_bytes()
        real_write_bytes = Path.write_bytes

        def torn_write(self, data):
            real_write_bytes(self, data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", torn_write)
        with pytest.raises(OSError):
            save(new, path)
        assert path.read_bytes() == before
