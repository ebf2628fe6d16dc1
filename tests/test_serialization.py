import json
from dataclasses import replace
from pathlib import Path

import pytest

from flashmark.device import SimProfile
from flashmark.methodology import DeviceProfile, build_plan
from flashmark.microbench import (
    BenchmarkPlan,
    ExperimentSpec,
    Micro,
    RunStep,
    StateReset,
    SuiteConfig,
    expand,
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
GB = 1024 * MB


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
        experiments=[exp], steps=[StateReset(seed=11), RunStep(0, 0)],
        capacity=64 * MB, io_size=32 * KB,
    )


def plan_data() -> dict:
    return json.loads(json.dumps(plan_to_dict(small_plan())))


class TestTags:
    def test_union_positions_carry_kind(self):
        d = plan_data()
        assert d["format_version"] == PLAN_FORMAT_VERSION
        assert [s["kind"] for s in d["steps"]] == ["state_reset", "run"]
        assert d["steps"][1] == {"kind": "run", "experiment": 0, "run_index": 0}
        pattern = d["experiments"][0]["pattern"]
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
        d["experiments"][0]["pattern"]["timing"]["kind"] = "jitter"
        with pytest.raises(SchemaError, match="jitter"):
            plan_from_dict(d)

    def test_unknown_step_kind_rejected(self):
        d = plan_data()
        d["steps"][0]["kind"] = "trim"
        with pytest.raises(SchemaError, match="trim"):
            plan_from_dict(d)

    def test_unknown_key_rejected(self):
        d = plan_data()
        d["experiments"][0]["pattern"]["io_sise"] = 4096
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

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_older_format_plan_rejected(self, version):
        d = plan_data()
        d["format_version"] = version
        # format 5 and older held each run's experiment inline
        d["steps"][1]["experiment"] = d.pop("experiments")[0]
        if version == 3:  # format 3 held a pause step before every run
            d["steps"].insert(1, {"kind": "pause", "duration_us": 1_000_000})
        if version == 4:  # format 4 held no reset seeds and no summary IO size
            del d["steps"][0]["seed"], d["io_size"]
        expected = rf"plan format {version} not supported \(expected {PLAN_FORMAT_VERSION}\)"
        with pytest.raises(SchemaError, match=expected):
            plan_from_dict(d)

    def test_unknown_profile_key_rejected(self):
        with pytest.raises(SchemaError, match="page_sise"):
            from_data(SimProfile, {"page_sise": 2048})

    def test_profile_defaults_fill_missing_keys(self):
        assert from_data(DeviceProfile, {"inter_run_pause_us": 5}) == DeviceProfile(
            inter_run_pause_us=5
        )
        assert from_data(DeviceProfile, {"flags": ["a"]}).flags == ("a",)


def two_experiment_plan() -> BenchmarkPlan:
    """Two experiments of two runs each, the second after a state reset."""
    first = small_plan().experiments[0]
    second = replace(first, varying_value=8, pattern=make_spec(io_count=8))
    return BenchmarkPlan(
        experiments=[first, second],
        steps=[RunStep(0, 0), RunStep(0, 1), StateReset(seed=5), RunStep(1, 0), RunStep(1, 1)],
        capacity=64 * MB, io_size=32 * KB,
    )


class TestPlanReferences:
    """plan.json states each experiment once; run steps name it by position."""

    def test_runs_of_one_experiment_decode_to_one_object(self):
        plan = two_experiment_plan()
        d = plan_to_dict(plan)
        assert len(d["experiments"]) == 2
        assert [s.get("experiment") for s in d["steps"]] == [0, 0, None, 1, 1]
        again = plan_from_dict(json.loads(json.dumps(d)))
        assert again == plan
        assert [again.resolve(s) for s in again.run_steps()] == [
            (e, e.run_id(k)) for e in plan.experiments for k in (0, 1)
        ]

    def test_equal_plans_encode_to_equal_bytes(self, tmp_path):
        cfg = SuiteConfig(io_count_by_pattern={"SR": 64, "RR": 64, "SW": 64, "RW": 64})
        plans = [build_plan(expand(Micro.MIX, cfg)[:4], DeviceProfile(), 32 * GB, cfg)
                 for _ in range(2)]
        texts = []
        for k, plan in enumerate(plans):
            save_plan(plan, tmp_path / f"plan{k}.json")
            texts.append((tmp_path / f"plan{k}.json").read_bytes())
        assert texts[0] == texts[1]
        assert len(json.loads(texts[0])["experiments"]) == 4

    @pytest.mark.parametrize("edit, message", [
        (lambda ref: ref.update(repeat=2), r"RunStep: unknown key\(s\) \['repeat'\]"),
        (lambda ref: ref.pop("experiment"), r"RunStep: missing key\(s\) \['experiment'\]"),
        (lambda ref: ref.update(experiment=2), r"steps\[3\]: experiment 2 out of range"),
        (lambda ref: ref.update(experiment=-1), r"steps\[3\]: experiment -1 out of range"),
        (lambda ref: ref.update(experiment=True), r"RunStep\.experiment: expected int, got True"),
        (lambda ref: ref.update(experiment="1"), r"RunStep\.experiment: expected int, got '1'"),
    ], ids=["unknown-key", "missing-key", "out-of-range", "negative", "bool", "string"])
    def test_bad_run_reference_rejected(self, edit, message):
        d = json.loads(json.dumps(plan_to_dict(two_experiment_plan())))
        edit(d["steps"][3])
        with pytest.raises(SchemaError, match=message):
            plan_from_dict(d)

    def test_experiment_no_run_names_is_rejected(self):
        d = json.loads(json.dumps(plan_to_dict(two_experiment_plan())))
        d["experiments"].append(d["experiments"][0])
        with pytest.raises(SchemaError, match=r"experiments\[2\]: no run step names it"):
            plan_from_dict(d)

    def test_missing_experiments_rejected(self):
        d = plan_data()
        del d["experiments"]
        with pytest.raises(SchemaError, match=r"missing key\(s\) \['experiments'\]"):
            plan_from_dict(d)


class TestScalarTypes:
    def test_bool_for_int_field_rejected(self):
        with pytest.raises(SchemaError, match=r"BenchmarkPlan\.capacity"):
            from_data(BenchmarkPlan, {"experiments": [], "steps": [], "capacity": True,
                                      "io_size": 32 * KB})

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
        d["experiments"][0]["pattern"]["io_count"] = "16"
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
