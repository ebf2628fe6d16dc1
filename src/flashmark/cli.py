"""Command-line pipeline: format, calibrate, plan, run, report.

The stages are separate commands with file handoffs so multi-day
campaigns survive interruption: each writes its artifacts and a manifest
into the campaign output directory, and `format`, `calibrate` and `run`
journal every finished unit of work so a restarted invocation resumes
where it stopped, or does nothing once its stage is done.

Exit codes: 0 success, 2 validation error, 3 device IO error.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import click

from . import __version__
from .analysis import (
    DISPERSION_THRESHOLD,
    SummaryThresholds,
    aggregate,
    build_summary,
    emit_phase_trace,
    emit_plot_data,
)
from .device import (
    BlockDevice,
    DeviceError,
    RawDevice,
    SimProfile,
    SimulatedDevice,
    builtin_profile,
    probe_raw_capabilities,
)
from .journal import Journal
from .methodology import (
    CalibrationConfig,
    DeviceProfile,
    EnforceResult,
    build_plan,
    calibrate_pause,
    calibrate_phases,
    enforce_random_state,
    verify_plan,
)
from .microbench import (
    BenchmarkPlan, ExperimentSpec, Micro, StateReset, SuiteConfig, expand_suite,
)
from .patterns import BASELINES, PatternError, derive_seed
from .runner import execute_run, read_trace_csv, save_trace, summarize, trace_relpath
from .serialization import SchemaError, from_data, load, load_plan, save, save_plan, write_atomic

EXIT_VALIDATION = 2
EXIT_DEVICE = 3

# Device IOs between two simulator snapshots (about 3 s of highend work); IOs,
# not wall time, so every campaign of one seed writes the same snapshots.
COMMIT_IOS = 65536
# Device IOs between two journaled checkpoints of a state enforcement: an
# interrupted `format` or state reset resumes at its last one.
CHECKPOINT_IOS = 2048

_VALIDATION_ERRORS = (ValueError, KeyError, PatternError, SchemaError, FileNotFoundError)


@dataclass(frozen=True)
class DeviceConfig:
    """The device under test: exactly one of the two is set."""

    simulator_profile: str | None = None  # built-in name or profile JSON path
    raw_path: str | None = None


@dataclass
class CampaignConfig:
    """The campaign config file, decoded by the artifact codec: an unknown
    key or a value of the wrong type is a validation error."""

    device: DeviceConfig
    output_dir: Path
    seed: int = 0
    suite: dict = field(default_factory=dict)  # micros plus SuiteConfig overrides
    thresholds: dict = field(default_factory=dict)  # SummaryThresholds plus dispersion
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)

    @classmethod
    def load(cls, path: str | Path) -> "CampaignConfig":
        raw = json.loads(Path(path).read_text())
        cfg = from_data(cls, raw)
        if bool(cfg.device.simulator_profile) == bool(cfg.device.raw_path):
            raise ValueError(
                "config.device must contain exactly one of simulator_profile / raw_path"
            )
        if not raw["output_dir"]:
            raise ValueError("config.output_dir must not be empty")
        # later stages read the suite and thresholds; reject a bad key now
        cfg.micros()
        cfg.suite_overrides()
        cfg.report_thresholds()
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        cfg._config_hash = hashlib.sha256(
            json.dumps(raw, sort_keys=True).encode()
        ).hexdigest()
        return cfg

    @property
    def is_simulator(self) -> bool:
        return bool(self.device.simulator_profile)

    @property
    def sim_state_path(self) -> Path:
        return self.output_dir / "device_state.bin"

    @property
    def device_profile_path(self) -> Path:
        return self.output_dir / "device_profile.json"

    def sim_profile(self) -> SimProfile:
        """The simulator profile: the JSON file of a name ending in .json,
        otherwise a built-in profile name."""
        name = self.device.simulator_profile
        if Path(name).suffix == ".json":
            return load(SimProfile, name)
        return builtin_profile(name)

    def device_label(self) -> str:
        """The device id that names the trace directory."""
        if self.is_simulator:
            return self.sim_profile().name
        return Path(self.device.raw_path).name or "raw"

    def open_device(self, restore_state: bool = True) -> BlockDevice:
        if self.is_simulator:
            dev = SimulatedDevice(self.sim_profile())
            if restore_state and self.sim_state_path.exists():
                dev.load_state(self.sim_state_path)
            return dev
        return RawDevice(self.device.raw_path, write_seed=derive_seed(self.seed, 0xB0F))

    def persist_device(self, dev: BlockDevice) -> None:
        if self.is_simulator:
            dev.save_state(self.sim_state_path)

    def journal(self) -> Journal:
        return Journal(self.output_dir / "journal.jsonl")

    def resume(self, dev: BlockDevice):
        """The journal of a stage that resumes on dev, cut back on a simulator
        to the entries its snapshot reflects, and the stage's commit routine.
        commit(step, n_ios, end=False, **entry) journals a finished unit of
        n_ios device IOs, then snapshots a simulator at a stage end or once
        COMMIT_IOS IOs have passed since the last snapshot.  A failed unit
        (n_ios None) is never snapshotted, so a resume redoes it."""
        journal = self.journal()
        if self.is_simulator:
            journal.cut(dev.journaled)
        pending = 0

        def commit(step: str, n_ios: int | None, end: bool = False, **entry) -> None:
            nonlocal pending
            journal.record(step, **entry)
            if n_ios is None:
                return
            pending += n_ios
            if self.is_simulator and (end or pending >= COMMIT_IOS):
                dev.journaled = len(journal.entries)
                self.persist_device(dev)
                pending = 0

        return journal, commit

    def device_profile(self) -> DeviceProfile:
        """The profile `calibrate` wrote, or the default before it ran."""
        path = self.device_profile_path
        return load(DeviceProfile, path) if path.exists() else DeviceProfile()

    def plan(self, capacity: int, profile: DeviceProfile) -> BenchmarkPlan:
        """The suite's plan on a device of `capacity` bytes, as `plan`
        writes it; `format` and `calibrate` build it before any IO.  The
        IO counts the profile recommends stand in for the suite's default."""
        overrides = self.suite_overrides()
        if profile.io_count_recommendation:
            overrides.setdefault("io_count_by_pattern", profile.io_count_recommendation)
        suite = SuiteConfig.for_device(capacity, seed=self.seed, **overrides)
        return build_plan(expand_suite(suite, self.micros()), profile, capacity, suite)

    def write_manifest(self, command: str, **extra) -> None:
        manifest = {
            "tool_version": __version__,
            "command": command,
            "config_hash": getattr(self, "_config_hash", ""),
            "seed": self.seed,
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            **extra,
        }
        save(manifest, self.output_dir / f"manifest-{command}.json")

    def suite_overrides(self) -> dict:
        """The suite's SuiteConfig fields, decoded against SuiteConfig."""
        options = {k: v for k, v in self.suite.items() if k != "micros"}
        if "seed" in options:  # the suite seed is the campaign seed
            raise SchemaError("CampaignConfig.suite: unknown key(s) ['seed']")
        decoded = _decode(SuiteConfig, options, "CampaignConfig.suite")
        return {k: getattr(decoded, k) for k in options}

    def micros(self) -> list[Micro]:
        names = _decode(list[Micro], self.suite.get("micros", []), "CampaignConfig.suite.micros")
        return names or list(Micro)

    def report_thresholds(self) -> tuple[SummaryThresholds, float]:
        """The summary thresholds, and the dispersion threshold of a run's means."""
        options = dict(self.thresholds)
        dispersion = options.pop("dispersion", DISPERSION_THRESHOLD)
        return (
            _decode(SummaryThresholds, options, "CampaignConfig.thresholds"),
            _decode(float, dispersion, "CampaignConfig.thresholds.dispersion"),
        )


def _decode(tp, data, key: str):
    """from_data for one section or key of the config, named in the error."""
    try:
        return from_data(tp, data)
    except SchemaError as exc:
        raise SchemaError(f"{key}: {exc}") from None


def _enforce_state(dev: BlockDevice, journal: Journal, commit, step: str, seed: int,
                   end: bool = False) -> EnforceResult | None:
    """Enforce the random state on dev as the journal step `step`, `format`
    or `reset/<i>`.  Does nothing if the step's latest entry is done, and
    otherwise resumes at its last checkpoint.  Every CHECKPOINT_IOS IOs it
    commits a checkpoint and prints coverage, IOs and an ETA; at the end it
    commits done, as a stage end if end is set.  None if nothing was done."""
    last = journal.last(step) or {}
    if last.get("status") == "done":
        return None
    start_io = last.get("ios", 0)
    if start_io:
        click.echo(f"resuming {step} at IO {start_io}")
    # the ETA extrapolates the coverage gained since this (re)start; a
    # resume past the last write gains none
    start_coverage = last.get("coverage", 0.0)
    t_wall = time.time()

    def show(coverage: float, ios: int) -> None:
        gained = coverage - start_coverage
        eta = (time.time() - t_wall) * (1 - coverage) / gained if gained > 0 else 0.0
        click.echo(f"\r{step}: coverage {coverage:6.1%}  ios {ios}  eta {eta:8.0f}s",
                   nl=False, err=True)

    def checkpoint(coverage: float, ios: int) -> None:
        commit(step, CHECKPOINT_IOS, status="progress", ios=ios, coverage=coverage)
        show(coverage, ios)

    result = enforce_random_state(
        dev, seed, progress=checkpoint, every=CHECKPOINT_IOS, start_io=start_io
    )
    show(result.coverage, result.ios_issued)
    click.echo("", err=True)
    commit(step, result.ios_issued % CHECKPOINT_IOS, end=end,
           status="done", ios=result.ios_issued, coverage=result.coverage)
    return result


def _require(journal: Journal, step: str) -> None:
    """A validation error unless the journal records `step` done."""
    if step not in journal.done_steps():
        raise ValueError(f"{step} has not finished (journal); run {step} first")


def _load_plan(cfg: CampaignConfig, journal: Journal) -> tuple[BenchmarkPlan, str]:
    """plan.json and its SHA-256.  A validation error naming both hashes if
    the journal records that `run` began on another plan, and one if the
    config and device profile no longer build plan.json.  `run` and
    `report` take each reset's seed and the summary IO size from the plan,
    so the rebuild refuses a config or profile change after `plan` that
    would change what they read, and a plan.json edited by hand."""
    path = cfg.output_dir / "plan.json"
    plan_hash = hashlib.sha256(path.read_bytes()).hexdigest()
    begun = journal.last("run")
    if begun is not None and begun["plan"] != plan_hash:
        raise ValueError(f"plan.json is {plan_hash}, but run began on plan {begun['plan']}")
    plan = load_plan(path)
    if cfg.plan(plan.capacity, cfg.device_profile()) != plan:
        raise ValueError(
            "plan.json is not the plan that the config and device_profile.json build: "
            "the config changed, or calibrate ran, after plan, or plan.json was edited"
        )
    return plan, plan_hash


def _check_trace(path: Path, trace_bytes: int, io_count: int) -> None:
    """A validation error unless the trace of a run journaled done is still
    the trace_bytes long that `run` wrote; a file of another size is read
    to say whether rows are missing."""
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        raise ValueError(f"{path}: missing, but its run is journaled done") from None
    if size == trace_bytes:
        return
    with path.open() as fp:
        rows = len(read_trace_csv(fp).records)
    if rows != io_count:
        raise ValueError(f"{path}: {rows} rows, but its run is journaled done with {io_count} IOs")
    raise ValueError(
        f"{path}: {size} bytes, but its run is journaled done with a {trace_bytes}-byte trace"
    )


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DeviceError as exc:
            _fail(EXIT_DEVICE, str(exc))
        except _VALIDATION_ERRORS as exc:
            _fail(EXIT_VALIDATION, str(exc))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Flash-device IO pattern micro-benchmark harness."""


config_option = click.option(
    "--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False),
    help="Campaign configuration (JSON).",
)


@main.command("format")
@config_option
@click.option("--force", is_flag=True, help="Allow destructive formatting of a raw device.")
@_guarded
def cmd_format(config_path: str, force: bool) -> None:
    """Enforce the random device state (writes the whole device)."""
    cfg = CampaignConfig.load(config_path)
    manifest = {}
    if not cfg.is_simulator:
        # the clock resolution among them says whether per-IO timing is trustworthy
        caps = probe_raw_capabilities(cfg.device.raw_path)
        manifest["capabilities"] = caps
        click.echo(f"capabilities: {json.dumps(caps, sort_keys=True)}")
        if not force:
            _fail(
                EXIT_VALIDATION,
                "formatting a raw device destroys its contents; pass --force to proceed",
            )
    dev = cfg.open_device()
    # a suite that cannot be planned on this device stops here, before any IO
    cfg.plan(dev.capacity, DeviceProfile())
    journal, commit = cfg.resume(dev)
    result = _enforce_state(dev, journal, commit, "format", derive_seed(cfg.seed, 0xF0), end=True)
    if result is None:
        click.echo("format already complete (journal); nothing to do")
        return
    cfg.write_manifest(
        "format",
        ios=result.ios_issued,
        bytes_written=result.bytes_written,
        device_elapsed_us=result.elapsed_us,
        **manifest,
    )
    click.echo(
        f"state enforced: {result.ios_issued} IOs, "
        f"{result.bytes_written // (1024 * 1024)} MiB written, coverage 100%"
    )


@main.command("calibrate")
@config_option
@_guarded
def cmd_calibrate(config_path: str) -> None:
    """Measure start-up, period and the inter-run pause; write the device profile."""
    cfg = CampaignConfig.load(config_path)
    dev = cfg.open_device()
    journal, commit = cfg.resume(dev)
    if "calibrate" in journal.done_steps():
        click.echo("calibrate already complete (journal); nothing to do")
        return
    _require(journal, "format")
    cfg.plan(dev.capacity, DeviceProfile())  # as format does

    profile = calibrate_phases(dev, cfg.calibration, cfg.seed)
    pause = calibrate_pause(dev, cfg.calibration, cfg.seed)
    profile = replace(profile, inter_run_pause_us=pause.pause_us)
    cfg.plan(dev.capacity, profile)  # with the counts `plan` will use
    out = cfg.device_profile_path
    save(profile, out)
    commit("calibrate", 0, end=True, status="done")  # snapshots the calibrated device
    cfg.write_manifest(
        "calibrate", affected_reads=pause.affected_reads, lingering_us=pause.lingering_us
    )
    click.echo(f"device profile written to {out}")
    for b in BASELINES:
        click.echo(
            f"  {b}: startup={profile.startup[b]} period={profile.period[b]} "
            f"recommended io_count={profile.io_count_recommendation[b]}"
        )
    click.echo(
        f"  inter-run pause: {profile.inter_run_pause_us / 1e6:.1f}s "
        f"({pause.affected_reads} affected reads)"
    )
    for flag in profile.flags:
        click.echo(f"  flag: {flag}")


@main.command("plan")
@config_option
@click.option("--dry-run", is_flag=True, help="List the experiments without writing the plan.")
@_guarded
def cmd_plan(config_path: str, dry_run: bool) -> None:
    """Expand the suite and compile the benchmark plan."""
    cfg = CampaignConfig.load(config_path)
    dev = cfg.open_device(restore_state=False)
    capacity = dev.capacity
    dev.close()
    plan = cfg.plan(capacity, cfg.device_profile())
    if dry_run:
        for exp in plan.experiments:
            click.echo(exp.describe())
        click.echo(f"{len(plan.experiments)} experiments")
        return
    out = cfg.output_dir / "plan.json"
    save_plan(plan, out)
    cfg.write_manifest("plan", experiments=len(plan.experiments), steps=len(plan.steps))
    click.echo(
        f"plan written to {out}: {len(plan.experiments)} experiments, "
        f"{len(plan.run_steps())} runs, "
        f"{sum(isinstance(s, StateReset) for s in plan.steps)} state resets"
    )


@main.command("run")
@config_option
@_guarded
def cmd_run(config_path: str) -> None:
    """Execute the plan, journaling each completed step."""
    cfg = CampaignConfig.load(config_path)
    dev = cfg.open_device()
    journal, commit = cfg.resume(dev)
    _require(journal, "calibrate")
    plan, plan_hash = _load_plan(cfg, journal)
    verify_plan(plan)
    if journal.last("run") is None:
        journal.record("run", plan=plan_hash)
    done = journal.done_steps()
    traces_root = cfg.output_dir / "traces"
    device = cfg.device_label()
    # the trace directories, made once: an experiment's runs share one
    for exp in plan.experiments:
        trace_dir = (traces_root / trace_relpath(exp.run_id(0), device)).parent
        trace_dir.mkdir(parents=True, exist_ok=True)
    executed = 0
    skipped = 0
    for i, step in enumerate(plan.steps):
        if isinstance(step, StateReset):
            _enforce_state(dev, journal, commit, f"reset/{i}", step.seed)
            continue
        exp, step_id = plan.resolve(step)
        if step_id in done:
            skipped += 1
            continue
        dev.idle(plan.inter_run_pause_us)
        trace = execute_run(dev, exp.pattern)
        path = traces_root / trace_relpath(step_id, device)
        trace_bytes = save_trace(trace, path)
        if trace.error:
            commit(step_id, None, status="failed", error=trace.error)
            _fail(EXIT_DEVICE, f"{step_id}: {trace.error} (partial trace at {path})")
        # the run's result, which `report` reads in place of the trace
        mean_us = summarize(trace, exp.io_ignore)
        commit(step_id, len(trace.records), end=i == len(plan.steps) - 1, status="done",
               mean_us=mean_us, trace_bytes=trace_bytes)
        executed += 1
    cfg.write_manifest("run", executed=executed, skipped=skipped)
    click.echo(f"runs executed: {executed}, resumed past: {skipped}")


@main.command("report")
@config_option
@_guarded
def cmd_report(config_path: str) -> None:
    """Aggregate the journaled run means into the characterization report and plot data."""
    cfg = CampaignConfig.load(config_path)
    journal = cfg.journal()
    plan, _ = _load_plan(cfg, journal)
    traces_root = cfg.output_dir / "traces"
    th, dispersion_threshold = cfg.report_thresholds()
    device = cfg.device_label()

    # A run counts only once it is journaled done: a failed or interrupted
    # run leaves a partial trace.  Its mean is the one `run` journaled, and
    # its trace must still hold the bytes `run` wrote.  Only the longest RW
    # run (the most start-up-prone trace, shown in the phase plot) is parsed.
    latest = journal.latest()
    unfinished = 0
    run_means: dict[str, tuple[ExperimentSpec, list[float]]] = {}
    phase_exp: ExperimentSpec | None = None
    for step in plan.run_steps():
        exp, step_id = plan.resolve(step)
        entry = latest.get(step_id, {})
        if entry.get("status") != "done":
            unfinished += 1
            continue
        if "mean_us" not in entry:
            raise ValueError(
                f"{step_id} is journaled done without its mean_us: the journal was "
                f"written before runs journaled their results; run the campaign again "
                f"in a new output_dir"
            )
        path = traces_root / trace_relpath(step_id, device)
        _check_trace(path, entry["trace_bytes"], exp.io_count)
        run_means.setdefault(exp.experiment_id, (exp, []))[1].append(entry["mean_us"])
        if exp.baseline == "RW" and (phase_exp is None or exp.io_count > phase_exp.io_count):
            phase_exp, phase_path = exp, path
    if phase_exp:
        with phase_path.open() as fp:
            phase_rts = read_trace_csv(fp).rts

    outcomes = [aggregate(exp, means, dispersion_threshold) for exp, means in run_means.values()]
    report_dir = cfg.output_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    report = build_summary(outcomes, device=device, io_size=plan.io_size, thresholds=th)
    if unfinished:
        report.notes.append(
            f"{unfinished} of {len(plan.run_steps())} planned runs left out: not journaled done"
        )
    save(report, report_dir / "summary.json")
    write_atomic(report_dir / "summary.txt", report.to_text() + "\n")
    plots = report_dir / "plots"
    emit_plot_data(outcomes, plots)
    if phase_exp:
        emit_phase_trace(plots / "phase_trace.tsv", phase_rts, phase_exp.io_ignore)
    cfg.write_manifest("report", experiments=len(run_means))
    click.echo(report.to_text())
    click.echo(f"report written to {report_dir}")


if __name__ == "__main__":
    main()
