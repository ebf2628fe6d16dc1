"""Command-line pipeline: format, calibrate, plan, run, report.

The stages are separate commands with file handoffs so multi-day
campaigns survive interruption: each writes its artifacts and a manifest
into the campaign output directory, and `run` journals every completed
step so a restarted invocation resumes where it stopped.

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
    build_plan,
    calibrate_pause,
    calibrate_phases,
    enforce_random_state,
    verify_plan,
)
from .microbench import ExperimentSpec, Micro, PauseStep, StateReset, SuiteConfig, expand_suite
from .patterns import PatternError, derive_seed
from .runner import execute_run, read_trace_csv, save_trace, summarize, trace_relpath
from .serialization import SchemaError, from_data, load, load_plan, save, save_plan

EXIT_VALIDATION = 2
EXIT_DEVICE = 3

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
    resume: bool = True  # False ignores the journal and redoes every step

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

    def sim_profile(self) -> SimProfile:
        """The simulator profile: a JSON file if one exists at the given
        path, otherwise a built-in profile name."""
        name = self.device.simulator_profile
        if Path(name).suffix == ".json" and Path(name).exists():
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

    def suite_config(self, capacity: int, profile: DeviceProfile | None) -> SuiteConfig:
        overrides = self.suite_overrides()
        if profile is not None and profile.io_count_recommendation:
            overrides.setdefault("io_count_by_pattern", profile.io_count_recommendation)
        return SuiteConfig.for_device(capacity, seed=self.seed, **overrides)

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
    journal = cfg.journal()
    start_io = 0
    checkpoint = journal.last("format") if cfg.resume else None
    if checkpoint and checkpoint.get("status") == "done":
        click.echo("format already complete (journal); nothing to do")
        return
    if checkpoint:
        start_io = int(checkpoint.get("ios", 0))
        click.echo(f"resuming format at IO {start_io}")

    dev = cfg.open_device()
    t_wall = time.time()

    def progress(fraction: float, ios: int) -> None:
        if ios % 2048 == 0:
            # a resume replays the journaled IOs without issuing them, so
            # the device they were issued to must be persisted first
            cfg.persist_device(dev)
            journal.record("format", status="progress", ios=ios, coverage=fraction)
        elapsed = time.time() - t_wall
        eta = elapsed * (1 - fraction) / fraction if fraction > 0 else 0.0
        click.echo(
            f"\rcoverage {fraction:6.1%}  ios {ios}  eta {eta:8.0f}s", nl=False, err=True
        )

    result = enforce_random_state(
        dev, seed=derive_seed(cfg.seed, 0xF0), progress=progress, start_io=start_io
    )
    click.echo("", err=True)
    cfg.persist_device(dev)
    journal.record("format", status="done", ios=result.ios_issued, coverage=result.coverage)
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

    c = cfg.calibration
    profile = calibrate_phases(
        dev, long_io_count=c.long_io_count, seed=cfg.seed, settle_pause_us=c.settle_pause_us
    )
    pause = calibrate_pause(
        dev, cfg.seed, c.probe_reads, c.disturb_writes, c.observe_reads, c.settle_pause_us
    )
    profile = replace(profile, inter_run_pause_us=pause.pause_us)
    out = cfg.output_dir / "device_profile.json"
    save(profile, out)
    cfg.persist_device(dev)
    cfg.write_manifest(
        "calibrate", affected_reads=pause.affected_reads, lingering_us=pause.lingering_us
    )
    click.echo(f"device profile written to {out}")
    for b in ("SR", "RR", "SW", "RW"):
        click.echo(
            f"  {b}: startup={profile.startup[b]} period={profile.period[b]} "
            f"recommended io_count={profile.io_count_recommendation[b]}"
        )
    click.echo(
        f"  inter-run pause: {profile.inter_run_pause_us / 1e6:.1f}s "
        f"({pause.affected_reads} affected reads)"
    )


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
    profile_path = cfg.output_dir / "device_profile.json"
    profile = load(DeviceProfile, profile_path) if profile_path.exists() else DeviceProfile()
    suite = cfg.suite_config(capacity, profile)
    experiments = expand_suite(suite, cfg.micros())
    plan = build_plan(experiments, profile, capacity, base_offset=suite.base_target_offset)
    if dry_run:
        for step in plan.run_steps():
            if step.run_index == 0:
                click.echo(step.experiment.describe())
        click.echo(f"{len({s.experiment.experiment_id for s in plan.run_steps()})} experiments")
        return
    out = cfg.output_dir / "plan.json"
    save_plan(plan, out)
    cfg.write_manifest("plan", experiments=len(experiments), steps=len(plan.steps))
    click.echo(
        f"plan written to {out}: {len(experiments)} experiments, "
        f"{len(plan.run_steps())} runs, "
        f"{sum(isinstance(s, StateReset) for s in plan.steps)} state resets"
    )


@main.command("run")
@config_option
@_guarded
def cmd_run(config_path: str) -> None:
    """Execute the plan, journaling each completed step."""
    cfg = CampaignConfig.load(config_path)
    plan = load_plan(cfg.output_dir / "plan.json")
    verify_plan(plan)
    journal = cfg.journal()
    done = journal.done_steps() if cfg.resume else set()
    dev = cfg.open_device()
    traces_root = cfg.output_dir / "traces"
    device = cfg.device_label()
    executed = 0
    skipped = 0
    pending_pause = 0
    for i, step in enumerate(plan.steps):
        if isinstance(step, PauseStep):
            pending_pause = step.duration_us
            continue
        if isinstance(step, StateReset):
            step_id = f"reset/{i}"
            if step_id in done:
                continue
            click.echo("state reset: re-enforcing random state")
            enforce_random_state(dev, seed=derive_seed(cfg.seed, 0xF0, i))
            cfg.persist_device(dev)
            journal.record(step_id, status="done")
            continue
        step_id = step.step_id
        if step_id in done:
            skipped += 1
            pending_pause = 0
            continue
        if pending_pause:
            dev.idle(pending_pause)
            pending_pause = 0
        trace = execute_run(dev, step.experiment.pattern)
        path = traces_root / trace_relpath(step.experiment, step.run_index, device)
        save_trace(trace, path)
        if trace.error:
            cfg.persist_device(dev)
            journal.record(step_id, status="failed", error=trace.error)
            _fail(EXIT_DEVICE, f"{step_id}: {trace.error} (partial trace at {path})")
        cfg.persist_device(dev)
        journal.record(step_id, status="done")
        executed += 1
    cfg.write_manifest("run", executed=executed, skipped=skipped)
    click.echo(f"runs executed: {executed}, resumed past: {skipped}")


@main.command("report")
@config_option
@_guarded
def cmd_report(config_path: str) -> None:
    """Summarize traces into the characterization report and plot data."""
    cfg = CampaignConfig.load(config_path)
    plan = load_plan(cfg.output_dir / "plan.json")
    traces_root = cfg.output_dir / "traces"
    th, dispersion_threshold = cfg.report_thresholds()
    device = cfg.device_label()
    io_size = cfg.suite_config(plan.capacity, None).base_io_size

    # Runs are read one at a time in plan order; only each run's mean and
    # the response times of the longest RW run (the most start-up-prone
    # trace, shown in the phase plot) are kept.  A run counts only once it
    # is journaled done: a failed or interrupted run leaves a partial trace.
    done = cfg.journal().done_steps()
    unfinished = 0
    run_means: dict[str, tuple[ExperimentSpec, list[float]]] = {}
    phase_rts: list[int] = []
    phase_io_ignore = 0
    for step in plan.run_steps():
        if step.step_id not in done:
            unfinished += 1
            continue
        exp = step.experiment
        path = traces_root / trace_relpath(exp, step.run_index, device)
        with path.open() as fp:
            trace = read_trace_csv(fp)
        mean = summarize(trace, min(exp.io_ignore, len(trace.records) - 1))
        run_means.setdefault(exp.experiment_id, (exp, []))[1].append(mean)
        if exp.baseline == "RW" and len(trace.records) > len(phase_rts):
            phase_rts, phase_io_ignore = trace.rts, exp.io_ignore

    outcomes = [aggregate(exp, means, dispersion_threshold) for exp, means in run_means.values()]
    report_dir = cfg.output_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    report = build_summary(outcomes, device=device, io_size=io_size, thresholds=th)
    if unfinished:
        report.notes.append(
            f"{unfinished} of {len(plan.run_steps())} planned runs left out: not journaled done"
        )
    save(report, report_dir / "summary.json")
    (report_dir / "summary.txt").write_text(report.to_text() + "\n")
    plots = report_dir / "plots"
    for micro in sorted({o.micro for o in outcomes}):
        emit_plot_data(outcomes, micro, plots)
    if phase_rts:
        emit_phase_trace(plots / "phase_trace.tsv", phase_rts, phase_io_ignore)
    cfg.write_manifest("report", experiments=len(run_means))
    click.echo(report.to_text())
    click.echo(f"report written to {report_dir}")


if __name__ == "__main__":
    main()
