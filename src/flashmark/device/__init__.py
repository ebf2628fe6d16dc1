"""Block-device backends with a shared, timing-aware interface.

Two backends implement the same contract: a deterministic flash
translation layer simulator for desk-scale verification, and a raw
physical device accessed with direct, synchronous IO.  Both accept
512-aligned (lba, size) requests within capacity and return a response
time in microseconds.  The simulator keeps a virtual clock so runs and
inter-run pauses cost no wall time; the raw backend uses the monotonic
clock and real sleeps.
"""

from __future__ import annotations

from typing import Protocol

SECTOR = 512


class DeviceError(Exception):
    """IO against the device failed."""


class UnsupportedError(DeviceError):
    """The backend does not support the requested operation."""


class BlockDevice(Protocol):
    """A backend may add issue(gaps, lbas, sizes, writes), serving a
    schedule in one call (see runner.issuer), and issue_rows, serving a
    parallel run's merged rows; one without issue is served IO by IO
    through read, write and idle."""

    capacity: int

    def read(self, lba: int, size: int) -> int:
        """Synchronously read; returns response time in microseconds."""
        ...

    def write(self, lba: int, size: int) -> int:
        """Synchronously write; returns response time in microseconds."""
        ...

    def idle(self, duration_us: int) -> int:
        """Let the device rest for duration_us; returns blocks reclaimed
        by background work (always 0 for backends without one)."""
        ...

    def now_us(self) -> int:
        """Current device timeline in microseconds (virtual or monotonic)."""
        ...

    def close(self) -> None:
        ...


def check_alignment(device: BlockDevice, lba: int, size: int) -> None:
    if lba % SECTOR or size % SECTOR or size <= 0:
        raise DeviceError(f"unaligned request: lba={lba} size={size}")
    if lba < 0 or lba + size > device.capacity:
        raise DeviceError(f"request out of range: lba={lba} size={size}")


from .simulator import SimProfile, SimulatedDevice, builtin_profile  # noqa: E402
from .raw import RawDevice, probe_raw_capabilities  # noqa: E402

__all__ = [
    "BlockDevice",
    "DeviceError",
    "UnsupportedError",
    "SECTOR",
    "SimProfile",
    "SimulatedDevice",
    "builtin_profile",
    "RawDevice",
    "probe_raw_capabilities",
    "check_alignment",
]
