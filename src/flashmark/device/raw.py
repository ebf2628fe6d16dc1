"""Raw block-device backend: direct, synchronous IO against a real device.

IO bypasses the host file-system cache (O_DIRECT) and completes
synchronously (O_SYNC), one outstanding request per worker, so the
operating system's scheduling and caching layers do not distort per-IO
response times.  O_DIRECT requires sector-aligned user buffers, provided
here by page-aligned mmap allocations.
"""

from __future__ import annotations

import mmap
import os
import random
import time

from . import DeviceError, SECTOR, UnsupportedError, check_alignment

_O_DIRECT = getattr(os, "O_DIRECT", 0)


def _now_us() -> int:
    return time.perf_counter_ns() // 1000


def probe_raw_capabilities(path: str) -> dict:
    """Report whether the platform honors cache-bypassing synchronous opens."""
    caps = {
        "path": path,
        "o_direct": bool(_O_DIRECT),
        "o_sync": hasattr(os, "O_SYNC"),
        "clock_resolution_us": time.get_clock_info("perf_counter").resolution * 1e6,
    }
    try:
        fd = os.open(path, os.O_RDONLY | _O_DIRECT)
    except OSError as exc:
        caps["openable"] = False
        caps["error"] = str(exc)
        return caps
    try:
        caps["openable"] = True
        caps["size"] = _device_size(fd)
    finally:
        os.close(fd)
    return caps


def _device_size(fd: int) -> int:
    end = os.lseek(fd, 0, os.SEEK_END)
    os.lseek(fd, 0, os.SEEK_SET)
    return end


class RawDevice:
    """Direct synchronous IO on a device node or regular file.

    All IO is positional (preadv/pwritev), so parallel workers can share
    the device handle without racing on a file offset.  They also share
    one pair of page-aligned buffers, allocated here rather than inside a
    timed IO: read contents are discarded and the write buffer is only
    read.
    """

    def __init__(self, path: str, write_seed: int = 0, require_direct: bool = True):
        if require_direct and not _O_DIRECT:
            raise UnsupportedError("platform lacks O_DIRECT; pass require_direct=False to override")
        flags = os.O_RDWR | getattr(os, "O_SYNC", 0)
        if require_direct:
            flags |= _O_DIRECT
        try:
            self._fd = os.open(path, flags)
        except OSError as exc:
            raise DeviceError(f"cannot open {path}: {exc}") from exc
        self.path = path
        self.capacity = _device_size(self._fd)
        if self.capacity % SECTOR:
            self.capacity -= self.capacity % SECTOR
        # payload is pseudo-random so devices that compress or dedupe
        # constant data cannot cheat
        self._payload = random.Random(write_seed).randbytes(1024 * 1024)
        self._bufs = self._allocate(len(self._payload))
        self._closed = False

    def _allocate(self, size: int) -> tuple[mmap.mmap, mmap.mmap]:
        rbuf, wbuf = mmap.mmap(-1, size), mmap.mmap(-1, size)
        reps = -(size // -len(self._payload))
        wbuf.write((self._payload * reps)[:size])
        return rbuf, wbuf

    def _buffers(self, size: int) -> tuple[mmap.mmap, mmap.mmap]:
        """The shared pair, replaced by a larger one for an IO above 1 MB.

        Unlocked: a thread uses the pair it read or made, which is large
        enough for its IO, whatever another thread stores meanwhile.
        """
        bufs = self._bufs
        if len(bufs[0]) < size:
            bufs = self._bufs = self._allocate(size)
        return bufs

    def read(self, lba: int, size: int) -> int:
        return self._transfer(lba, size, False)

    def write(self, lba: int, size: int) -> int:
        return self._transfer(lba, size, True)

    def _transfer(self, lba: int, size: int, write: bool) -> int:
        """One synchronous IO, resumed after a short transfer; its time in us."""
        check_alignment(self, lba, size)
        call, what = (os.pwritev, "write") if write else (os.preadv, "read")
        view = memoryview(self._buffers(size)[write])[:size]
        start = _now_us()
        try:
            pos = 0
            while pos < size:
                n = call(self._fd, [view[pos:]], lba + pos)
                if n <= 0:
                    raise DeviceError(f"short {what} at lba={lba}")
                pos += n
        except OSError as exc:
            raise DeviceError(f"{what} failed at lba={lba}: {exc}") from exc
        return max(1, _now_us() - start)

    def idle(self, duration_us: int) -> int:
        precision_sleep(duration_us)
        return 0

    def now_us(self) -> int:
        return _now_us()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            os.close(self._fd)


def precision_sleep(duration_us: int) -> None:
    """Sleep then spin: hits sub-millisecond gaps the scheduler cannot."""
    if duration_us <= 0:
        return
    deadline = time.perf_counter_ns() + duration_us * 1000
    coarse = duration_us - 200
    if coarse > 0:
        time.sleep(coarse / 1e6)
    while time.perf_counter_ns() < deadline:
        pass
