"""Write failures injected into the device's issue loops, shared by the
CLI, resume and methodology suites."""

import contextlib

import pytest

from flashmark import runner
from flashmark.device import DeviceError, SimulatedDevice


@contextlib.contextmanager
def failing_writes(*at: int):
    """Count the writes issued within the block from 1; the n-th, for each
    n in at, is not served: its gap is idled, and its issue call returns
    DeviceError("injected write failure") there, as for a failed IO.

    Wraps the two loops that serve every IO, both called as (device,
    rows, submits, rts): the simulator's issue_rows, which its read and
    write go through, and runner._run_worker, which serves a device
    without issue_rows.  Yields the count, in a one-item list.
    """
    count = [0]

    def counted(rows, stop):
        # the rows before the failing write, whose gap goes to stop
        for row in rows:
            if row[3]:
                count[0] += 1
                if count[0] in at:
                    stop.append(row[0])
                    return
            yield row

    def failing(loop):
        def wrapped(device, rows, submits, rts):
            stop = []
            real = loop(device, counted(rows, stop), submits, rts)
            if not stop:
                return real
            if stop[0] > 0:
                device.idle(stop[0])
            return DeviceError("injected write failure")
        return wrapped

    with pytest.MonkeyPatch.context() as m:
        m.setattr(SimulatedDevice, "issue_rows", failing(SimulatedDevice.issue_rows))
        m.setattr(runner, "_run_worker", failing(runner._run_worker))
        yield count
