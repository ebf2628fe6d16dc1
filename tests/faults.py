"""Write failures injected into the device's issue calls, shared by the
CLI, resume and methodology suites."""

import contextlib
from itertools import tee
from operator import itemgetter

import pytest

from flashmark import runner
from flashmark.device import DeviceError, SimulatedDevice


@contextlib.contextmanager
def failing_writes(*at: int):
    """Count the writes issued within the block from 1; the n-th, for each
    n in at, is not served: its gap is idled, and its issue call returns
    DeviceError("injected write failure") there, as for a failed IO.

    Wraps the two loops that serve every IO: the simulator's issue_rows,
    which its issue, read and write go through, and runner._run_worker,
    which serves a device without issue.  Yields the count, in a one-item
    list.
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

    def failure(device, stop, real):
        if not stop:
            return real
        if stop[0] > 0:
            device.idle(stop[0])
        return DeviceError("injected write failure")

    issue_rows, run_worker = SimulatedDevice.issue_rows, runner._run_worker

    def failing_issue_rows(self, rows, submits, rts):
        stop = []
        return failure(self, stop, issue_rows(self, counted(rows, stop), submits, rts))

    def failing_run_worker(device, *columns):
        # _run_worker zips its four columns in step, so one counted row
        # stream, split four ways, feeds them
        stop = []
        copies = tee(counted(zip(*columns), stop), 4)
        columns = (map(itemgetter(k), copy) for k, copy in enumerate(copies))
        submits, rts, real = run_worker(device, *columns)
        return submits, rts, failure(device, stop, real)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(SimulatedDevice, "issue_rows", failing_issue_rows)
        m.setattr(runner, "_run_worker", failing_run_worker)
        yield count
