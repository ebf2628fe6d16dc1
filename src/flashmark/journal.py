"""Append-only campaign journal.

Multi-hour campaigns must survive interruption: every completed step is
recorded as one JSON line, and a restarted command replays the journal
to skip finished work.  A torn last line (a crash mid-append) is dropped
on load by an atomic rewrite, so the next entry starts a line of its own.
"""

from __future__ import annotations

import json
from pathlib import Path

from .serialization import write_atomic


class Journal:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: list[dict] = []
        lines = (self.path.read_text() if self.path.exists() else "").split("\n")
        for line in lines[:-1]:
            try:
                self.entries.append(json.loads(line))
            except json.JSONDecodeError:
                break
        if lines[-1] or len(self.entries) < len(lines) - 1:  # a torn line
            self.cut(len(self.entries))

    def record(self, step: str, **payload) -> None:
        entry = {"step": step, **payload}
        self.entries.append(entry)
        with self.path.open("a") as fp:
            fp.write(json.dumps(entry, sort_keys=True) + "\n")

    def cut(self, n: int) -> None:
        """Keep the first n entries, rewriting the file atomically."""
        if n > len(self.entries):
            raise ValueError(f"journal holds {len(self.entries)} entries, "
                             f"but the device snapshot reflects {n}: the journal lost "
                             "entries, as after a host crash, and no command resumes "
                             "these files; start the campaign again from format in a "
                             "new output_dir")
        del self.entries[n:]
        write_atomic(self.path, "".join(json.dumps(e, sort_keys=True) + "\n" for e in self.entries))

    def latest(self) -> dict[str, dict]:
        """Each step's latest entry."""
        return {e["step"]: e for e in self.entries}

    def done_steps(self) -> set[str]:
        """Steps whose latest entry is done."""
        return {step for step, e in self.latest().items() if e.get("status") == "done"}

    def last(self, step: str) -> dict | None:
        return self.latest().get(step)
