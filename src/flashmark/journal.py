"""Append-only campaign journal.

Multi-hour campaigns must survive interruption: every completed step is
recorded as one JSON line, and a restarted command replays the journal
to skip finished work.  Corrupt trailing lines (a crash mid-write) are
ignored rather than fatal.
"""

from __future__ import annotations

import json
from pathlib import Path


class Journal:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: list[dict] = []
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    self._entries.append(json.loads(line))
                except json.JSONDecodeError:
                    break

    def record(self, step: str, **payload) -> None:
        entry = {"step": step, **payload}
        self._entries.append(entry)
        with self.path.open("a") as fp:
            fp.write(json.dumps(entry, sort_keys=True) + "\n")

    def done_steps(self) -> set[str]:
        """Steps whose latest entry is done."""
        latest = {e["step"]: e.get("status") for e in self._entries}
        return {step for step, status in latest.items() if status == "done"}

    def last(self, step: str) -> dict | None:
        for e in reversed(self._entries):
            if e.get("step") == step:
                return e
        return None
