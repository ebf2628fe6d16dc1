"""The benchmark's tracer wraps flashmark names where their callers look
them up (perfbench/tracer.py, PATCHES).  A refactor that renames or moves
one of them leaves that span unmeasured; this check finds it without
running a campaign, and without installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves():
    patches = load_tracer().PATCHES
    assert patches
    unresolved = []
    for _, module, attr, _ in patches:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module}.{attr}")
    assert unresolved == []
