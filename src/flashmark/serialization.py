"""The JSON codec for every artifact a campaign hands between stages.

Dataclasses encode as objects of their fields, enums as their values,
tuples as lists.  Decoding is driven by the field annotations of the
target class.  A class that can stand in a union (a timing function, a
pattern, a plan step) names itself with a ``kind`` class attribute; the
tag is written wherever the declared type does not already fix the
class, and decoding picks the union member by it.  Artifacts are strict:
an unknown kind, an unknown or missing key, a value of the wrong JSON
type, or a plan format mismatch raises SchemaError rather than guessing.
A bool takes only true/false, an int only an integer, a float an integer
or a float; ``X | None`` also takes null.

``plan.json`` is a BenchmarkPlan under its format version.  The plan
states each experiment once and its run steps name one by position, so
decoding also refuses a run that names no experiment and an experiment
that no run names.  It is written compact, keys sorted, on one line;
other artifacts are indented.  Whitespace means nothing to the decoder,
so a plan.json written indented loads alike.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import types
import typing
from enum import Enum
from pathlib import Path

from .microbench import BenchmarkPlan, RunStep

PLAN_FORMAT_VERSION = 6
PLAN_ENCODE_ITEMS = 16  # experiments or steps per call of json's encoder in save_plan


class SchemaError(ValueError):
    """Artifact written by an incompatible tool version or corrupted."""


_SCALARS = {str, int, float, bool, type(None)}

# the JSON types each scalar field type takes; bool is not an int here
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,), Path: (str,)}


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _item_type(tp):
    """Declared item type of list[T], tuple[T, ...] or dict[K, T]; None if unstated."""
    args = [a for a in typing.get_args(tp) if a is not Ellipsis]
    return args[-1] if args else None


@functools.cache
def _shape(tp) -> tuple:
    """How from_data decodes the declared type tp, worked out once per type."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        members = typing.get_args(tp)
        kinds = {m.kind: m for m in members if hasattr(m, "kind")}
        if kinds:
            return ("tagged", kinds)
        (rest,) = [m for m in members if m is not type(None)]
        return ("optional", rest)
    origin = typing.get_origin(tp) or tp
    if origin in (list, tuple, dict):
        return (origin.__name__, _item_type(tp))
    if tp in _ACCEPTS:
        return ("scalar", _ACCEPTS[tp])
    if dataclasses.is_dataclass(tp):
        fields = dataclasses.fields(tp)
        required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}
        return ("dataclass", (_field_types(tp), required))
    if isinstance(tp, type) and issubclass(tp, Enum):
        return ("enum", None)
    return ("plain", None)


def _encode(obj, tp):
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        item = _item_type(tp)
        return [_encode(v, item) for v in obj]
    if isinstance(obj, dict):
        item = _item_type(tp)
        return {k: _encode(v, item) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        cls = type(obj)
        data = {}
        for name, t in _field_types(cls).items():
            value = getattr(obj, name)
            # most fields are scalars, which encode as themselves
            data[name] = value if type(value) in _SCALARS else _encode(value, t)
        if hasattr(cls, "kind") and tp is not cls:
            data["kind"] = cls.kind
        return data
    return obj


def to_data(obj):
    """obj as JSON values: dicts, lists, strings, numbers, booleans, None."""
    return _encode(obj, type(obj))


def from_data(cls, data):
    """Rebuild a value of the declared type cls from to_data's output."""
    form, detail = _shape(cls)
    if form == "scalar":
        if type(data) not in detail:
            raise SchemaError(f"expected {cls.__name__}, got {data!r}")
        return cls(data)
    if form == "plain":
        return data
    if form == "optional":
        return None if data is None else from_data(detail, data)
    if form == "tagged":
        kind = data.get("kind") if isinstance(data, dict) else None
        if kind not in detail:
            raise SchemaError(f"unknown kind {kind!r} (expected one of {sorted(detail)})")
        return from_data(detail[kind], data)
    if form == "list" or form == "tuple":
        if not isinstance(data, list):
            raise SchemaError(f"expected a list, got {data!r}")
        items = [from_data(detail, v) for v in data]
        return items if form == "list" else tuple(items)
    if form == "dict":
        if not isinstance(data, dict):
            raise SchemaError(f"expected an object, got {data!r}")
        return {k: from_data(detail, v) for k, v in data.items()}
    if form == "enum":
        try:
            return cls(data)
        except ValueError:
            raise SchemaError(f"expected one of {[m.value for m in cls]}, got {data!r}") from None
    fields, required = detail
    if not isinstance(data, dict):
        raise SchemaError(f"{cls.__name__}: expected an object, got {data!r}")
    body = dict(data)
    if hasattr(cls, "kind") and body.pop("kind", cls.kind) != cls.kind:
        raise SchemaError(f"{cls.__name__}: unknown kind {data['kind']!r}")
    unknown = body.keys() - fields.keys()
    if unknown:
        raise SchemaError(f"{cls.__name__}: unknown key(s) {sorted(unknown)}")
    missing = required - body.keys()
    if missing:
        raise SchemaError(f"{cls.__name__}: missing key(s) {sorted(missing)}")
    values = {}
    for k, v in body.items():
        try:
            values[k] = from_data(fields[k], v)
        except SchemaError as exc:
            raise SchemaError(f"{cls.__name__}.{k}: {exc}") from None
    return cls(**values)


def dumps(obj) -> str:
    """The text of an artifact: obj's JSON, indented, keys sorted."""
    return json.dumps(to_data(obj), indent=2, sort_keys=True)


def write_atomic(path: str | Path, data: str | bytes | bytearray) -> None:
    """Replace the file at path through a temporary file, so a failed write
    leaves the previous bytes.  No fsync: a power loss can still lose it."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data.encode() if isinstance(data, str) else data)
    os.replace(tmp, path)


def save(obj, path: str | Path) -> None:
    write_atomic(path, dumps(obj))


def load(cls, path: str | Path):
    return from_data(cls, json.loads(Path(path).read_text()))


def plan_to_dict(plan: BenchmarkPlan) -> dict:
    return {"format_version": PLAN_FORMAT_VERSION, **to_data(plan)}


def plan_from_dict(d: dict) -> BenchmarkPlan:
    body = dict(d)
    version = body.pop("format_version", None)
    if version != PLAN_FORMAT_VERSION:
        raise SchemaError(
            f"plan format {version!r} not supported (expected {PLAN_FORMAT_VERSION})"
        )
    plan = from_data(BenchmarkPlan, body)
    count = len(plan.experiments)
    named = set()
    for i, step in enumerate(plan.steps):
        if isinstance(step, RunStep):
            if not 0 <= step.experiment < count:
                raise SchemaError(f"BenchmarkPlan.steps[{i}]: experiment {step.experiment} "
                                  f"out of range ({count} experiments)")
            named.add(step.experiment)
    if len(named) < count:
        unnamed = min(set(range(count)) - named)
        raise SchemaError(f"BenchmarkPlan.experiments[{unnamed}]: no run step names it")
    return plan


def save_plan(plan: BenchmarkPlan, path: str | Path) -> None:
    """Write plan.json compact, keys sorted, on one line."""
    # json's C encoder holds a list of every token of what it encodes,
    # several times the text's size for a whole plan, so each list is
    # encoded PLAN_ENCODE_ITEMS items at a time into one buffer
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    data = plan_to_dict(plan)
    text = bytearray()
    for key in sorted(data):
        text += b"," if text else b"{"
        text += f"{encode(key)}:".encode()
        value = data[key]
        if not isinstance(value, list):
            text += encode(value).encode()
            continue
        text += b"["
        for i in range(0, len(value), PLAN_ENCODE_ITEMS):
            items = encode(value[i : i + PLAN_ENCODE_ITEMS])[1:-1]  # without the brackets
            text += f"{',' if i else ''}{items}".encode()
        text += b"]"
    text += b"}"
    write_atomic(path, text)


def load_plan(path: str | Path) -> BenchmarkPlan:
    return plan_from_dict(json.loads(Path(path).read_text()))
