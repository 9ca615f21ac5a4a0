"""The record format of the declarative specs.

Deployment scenarios (:mod:`repro.deploy.spec`) and fault plans
(:mod:`repro.faults.plan`, :mod:`repro.faults.region`) are frozen
dataclasses whose SHA-256 fingerprint seeds every RNG stream and keys
every cache line.  :class:`Record` derives each of their formats from
the dataclass fields, so no field can be left out of a fingerprint or
parsed with a stale default:

* the primitive form (:meth:`Record.to_dict`): enums by value, tuples
  as lists, nested records recursively, and every ``float`` field as a
  float, so ``1`` and ``1.0`` fingerprint alike;
* canonical JSON (:func:`canonical_json`) and its SHA-256;
* a strict parser (:meth:`Record.from_dict`): a non-mapping, an unknown
  key, a missing required field or a value its gate refuses fails with
  one ``ValueError`` that names the key.  An absent optional field
  takes the dataclass default.

Campaign job specs (:class:`~repro.runtime.jobs.JobSpec`) take the
parser and keep a primitive form of their own, which every result-cache
key already hashes.

A field's gate is the scalar gate of its annotation (``str``, ``int``,
``float``, ``bool``) or one the class names in ``GATES``.  Under PEP 563
an annotation is its source text, and a quoted one keeps its quotes, so
every other field (``"tuple[float, float]"``, an enum, a nested record)
needs a named gate.  A field without one raises ``TypeError`` the first
time its class is built, encoded or parsed.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
from typing import Callable, Iterator, Mapping, TypeVar

#: Converts one raw field value, or raises :class:`Refused`.
Gate = Callable[[object], object]

_R = TypeVar("_R", bound="Record")


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(document: object) -> str:
    """The one canonical JSON text of ``document``: sorted keys, tight
    separators, ASCII only.  Every fingerprint, checksum, cache line,
    journal record and byte-stable manifest is these bytes, so two
    processes that encode equal documents write equal bytes."""
    return _CANONICAL.encode(document)


class Refused(Exception):
    """A gate's refusal, carrying what the field must be; the parser
    re-raises it as a ``ValueError`` naming the key and the value."""


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pair(value: object) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_number(item) for item in value)
    )


def _as_str(value: object) -> str:
    if not isinstance(value, str):
        raise Refused("a string")
    return value


def _as_int(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise Refused("an integer")
    return value


def _as_float(value: object) -> float:
    if not _is_number(value):
        raise Refused("a number")
    return float(value)  # type: ignore[arg-type]


def _as_bool(value: object) -> bool:
    if not isinstance(value, bool):
        raise Refused("a boolean")
    return value


def as_pair(value: object) -> "tuple[float, float]":
    if not _is_pair(value):
        raise Refused("an [x, y] pair of numbers")
    x, y = value  # type: ignore[misc]
    return (float(x), float(y))


def as_pairs(value: object) -> "tuple[tuple[float, float], ...]":
    if not isinstance(value, (list, tuple)) or not all(map(_is_pair, value)):
        raise Refused("a list of [x, y] pairs of numbers")
    return tuple((float(x), float(y)) for x, y in value)


def as_enum(kind: "type[enum.Enum]") -> Gate:
    """Gate accepting the value of one member of ``kind``."""
    expected = "one of " + ", ".join(repr(member.value) for member in kind)

    def gate(value: object) -> enum.Enum:
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise Refused(expected) from None

    return gate


def as_record(record: "type[Record]") -> Gate:
    """Gate parsing a nested record from its mapping."""

    def gate(value: object) -> Record:
        if not isinstance(value, Mapping):
            raise Refused("a mapping")
        return record.from_dict(value)

    return gate


def as_records(record: "type[Record]") -> Gate:
    """Gate parsing a tuple of nested records from a list of mappings."""

    def gate(value: object) -> "tuple[Record, ...]":
        if not isinstance(value, (list, tuple)):
            raise Refused("a sequence of mappings")
        return tuple(record.from_dict(entry) for entry in value)

    return gate


_SCALAR_GATES: "dict[str, Gate]" = {
    "str": _as_str,
    "int": _as_int,
    "float": _as_float,
    "bool": _as_bool,
}


@functools.lru_cache(maxsize=None)
def _schema(cls: "type[Record]") -> "tuple[tuple[str, Gate, bool], ...]":
    """(name, gate, required) per field of ``cls``, in field order.

    Raises:
        TypeError: for a field with no gate, or a named gate with no
            field.
    """
    fields = dataclasses.fields(cls)  # type: ignore[arg-type]
    stale = sorted(set(cls.GATES) - {f.name for f in fields})
    if stale:
        raise TypeError(f"{cls.__name__}.GATES names no field: {stale}")
    schema = []
    for f in fields:
        annotation = getattr(f.type, "__name__", f.type)
        gate = cls.GATES.get(f.name) or _SCALAR_GATES.get(annotation)
        if gate is None:
            raise TypeError(
                f"{cls.__name__} field {f.name!r} (annotated {f.type!r}) has no "
                f"gate; name one in {cls.__name__}.GATES"
            )
        required = (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        schema.append((f.name, gate, required))
    return tuple(schema)


def _primitive(value: object) -> object:
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_primitive(item) for item in value]
    return value


def _floats(value: object) -> Iterator[float]:
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)


class Record:
    """Base of a frozen dataclass whose formats derive from its fields.

    Class attributes (plain, so the dataclass does not take them for
    fields):

    * ``OWNER`` — the label error messages name (``"device class"``);
    * ``GATES`` — field name to gate, for every field whose annotation
      is not a bare scalar;
    * ``SCHEMA_VERSION`` — for a top-level format: stamped into the
      primitive form as ``"version"``, and checked when present on parse.
    """

    OWNER = "record"
    GATES: "Mapping[str, Gate]" = {}
    SCHEMA_VERSION: "int | None" = None

    def require_finite(self) -> None:
        """NaN and ±inf slip past every range check (``nan <= 0.0`` is
        false) and an infinite horizon never finishes simulating, so a
        non-finite number in any field fails with an error naming it."""
        for name, _, _ in _schema(type(self)):
            for number in _floats(getattr(self, name)):
                if not math.isfinite(number):
                    raise ValueError(
                        f"{self.OWNER} field {name!r} must be finite, got {number!r}"
                    )

    def to_dict(self) -> "dict[str, object]":
        """Primitive form (stable across processes and sessions)."""
        data: "dict[str, object]" = {}
        if self.SCHEMA_VERSION is not None:
            data["version"] = self.SCHEMA_VERSION
        for name, gate, _ in _schema(type(self)):
            value = getattr(self, name)
            data[name] = float(value) if gate is _as_float else _primitive(value)
        return data

    def to_json(self) -> str:
        """Canonical JSON form (:func:`canonical_json`)."""
        return canonical_json(self.to_dict())

    def fingerprint(self) -> str:
        """Stable content hash (hex SHA-256 of :meth:`to_json`): the
        record's identity for seeding, caching and manifest lineage.
        Memoized, since records are frozen; a city build derives
        thousands of streams from its scenario's."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @classmethod
    def from_dict(cls: "type[_R]", data: object) -> _R:
        """Rebuild from :meth:`to_dict` output.

        Raises:
            ValueError: for a non-mapping, a schema-version mismatch, an
                unknown or missing field, or a value its gate refuses,
                always naming the offending key; or whatever the record's
                own checks raise.
        """
        owner = cls.OWNER
        if not isinstance(data, Mapping):
            raise ValueError(f"{owner} must be a mapping, got {data!r}")
        schema = _schema(cls)
        known = [name for name, _, _ in schema]
        if cls.SCHEMA_VERSION is not None:
            # Checked first: another schema's keys are no typo.
            known.insert(0, "version")
            version = data.get("version", cls.SCHEMA_VERSION)
            if type(version) is not int or version != cls.SCHEMA_VERSION:
                raise ValueError(
                    f"{owner} schema {version!r} != supported {cls.SCHEMA_VERSION}"
                )
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"unknown {owner} field(s) {', '.join(repr(k) for k in unknown)} "
                f"(known: {', '.join(known)})"
            )
        kwargs = {}
        for name, gate, required in schema:
            if name not in data:
                if required:
                    raise ValueError(f"{owner} is missing required field {name!r}")
                continue
            raw = data[name]
            try:
                kwargs[name] = gate(raw)
            except Refused as refusal:
                raise ValueError(
                    f"{owner} field {name!r} must be {refusal}, got {raw!r}"
                ) from None
        return cls(**kwargs)

    @classmethod
    def from_json(cls: "type[_R]", text: str) -> _R:
        """Rebuild a record serialized with :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
