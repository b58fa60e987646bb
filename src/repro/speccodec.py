"""Strict, type-hint-driven JSON codec for the spec dataclasses.

A spec class derives from :class:`Spec` and decodes by its field type
hints: ``str`` and ``bool`` need exactly that type; ``int`` rejects
bools and floats; ``float`` takes an int or a float, never a bool or
``NaN`` (``Infinity`` is valid), and an int stays an int, so a document
re-encodes byte-identically; ``null`` is allowed only for ``X | None``;
``tuple[X, ...]`` needs a list; a nested spec or ``dict[str, Any]``
needs a mapping (copied); ``Any`` passes through.

Unknown keys are rejected, a field without a dataclass default is
required, and every message starts with the dotted path from the
document root (``fleet.devices[0].threads must be an integer, got
'x'``).  A section's errors raise the ``error`` class of its spec
module; cross-field checks stay in each class's ``__post_init__``.
A class that defines ``_named()`` (the standard SLO classes) also
accepts a bare string naming one of its instances.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from typing import Any, Callable

from repro.errors import ReproError

Converter = Callable[[Any, str], Any]


class Spec:
    """Base of the spec dataclasses.  Each spec module derives one base
    whose ``error`` is the exception its documents raise."""

    __slots__ = ()
    error: type[ReproError] = ReproError

    def to_dict(self) -> dict:
        """JSON-shaped dict (tuples become lists, specs become dicts)."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict) -> Any:
        # Not ``schema.decode``: the SPEC001 lint rule looks for the
        # unknown-key check in every from_dict.
        schema = _schema(cls)
        schema.check_keys(data, "")
        return schema.build(data, "")

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> Any:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise cls.error(f"{cls.__name__} document is not valid "
                            f"JSON: {error}") from error
        return cls.from_dict(data)


def to_jsonable(value: Any) -> Any:
    """Recursively convert spec values into JSON-serializable shapes
    (dataclasses become dicts, tuples become lists, dict values are
    converted in place — override mappings may carry spec objects)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: to_jsonable(item) for key, item in value.items()}
    return value


class _Schema:
    """One spec class's field converters, built once from its hints."""

    __slots__ = ("cls", "error", "converters", "required", "named")

    def __init__(self, cls: type[Spec]) -> None:
        self.cls, self.error = cls, cls.error
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        self.converters = {f.name: _converter(hints[f.name], cls.error)
                           for f in fields}
        self.required = [f.name for f in fields
                         if f.default is dataclasses.MISSING
                         and f.default_factory is dataclasses.MISSING]
        self.named = getattr(cls, "_named", None)

    def check_keys(self, data: Any, path: str) -> None:
        """Reject a non-mapping, unknown keys and missing required keys."""
        if not isinstance(data, dict):
            if isinstance(data, str) and self.named is not None:
                return
            raise self.error(f"{path or self.cls.__name__} must be a "
                             f"mapping, got {data!r}")
        if not self.converters.keys() >= data.keys():
            unknown = sorted(set(data) - set(self.converters), key=str)
            raise self.error(
                f"{path + ': ' if path else ''}unknown key(s) {unknown} "
                f"for {self.cls.__name__}; allowed: {sorted(self.converters)}"
            )
        for name in self.required:
            if name not in data:
                raise self.error(
                    f"{path + '.' if path else ''}{name} is required")

    def build(self, data: Any, path: str) -> Any:
        """The instance for a document :meth:`check_keys` accepted."""
        if isinstance(data, str):
            choices = self.named()
            if data not in choices:
                raise self.error(
                    f"{path or self.cls.__name__} must be a mapping or "
                    f"one of {sorted(choices)}, got {data!r}")
            return choices[data]
        prefix = path + "." if path else ""
        converters = self.converters
        return self.cls(**{key: converters[key](value, prefix + key)
                           for key, value in data.items()})

    def decode(self, data: Any, path: str) -> Any:
        self.check_keys(data, path)
        return self.build(data, path)


@functools.cache
def _schema(cls: type[Spec]) -> _Schema:
    return _Schema(cls)


_SCALARS: dict[type, tuple[str, Callable[[Any], bool]]] = {
    str: ("a string", lambda value: isinstance(value, str)),
    bool: ("a boolean", lambda value: isinstance(value, bool)),
    int: ("an integer", lambda value: isinstance(value, int)
          and not isinstance(value, bool)),
    # ``value == value`` rejects NaN; infinities stay valid.
    float: ("a number", lambda value: isinstance(value, (int, float))
            and not isinstance(value, bool) and value == value),
}


def _converter(hint: Any, error: type[ReproError]) -> Converter:
    """The converter for one field type hint (see the module docstring)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 \
            and type(None) in args:
        present = _converter(args[args[0] is type(None)], error)
        return lambda value, path: \
            None if value is None else present(value, path)
    if isinstance(hint, type) and issubclass(hint, Spec):
        return _schema(hint).decode
    if hint is Any:
        return lambda value, path: value
    if origin is tuple and args[1:] == (Ellipsis,):
        item = _converter(args[0], error)

        def sequence(value: Any, path: str) -> tuple:
            if not isinstance(value, (list, tuple)):
                raise error(f"{path} must be a list, got {value!r}")
            return tuple(item(entry, f"{path}[{index}]")
                         for index, entry in enumerate(value))
        return sequence
    if origin is dict:
        def mapping(value: Any, path: str) -> dict:
            if not isinstance(value, dict):
                raise error(f"{path} must be a mapping, got {value!r}")
            return dict(value)
        return mapping
    if hint not in _SCALARS:
        raise TypeError(f"unsupported spec field type {hint!r}")
    expected, test = _SCALARS[hint]

    def scalar(value: Any, path: str) -> Any:
        if test(value):
            return value
        raise error(f"{path} must be {expected}, got {value!r}")
    return scalar
