"""One validation and JSON policy for the package's input records.

Packets, minimal-packet specs, evolution contexts, oscillator modes and the
oracle's quadrature specs are frozen dataclasses that mix in
:class:`Record`.  Their fields are checked by type: a ``float`` field takes
any real number (an ``int``, a ``float``, a NumPy real scalar or another
:class:`numbers.Real`) and stores it as a finite ``float``; an ``int``
field takes an integer-valued real and stores an ``int``.  ``bool``,
strings, ``None``, complex and non-finite values are refused with
:class:`~gausspack.errors.InvalidParameterError`.  Each record's JSON form
has one key per field, named by the field's ``metadata["json"]`` (by
default the attribute name); reading one needs every key and no other.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from typing import Any, Mapping, NamedTuple, TypeVar

from .errors import InvalidParameterError

__all__ = ["Record", "real", "integer"]


def real(value: Any, name: str) -> float:
    """``value`` as a finite float; ``name`` labels the error."""
    if type(value) is not float:
        if isinstance(value, float):  # np.float64 and other subclasses, without the ABC check
            value = float(value)
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
        else:
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                raise InvalidParameterError(f"{name} must be finite, got {value!r}") from None
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def integer(value: Any, name: str) -> int:
    """``value`` as an int; an integer-valued real such as ``2.0`` is taken."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    number = real(value, name)
    if not number.is_integer():
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(number)


R = TypeVar("R", bound="Record")


class _Layout(NamedTuple):
    keys: tuple[tuple[str, str], ...]  # (attribute, JSON key)
    reals: tuple[tuple[str, str], ...]  # (attribute, error label)
    integers: tuple[tuple[str, str], ...]


@functools.cache
def _layout(cls: type) -> _Layout:
    """A record class's fields, read once: JSON names and the checked ones."""
    fields = dataclasses.fields(cls)

    def checked(kind: type) -> tuple[tuple[str, str], ...]:
        return tuple(
            (f.name, f"{cls.record_name} field {f.name}")
            for f in fields
            if f.type in (kind, kind.__name__)
        )

    keys = tuple((f.name, f.metadata.get("json", f.name)) for f in fields)
    return _Layout(keys, checked(float), checked(int))


class Record:
    """Mixin for a frozen dataclass: type checks and a JSON form.

    Subclasses name themselves for error messages and CLI wrappers with
    ``class Foo(Record, name="foo")``.  A subclass's own ``__post_init__``
    calls this one first and then checks its constraints on the converted
    values.
    """

    record_name: str

    def __init_subclass__(cls, *, name: str, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.record_name = name

    def __post_init__(self) -> None:
        _, reals, integers = _layout(type(self))
        # Values that already pass are left alone, and the fields are read
        # from the instance dict rather than by getattr: this runs for every
        # packet the closed forms build.
        values = self.__dict__
        for attr, label in reals:
            value = values[attr]
            if type(value) is not float or not math.isfinite(value):
                object.__setattr__(self, attr, real(value, label))
        for attr, label in integers:
            value = values[attr]
            if type(value) is not int:
                object.__setattr__(self, attr, integer(value, label))

    @classmethod
    def json_keys(cls) -> tuple[str, ...]:
        """The JSON field names, in field order."""
        return tuple(key for _, key in _layout(cls).keys)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form under the JSON field names."""
        return {key: getattr(self, attr) for attr, key in _layout(type(self)).keys}

    @classmethod
    def from_dict(cls: type[R], data: Mapping[str, Any]) -> R:
        """Build from a mapping under the JSON field names.

        Every key is required and unknown keys are refused, so a typo never
        falls back to a default; the values go through the constructor.
        """
        name = cls.record_name
        if not isinstance(data, Mapping):
            raise InvalidParameterError(f"{name} must be a JSON object, got {type(data).__name__}")
        keys = set(cls.json_keys())
        missing = sorted(keys.difference(data))
        if missing:
            raise InvalidParameterError(f"missing {name} fields: {', '.join(missing)}")
        extra = sorted(map(str, set(data).difference(keys)))
        if extra:
            raise InvalidParameterError(f"unknown {name} fields: {', '.join(extra)}")
        return cls(**{attr: data[key] for attr, key in _layout(cls).keys})
