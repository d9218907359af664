"""Dict round-trip of the frozen config dataclasses, derived from their fields.

Every configuration section (``EngineConfig`` and what it nests) is a
frozen dataclass whose defaults are written once, on the class.
:func:`config_to_dict` and :func:`config_from_dict` walk
:func:`dataclasses.fields`, so no section spells its keys, its defaults or
its unknown-key check a second time.  Stdlib-only: the ``ha`` and
``streams`` config modules import it without a cycle.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from numbers import Integral, Real
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Type, TypeVar, Union
from typing import get_args, get_origin, get_type_hints

if TYPE_CHECKING:
    from _typeshed import DataclassInstance

T = TypeVar("T", bound="DataclassInstance")

#: Per-class rewrite of a payload an earlier release wrote: called with a
#: mutable copy of the section before the unknown-key check, it drops,
#: renames or folds the keys that release still carried.
RetiredKeys = Mapping[type, Callable[[Dict[str, Any]], None]]


def config_to_dict(obj: "DataclassInstance") -> Dict[str, Any]:
    """A JSON-serialisable dictionary, keys in field declaration order."""
    payload: Dict[str, Any] = {}
    for field in fields(obj):
        value = getattr(obj, field.name)
        payload[field.name] = config_to_dict(value) if is_dataclass(value) else value
    return payload


def config_from_dict(
    cls: Type[T],
    payload: Mapping[str, Any],
    section: str,
    retired: Optional[RetiredKeys] = None,
) -> T:
    """Inverse of :func:`config_to_dict`.

    Missing keys take the dataclass default, unknown keys raise
    ``unknown <section> keys: …`` and a value that does not fit its field's
    annotation raises a ``ValueError`` naming ``section.key``.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"{section} must be a mapping of config keys, got {payload!r}")
    values = dict(payload)
    if retired is not None and cls in retired:
        retired[cls](values)
    unknown = sorted(set(values) - {field.name for field in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {section} keys: {', '.join(unknown)}")
    hints = get_type_hints(cls)
    return cls(
        **{
            key: _load(hints[key], value, section, key, retired)
            for key, value in values.items()
        }
    )


def _load(
    hint: Any, value: Any, section: str, key: str, retired: Optional[RetiredKeys]
) -> Any:
    """``value`` as the field annotated ``hint`` holds it, or ``ValueError``."""
    if get_origin(hint) is Union:  # Optional[X]: None, or what X takes
        if value is None:
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        if isinstance(value, Mapping):
            return config_from_dict(hint, value, key, retired)
        fits = False
    elif hint is int:
        fits = isinstance(value, Integral) or (
            isinstance(value, Real) and float(value).is_integer()
        )
    elif hint is float:
        fits = isinstance(value, Real)
    else:
        fits = isinstance(value, hint)
    # ``True`` is an ``int`` to isinstance; it is a number to no config field.
    if not fits or (isinstance(value, bool) and hint is not bool):
        expected = "a mapping" if is_dataclass(hint) else hint.__name__
        raise ValueError(f"{section}.{key} must be {expected}, got {value!r}")
    return hint(value)
