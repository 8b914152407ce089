"""The one JSON boundary: one writer and one checked reader for every document.

A schema is a typed example: each key it names is required and takes the
type of its value, and keys it lacks pass through unchecked.  Errors name the
file and the dotted key: ``<path>: <dotted.key>: expected <type>, got <value>``.
``NaN``, ``Infinity``, ``-Infinity`` and numbers too large for a float
(``1e999``) are not JSON numbers: the reader refuses them and the writer
never emits them.
A run config is merged over the defaults first (:func:`_deep_merge`), so
there every key is optional and a key the defaults lack is an error.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def write_json(path: str | Path, doc: dict, indent: int | None = 2) -> None:
    """Write ``doc`` with sorted keys; ``indent=None`` writes it compact, on one line."""
    separators = (",", ": ") if indent is not None else (",", ":")
    text = json.dumps(doc, indent=indent, separators=separators, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path: str | Path, schema: dict) -> dict:
    """The JSON object in ``path``, checked against ``schema``; errors name the file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(), parse_float=_finite, parse_constant=_not_json)
        return checked(doc, schema)
    except FileNotFoundError:
        raise FileNotFoundError(f"{path}: not found") from None
    except ValueError as err:  # malformed JSON and UTF-8 too
        raise ValueError(f"{path}: {err}") from err


def _not_json(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _finite(token: str) -> float:
    value = float(token)
    if math.isinf(value):
        _not_json(token)
    return value


def checked(doc, schema: dict, where: str = "", nullable=frozenset()) -> dict:
    """``doc``, an object holding each key of ``schema``; the keys in ``nullable`` take null."""
    prefix = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        raise ValueError(f"{prefix}expected a JSON object, got {type(doc).__name__}")
    for key in schema:
        if key not in doc:
            raise ValueError(f"{prefix}missing key {key!r}")
    dotted = f"{where}." if where else ""
    values = {key: _checked_leaf(dotted + key, v, doc[key], nullable) for key, v in schema.items()}
    return {**doc, **values}


def _checked_leaf(where: str, example, value, nullable=frozenset()):
    """``value`` if it has the type of ``example``, else ``ValueError`` naming ``where``.

    Ints pass as floats and become floats; bools pass only as bools.  A
    ``None`` example takes a string or null.  A list example takes a list
    whose items match its first item, or any list if it is empty; a dict
    example is a nested schema.
    """
    if value is None and (example is None or where in nullable):
        return None
    if isinstance(example, dict):
        return checked(value, example, where, nullable)
    if isinstance(example, list):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected list, got {value!r}")
        if not example:
            return value
        try:  # under the list's own name: an item's name is built only when it fails
            return [_checked_leaf(where, example[0], v) for v in value]
        except ValueError:
            for i, v in enumerate(value):
                _checked_leaf(f"{where}[{i}]", example[0], v)
            raise
    expected = str if example is None else type(example)
    if expected is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{where}: expected float, got an integer too large for a float") from None
    if (type(value) is bool and expected is not bool) or not isinstance(value, expected):
        raise ValueError(f"{where}: expected {expected.__name__}, got {value!r}")
    return value


def _deep_merge(base: dict, override, where: str = "") -> dict:
    """``override`` merged over ``base`` key by key, unchecked; a key ``base`` lacks is an error."""
    if not isinstance(override, dict):
        raise ValueError(f"{where or 'config'}: expected object, got {override!r}")
    merged = dict(base)
    for key, value in override.items():
        at = f"{where}.{key}" if where else str(key)
        if key not in base:
            raise ValueError(f"{at}: unknown key; expected one of {sorted(base)}")
        merged[key] = _deep_merge(base[key], value, at) if isinstance(base[key], dict) else value
    return merged
