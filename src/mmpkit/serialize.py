"""Exact-rational serialization and canonical JSON.

This module owns the one rendering rule for reports, so the CLI handlers
return library values as they are.  A ``Fraction`` is written as a string
"p" or "p/q" in lowest terms with positive denominator, an ``Enum`` as
its value, a dataclass record as the object of its fields (rendered in
turn, not copied), and a tuple as a list; any other object that JSON has
no type for is a ``TypeError``.  Machine reports therefore never contain
floating point, and every report is dumped with sorted keys and fixed
separators so identical inputs produce byte-identical output and reports
round-trip through any JSON parser.

The encoder calls ``plain`` once for every such value in a report, so
``plain`` tests for a ``Fraction`` first and writes it with
``Fraction.__str__``, and reads a record class's field names once per
class.  Rationals are read by one ASCII grammar, ``[+-]?[0-9]+(/[0-9]+)?``,
matched in full.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction
from functools import cache

# [0-9], not \d, which takes any Unicode digit
_FRACTION_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(value) -> Fraction:
    """Parse an int or a 'p/q' string into an exact Fraction; "p" is p/1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not (isinstance(value, str) and _FRACTION_RE.fullmatch(value)):
        raise ValueError(f"not a rational: {value!r}")
    num, _, den = value.partition("/")
    if int(den or 1) == 0:
        raise ValueError(f"zero denominator: {value!r}")
    return Fraction(int(num), int(den or 1))


@cache
def _field_names(cls) -> tuple[str, ...] | None:
    """The field names of a dataclass, None for any other class."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def plain(value):
    """The JSON value of a library value: a Fraction as "p/q", an Enum as its
    value, a dataclass record as a dict of its fields, which the encoder renders."""
    if isinstance(value, Fraction):
        return Fraction.__str__(value)  # "p" or "p/q", also for a subclass with its own __str__
    if isinstance(value, Enum):
        return value.value
    names = _field_names(type(value))
    if names is None:
        raise TypeError(f"no JSON rendering for {type(value).__name__}: {value!r}")
    return {name: getattr(value, name) for name in names}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=plain)
