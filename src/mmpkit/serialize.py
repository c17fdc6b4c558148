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
"""

from __future__ import annotations

import json
import re
from dataclasses import fields, is_dataclass
from enum import Enum
from fractions import Fraction

_FRACTION_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def fraction_to_str(value) -> str:
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(value) -> Fraction:
    """Parse an int or a 'p/q' string into an exact Fraction."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _FRACTION_RE.match(value):
            raise ValueError(f"not a rational: {value!r}")
        num, _, den = value.partition("/")
        if den == "":
            return Fraction(int(num))
        if int(den) == 0:
            raise ValueError(f"zero denominator: {value!r}")
        return Fraction(int(num), int(den))
    raise ValueError(f"not a rational: {value!r}")


def plain(value):
    """The JSON value of a library value: a Fraction as "p/q", an Enum as its
    value, a dataclass record as a dict of its fields, which the encoder renders."""
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"no JSON rendering for {type(value).__name__}: {value!r}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=plain)
