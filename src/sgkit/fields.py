"""One reader for every input document, through a table of its fields.

A table maps each key to a ``Field``.  ``read_fields`` reads the config, the
fits document and its entries (``sgkit.cli``) and the dataset metadata
(``sgkit.experiment``) through their tables; the rules they share are the
constants below, each written once.  The dataset's numbers are text, read by
``INTEGER_TEXT`` and ``NUMBER_TEXT`` only in the form the dataset writer writes.
"""

from __future__ import annotations

import math
import numbers
import re
from typing import Any, Callable, NamedTuple

REQUIRED = object()
# Beyond 2**53 an integer is no longer an exact float.
EXACT_INTEGERS = 2 ** 53


class Field(NamedTuple):
    """A key's parser (raising TypeError, ValueError or OverflowError on a value of
    the wrong kind), the text ending "must be ...", the parsed values it admits and
    its default, if it may be left out."""

    parse: Callable[[Any], Any]
    what: str
    admits: Callable[[Any], bool] = lambda _: True
    default: Any = REQUIRED

    def require(self, name: str, value, error: type[ValueError] = ValueError):
        """``value``, if this row admits it; else ``error`` "{name} must be {what}"."""
        if not self.admits(value):
            raise error(f"{name} must be {self.what}")
        return value

    def read(self, name: str, value):
        """``value`` parsed, if this row parses and admits it; else ValueError as ``require``."""
        try:
            return self.require(name, self.parse(value))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{name} must be {self.what}") from None


def of_type(*types: type) -> Callable[[Any], Any]:
    """A parser that passes on a JSON value of exactly one of ``types``: a bool is no int."""

    def parse(value):
        if type(value) not in types:
            raise TypeError(f"a {type(value).__name__}")
        return value

    return parse


integer = of_type(int)
_real = of_type(int, float)


def integral(n) -> bool:
    """Whether ``n`` is an int or a numpy integer, and so neither a bool nor a float."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def number(value) -> float:
    """A finite JSON int or float as a float; an int beyond float range raises OverflowError."""
    value = float(_real(value))
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


# Text as str(int) and f"{x:.17g}" write it for a finite x: no sign but '-', no
# space, no '_'. Other text does not match, and None[0] raises TypeError. re
# compiles each pattern at its first use, not at import.
_INTEGER_TEXT = r"-?[0-9]+"
_NUMBER_TEXT = r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?"
INTEGER_TEXT = Field(lambda text: int(re.fullmatch(_INTEGER_TEXT, text)[0]), "a decimal integer")
NUMBER_TEXT = Field(lambda text: number(float(re.fullmatch(_NUMBER_TEXT, text)[0])), "a finite decimal number")
NONNEGATIVE = Field(number, "a finite nonnegative number", lambda x: x >= 0.0)
SEED = Field(integer, "an integer in [0, 2**64)", lambda n: integral(n) and 0 <= n < 2 ** 64)
STRICT_NORMALIZATION = Field(of_type(bool), "true or false", default=False)
# The binomial sampler takes a C long; far larger counts would overflow the fit.
SHOTS = Field(integer, "an integer in [0, 2**63)", lambda n: integral(n) and 0 <= n < 2 ** 63)
N_THETA = Field(integer, "an integer in [2, 2**53]", lambda n: integral(n) and 2 <= n <= EXACT_INTEGERS)
N_PHI = Field(integer, "an integer in [3, 2**53]", lambda n: integral(n) and 3 <= n <= EXACT_INTEGERS)


def read_fields(table: dict[str, Field], document: dict, error: Callable, prefix="", noun="key") -> dict:
    """Each key of ``table``, parsed from ``document`` or given its default.

    A key that ``table`` does not list, that is missing and has no default, or
    whose value its row does not parse or admit raises ``error(message, key)``,
    the message naming it as ``{noun} '{prefix}{key}'``.
    """
    for key in document:
        if key not in table:
            raise error(f"unknown {noun} '{prefix}{key}'", key)
    values = {}
    for key, field in table.items():
        if key not in document:
            if field.default is REQUIRED:
                raise error(f"missing {noun} '{prefix}{key}'", key)
            values[key] = field.default
            continue
        try:
            values[key] = field.read(f"{noun} '{prefix}{key}'", document[key])
        except ValueError as exc:
            raise error(str(exc), key) from None
    return values
