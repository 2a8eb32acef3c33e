"""Exception hierarchy, the verdict record shared by every checker, and the
one check of a resource cap with the defaults of the ``--limits`` caps."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any


class MetraError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MetraError):
    """A matrix or table does not have the required shape."""


class AxiomError(MetraError):
    """A value failed validation against its defining axioms."""

    def __init__(self, message: str, verdict: "Verdict | None" = None):
        super().__init__(message)
        self.verdict = verdict


class DomainError(MetraError):
    """An argument refers to elements outside the relevant carrier."""


def checked_count(value, what: str) -> int:
    """``value`` as an int; ``DomainError`` unless it is a nonnegative
    integer and not a bool.  For depths and caps."""
    # A plain int skips the ABC check: ``over_cap`` runs once per new term.
    if type(value) is int and value >= 0:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise DomainError(f"{what} must be a nonnegative int, got {value!r}")
    return int(value)


def over_cap(count: int, cap, name: str, message: str) -> None:
    """Raise ``ResourceLimitError(message, name, cap)`` when ``count``
    passes ``cap``; ``message`` is formatted with ``count`` and ``cap``.
    ``cap`` is checked first, as ``checked_count`` checks it, under ``name``.
    Every resource cap of the package is compared here."""
    cap = checked_count(cap, name)
    if count > cap:
        raise ResourceLimitError(message.format(count=count, cap=cap), name, cap)


# The caps a workspace's ``limits`` block and ``metra run --limits`` set, and
# the defaults of the library parameters of the same names.
LIMIT_DEFAULTS = {
    "max_cells": 20,
    "max_decreases": 1_000_000,
    "max_size": 4096,
    "max_terms": 20000,
    "max_valuations": 1_000_000,
}


class ArityError(MetraError):
    """An operation was applied to the wrong number of arguments."""


class SignatureError(MetraError):
    """A term or table is inconsistent with its signature."""


class ValuationError(MetraError):
    """A valuation does not cover every variable it must interpret."""


class CongruenceError(MetraError):
    """A matrix is not a congruential pseudometric on its algebra."""

    def __init__(self, message: str, verdict: "Verdict | None" = None):
        super().__init__(message)
        self.verdict = verdict


class OrderError(MetraError):
    """Two congruences are not related as the operation requires."""


class TableError(MetraError):
    """An operation table is partial or maps outside the carrier."""


class UnsupportedInputError(MetraError):
    """The input is legal but outside the supported fragment."""


class ResourceLimitError(MetraError):
    """An enumeration exceeded its configured cap before finishing."""

    def __init__(self, message: str, limit_name: str = "", limit_value: int = 0):
        super().__init__(message)
        self.limit_name = limit_name
        self.limit_value = limit_value


class ParseError(MetraError):
    """Workspace text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        base = super().__str__()
        if self.line:
            return f"line {self.line}, column {self.column}: {base}"
        return base


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check: a flag, a reason code, and a witness.

    ``witness`` carries the elements that exhibit the failure (or, for
    positive verdicts, the object that certifies success).  ``value`` holds
    a constructed result for checks that double as smart constructors.
    """

    ok: bool
    reason: str = ""
    witness: tuple = ()
    value: Any = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def passed(value: Any = None) -> "Verdict":
        return Verdict(True, value=value)

    @staticmethod
    def failed(reason: str, witness: tuple = (), value: Any = None) -> "Verdict":
        return Verdict(False, reason, witness, value)
