"""Filters on finite index sets and reduced products of metric algebras.

Every filter on a finite index set is principal: it consists of all
supersets of a unique smallest member, its core.  The filter is an
ultrafilter exactly when the core is a single index.  Along a filter,
the limit superior of a finite family of distances is the maximum over
the core, because a subfamily of indices is "large" precisely when it
contains the core.

The reduced product of a family of algebras along a filter is the
quotient of the direct product by the pseudometric that takes the limit
superior of the coordinatewise distances.  On finite index sets that
pseudometric is the meet of the kernels of the core's projections, so it
is congruential by construction and the reduced product always exists.

For describing how distances behave along a growing index, the module
also handles sequences given in the closed form c + r/n: the distance
at stage n.  Such a sequence has the exact limit c, and a family of
stagewise metrics given in this form can be collapsed to its limit
pseudometric without any approximation.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Homomorphism, MetricAlgebra, kernel, product, quotient
from .congruence import Congruence, meet
from .errors import LIMIT_DEFAULTS, DomainError, UnsupportedInputError, Verdict
from .extmetric import (
    _TRIANGLE_CELLS,
    ExtRat,
    PseudometricMatrix,
    _checked_carrier,
    _codes,
    _first_in_blocks,
    _ids,
    check_pseudometric,
    checked_value,
    render_id,
)
from .terms import _NUM_PATTERN


class FiniteFilter:
    """A filter on a finite index set, stored by its core."""

    __slots__ = ("index_set", "core")

    def __init__(self, index_set, core):
        self.index_set = tuple(index_set)
        try:
            indices, requested = set(self.index_set), set(core)
        except TypeError as exc:
            raise DomainError(f"index ids must be hashable ({exc})") from None
        if len(indices) != len(self.index_set) or not self.index_set:
            raise DomainError("index set must be nonempty and free of duplicates")
        for i in requested:
            if i not in indices:
                raise DomainError(f"core index {render_id(i)} is not in the index set")
        self.core = tuple(i for i in self.index_set if i in requested)
        if not self.core:
            raise DomainError("the core must be a nonempty subset of the index set")

    @property
    def is_ultrafilter(self) -> bool:
        return len(self.core) == 1

    def __eq__(self, other):
        if not isinstance(other, FiniteFilter):
            return NotImplemented
        return self.index_set == other.index_set and self.core == other.core

    def __hash__(self):
        return hash((self.index_set, self.core))

    def __repr__(self):
        return f"FiniteFilter({self.index_set!r}, core={self.core!r})"


def all_filters(index_set):
    """Every filter on the index set, ordered by their cores."""
    index_set = tuple(index_set)
    out = []
    for k in range(1, len(index_set) + 1):
        for core in itertools.combinations(index_set, k):
            out.append(FiniteFilter(index_set, core))
    return out


@dataclass
class ReducedProduct:
    """A reduced product together with the maps that build it."""

    exists: bool
    algebra: MetricAlgebra | None = None
    projection: Homomorphism | None = None
    theta: Congruence | None = None
    product_algebra: MetricAlgebra | None = None
    verdict: Verdict | None = None


def reduced_product(
    algebras, filter: FiniteFilter, max_size: int = LIMIT_DEFAULTS["max_size"]
) -> ReducedProduct:
    """Quotient of the direct product by the filter's limsup pseudometric.

    The factors are indexed by the filter's index set in order.  The
    limsup of d_i(a_i, b_i) along the filter is its maximum over the core,
    which is the meet of the kernels of the core's projections: a meet of
    congruences is a congruence, so the reduced product always exists and
    nothing is checked.
    """
    algebras = list(algebras)
    if len(algebras) != len(filter.index_set):
        raise DomainError(
            f"got {len(algebras)} factors for {len(filter.index_set)} indices"
        )
    prod, projections = product(algebras, max_size=max_size)
    core = set(filter.core)
    theta = meet([kernel(p) for i, p in zip(filter.index_set, projections) if i in core])
    quot, projection = quotient(prod, theta)
    return ReducedProduct(True, quot, projection, theta, prod, Verdict.passed())


@dataclass(frozen=True)
class SeqForm:
    """A distance sequence in the closed form c + r/n."""

    c: Fraction
    r: Fraction = Fraction(0)

    def __post_init__(self):
        # Held as Fractions: the limit's mirror is read off their parts.
        object.__setattr__(self, "c", checked_value(Fraction, self.c, "the limit term c"))
        object.__setattr__(self, "r", checked_value(Fraction, self.r, "the 1/n term r"))
        if self.c < 0:
            raise DomainError("the limit term c must be nonnegative")
        if self.c + self.r < 0:
            raise DomainError("the value at n = 1 must be nonnegative")

    def at(self, n: int) -> ExtRat:
        if n < 1:
            raise DomainError("stages are numbered from 1")
        return ExtRat(self.c + Fraction(self.r, n))

    @property
    def limit(self) -> ExtRat:
        return ExtRat(self.c)

    def __str__(self):
        if self.r == 0:
            return str(self.c)
        if self.c == 0:
            return f"{self.r}/n"
        return f"{self.c} + {self.r}/n"


# A sequence form in one match: ``q``, ``q/n`` or ``q + r/n``, each
# coefficient a lexer number with an optional ``-``.  The gaps are the lexer's
# blank space and ``#`` comments; a comment is pinned to the end of its line,
# as the lexer's greedy match leaves it, so a failing match cannot backtrack
# through the ways of splitting one comment into several.
_GAP = r"(?:\s|#[^\n]*(?![^\n]))*"
_SIGNED = "(-" + _GAP + ")?(" + _NUM_PATTERN + ")" + _GAP
_OVER_N = "/" + _GAP + "n" + _GAP
_SEQ_FORM = re.compile(
    _GAP + _SIGNED + r"(?:\+" + _GAP + _SIGNED + _OVER_N + "|(?P<over>" + _OVER_N + "))?"
)


def parse_seq_form(text: str) -> SeqForm:
    """Parse ``q``, ``q/n``, or ``q + r/n`` into a sequence form.

    The coefficients are rationals read as the workspace lexer reads
    numbers (ASCII digits, ``p/q``, no decimals), each with an optional
    ``-``; ``r`` may be negative, as in ``1 + -1/2/n`` for the sequence
    approaching 1 from below.  Blank space and ``#`` comments may stand
    between the parts.
    """
    m = _SEQ_FORM.fullmatch(text)
    try:
        if m is not None:
            # Groups 1-2 are the sign and number of q, 3-4 those of r.
            c, r = _signed(*m.group(1, 2)), _signed(*m.group(3, 4))
            return SeqForm(Fraction(0), c) if m["over"] is not None else SeqForm(c, r)
    except ZeroDivisionError:  # a zero denominator
        pass
    raise UnsupportedInputError(f"cannot read {text!r}; expected q, q/n, or q + r/n")


def _signed(sign: str | None, number: str | None) -> Fraction:
    """A coefficient read off its sign and number groups; 0 when absent."""
    if number is None:
        return Fraction(0)
    return -Fraction(number) if sign else Fraction(number)


def pointwise_limit_metric(carrier, forms) -> PseudometricMatrix:
    """Exact limit of a family of stagewise distances in closed form.

    ``forms`` maps unordered point pairs to ``SeqForm`` values (strings
    are parsed): each pair of distinct points of the carrier exactly
    once, in either order; the diagonal is the constant zero sequence.
    The stagewise matrices must be pseudometrics from some stage onward.
    With entries of the shape c + r/n this is decidable exactly: a
    triangle comparison holds eventually if and only if the constant
    parts satisfy it, with the 1/n parts breaking the tie when the
    constant parts are equal.
    """
    carrier = _checked_carrier(carrier)
    where = {x: i for i, x in enumerate(carrier)}
    given = {}
    for (a, b), form in dict(forms).items():
        pair = f"({render_id(a)}, {render_id(b)})"
        outside = [x for x in (a, b) if x not in where]
        if outside:
            raise DomainError(
                f"the pair {pair} names {render_id(outside[0])}, which is not in the carrier"
            )
        i, j = sorted((where[a], where[b]))
        if i == j:
            raise DomainError(f"the pair {pair} lies on the diagonal, whose sequence is 0")
        if (i, j) in given:
            raise DomainError(f"the pair {pair} is given in both orders")
        if isinstance(form, str):
            form = parse_seq_form(form)
        elif not isinstance(form, SeqForm):
            raise DomainError(
                f"the sequence for the pair {pair} must be a SeqForm or a string, got {form!r}"
            )
        given[(i, j)] = form
    pairs = list(itertools.combinations(range(len(carrier)), 2))
    for i, j in pairs:
        if (i, j) not in given:
            raise DomainError(
                f"no sequence given for the pair ({render_id(carrier[i])}, {render_id(carrier[j])})"
            )
    chosen = [given[p] for p in pairs]
    codes, denom = _codes([f.c for f in chosen])
    limit = PseudometricMatrix._trusted(carrier, _symmetric(len(carrier), codes), denom)
    # Returned only once the constant parts pass the pseudometric axioms.
    verdict = check_pseudometric(limit)
    if not verdict:
        raise DomainError(
            f"the limit violates the {verdict.reason} axiom at {verdict.witness}"
        )
    # The constant parts pass the triangle check, so a stagewise triangle
    # fails only where it is tight on them and the 1/n parts break the tie:
    # a block of x at a time, on axes (x, z, y), the order of the witness.
    # The 1/n parts are compared among themselves only, so their own common
    # denominator serves.
    C, R = limit.D, _symmetric(len(carrier), _codes([f.r for f in chosen])[0])
    tie = _first_in_blocks(len(C), _TRIANGLE_CELLS // C.size, lambda x: (
        (C[x, :, None] == C[x, None, :] + C) & (R[x, :, None] > R[x, None, :] + R)
    ))
    if tie is not None:
        x, z, y = _ids(carrier, tie)
        raise DomainError(
            f"the stagewise triangle through {render_id(y)} fails "
            f"at ({render_id(x)}, {render_id(z)}) at every late stage"
        )
    return limit


def _symmetric(n: int, codes: np.ndarray) -> np.ndarray:
    """The symmetric n x n mirror with zero diagonal whose cells above the
    diagonal, in row-major order, are ``codes``."""
    out = np.zeros((n, n), dtype=codes.dtype)
    rows, cols = np.triu_indices(n, 1)
    out[rows, cols] = out[cols, rows] = codes
    return out
