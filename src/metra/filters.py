"""Filters on finite index sets and reduced products of metric algebras.

Every filter on a finite index set is principal: it consists of all
supersets of a unique smallest member, its core.  The filter is an
ultrafilter exactly when the core is a single index.  Along a filter,
the limit superior of a finite family of distances is the maximum over
the core and the limit inferior is the minimum over the core, because a
subfamily of indices is "large" precisely when it contains the core.

The reduced product of a family of algebras along a filter is the
quotient of the direct product by the pseudometric that takes the limit
superior of the coordinatewise distances.  On finite index sets that
pseudometric is always congruential, so the reduced product always
exists; the construction still records a verdict so a failure would be
reported rather than silently ignored.

For describing how distances behave along a growing index, the module
also handles sequences given in the closed form c + r/n: the distance
at stage n.  Such a sequence has the exact limit c, and a family of
stagewise metrics given in this form can be collapsed to its limit
pseudometric without any approximation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Homomorphism, MetricAlgebra, product, quotient
from .congruence import Congruence, is_congruential
from .errors import DomainError, ParseError, UnsupportedInputError, Verdict
from .extmetric import (
    ExtRat,
    PseudometricMatrix,
    SquareMatrix,
    _mirrors,
    _sup,
    check_pseudometric,
    render_id,
)
from .terms import TokenStream


class FiniteFilter:
    """A filter on a finite index set, stored by its core."""

    __slots__ = ("index_set", "core")

    def __init__(self, index_set, core):
        self.index_set = tuple(index_set)
        if len(set(self.index_set)) != len(self.index_set) or not self.index_set:
            raise DomainError("index set must be nonempty and free of duplicates")
        requested = set(core)
        for i in requested:
            if i not in set(self.index_set):
                raise DomainError(f"core index {render_id(i)} is not in the index set")
        self.core = tuple(i for i in self.index_set if i in requested)
        if not self.core:
            raise DomainError("the core must be a nonempty subset of the index set")

    @property
    def is_ultrafilter(self) -> bool:
        return len(self.core) == 1

    def members(self):
        """All members of the filter: the supersets of the core."""
        rest = [i for i in self.index_set if i not in self.core]
        for k in range(len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                member = tuple(i for i in self.index_set if i in self.core or i in extra)
                yield member

    def contains(self, subset) -> bool:
        subset = set(subset)
        for i in subset:
            if i not in self.index_set:
                raise DomainError(f"index {render_id(i)} is not in the index set")
        return all(i in subset for i in self.core)

    def __eq__(self, other):
        if not isinstance(other, FiniteFilter):
            return NotImplemented
        return self.index_set == other.index_set and self.core == other.core

    def __hash__(self):
        return hash((self.index_set, self.core))

    def __repr__(self):
        return f"FiniteFilter({self.index_set!r}, core={self.core!r})"


def validate_filter_family(index_set, members) -> Verdict:
    """Check that an explicit family of subsets is a filter and find its core.

    The family must be nonempty, upward closed, closed under intersection,
    and must not contain the empty set.  On success the verdict carries the
    reconstructed ``FiniteFilter``.
    """
    index_set = tuple(index_set)
    universe = set(index_set)
    family = [tuple(i for i in index_set if i in set(m)) for m in members]
    seen = set(family)
    if not family:
        return Verdict.failed("empty-family", ())
    for m in family:
        if not m:
            return Verdict.failed("contains-empty-set", ())
    for m in family:
        for m2 in family:
            both = tuple(i for i in m if i in set(m2))
            if both not in seen:
                return Verdict.failed("not-intersection-closed", (m, m2))
    for m in family:
        rest = [i for i in index_set if i not in m]
        for k in range(len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                sup = tuple(i for i in index_set if i in set(m) or i in set(extra))
                if sup not in seen:
                    return Verdict.failed("not-upward-closed", (m, sup))
    core = min(family, key=len)
    return Verdict.passed(FiniteFilter(index_set, core))


def principal(index_set, core) -> FiniteFilter:
    """The principal filter generated by a subset."""
    return FiniteFilter(index_set, core)


def ultrafilters(index_set):
    """All ultrafilters on the index set, one per index."""
    return [FiniteFilter(index_set, (i,)) for i in index_set]


def all_filters(index_set):
    """Every filter on the index set, ordered by their cores."""
    index_set = tuple(index_set)
    out = []
    for k in range(1, len(index_set) + 1):
        for core in itertools.combinations(index_set, k):
            out.append(FiniteFilter(index_set, core))
    return out


def limsup_along(filter: FiniteFilter, values) -> ExtRat:
    """Limit superior of an indexed family of distances along the filter."""
    values = dict(values)
    return max(ExtRat(values[i]) for i in filter.core)


def liminf_along(filter: FiniteFilter, values) -> ExtRat:
    """Limit inferior of an indexed family of distances along the filter."""
    values = dict(values)
    return min(ExtRat(values[i]) for i in filter.core)


def restrict_filter(filter: FiniteFilter, member) -> FiniteFilter:
    """The trace of the filter on one of its members."""
    member = tuple(member)
    if not filter.contains(member):
        raise DomainError("can only restrict to a member of the filter")
    return FiniteFilter(member, filter.core)


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
    algebras, filter: FiniteFilter, max_size: int = 4096
) -> ReducedProduct:
    """Quotient of the direct product by the filter's limsup pseudometric.

    The factors are indexed by the filter's index set in order.  The
    limsup pseudometric is congruential whenever the index set is
    finite; the check still runs, and a failure would be returned as a
    non-existence outcome carrying the verdict.
    """
    algebras = list(algebras)
    if len(algebras) != len(filter.index_set):
        raise DomainError(
            f"got {len(algebras)} factors for {len(filter.index_set)} indices"
        )
    prod, _ = product(algebras, max_size=max_size)
    # The limsup is the sup metric of the product with factors off the core at zero.
    arrays, denom = _mirrors(*(a.space for a in algebras))
    core = set(filter.core)
    arrays = [D if i in core else np.zeros_like(D) for i, D in zip(filter.index_set, arrays)]
    matrix = SquareMatrix._trusted(prod.carrier, _sup(arrays), denom)
    verdict = is_congruential(prod, matrix)
    if not verdict:
        return ReducedProduct(False, product_algebra=prod, verdict=verdict)
    theta = Congruence._trusted(prod, matrix.D, matrix.denom)
    quot, projection = quotient(prod, theta)
    return ReducedProduct(True, quot, projection, theta, prod, verdict)


@dataclass(frozen=True)
class SeqForm:
    """A distance sequence in the closed form c + r/n."""

    c: Fraction
    r: Fraction = Fraction(0)

    def __post_init__(self):
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


def parse_seq_form(text: str) -> SeqForm:
    """Parse ``q``, ``q/n``, or ``q + r/n`` into a sequence form.

    The coefficients are rationals read as the workspace lexer reads
    numbers (ASCII digits, ``p/q``, no decimals), each with an optional
    ``-``; ``r`` may be negative, as in ``1 + -1/2/n`` for the sequence
    approaching 1 from below.
    """
    lx = TokenStream(text)
    try:
        c, r = _coefficient(lx), Fraction(0)
        if lx.at("punct", "+"):
            lx.next()
            r = _coefficient(lx)
            _over_n(lx)
        elif lx.at("punct", "/"):
            _over_n(lx)
            c, r = Fraction(0), c
        lx.finish("sequence form")
    except ParseError:
        raise UnsupportedInputError(
            f"cannot read {text!r}; expected q, q/n, or q + r/n"
        ) from None
    return SeqForm(c, r)


def _coefficient(lx: TokenStream) -> Fraction:
    negative = lx.at("punct", "-")
    if negative:
        lx.next()
    value = lx.fraction(lx.expect("num"))
    return -value if negative else value


def _over_n(lx: TokenStream) -> None:
    lx.expect("punct", "/")
    lx.expect("name", "n")


def pointwise_limit_metric(carrier, forms) -> PseudometricMatrix:
    """Exact limit of a family of stagewise distances in closed form.

    ``forms`` maps unordered point pairs to ``SeqForm`` values (strings
    are parsed); every off-diagonal pair must be present, and the
    diagonal is the constant zero sequence.  The stagewise matrices must
    be pseudometrics from some stage onward.  With entries of the shape
    c + r/n this is decidable exactly: a triangle comparison holds
    eventually if and only if the constant parts satisfy it, with the
    1/n parts breaking the tie when the constant parts are equal.
    """
    carrier = tuple(carrier)
    parsed = {}
    for key, form in dict(forms).items():
        a, b = key
        if isinstance(form, str):
            form = parse_seq_form(form)
        parsed[(a, b)] = form
        parsed[(b, a)] = form
    for i, a in enumerate(carrier):
        for b in carrier[i + 1 :]:
            if (a, b) not in parsed:
                raise DomainError(
                    f"no sequence given for the pair ({render_id(a)}, {render_id(b)})"
                )
    for a in carrier:
        parsed[(a, a)] = SeqForm(Fraction(0))
    limit_rows = [
        [parsed[(a, b)].limit for b in carrier] for a in carrier
    ]
    limit = SquareMatrix(carrier, limit_rows)
    verdict = check_pseudometric(limit)
    if not verdict:
        raise DomainError(
            f"the limit violates the {verdict.reason} axiom at {verdict.witness}"
        )
    for x in carrier:
        for z in carrier:
            for y in carrier:
                gap_c = (
                    parsed[(x, z)].c - parsed[(x, y)].c - parsed[(y, z)].c
                )
                gap_r = (
                    parsed[(x, z)].r - parsed[(x, y)].r - parsed[(y, z)].r
                )
                if gap_c > 0 or (gap_c == 0 and gap_r > 0):
                    raise DomainError(
                        f"the stagewise triangle through {render_id(y)} fails "
                        f"at ({render_id(x)}, {render_id(z)}) at every late stage"
                    )
    return PseudometricMatrix._trusted(carrier, limit.D, limit.denom)
