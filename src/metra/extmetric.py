"""Exact extended-rational distances and finite (pseudo)metric spaces.

Distances live in the nonnegative rationals extended with a single
infinite value.  All arithmetic is exact: rationals are stdlib
``fractions.Fraction`` values and infinity is a dedicated sentinel that
absorbs addition and dominates every comparison.  Floating point never
appears.

A distance matrix is stored once, as its scaled mirror ``(D, denom)``:
integer numerators over the least common denominator, in an int64 array
while every value fits and in an array of Python ints otherwise.  Every
kernel (axiom checks, identification, products, restrictions, distances
between sets) runs on that array.  ``ExtRat`` values appear only where a
value enters the library (matrices built from rows) or leaves it
(``get``, ``at``, ``entries``), one object per distinct value.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    LIMIT_DEFAULTS,
    ArityError,
    AxiomError,
    DomainError,
    ShapeError,
    UnsupportedInputError,
    Verdict,
    over_cap,
)


@total_ordering
class ExtRat:
    """A nonnegative rational distance, extended with an infinite value.

    ``ExtRat`` values are immutable and hashable.  Addition saturates at
    infinity, comparison treats infinity as the unique top element, and
    subtraction is deliberately not provided.
    """

    __slots__ = ("_q",)

    def __init__(self, value: "ExtRat | Fraction | int | str" = 0):
        if isinstance(value, ExtRat):
            self._q = value._q
            return
        if isinstance(value, str):
            self._q = ExtRat.parse(value)._q
            return
        q = Fraction(value)
        if q < 0:
            raise ValueError(f"distances must be nonnegative, got {q}")
        self._q = q

    @classmethod
    def infinity(cls) -> "ExtRat":
        return _wrap(None)

    @classmethod
    def parse(cls, text: str) -> "ExtRat":
        """Parse ``inf``, an integer, or a ``p/q`` rational literal."""
        text = text.strip()
        if text == "inf":
            return INF
        try:
            return cls(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad distance literal {text!r}") from exc

    @property
    def is_infinite(self) -> bool:
        return self._q is None

    @property
    def finite(self) -> Fraction:
        """The underlying rational; raises on the infinite value."""
        if self._q is None:
            raise UnsupportedInputError("infinite distance where a finite one is required")
        return self._q

    def __add__(self, other: "ExtRat") -> "ExtRat":
        other = ExtRat(other) if not isinstance(other, ExtRat) else other
        if self._q is None or other._q is None:
            return INF
        # A sum of nonnegatives is nonnegative: no re-validation needed.
        return _wrap(self._q + other._q)

    __radd__ = __add__

    def scale(self, k: Fraction | int) -> "ExtRat":
        """Multiply by a positive rational constant; infinity is fixed."""
        k = Fraction(k)
        if k <= 0:
            raise ValueError(f"scale factor must be positive, got {k}")
        if self._q is None:
            return INF
        return _wrap(self._q * k)

    # The order is that of the keys (1, 0) for infinity and (0, q) for q;
    # ``total_ordering`` derives <=, > and >= from == and <.
    def _key(self) -> tuple:
        return (1, 0) if self._q is None else (0, self._q)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self) -> int:
        # Infinity hashes by a constant, not through hash(None), which is an
        # address on some Python versions.
        if self._q is None:
            return _INF_HASH
        return hash(("ExtRat", self._q))

    def __str__(self) -> str:
        if self._q is None:
            return "inf"
        if self._q.denominator == 1:
            return str(self._q.numerator)
        return f"{self._q.numerator}/{self._q.denominator}"

    def __repr__(self) -> str:
        return f"ExtRat({str(self)!r})"


def _wrap(q: Fraction | None) -> ExtRat:
    """An ``ExtRat`` around a value known to be a nonnegative Fraction or None."""
    obj = object.__new__(ExtRat)
    obj._q = q
    return obj


_INF_HASH = hash(math.inf)
ZERO = ExtRat(0)
ONE = ExtRat(1)
INF = ExtRat.infinity()


def checked_value(convert, value, what: str):
    """``convert(value)``, raising ``DomainError`` about ``what`` if it fails.

    ``convert`` is ``ExtRat`` for a distance argument or ``Fraction`` for
    a constant; their own ``ValueError`` contract stays as it is.
    """
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        kind = "a rational" if convert is Fraction else "a nonnegative rational or inf"
        raise DomainError(f"{what} must be {kind}, got {value!r}") from None


def render_id(x) -> str:
    """Canonical display form of a carrier element id."""
    if isinstance(x, tuple):
        return "(" + ",".join(render_id(part) for part in x) + ")"
    return str(x)


# The scaled mirror.  A matrix is stored as numerators over one common
# denominator.  While every scaled finite value is below _MAX_SCALED the array
# is int64 with _INT_INF as infinity, chosen so that a sum of two entries can
# never overflow or pass for a finite value; otherwise it holds Python ints
# (dtype=object) with _OBJ_INF as infinity.  Only _codes, _canonical and
# _scaled choose between the two; the same array code runs on both.
_INT_INF = 1 << 60
_MAX_SCALED = 1 << 45


class _Infinity:
    """Infinity in Python-int mirrors: above every int, absorbing addition.

    ``math.inf`` would serve but for ``int + math.inf``, which converts the
    int to a float and overflows once it passes 2**1024.
    """

    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


_OBJ_INF = _Infinity()


class SquareMatrix:
    """An ordered carrier together with a square grid of distances.

    No axioms are assumed: this is the raw shape shared by pseudometrics
    and by non-symmetric relation compositions.  The carrier must be
    nonempty and free of duplicates.

    The distances are the read-only scaled mirror ``(D, denom)``: the
    distance from ``carrier[i]`` to ``carrier[j]`` is ``D[i, j] / denom``.
    The form is canonical (``denom`` is the least common denominator, and
    ``D`` is int64 exactly when every finite value is below the guard), so
    equal matrices have equal arrays.  ``ExtRat`` values come from a table
    with one object per distinct value, built as they are asked for; the
    constructor seeds it with the caller's own ``ExtRat`` entries.  Element
    positions are built on first use.
    """

    __slots__ = ("carrier", "D", "denom", "_index", "_values")

    def __init__(self, carrier: Sequence, entries: Sequence[Sequence[ExtRat]]):
        carrier = _checked_carrier(carrier)
        rows = _checked_square(carrier, [
            [v if isinstance(v, ExtRat) else ExtRat(v) for v in row] for row in entries
        ])
        values: dict = {}
        self._assign(carrier, *scaled_int_array(rows, values), values)
        self._validate()

    @classmethod
    def _from_keys(cls, carrier: Sequence, keys: Sequence[Sequence], value_of: Mapping):
        """A ``cls`` on rows of keys, such as literal texts, the entry of a
        key being the ``ExtRat`` ``value_of[key]``.  Each distinct key is
        looked up once and the codes are read off a per-key table; the
        checks and errors are the constructor's."""
        carrier = _checked_carrier(carrier)
        flat = list(itertools.chain.from_iterable(_checked_square(carrier, keys)))
        distinct = list(set(flat))
        values = [value_of[k] for k in distinct]
        table, denom = _codes([v._q for v in values])
        codes = table.tolist()
        D = np.fromiter(map(dict(zip(distinct, codes)).__getitem__, flat), table.dtype, len(flat))
        out = object.__new__(cls)
        out._assign(carrier, D.reshape(len(carrier), len(carrier)), denom, dict(zip(codes, values)))
        out._validate()
        return out

    def _assign(self, carrier: tuple, D: np.ndarray, denom: int, values: dict) -> None:
        D.flags.writeable = False
        self.carrier = carrier
        self.D = D
        self.denom = denom
        self._index = None
        self._values = values

    def _validate(self) -> None:
        """Raise ``AxiomError`` unless the invariant of the class holds."""

    @classmethod
    def _trusted(cls, carrier: Iterable, D: np.ndarray, denom: int):
        """A ``cls`` around a mirror that satisfies its invariant by
        construction, such as a result derived from validated objects.  The
        mirror is brought to canonical form; no shape, carrier or axiom check
        runs, and ``D`` must not be written afterwards."""
        out = object.__new__(cls)
        out._assign(tuple(carrier), *_canonical(D, denom), {})
        return out

    @property
    def size(self) -> int:
        return len(self.carrier)

    def _positions(self) -> dict:
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.carrier)}
        return self._index

    def index(self, x) -> int:
        try:
            return self._positions()[x]
        except (KeyError, TypeError):
            raise DomainError(f"element {render_id(x)} is not in the carrier") from None

    def _value(self, code) -> ExtRat:
        """The ``ExtRat`` of one code of the mirror, made once per code."""
        value = self._values.get(code)
        if value is None:
            value = INF if code >= _inf_code(self.D) else _wrap(Fraction(int(code), self.denom))
            self._values[code] = value
        return value

    def at(self, i: int, j: int) -> ExtRat:
        return self._value(self.D.item(i, j))

    def get(self, x, y) -> ExtRat:
        return self._value(self.D.item(self.index(x), self.index(y)))

    @property
    def entries(self) -> tuple[tuple[ExtRat, ...], ...]:
        """The distances as rows of ``ExtRat`` values, built on each read;
        each distinct code is looked up once."""
        codes, inverse = np.unique(self.D, return_inverse=True)
        table = [self._value(c) for c in codes.tolist()]
        rows = inverse.reshape(self.D.shape).tolist()
        return tuple(tuple(map(table.__getitem__, row)) for row in rows)

    def text_rows(self) -> list[list[str]]:
        """The distances as rows of strings, as reports print them.  Each
        distinct code is rendered once from the integers: ``inf``, or
        ``code / denom`` in lowest terms."""
        rows = self.D.tolist()
        inf, denom = _inf_code(self.D), self.denom
        texts = {}
        for code in set(itertools.chain.from_iterable(rows)):
            if code >= inf:
                texts[code] = "inf"
            else:
                g = math.gcd(code, denom)
                texts[code] = str(code // g) if g == denom else f"{code // g}/{denom // g}"
        return [list(map(texts.__getitem__, row)) for row in rows]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        # Compared through _mirrors, not as stored: the canonical dtype
        # follows the int64 guard, which the tests lower to run every kernel
        # on Python ints, so equal matrices can differ in dtype, and across
        # dtypes the int64 infinity code equals the finite Python int 2**60.
        return self.carrier == other.carrier and bool(np.array_equal(*_mirrors(self, other)[0]))

    def __hash__(self) -> int:
        # The zero pattern, which equal matrices share whatever their dtype.
        return hash((self.carrier, self.denom, (self.D == 0).tobytes()))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {self.size} points>"


def _checked_carrier(carrier: Sequence) -> tuple:
    carrier = tuple(carrier)
    if not carrier:
        raise DomainError("empty carrier is not allowed")
    try:
        if len(set(carrier)) != len(carrier):
            raise DomainError("carrier contains duplicate element ids")
    except TypeError as exc:
        raise DomainError(f"carrier element ids must be hashable ({exc})") from None
    return carrier


def _checked_square(carrier: tuple, rows: list) -> list:
    n = len(carrier)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ShapeError(f"matrix must be {n}x{n} to match the carrier")
    return rows


def scaled_int_array(
    rows: Sequence[Sequence[ExtRat]], seen: dict | None = None
) -> tuple[np.ndarray, int]:
    """Mirror a rectangular grid of ``ExtRat`` entries into (array, denominator).

    The array is int64 when every scaled finite value is below
    ``_MAX_SCALED`` and holds Python ints otherwise.  Entries are grouped
    by object identity and each distinct object is converted once, so
    large grids that share a few values stay cheap.  ``seen``, when given,
    receives each code with one of the objects it came from.
    """
    height, width = len(rows), len(rows[0])
    ids = np.fromiter(
        map(id, itertools.chain.from_iterable(rows)), dtype=np.uint64, count=height * width
    )
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    distinct = [rows[f // width][f % width] for f in first.tolist()]
    table, denom = _codes([v._q for v in distinct])
    if seen is not None:
        seen.update(zip(table.tolist(), distinct))
    return table[inverse].reshape(height, width), denom


def _codes(qs: Sequence[Fraction | None]) -> tuple[np.ndarray, int]:
    """Rationals, None standing for infinity, as a one-dimensional mirror:
    their numerators over the least common denominator, int64 when every
    one is below ``_MAX_SCALED`` in absolute value and Python ints
    otherwise.  Negative rationals (the 1/n parts of sequence forms) are
    allowed; an ``ExtRat`` enters as its ``_q``."""
    denom = math.lcm(*(q.denominator for q in qs if q is not None))
    codes = [None if q is None else q.numerator * (denom // q.denominator) for q in qs]
    if all(c is None or -_MAX_SCALED < c < _MAX_SCALED for c in codes):
        return np.array([_INT_INF if c is None else c for c in codes], dtype=np.int64), denom
    return np.array([_OBJ_INF if c is None else c for c in codes], dtype=object), denom


def _inf_code(arr: np.ndarray):
    """The infinity of a mirror: ``_INT_INF`` for int64, ``_OBJ_INF`` for objects."""
    return _OBJ_INF if arr.dtype == object else _INT_INF


def _as_object(arr: np.ndarray) -> np.ndarray:
    """A mirror on Python ints, with ``_OBJ_INF`` as infinity: an int64 one is
    widened, an object one is returned as it is."""
    if arr.dtype == object:
        return arr
    out = arr.astype(object)
    out[arr >= _INT_INF] = _OBJ_INF
    return out


def _finite_max(arr: np.ndarray) -> int:
    return int(arr.max(initial=0, where=arr < _inf_code(arr)))


def _scale_finite(arr: np.ndarray, factor: int) -> np.ndarray:
    """Multiply the finite entries of a mirror by ``factor`` in place."""
    arr[arr < _inf_code(arr)] *= factor
    return arr


def _canonical(D: np.ndarray, denom: int) -> tuple[np.ndarray, int]:
    """A mirror in canonical form: every int64 code at or above ``_INT_INF``
    read as infinity, numerators and ``denom`` in lowest terms (``denom`` 1
    when all are 0), and int64 exactly when every finite value is below
    ``_MAX_SCALED``.  ``D`` is copied before anything in it changes."""
    if D.dtype != object and D.max() > _INT_INF:
        D = np.minimum(D, _INT_INF)
    finite = D < _inf_code(D)
    top = D.max(initial=0, where=finite)
    if not top:
        denom = 1
    elif denom > 1:
        common = math.gcd(denom, int(np.gcd.reduce(D, axis=None, where=finite, initial=0)))
        if common > 1:
            D = D.copy()
            D[finite] //= common
            denom //= common
            top //= common
    if D.dtype == object and top < _MAX_SCALED:
        D = np.where(finite, D, _INT_INF).astype(np.int64)
    elif D.dtype != object and top >= _MAX_SCALED:
        D = _as_object(D)
    return D, denom


def _scaled(*pairs, owned: bool = False) -> list[np.ndarray]:
    """Mirrors, given as ``(array, factor)`` pairs, with their finite
    entries multiplied by the Python-int factors: int64 while each
    ``max(finite max, 1) * factor`` is below ``_MAX_SCALED``, all widened
    to Python ints otherwise.  An int64 array's finite codes are below the
    guard, so one with factor 1 is not scanned.  ``owned`` arrays are
    scaled in place; others are copied first, and one that needs no
    change is returned as it is: read it, do not write it."""
    wide = any(
        a.dtype == object or f > 1 and max(_finite_max(a), 1) * f >= _MAX_SCALED
        for a, f in pairs
    )
    out = []
    for a, f in pairs:
        if wide and a.dtype != object:
            a = _as_object(a)
        elif f > 1 and not owned:
            a = a.copy()
        out.append(_scale_finite(a, f) if f > 1 else a)
    return out


def _mirrors(*items) -> tuple[list[np.ndarray], int]:
    """Mirrors over their least common denominator, by ``_scaled``.

    ``items`` are matrices or ``(array, denom)`` pairs; an array that needs
    no change is returned as it is: read it, do not write it.
    """
    pairs = [(m.D, m.denom) if isinstance(m, SquareMatrix) else m for m in items]
    denom = math.lcm(*(d for _, d in pairs))
    return _scaled(*((a, denom // d) for a, d in pairs)), denom


def within(space, bound: ExtRat) -> np.ndarray:
    """Where the distance is at most ``bound``, as an n x n boolean matrix."""
    D, denom = space.D, space.denom
    if bound.is_infinite:
        return np.ones(D.shape, dtype=bool)
    q = bound.finite
    limit = q.numerator * denom // q.denominator
    if D.dtype != object:
        # Every finite int64 entry lies below _INT_INF, infinity at it.
        limit = min(limit, _INT_INF - 1)
    return D <= limit


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first true entry of ``mask`` in row-major order, or None."""
    flat = int(mask.argmax())
    if not mask.flat[flat]:
        return None
    return tuple(int(i) for i in np.unravel_index(flat, mask.shape))


# Cells of a blocked scan's mask held in memory at once.
_TRIANGLE_CELLS = 1 << 15


def _first_in_blocks(n: int, step: int, mask: Callable) -> tuple[int, ...] | None:
    """Index of the first true entry, in row-major order, of a mask of ``n``
    rows, or None.  ``mask(rows)`` builds the rows in the slice ``rows``,
    ``step`` of them at a time but at least one."""
    step = max(1, step)
    for start in range(0, n, step):
        bad = _first(mask(slice(start, start + step)))
        if bad is not None:
            return (start + bad[0], *bad[1:])
    return None


def _triangle_witness(arr: np.ndarray) -> tuple[int, int, int] | None:
    """Lexicographically first (x, y, z) with d(x,z) > d(x,y) + d(y,z),
    a block of x at a time.  An infinite d(x,y) or d(y,z) makes the right
    side at least the infinity code, so it never witnesses."""
    step = _TRIANGLE_CELLS // arr.size
    return _first_in_blocks(len(arr), step, lambda x: arr[x, None, :] > arr[x, :, None] + arr)


def _array_violation(arr: np.ndarray) -> tuple[str, tuple[int, ...]] | None:
    """First pseudometric axiom failing on a mirror, with its witness:
    reflexivity, then symmetry, then the triangle inequality, each at the
    first failing index in row-major order."""
    off = np.flatnonzero(arr.diagonal())
    if len(off):
        return "reflexivity", (int(off[0]),)
    skew = _first(np.triu(arr != arr.T, 1))
    if skew is not None:
        return "symmetry", skew
    witness = _triangle_witness(arr)
    if witness is not None:
        return "triangle", witness
    return None


def check_pseudometric(m: SquareMatrix) -> Verdict:
    """Check the pseudometric axioms, reporting the first violation.

    Axioms are checked in a fixed order (reflexivity, symmetry,
    triangle) with a deterministic scan, so the witness is stable.
    Nonnegativity holds by the ``ExtRat`` type.
    """
    return _as_verdict(_array_violation(m.D), m.carrier)


def _as_verdict(violation: tuple[str, tuple[int, ...]] | None, carrier: tuple) -> Verdict:
    if violation is None:
        return Verdict.passed()
    reason, where = violation
    return Verdict.failed(reason, tuple(carrier[i] for i in where))


def check_metric(m: SquareMatrix) -> Verdict:
    """Pseudometric axioms plus separation: d(x,y) = 0 only when x = y."""
    verdict = check_pseudometric(m)
    return _separation(m) if verdict else verdict


def _separation(m: SquareMatrix) -> Verdict:
    pair = _first(np.triu(m.D == 0, 1))
    if pair is None:
        return Verdict.passed()
    return Verdict.failed("separation", _ids(m.carrier, pair))


def _ids(carrier: tuple, positions) -> tuple:
    return tuple(carrier[i] for i in positions)


def _require(verdict: Verdict, what: str) -> None:
    if not verdict:
        raise AxiomError(
            f"not a {what}: {verdict.reason} fails at "
            f"({', '.join(render_id(w) for w in verdict.witness)})",
            verdict,
        )


class PseudometricMatrix(SquareMatrix):
    """A square matrix validated against the pseudometric axioms."""

    def _validate(self) -> None:
        _require(check_pseudometric(self), "pseudometric")


def pseudometric_from_scaled(
    carrier: Sequence, arr: np.ndarray, denom: int
) -> PseudometricMatrix:
    """A ``PseudometricMatrix`` read off a scaled-integer mirror.

    ``arr`` holds numerators over ``denom``, with ``_INT_INF`` (or more)
    standing for infinity in an int64 array and ``_OBJ_INF`` in an object
    array.  ``arr`` is copied, and the axioms are checked with the same
    reasons and witnesses as :func:`check_pseudometric`.
    """
    carrier = _checked_carrier(carrier)
    n = len(carrier)
    if arr.shape != (n, n):
        raise ShapeError(f"matrix must be {n}x{n} to match the carrier")
    out = PseudometricMatrix._trusted(carrier, np.array(arr), denom)
    out._validate()
    return out


class FiniteMetricSpace(PseudometricMatrix):
    """A pseudometric that additionally separates distinct points."""

    def _validate(self) -> None:
        super()._validate()
        _require(_separation(self), "metric")


def _shared(cls: type, carrier: tuple, m: SquareMatrix) -> SquareMatrix:
    """A ``cls`` on ``carrier`` around the canonical mirror and the value
    table of ``m``, a matrix on an equal carrier; nothing is checked."""
    out = object.__new__(cls)
    out._assign(carrier, m.D, m.denom, m._values)
    return out


def _validated(m: SquareMatrix, cls: type) -> SquareMatrix:
    """``m`` as a ``cls``, checked unless it already is one."""
    if isinstance(m, cls):
        return m
    out = cls._trusted(m.carrier, m.D, m.denom)
    out._validate()
    return out


class QuotientMap:
    """Class assignment produced by metric identification.

    Stored once as ``rep``, a read-only ``intp`` array: ``rep[i]`` is the
    position of the earliest member of point i's class, whose id names the
    class, so quotient output is deterministic.  Lookups are built on use.
    """

    def __init__(self, source_carrier: Sequence, class_of: Mapping):
        carrier, class_of = tuple(source_carrier), dict(class_of)
        index = {x: i for i, x in enumerate(carrier)}
        if class_of.keys() != index.keys():
            x = next(x for x in (*class_of, *carrier) if x not in index or x not in class_of)
            raise DomainError(f"the classes and the source carrier differ at {render_id(x)}")
        rep = []
        for i, c in enumerate(map(class_of.__getitem__, carrier)):
            try:
                rep.append(index[c])
            except (KeyError, TypeError):
                rep.append(i + 1)
            # The class id is a member of its class and no later than point i.
            if rep[i] > i or class_of[carrier[rep[i]]] != c:
                raise DomainError(
                    f"class id {render_id(c)} is not the earliest member of its class"
                )
        self.source_carrier, self.rep = carrier, np.array(rep, dtype=np.intp)
        self.rep.flags.writeable = False

    @classmethod
    def _trusted(cls, carrier: tuple, rep: np.ndarray) -> "QuotientMap":
        """The map of ``carrier[i]`` to ``carrier[rep[i]]``; nothing is
        checked, and ``rep`` must not be written afterwards."""
        out = object.__new__(cls)
        out.source_carrier, out.rep = carrier, rep
        rep.flags.writeable = False
        return out

    @cached_property
    def _lookup(self) -> dict:
        carrier = self.source_carrier
        return dict(zip(carrier, _ids(carrier, self.rep.tolist())))

    @property
    def class_ids(self) -> tuple:
        return _ids(self.source_carrier, np.flatnonzero(self.rep == np.arange(len(self.rep))))

    def class_of(self, x):
        try:
            return self._lookup[x]
        except (KeyError, TypeError):
            raise DomainError(f"element {render_id(x)} is not in the source carrier") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuotientMap):
            return NotImplemented
        same = self.source_carrier == other.source_carrier
        return same and bool(np.array_equal(self.rep, other.rep))

    def __repr__(self) -> str:
        return f"<QuotientMap {len(self.source_carrier)} -> {len(self.class_ids)}>"


def _zero_reps(M: np.ndarray) -> np.ndarray:
    """Each point's least point at distance zero, its class representative,
    for one mirror or a stack of them."""
    return (M == 0).argmax(axis=-1)


def metric_identification(p: PseudometricMatrix) -> tuple[FiniteMetricSpace, QuotientMap]:
    """Collapse zero-distance pairs of a pseudometric into a metric space.

    Zero distance is an equivalence relation by the triangle inequality,
    so classes can be read off directly.  Each class is named by its
    earliest member in carrier order (the first zero of its row) and
    distances pass to representatives unchanged, giving a metric.  When
    every class is one point, the space shares the pseudometric's mirror.
    """
    p = _validated(p, PseudometricMatrix)
    rep = _zero_reps(p.D)
    reps = np.flatnonzero(rep == np.arange(len(rep)))
    if len(reps) == len(rep):
        space = _shared(FiniteMetricSpace, p.carrier, p)
    else:
        space = FiniteMetricSpace._trusted(
            _ids(p.carrier, reps), p.D[np.ix_(reps, reps)], p.denom
        )
    return space, QuotientMap._trusted(p.carrier, rep)


def _sup(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The coordinatewise supremum of mirrors on a product of carriers, in
    ``itertools.product`` order (the last coordinate fastest)."""
    out = arrays[0]
    for a in arrays[1:]:
        m, k = len(out), len(a)
        out = np.maximum(out[:, None, :, None], a[None, :, None, :]).reshape(m * k, m * k)
    return out


def sup_product(
    spaces: Sequence[FiniteMetricSpace], max_size: int = LIMIT_DEFAULTS["max_size"]
) -> FiniteMetricSpace:
    """Product space on tuples with the coordinatewise supremum metric."""
    if not spaces:
        raise ArityError("product of zero metric spaces is not defined")
    spaces = [_validated(s, FiniteMetricSpace) for s in spaces]
    over_cap(
        math.prod(s.size for s in spaces), max_size, "max_size",
        "product carrier would have {count} > {cap} points",
    )
    arrays, denom = _mirrors(*spaces)
    carrier = itertools.product(*(s.carrier for s in spaces))
    return FiniteMetricSpace._trusted(carrier, _sup(arrays), denom)


def restrict_space(space: FiniteMetricSpace, keep: Iterable) -> FiniteMetricSpace:
    """Subspace on ``keep``, preserving the carrier order of ``space``."""
    space = _validated(space, FiniteMetricSpace)
    keep = set(keep)
    idx = [i for i, x in enumerate(space.carrier) if x in keep]
    sub = [space.carrier[i] for i in idx]
    missing = keep - set(sub)
    if missing:
        raise DomainError(
            f"elements not in the carrier: {sorted(map(render_id, missing))}"
        )
    D = space.D[np.ix_(idx, idx)]
    return FiniteMetricSpace._trusted(_checked_carrier(sub), D, space.denom)


def hausdorff_distance(space: PseudometricMatrix, a: Iterable, b: Iterable) -> ExtRat:
    """Hausdorff distance between two nonempty subsets of one space."""
    a, b = list(a), list(b)
    if not a or not b:
        raise DomainError("Hausdorff distance needs nonempty subsets")
    block = space.D[np.ix_([space.index(x) for x in a], [space.index(y) for y in b])]
    return space._value(max(block.min(axis=1).max(), block.min(axis=0).max()))


def gromov_hausdorff(
    x_space: FiniteMetricSpace,
    y_space: FiniteMetricSpace,
    max_cells: int = LIMIT_DEFAULTS["max_cells"],
) -> ExtRat:
    """Gromov-Hausdorff distance via optimal correspondences.

    Computes half the least distortion over all correspondences between
    the two carriers, exactly, on the scaled-integer mirrors.  A cell
    ``(i, y)`` of ``X x Y`` is compatible with ``(i', y')`` at threshold
    ``t`` when ``|d(i, i') - d(y, y')| <= t``; a correspondence of
    distortion at most ``t`` is a set of pairwise compatible cells that
    covers every row and every column.  The least distortion is one of
    those finitely many gaps, so a binary search over them runs a
    depth-first cover search on cell bitmasks at each threshold: it
    branches on the uncovered line with the fewest cells left.

    Both metrics must be finite; carriers with |X| * |Y| beyond
    ``max_cells`` raise a resource error.
    """
    for s in (x_space, y_space):
        if (s.D >= _inf_code(s.D)).any():
            raise UnsupportedInputError(
                "Gromov-Hausdorff distance requires finite metrics"
            )
    nx, ny = x_space.size, y_space.size
    over_cap(
        nx * ny, max_cells, "max_cells",
        "carrier product {count} exceeds the correspondence cap {cap}",
    )
    (dx, dy), denom = _mirrors(x_space, y_space)
    cells = nx * ny
    # gaps[c, c'] for cells c = i*ny + y; abs and <= work on both dtypes.
    gaps = abs(dx[:, None, :, None] - dy[None, :, None, :]).reshape(cells, cells)
    vals = sorted(set(gaps.ravel().tolist()))
    lines = [((1 << ny) - 1) << (i * ny) for i in range(nx)]
    lines += [sum(1 << (i * ny + y) for i in range(nx)) for y in range(ny)]

    def covered(allowed: int, chosen: int, compat: list[int]) -> bool:
        """Whether cells of ``allowed`` extend ``chosen`` to a cover of every line."""
        fewest = None
        for line in lines:
            if not line & chosen:
                options = line & allowed
                if not options:
                    return False
                if fewest is None or options.bit_count() < fewest.bit_count():
                    fewest = options
        if fewest is None:
            return True
        while fewest:
            bit = fewest & -fewest
            fewest ^= bit
            if covered(allowed & compat[bit.bit_length() - 1], chosen | bit, compat):
                return True
        return False

    lo, hi = 0, len(vals) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        rows = np.packbits(gaps <= vals[mid], axis=1, bitorder="little")
        if covered((1 << cells) - 1, 0, [int.from_bytes(row, "little") for row in rows]):
            hi = mid
        else:
            lo = mid + 1
    return ExtRat(Fraction(vals[lo], 2 * denom))

