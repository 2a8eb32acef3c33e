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
(``get``, ``at``, ``entries``, ``to_json``), one object per distinct value.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ArityError,
    AxiomError,
    DomainError,
    ResourceLimitError,
    ShapeError,
    UnsupportedInputError,
    Verdict,
)


class ExtRat:
    """A nonnegative rational distance, extended with an infinite value.

    ``ExtRat`` values are immutable and hashable.  Addition saturates at
    infinity, comparison treats infinity as the unique top element, and
    subtraction is deliberately not provided (use :func:`abs_diff` for
    the finite distortion differences that need it).
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

    # Comparisons read the numerator and denominator slots of the
    # underlying Fractions directly, skipping Fraction's generic dispatch.
    # Fractions are kept in lowest terms, so equality is equality of the
    # pairs; orders compare p/q with r/s as p*s against r*q, which is exact
    # because denominators are positive.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        a, b = self._q, other._q
        if a is None or b is None:
            return a is b
        return a._numerator == b._numerator and a._denominator == b._denominator

    def __lt__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        a, b = self._q, other._q
        if a is None:
            return False
        if b is None:
            return True
        return a._numerator * b._denominator < b._numerator * a._denominator

    def __le__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        a, b = self._q, other._q
        if a is None:
            return b is None
        if b is None:
            return True
        return a._numerator * b._denominator <= b._numerator * a._denominator

    def __gt__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        a, b = self._q, other._q
        if b is None:
            return False
        if a is None:
            return True
        return a._numerator * b._denominator > b._numerator * a._denominator

    def __ge__(self, other: "ExtRat") -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        a, b = self._q, other._q
        if b is None:
            return a is None
        if a is None:
            return True
        return a._numerator * b._denominator >= b._numerator * a._denominator

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


def abs_diff(a: ExtRat, b: ExtRat) -> ExtRat:
    """|a - b| for finite values; raises if either side is infinite."""
    return ExtRat(abs(a.finite - b.finite))


def render_id(x) -> str:
    """Canonical display form of a carrier element id."""
    if isinstance(x, tuple):
        return "(" + ",".join(render_id(part) for part in x) + ")"
    return str(x)


# The scaled mirror.  A matrix is stored as numerators over one common
# denominator.  While every scaled finite value is below _MAX_SCALED the array
# is int64 with _INT_INF as infinity, chosen so that a sum of two entries can
# never overflow or pass for a finite value; otherwise it holds Python ints
# (dtype=object) with _OBJ_INF as infinity.  The same array code runs on both.
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
    constructor seeds it with the caller's own ``ExtRat`` entries.
    """

    __slots__ = ("carrier", "D", "denom", "_index", "_values")

    def __init__(self, carrier: Sequence, entries: Sequence[Sequence[ExtRat]]):
        carrier = _checked_carrier(carrier)
        rows = [[v if isinstance(v, ExtRat) else ExtRat(v) for v in row] for row in entries]
        if len(rows) != len(carrier) or any(len(row) != len(carrier) for row in rows):
            raise ShapeError(
                f"matrix must be {len(carrier)}x{len(carrier)} to match the carrier"
            )
        values: dict = {}
        self._assign(carrier, *scaled_int_array(rows, values), values)
        self._validate()

    def _assign(self, carrier: tuple, D: np.ndarray, denom: int, values: dict) -> None:
        D.flags.writeable = False
        self.carrier = carrier
        self.D = D
        self.denom = denom
        self._index = {x: i for i, x in enumerate(carrier)}
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

    def index(self, x) -> int:
        try:
            return self._index[x]
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
        try:
            i, j = self._index[x], self._index[y]
        except KeyError:
            i, j = self.index(x), self.index(y)
        return self._value(self.D.item(i, j))

    def _rows(self, convert: Callable) -> list:
        """``convert`` of each distance, as rows; it runs once per distinct value."""
        codes, inverse = np.unique(self.D, return_inverse=True)
        table = [convert(self._value(c)) for c in codes.tolist()]
        rows = inverse.reshape(self.D.shape).tolist()
        return [list(map(table.__getitem__, row)) for row in rows]

    @property
    def entries(self) -> tuple[tuple[ExtRat, ...], ...]:
        """The distances as rows of ``ExtRat`` values, built on each read."""
        return tuple(map(tuple, self._rows(lambda v: v)))

    def text_rows(self) -> list[list[str]]:
        """The distances as rows of strings, as reports print them."""
        return self._rows(str)

    def to_json(self) -> dict:
        """Ordered carrier plus a row-major distance array of strings."""
        return {
            "carrier": [render_id(x) for x in self.carrier],
            "dist": [v for row in self.text_rows() for v in row],
        }

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
    if len(set(carrier)) != len(carrier):
        raise DomainError("carrier contains duplicate element ids")
    return carrier


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
    table, denom = _codes(distinct)
    if seen is not None:
        seen.update(zip(table.tolist(), distinct))
    return table[inverse].reshape(height, width), denom


def _codes(values: Sequence[ExtRat]) -> tuple[np.ndarray, int]:
    """``ExtRat`` values as a one-dimensional mirror: their numerators over
    the least common denominator, int64 when every one is below
    ``_MAX_SCALED`` and Python ints otherwise."""
    qs = [v._q for v in values]
    denom = math.lcm(*(q.denominator for q in qs if q is not None))
    codes = [None if q is None else q.numerator * (denom // q.denominator) for q in qs]
    if all(c is None or c < _MAX_SCALED for c in codes):
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
    read as infinity, numerators and ``denom`` in lowest terms, and int64
    exactly when every finite value is below ``_MAX_SCALED``.  ``D`` is
    copied before anything in it changes."""
    if D.dtype != object and D.max() > _INT_INF:
        D = np.minimum(D, _INT_INF)
    finite = D < _inf_code(D)
    if denom > 1:
        common = math.gcd(denom, int(np.gcd.reduce(D, axis=None, where=finite, initial=0)))
        if common > 1:
            D = D.copy()
            D[finite] //= common
            denom //= common
    top = D.max(initial=0, where=finite)
    if D.dtype == object and top < _MAX_SCALED:
        D = np.where(finite, D, _INT_INF).astype(np.int64)
    elif D.dtype != object and top >= _MAX_SCALED:
        D = _as_object(D)
    return D, denom


def _mirrors(*items) -> tuple[list[np.ndarray], int]:
    """Mirrors over their least common denominator.

    ``items`` are matrices or ``(array, denom)`` pairs.  The arrays stay
    int64 while every scaled finite value is below ``_MAX_SCALED`` and are
    all widened to Python ints otherwise.  An array that needs no change
    is returned as it is: read it, do not write it.
    """
    pairs = [(m.D, m.denom) if isinstance(m, SquareMatrix) else m for m in items]
    denom = math.lcm(*(d for _, d in pairs))
    scaled = [(a, denom // d) for a, d in pairs]
    if any(a.dtype == object or _finite_max(a) * f >= _MAX_SCALED for a, f in scaled):
        scaled = [(_as_object(a), f) for a, f in scaled]
    return [a if f == 1 else _scale_finite(a.copy(), f) for a, f in scaled], denom


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first true entry of ``mask`` in row-major order, or None."""
    flat = int(mask.argmax())
    if not mask.flat[flat]:
        return None
    return tuple(int(i) for i in np.unravel_index(flat, mask.shape))


def _finite_components(arr: np.ndarray) -> list[np.ndarray]:
    """Groups of indices connected through finite entries.

    Any triangle violation d(x,z) > d(x,y) + d(y,z) needs a finite right
    side, which places x, y, and z in a single group, so the triangle
    check can run group by group.
    """
    n = arr.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    finite = arr < _inf_code(arr)
    for i in range(n):
        for j in np.nonzero(finite[i, i + 1 :])[0]:
            ri, rj = find(i), find(int(j) + i + 1)
            if ri != rj:
                parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [np.array(g, dtype=np.intp) for g in groups.values() if len(g) > 1]


# Cells of the n**3 triangle comparison held in memory at once.
_TRIANGLE_CELLS = 1 << 15


def _triangle_witness(arr: np.ndarray) -> tuple[int, int, int] | None:
    """Lexicographically first (x, y, z) with d(x,z) > d(x,y) + d(y,z).

    A block of x at a time, at most ``_TRIANGLE_CELLS`` comparisons but
    at least one x, so the memory stays quadratic however large the
    matrix is.  An infinite d(x,y) or d(y,z) makes the right side at least
    the infinity code, so it never witnesses.
    """
    n = len(arr)
    step = max(1, _TRIANGLE_CELLS // n**2)
    for start in range(0, n, step):
        rows = arr[start : start + step]
        bad = _first(rows[:, None, :] > rows[:, :, None] + arr)
        if bad is not None:
            return (start + bad[0], *bad[1:])
    return None


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


def _validated(m: SquareMatrix, cls: type) -> SquareMatrix:
    """``m`` as a ``cls``, checked unless it already is one."""
    if isinstance(m, cls):
        return m
    out = cls._trusted(m.carrier, m.D, m.denom)
    out._validate()
    return out


def space_from(carrier: Sequence, fn: Callable) -> FiniteMetricSpace:
    """Build a metric space from a distance function on element ids."""
    carrier = tuple(carrier)
    rows = [[ExtRat(fn(x, y)) for y in carrier] for x in carrier]
    return FiniteMetricSpace(carrier, rows)


class QuotientMap:
    """Class assignment produced by metric identification.

    Class ids are the representative element ids themselves; the
    representative of a class is its earliest member in carrier order,
    which keeps quotient output deterministic.
    """

    def __init__(self, source_carrier: Sequence, class_of: Mapping):
        self.source_carrier = tuple(source_carrier)
        self._class_of = dict(class_of)
        members: dict = {}
        for x in self.source_carrier:
            members.setdefault(self._class_of[x], []).append(x)
        self.class_ids = tuple(members)
        self._members = {c: tuple(ms) for c, ms in members.items()}
        for c in self.class_ids:
            if self._class_of[self._members[c][0]] != c:
                raise DomainError("representative does not map back to its class")

    def class_of(self, x):
        try:
            return self._class_of[x]
        except KeyError:
            raise DomainError(f"element {render_id(x)} is not in the source carrier") from None

    def representative(self, c):
        if c not in self._members:
            raise DomainError(f"{render_id(c)} is not a class id")
        return self._members[c][0]

    def members(self, c) -> tuple:
        if c not in self._members:
            raise DomainError(f"{render_id(c)} is not a class id")
        return self._members[c]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuotientMap):
            return NotImplemented
        return (
            self.source_carrier == other.source_carrier
            and self._class_of == other._class_of
        )

    def __repr__(self) -> str:
        return f"<QuotientMap {len(self.source_carrier)} -> {len(self.class_ids)}>"


def metric_identification(p: PseudometricMatrix) -> tuple[FiniteMetricSpace, QuotientMap]:
    """Collapse zero-distance pairs of a pseudometric into a metric space.

    Zero distance is an equivalence relation by the triangle inequality,
    so classes can be read off directly.  Each class is named by its
    earliest member in carrier order (the first zero of its row) and
    distances pass to representatives unchanged, giving a metric.
    """
    p = _validated(p, PseudometricMatrix)
    carrier = p.carrier
    rep = (p.D == 0).argmax(axis=1)
    reps = np.flatnonzero(rep == np.arange(len(carrier)))
    qmap = QuotientMap(carrier, dict(zip(carrier, map(carrier.__getitem__, rep.tolist()))))
    return FiniteMetricSpace._trusted(qmap.class_ids, p.D[np.ix_(reps, reps)], p.denom), qmap


def _sup(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The coordinatewise supremum of mirrors on a product of carriers, in
    ``itertools.product`` order (the last coordinate fastest)."""
    out = arrays[0]
    for a in arrays[1:]:
        m, k = len(out), len(a)
        out = np.maximum(out[:, None, :, None], a[None, :, None, :]).reshape(m * k, m * k)
    return out


def sup_product(
    spaces: Sequence[FiniteMetricSpace], max_size: int = 4096
) -> FiniteMetricSpace:
    """Product space on tuples with the coordinatewise supremum metric."""
    if not spaces:
        raise ArityError("product of zero metric spaces is not defined")
    spaces = [_validated(s, FiniteMetricSpace) for s in spaces]
    total = math.prod(s.size for s in spaces)
    if total > max_size:
        raise ResourceLimitError(
            f"product carrier would have {total} > {max_size} points",
            "product_size",
            max_size,
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


def point_set_distance(space: PseudometricMatrix, x, subset: Iterable) -> ExtRat:
    """d(x, S) = min over s in S of d(x, s); S must be nonempty."""
    subset = list(subset)
    if not subset:
        raise DomainError("distance to the empty set is not defined")
    row = space.D[space.index(x)].tolist()
    return space._value(min(row[space.index(s)] for s in subset))


def hausdorff_distance(space: PseudometricMatrix, a: Iterable, b: Iterable) -> ExtRat:
    """Hausdorff distance between two nonempty subsets of one space."""
    a, b = list(a), list(b)
    if not a or not b:
        raise DomainError("Hausdorff distance needs nonempty subsets")
    ia = [space.index(x) for x in a]
    ib = [space.index(y) for y in b]
    # Listing the whole matrix beats indexing it row by row on the small
    # spaces this serves; it costs one pass over the n**2 entries.
    rows = space.D.tolist()
    forward = max(min(map(rows[i].__getitem__, ib)) for i in ia)
    backward = max(min(map(rows[j].__getitem__, ia)) for j in ib)
    return space._value(max(forward, backward))


def diameter(space: PseudometricMatrix) -> ExtRat:
    return space._value(space.D.max())


def gromov_hausdorff(
    x_space: FiniteMetricSpace, y_space: FiniteMetricSpace, max_cells: int = 20
) -> ExtRat:
    """Gromov-Hausdorff distance via optimal correspondences.

    Computes half the minimum distortion over all correspondences
    between the two carriers.  The optimum is always attained on a
    correspondence of the form graph(f) union graph(g)^T for functions
    f: X -> Y and g: Y -> X, because dropping pairs never increases
    distortion; the search runs branch-and-bound over those pairs with
    exact scaled-integer arithmetic.

    Both metrics must be finite; carriers with |X| * |Y| beyond
    ``max_cells`` raise a resource error.
    """
    for s in (x_space, y_space):
        if (s.D >= _inf_code(s.D)).any():
            raise UnsupportedInputError(
                "Gromov-Hausdorff distance requires finite metrics"
            )
    nx, ny = x_space.size, y_space.size
    if nx * ny > max_cells:
        raise ResourceLimitError(
            f"carrier product {nx * ny} exceeds the correspondence cap {max_cells}",
            "gh_cells",
            max_cells,
        )
    (dx, dy), denom = _mirrors(x_space, y_space)
    dx, dy = dx.tolist(), dy.tolist()

    best = None

    def assign_g(g: list[int], f: list[int], cur: int):
        nonlocal best
        j = len(g)
        if j == ny:
            best = cur if best is None else min(best, cur)
            return
        for x in range(nx):
            worst = cur
            for i in range(nx):
                worst = max(worst, abs(dx[i][x] - dy[f[i]][j]))
            for j2 in range(j):
                worst = max(worst, abs(dx[g[j2]][x] - dy[j2][j]))
            if best is None or worst < best:
                g.append(x)
                assign_g(g, f, worst)
                g.pop()

    def assign_f(f: list[int], cur: int):
        nonlocal best
        i = len(f)
        if i == nx:
            assign_g([], f, cur)
            return
        for y in range(ny):
            worst = cur
            for i2 in range(i):
                worst = max(worst, abs(dx[i2][i] - dy[f[i2]][y]))
            if best is None or worst < best:
                f.append(y)
                assign_f(f, worst)
                f.pop()

    assign_f([], 0)
    return ExtRat(Fraction(best, 2 * denom))


def _along(f: Mapping, x_space: SquareMatrix, y_space: SquareMatrix):
    """The mirrors of ``x_space`` and of ``y_space`` along ``f``, over one denominator."""
    idx = []
    for a in x_space.carrier:
        if a not in f:
            raise DomainError(f"map is undefined at {render_id(a)}")
        idx.append(y_space.index(f[a]))
    (X, Y), _ = _mirrors(x_space, y_space)
    return X, Y[np.ix_(idx, idx)]


def is_nonexpansive_map(
    f: Mapping, x_space: PseudometricMatrix, y_space: PseudometricMatrix
) -> bool:
    """True when d(f(a), f(b)) <= d(a, b) for all a, b in the source."""
    X, Y = _along(f, x_space, y_space)
    return not (Y > X).any()


def is_isometric_embedding(
    f: Mapping, x_space: PseudometricMatrix, y_space: PseudometricMatrix
) -> bool:
    """True when f preserves every distance exactly and is injective."""
    X, Y = _along(f, x_space, y_space)
    image = [f[a] for a in x_space.carrier]
    return len(set(image)) == len(image) and bool(np.array_equal(X, Y))
