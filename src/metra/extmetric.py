"""Exact extended-rational distances and finite (pseudo)metric spaces.

Distances live in the nonnegative rationals extended with a single
infinite value.  All arithmetic is exact: rationals are stdlib
``fractions.Fraction`` values and infinity is a dedicated sentinel that
absorbs addition and dominates every comparison.  Floating point never
appears.

Heavy axiom checks (triangle inequality on large carriers) run on a
scaled-integer mirror backed by numpy: int64 while the values fit, Python
ints otherwise.  Results are identical to the pure loops because every
scaled value is an exact integer.
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


class SquareMatrix:
    """An ordered carrier together with a square grid of distances.

    No axioms are assumed: this is the raw shape shared by pseudometrics
    and by non-symmetric relation compositions.  The carrier must be
    nonempty and free of duplicates; entries are ``ExtRat`` values.
    Entries that already are ``ExtRat`` objects are kept, not copied, so a
    matrix built from shared values mirrors each distinct object once.
    """

    __slots__ = ("carrier", "entries", "_index")

    def __init__(self, carrier: Sequence, entries: Sequence[Sequence[ExtRat]]):
        carrier = _checked_carrier(carrier)
        rows = tuple(
            tuple(v if isinstance(v, ExtRat) else ExtRat(v) for v in row) for row in entries
        )
        if len(rows) != len(carrier) or any(len(row) != len(carrier) for row in rows):
            raise ShapeError(
                f"matrix must be {len(carrier)}x{len(carrier)} to match the carrier"
            )
        self._assign(carrier, rows)

    def _assign(self, carrier: tuple, rows: tuple) -> None:
        self.carrier = carrier
        self.entries = rows
        self._index = {x: i for i, x in enumerate(carrier)}

    @classmethod
    def _trusted(cls, carrier: Sequence, rows: Iterable[Sequence[ExtRat]]):
        """A ``cls`` around ``ExtRat`` rows that satisfy its invariant by
        construction, such as results derived from validated objects; no
        shape, carrier or axiom check runs."""
        out = object.__new__(cls)
        out._assign(tuple(carrier), tuple(map(tuple, rows)))
        return out

    @property
    def size(self) -> int:
        return len(self.carrier)

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise DomainError(f"element {render_id(x)} is not in the carrier") from None

    def at(self, i: int, j: int) -> ExtRat:
        return self.entries[i][j]

    def get(self, x, y) -> ExtRat:
        return self.entries[self.index(x)][self.index(y)]

    def to_json(self) -> dict:
        """Ordered carrier plus a row-major distance array of strings."""
        return {
            "carrier": [render_id(x) for x in self.carrier],
            "dist": [str(v) for row in self.entries for v in row],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.carrier == other.carrier and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.carrier, self.entries))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {self.size} points>"


def _checked_carrier(carrier: Sequence) -> tuple:
    carrier = tuple(carrier)
    if not carrier:
        raise DomainError("empty carrier is not allowed")
    if len(set(carrier)) != len(carrier):
        raise DomainError("carrier contains duplicate element ids")
    return carrier


# Scaled-integer mirror.  A matrix is mirrored as numerators over one common
# denominator.  While every scaled finite value is below _MAX_SCALED the
# mirror is an int64 array with _INT_INF as infinity, chosen so that a sum of
# two entries can never overflow or pass for a finite value; otherwise it holds
# Python ints (dtype=object) with _OBJ_INF as infinity.  The same array code
# runs on both.
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


def scaled_int_array(rows: Sequence[Sequence[ExtRat]]) -> tuple[np.ndarray, int]:
    """Mirror a rectangular grid of entries into (array, denominator).

    The array is int64 when every scaled finite value is below
    ``_MAX_SCALED`` and holds Python ints otherwise.  Entries are grouped
    by object identity and each distinct object is converted once, so
    large matrices that share a few values stay cheap.
    """
    height, width = len(rows), len(rows[0])
    ids = np.fromiter(
        map(id, itertools.chain.from_iterable(rows)), dtype=np.uint64, count=height * width
    )
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    distinct = [rows[f // width][f % width]._q for f in first.tolist()]
    denom = math.lcm(*(q.denominator for q in distinct if q is not None))
    codes = [None if q is None else q.numerator * (denom // q.denominator) for q in distinct]
    if all(c is None or c < _MAX_SCALED for c in codes):
        table = np.array([_INT_INF if c is None else c for c in codes], dtype=np.int64)
    else:
        table = np.array([_OBJ_INF if c is None else c for c in codes], dtype=object)
    return table[inverse].reshape(height, width), denom


def _as_object(arr: np.ndarray) -> np.ndarray:
    """An int64 mirror widened to Python ints, with ``_OBJ_INF`` as infinity."""
    out = arr.astype(object)
    out[arr >= _INT_INF] = _OBJ_INF
    return out


def _inf_code(arr: np.ndarray):
    """The infinity of a mirror: ``_INT_INF`` for int64, ``_OBJ_INF`` for objects."""
    return _OBJ_INF if arr.dtype == object else _INT_INF


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


def _triangle_witness_numpy(arr: np.ndarray) -> tuple[int, int, int] | None:
    """Lexicographically first (x, y, z) with d(x,z) > d(x,y) + d(y,z).

    Works one finite-connectivity group at a time with one row of the
    comparison cube in memory at once, so the cost stays quadratic in
    space however large the matrix is.
    """
    best = None
    for idx in _finite_components(arr):
        sub = arr[np.ix_(idx, idx)]
        for x in range(len(idx)):
            bad = sub[x][None, :] > sub[x][:, None] + sub
            if bad.any():
                y, z = np.argwhere(bad)[0]
                witness = (int(idx[x]), int(idx[y]), int(idx[z]))
                if best is None or witness < best:
                    best = witness
                break
    return best


def _array_violation(arr: np.ndarray) -> tuple[str, tuple[int, ...]] | None:
    """First pseudometric axiom failing on a scaled-integer mirror.

    Same order and witnesses as the scan over ``ExtRat`` entries:
    reflexivity, then symmetry, then the triangle inequality.
    """
    off = np.nonzero(arr.diagonal())[0]
    if len(off):
        return "reflexivity", (int(off[0]),)
    skew = np.argwhere(np.triu(arr != arr.T, 1))
    if len(skew):
        i, j = skew[0]
        return "symmetry", (int(i), int(j))
    witness = _triangle_witness_numpy(arr)
    if witness is not None:
        return "triangle", witness
    return None


def check_pseudometric(m: SquareMatrix) -> Verdict:
    """Check the pseudometric axioms, reporting the first violation.

    Axioms are checked in a fixed order (reflexivity, symmetry,
    triangle) with a deterministic scan, so the witness is stable.
    Nonnegativity holds by the ``ExtRat`` type.
    """
    return _as_verdict(_axiom_violation(m.entries), m.carrier)


def _axiom_violation(rows, arr: np.ndarray | None = None) -> tuple[str, tuple[int, ...]] | None:
    """First pseudometric axiom failing on square ``rows``; ``arr`` is their
    mirror when the caller has one, and is built here when needed."""
    n = len(rows)
    # Below four points the scan over entries is cheaper than the array code.
    if n < 4:
        return _pure_violation(rows, n)
    return _array_violation(scaled_int_array(rows)[0] if arr is None else arr)


def _as_verdict(violation: tuple[str, tuple[int, ...]] | None, carrier: tuple) -> Verdict:
    if violation is None:
        return Verdict.passed()
    reason, where = violation
    return Verdict.failed(reason, tuple(carrier[i] for i in where))


def _pure_violation(rows, n: int) -> tuple[str, tuple[int, ...]] | None:
    for i in range(n):
        if rows[i][i] != ZERO:
            return "reflexivity", (i,)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return "symmetry", (i, j)
    # Infinite d(x,y) is skipped: it can never witness a violation because
    # the right side is then infinite as well.
    for x in range(n):
        row_x = rows[x]
        for y in range(n):
            d_xy = row_x[y]
            if d_xy.is_infinite:
                continue
            row_y = rows[y]
            for z in range(n):
                if row_x[z] > d_xy + row_y[z]:
                    return "triangle", (x, y, z)
    return None


def check_metric(m: SquareMatrix) -> Verdict:
    """Pseudometric axioms plus separation: d(x,y) = 0 only when x = y."""
    verdict = check_pseudometric(m)
    return _separation(m) if verdict else verdict


def _separation(m: SquareMatrix) -> Verdict:
    n = m.size
    for i in range(n):
        for j in range(i + 1, n):
            if m.entries[i][j] == ZERO:
                return Verdict.failed("separation", (m.carrier[i], m.carrier[j]))
    return Verdict.passed()


def _require(verdict: Verdict, what: str) -> None:
    if not verdict:
        raise AxiomError(
            f"not a {what}: {verdict.reason} fails at "
            f"({', '.join(render_id(w) for w in verdict.witness)})",
            verdict,
        )


class PseudometricMatrix(SquareMatrix):
    """A square matrix validated against the pseudometric axioms."""

    def __init__(self, carrier: Sequence, entries: Sequence[Sequence[ExtRat]]):
        super().__init__(carrier, entries)
        _require(check_pseudometric(self), "pseudometric")


def pseudometric_from_scaled(
    carrier: Sequence, arr: np.ndarray, denom: int
) -> PseudometricMatrix:
    """A ``PseudometricMatrix`` read off a scaled-integer mirror.

    ``arr`` holds numerators over ``denom``, with ``_INT_INF`` (or more)
    standing for infinity in an int64 array and ``_OBJ_INF`` in an object
    array.  The axioms are checked on the array itself, with the same
    reasons and witnesses as :func:`check_pseudometric`, and each distinct
    value becomes one ``ExtRat`` shared by its entries.
    """
    carrier = _checked_carrier(carrier)
    n = len(carrier)
    if arr.shape != (n, n):
        raise ShapeError(f"matrix must be {n}x{n} to match the carrier")
    _require(_as_verdict(_array_violation(arr), carrier), "pseudometric")
    return _from_scaled(carrier, arr, denom)


def _from_scaled(
    carrier: tuple, arr: np.ndarray, denom: int, cls: type = PseudometricMatrix
) -> SquareMatrix:
    """A trusted ``cls`` read off a mirror whose entries satisfy its invariant;
    entries at or above the infinity code read as ``INF``."""
    inf = _inf_code(arr)
    values, inverse = np.unique(arr, return_inverse=True)
    shared = np.array(
        [INF if v >= inf else ExtRat(Fraction(v, denom)) for v in values.tolist()],
        dtype=object,
    )
    return cls._trusted(carrier, shared[inverse.reshape(arr.shape)].tolist())


class FiniteMetricSpace(PseudometricMatrix):
    """A pseudometric that additionally separates distinct points."""

    def __init__(self, carrier: Sequence, entries: Sequence[Sequence[ExtRat]]):
        super().__init__(carrier, entries)
        _require(_separation(self), "metric")


def _validated(m: SquareMatrix, cls: type) -> SquareMatrix:
    """``m`` as a ``cls``: the public constructor runs unless it already is one."""
    return m if isinstance(m, cls) else cls(m.carrier, m.entries)


def _rows_at(m: SquareMatrix, idx: Sequence[int]) -> list[tuple]:
    """The entries of ``m`` on the rows and columns ``idx``, in that order."""
    return [tuple(map(row.__getitem__, idx)) for row in map(m.entries.__getitem__, idx)]


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
        self.class_ids = tuple(
            c for c in dict.fromkeys(self._class_of[x] for x in self.source_carrier)
        )
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
    rep: dict = {}
    reps: list[int] = []
    for i, x in enumerate(carrier):
        j = p.entries[i].index(ZERO)
        rep[x] = carrier[j]
        if j == i:
            reps.append(i)
    qmap = QuotientMap(carrier, rep)
    return FiniteMetricSpace._trusted(qmap.class_ids, _rows_at(p, reps)), qmap


def sup_product(
    spaces: Sequence[FiniteMetricSpace], max_size: int = 4096
) -> FiniteMetricSpace:
    """Product space on tuples with the coordinatewise supremum metric."""
    if not spaces:
        raise ArityError("product of zero metric spaces is not defined")
    spaces = [_validated(s, FiniteMetricSpace) for s in spaces]
    total = 1
    for s in spaces:
        total *= s.size
    if total > max_size:
        raise ResourceLimitError(
            f"product carrier would have {total} > {max_size} points",
            "product_size",
            max_size,
        )
    carrier = itertools.product(*(s.carrier for s in spaces))
    index_tuples = list(itertools.product(*(range(s.size) for s in spaces)))
    rows = [
        [max(s.entries[a][b] for s, a, b in zip(spaces, ix, iy)) for iy in index_tuples]
        for ix in index_tuples
    ]
    return FiniteMetricSpace._trusted(carrier, rows)


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
    return FiniteMetricSpace._trusted(_checked_carrier(sub), _rows_at(space, idx))


def point_set_distance(space: PseudometricMatrix, x, subset: Iterable) -> ExtRat:
    """d(x, S) = min over s in S of d(x, s); S must be nonempty."""
    subset = list(subset)
    if not subset:
        raise DomainError("distance to the empty set is not defined")
    i = space.index(x)
    return _row_min(space, i, [space.index(s) for s in subset])


def _row_min(space: PseudometricMatrix, i: int, subset: list[int]) -> ExtRat:
    """d(x_i, S) for S given by carrier indices."""
    return min(map(space.entries[i].__getitem__, subset))


def hausdorff_distance(space: PseudometricMatrix, a: Iterable, b: Iterable) -> ExtRat:
    """Hausdorff distance between two nonempty subsets of one space."""
    a, b = list(a), list(b)
    if not a or not b:
        raise DomainError("Hausdorff distance needs nonempty subsets")
    ia = [space.index(x) for x in a]
    ib = [space.index(y) for y in b]
    forward = max(_row_min(space, i, ib) for i in ia)
    backward = max(_row_min(space, j, ia) for j in ib)
    return max(forward, backward)


def diameter(space: PseudometricMatrix) -> ExtRat:
    return max(v for row in space.entries for v in row)


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
        if any(v.is_infinite for row in s.entries for v in row):
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
    denom = 1
    for s in (x_space, y_space):
        for row in s.entries:
            for v in row:
                denom = math.lcm(denom, v.finite.denominator)
    dx = [
        [int(v.finite * denom) for v in row] for row in x_space.entries
    ]
    dy = [
        [int(v.finite * denom) for v in row] for row in y_space.entries
    ]

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


def is_nonexpansive_map(
    f: Mapping, x_space: PseudometricMatrix, y_space: PseudometricMatrix
) -> bool:
    """True when d(f(a), f(b)) <= d(a, b) for all a, b in the source."""
    _check_map_shape(f, x_space, y_space)
    for a in x_space.carrier:
        for b in x_space.carrier:
            if y_space.get(f[a], f[b]) > x_space.get(a, b):
                return False
    return True


def is_isometric_embedding(
    f: Mapping, x_space: PseudometricMatrix, y_space: PseudometricMatrix
) -> bool:
    """True when f preserves every distance exactly and is injective."""
    _check_map_shape(f, x_space, y_space)
    image = [f[a] for a in x_space.carrier]
    if len(set(image)) != len(image):
        return False
    for a in x_space.carrier:
        for b in x_space.carrier:
            if y_space.get(f[a], f[b]) != x_space.get(a, b):
                return False
    return True


def _check_map_shape(f: Mapping, x_space: SquareMatrix, y_space: SquareMatrix) -> None:
    for a in x_space.carrier:
        if a not in f:
            raise DomainError(f"map is undefined at {render_id(a)}")
        y_space.index(f[a])
