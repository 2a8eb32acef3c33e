"""Congruential pseudometrics and their lattice of operations.

A congruential pseudometric on a metric algebra sits pointwise below the
algebra's metric and has a zero-set closed under every operation, so the
quotient is again a metric algebra.  Congruences are ordered by reversed
pointwise comparison: theta1 is below theta2 when theta1 >= theta2
pointwise.  Meets are pointwise suprema; joins are computed by a
decreasing fixpoint that alternates shortest-path closure with a
mode-dependent operation rule:

  M        force zero distances on operation images of zero argument pairs
  Q        bound d(op(a), op(b)) by the supremum of argument distances
  LIP(K)   bound d(op(a), op(b)) by K_op times that supremum

The same engine generates the smallest congruential pseudometric above a
finite set of distance constraints, which is what presentations of free
algebras need.  Every operation here reads and writes the matrices'
scaled mirrors (see ``extmetric``); the closure widens an int64 mirror to
Python ints when a value outgrows the guard, so the fixpoint is exact
whatever the denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import Homomorphism, MetricAlgebra, _cells, _on, _spread, product, quotient
from .errors import (
    CongruenceError,
    DomainError,
    OrderError,
    ResourceLimitError,
    SignatureError,
    Verdict,
)
from .extmetric import (
    ExtRat,
    PseudometricMatrix,
    SquareMatrix,
    _MAX_SCALED,
    _along,
    _array_violation,
    _as_object,
    _as_verdict,
    _codes,
    _finite_components,
    _finite_max,
    _first,
    _ids,
    _inf_code,
    _mirrors,
    _scale_finite,
    checked_value,
    render_id,
    scaled_int_array,
)


def is_congruential(algebra: MetricAlgebra, matrix: SquareMatrix) -> Verdict:
    """Check that ``matrix`` is a congruential pseudometric on ``algebra``.

    Verified in order: same carrier, pseudometric axioms, pointwise
    containment below the algebra metric, and closure of the zero-set
    under every operation.  A zero-set failure is witnessed by
    ``(symbol, args, args2)`` for the first violating argument pair.
    Everything after the carrier runs on the mirrors of the matrix and
    the metric and on the operations' index tables.
    """
    if matrix.carrier != algebra.carrier:
        return Verdict.failed("carrier-mismatch", ())
    carrier = algebra.carrier
    (M, S), _ = _mirrors(matrix, algebra.space)
    violation = _array_violation(M)
    if violation is not None:
        return _as_verdict(violation, carrier)
    above = _first(M > S)
    if above is not None:
        return Verdict.failed("containment", _ids(carrier, above))
    rep = _zero_reps(M)
    for symbol in algebra.sig.symbols:
        table = algebra.tables[symbol]
        if table.ndim == 0:
            continue
        classes, bad = _image_classes(table, rep[None])
        if bad.any():
            args, args2 = _zero_set_witness(classes[0], bad[0], rep)
            return Verdict.failed(
                "zero-set", (symbol, _ids(carrier, args), _ids(carrier, args2))
            )
    return Verdict.passed()


# The zero-set kernel.  The zero-set of a pseudometric is an equivalence
# relation, and rep[i], the first index at distance zero from i, names i's
# class.  An operation keeps the zero-set closed exactly when every argument
# tuple lands in the class of the tuple of its arguments' representatives,
# so one pass over the table decides it, where trying every tuple of class
# members would cost |A|**arity * |class|**arity lookups.


def _zero_reps(M: np.ndarray) -> np.ndarray:
    """The class representative of each point, for one mirror or a stack of them."""
    return (M == 0).argmax(axis=-1)


def _image_classes(table: np.ndarray, reps: np.ndarray):
    """The classes of an operation's images under a stack of zero-set maps.

    ``reps`` has shape ``(c, n)``.  Returns ``classes``, the class of every
    image, and ``bad``, where it differs from the class of the image of the
    representatives' tuple; both have shape ``(c,) + table.shape``.
    """
    c, n = reps.shape
    k = table.ndim
    classes = reps[:, table]
    at = [np.arange(c).reshape((c,) + (1,) * k)]
    for pos in range(k):
        shape = [c] + [1] * k
        shape[pos + 1] = n
        at.append(reps.reshape(shape))
    return classes, classes != classes[tuple(at)]


def _zero_set_witness(classes: np.ndarray, bad: np.ndarray, rep: np.ndarray):
    """The first violating argument tuple and its first partner.

    ``rep[i]`` is the least member of i's class, so the first argument
    tuple whose class block holds a bad tuple is the least tuple of
    representatives of a bad tuple.  Its partner is the first tuple of its
    block, in ``itertools.product`` order over class members, whose image
    lies in another class.
    """
    first = np.ravel_multi_index([rep[i] for i in np.nonzero(bad)], bad.shape).min()
    args = tuple(int(i) for i in np.unravel_index(first, bad.shape))
    members = [np.flatnonzero(rep == a) for a in args]
    where = _first(classes[np.ix_(*members)] != classes[args])
    return args, tuple(int(m[i]) for m, i in zip(members, where))


class Congruence:
    """A validated congruential pseudometric on a fixed base algebra."""

    __slots__ = ("base", "matrix")

    def __init__(self, base: MetricAlgebra, matrix: SquareMatrix):
        verdict = is_congruential(base, matrix)
        if not verdict:
            raise CongruenceError(
                f"not congruential: {verdict.reason} at "
                f"{tuple(render_id(w) if not isinstance(w, tuple) else w for w in verdict.witness)}",
                verdict,
            )
        self.base = base
        self.matrix = PseudometricMatrix._trusted(base.carrier, matrix.D, matrix.denom)

    @classmethod
    def _trusted(cls, base: MetricAlgebra, D: np.ndarray, denom: int) -> "Congruence":
        """A congruence on ``base`` around a mirror, in its carrier order,
        that is congruential by construction; nothing is checked."""
        out = object.__new__(cls)
        out.base = base
        out.matrix = PseudometricMatrix._trusted(base.carrier, D, denom)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.base == other.base and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"<Congruence on {self.matrix.size} points>"


def finest_congruence(algebra: MetricAlgebra) -> Congruence:
    """The algebra metric itself: the bottom of the congruence order."""
    return Congruence._trusted(algebra, algebra.space.D, algebra.space.denom)


def coarsest_congruence(algebra: MetricAlgebra) -> Congruence:
    """The all-zero pseudometric: the top of the congruence order."""
    n = algebra.space.size
    return Congruence._trusted(algebra, np.zeros((n, n), dtype=np.int64), 1)


def pointwise_leq(m1: SquareMatrix, m2: SquareMatrix) -> tuple | None:
    """First pair where m1 exceeds m2, or None when m1 <= m2 pointwise."""
    return _first_pair(np.greater, m1, m2)


def _first_pair(compare, m1: SquareMatrix, m2: SquareMatrix) -> tuple | None:
    """The first pair (a, b) of ``m1``'s carrier, in row-major order, where
    ``compare(m1(a, b), m2(a, b))`` holds, or None."""
    A, B = _along({x: x for x in m1.carrier}, m1, m2)
    bad = _first(compare(A, B))
    return None if bad is None else _ids(m1.carrier, bad)


def order_leq(t1: Congruence, t2: Congruence) -> bool:
    """t1 below t2 in the congruence order (reversed pointwise order)."""
    return pointwise_leq(t2.matrix, t1.matrix) is None


def _same_base(thetas: Sequence[Congruence]) -> MetricAlgebra:
    if not thetas:
        raise DomainError("need at least one congruence")
    base = thetas[0].base
    for t in thetas[1:]:
        if t.base != base:
            raise DomainError("congruences live on different algebras")
    return base


def meet(thetas: Sequence[Congruence]) -> Congruence:
    """Greatest lower bound in the congruence order: the pointwise supremum."""
    base = _same_base(thetas)
    arrays, denom = _mirrors(*(t.matrix for t in thetas))
    return Congruence._trusted(base, np.maximum.reduce(arrays), denom)


def compose(t1: Congruence, t2: Congruence) -> SquareMatrix:
    """Min-plus relational composition; not a pseudometric in general."""
    if t1.base != t2.base:
        raise DomainError("congruences live on different algebras")
    # Both matrices are indexed in base carrier order.
    n = t1.matrix.size
    (a, b), denom = _mirrors(t1.matrix, t2.matrix)
    out = a[:, 0, None] + b[None, 0, :]
    for k in range(1, n):
        np.minimum(out, a[:, k, None] + b[None, k, :], out=out)
    return SquareMatrix._trusted(t1.base.carrier, out, denom)


def are_permutable(t1: Congruence, t2: Congruence) -> bool:
    """True when the two relational compositions agree as matrices."""
    return compose(t1, t2) == compose(t2, t1)


def join(
    thetas: Sequence[Congruence],
    mode: str = "M",
    lipschitz: Mapping[str, Fraction] | None = None,
    max_decreases: int = 1_000_000,
) -> Congruence:
    """Least upper bound in the congruence order.

    Starts from the pointwise minimum and closes it with the fixpoint
    engine under the requested mode rule.  The closure only lowers
    entries below the inputs, which sit below the algebra metric, and
    ends with a pseudometric whose zero-set is closed under every
    operation, so the result is a congruence by construction.
    """
    base = _same_base(thetas)
    arrays, denom = _mirrors(*(t.matrix for t in thetas))
    rules = {s: _cells(t) for s, t in base.tables.items() if t.ndim}
    closed = closure_fixpoint(
        base.carrier, rules, np.minimum.reduce(arrays), denom, mode, lipschitz, max_decreases
    )
    return Congruence._trusted(base, closed.D, closed.denom)


def restrict(theta: Congruence, sub: MetricAlgebra) -> Congruence:
    """Restriction of a congruence to a subalgebra of its base."""
    base = theta.base
    idx = np.array([base.space.index(x) for x in sub.carrier], dtype=np.intp)
    if sub.sig != base.sig:
        raise DomainError("not a subalgebra: the signatures differ")
    for symbol, table in sub.tables.items():
        if not np.array_equal(idx[table], _on(base.tables[symbol], idx)):
            raise DomainError("not a subalgebra: operation tables disagree")
    D = theta.matrix.D[np.ix_(idx, idx)]
    return Congruence(sub, SquareMatrix._trusted(sub.carrier, D, theta.matrix.denom))


def quotient_congruence(rho: Congruence, theta: Congruence) -> Congruence:
    """Push a congruence ``rho`` down to the quotient by ``theta``.

    Requires ``rho`` pointwise below ``theta`` (that is, above it in the
    congruence order), which is exactly what makes the pushed-down
    values independent of the chosen representatives; the
    well-definedness check always runs and failures carry a witness
    pair.
    """
    if rho.base != theta.base:
        raise DomainError("congruences live on different algebras")
    carrier = theta.base.carrier
    (R, T), _ = _mirrors(rho.matrix, theta.matrix)
    bad = _first(R > T)
    if bad is not None:
        hint = ""
        if not (T > R).any():
            hint = " (the arguments appear to be in the opposite order)"
        a, b = _ids(carrier, bad)
        raise OrderError(
            f"rho must sit pointwise below theta; it exceeds it at "
            f"({render_id(a)}, {render_id(b)}){hint}"
        )
    quot, projection = quotient(theta.base, theta)
    # rho is well defined on theta's classes when every row equals the row
    # of its class representative, the least member.  The witness is the
    # first a with a differing class member a2, which is the representative
    # of the first class holding one, and the first b where their rows differ.
    rep = _zero_reps(T)
    differs = (R != R[rep]).any(axis=1)
    if differs.any():
        a = int(rep[differs].min())
        a2 = int(np.flatnonzero(differs & (rep == a))[0])
        b = int(np.flatnonzero(R[a] != R[a2])[0])
        raise OrderError(
            f"pushed-down value not well defined at "
            f"({render_id(carrier[a])}, {render_id(carrier[b])})"
        )
    idx = [rho.matrix.index(x) for x in quot.carrier]
    return Congruence._trusted(quot, rho.matrix.D[np.ix_(idx, idx)], rho.matrix.denom)


def pullback_congruence(f: Homomorphism, rho: Congruence) -> Congruence:
    """Pull a congruence on the target back along a homomorphism."""
    if rho.base != f.target:
        raise DomainError("congruence is not on the target algebra")
    idx = [rho.matrix.index(f(a)) for a in f.source.carrier]
    return Congruence._trusted(f.source, rho.matrix.D[np.ix_(idx, idx)], rho.matrix.denom)


@dataclass
class Decomposition:
    """Outcome of a binary product decomposition attempt."""

    ok: bool
    reason: str = ""
    witness: tuple = ()
    factors: tuple = ()
    algebra: MetricAlgebra | None = field(default=None, repr=False)
    iso: Homomorphism | None = field(default=None, repr=False)


def decompose_product(
    algebra: MetricAlgebra, t1: Congruence, t2: Congruence
) -> Decomposition:
    """Factor an algebra as the product of its two quotients.

    Requires the congruence meet to equal the algebra metric, the join
    to be the all-zero pseudometric, and the pair to permute.  When the
    hypotheses hold, the canonical map into the product of quotients is
    verified to be a bijective isometric homomorphism and returned.
    """
    for t in (t1, t2):
        if t.base != algebra:
            raise DomainError("congruence is not on this algebra")
    both = meet([t1, t2])
    bad = _first_pair(np.not_equal, both.matrix, algebra.space)
    if bad is not None:
        return Decomposition(False, "meet-not-the-metric", bad)
    bad = _first_pair(np.not_equal, join([t1, t2]).matrix, coarsest_congruence(algebra).matrix)
    if bad is not None:
        return Decomposition(False, "join-not-zero", bad)
    bad = _first_pair(np.not_equal, compose(t1, t2), compose(t2, t1))
    if bad is not None:
        return Decomposition(False, "not-permutable", bad)
    q1, p1 = quotient(algebra, t1)
    q2, p2 = quotient(algebra, t2)
    prod, _ = product([q1, q2])
    # A homomorphism into each quotient, so into their product.
    iso = Homomorphism._trusted(algebra, prod, {x: (p1(x), p2(x)) for x in algebra.carrier})
    if not iso.is_injective or not iso.is_surjective:
        return Decomposition(False, "canonical-map-not-bijective", (), (q1, q2), prod)
    if not iso.is_isometric:
        return Decomposition(False, "canonical-map-not-isometric", (), (q1, q2), prod)
    return Decomposition(True, "", (), (q1, q2), prod, iso)


def generate_congruence(
    carrier: Sequence,
    ops: Mapping[str, Mapping[tuple, object]],
    constraints: Iterable[tuple],
    mode: str = "M",
    lipschitz: Mapping[str, Fraction] | None = None,
    max_decreases: int = 1_000_000,
) -> PseudometricMatrix:
    """Largest pseudometric satisfying the constraints and the mode rule.

    Starts from the discrete pseudometric (zero on the diagonal,
    infinity elsewhere), caps entries by the given ``(x, y, bound)``
    constraints, and closes downward under symmetry, triangle, and the
    mode rule.  Operation tables may be partial; rules fire only on the
    listed entries, which yields a sound over-approximation on truncated
    term universes.  Entries only ever decrease and the total number of
    decreases is capped.
    """
    carrier = tuple(carrier)
    index = {x: i for i, x in enumerate(carrier)}
    if len(index) != len(carrier) or not carrier:
        raise DomainError("carrier must be nonempty and free of duplicates")
    cells, bounds = [], []
    for x, y, bound in constraints:
        if x not in index or y not in index:
            raise DomainError(
                f"constraint mentions {render_id(x)} or {render_id(y)} outside the carrier"
            )
        bounds.append(checked_value(
            ExtRat, bound, f"bound of the constraint on ({render_id(x)}, {render_id(y)})"
        ))
        cells.append((index[x], index[y]))
    codes, denom = _codes(bounds)
    D = np.full((len(carrier), len(carrier)), _inf_code(codes), dtype=codes.dtype)
    i, j = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    np.minimum.at(D, (i, j), codes)
    np.minimum.at(D, (j, i), codes)
    rules = {}
    for symbol, table in ops.items():
        table = dict(table)
        if not table or not next(iter(table)):
            continue
        arity = len(next(iter(table)))
        for args, value in table.items():
            if len(args) != arity:
                raise SignatureError(f"mixed arities in the table for {symbol}")
            for a in args:
                if a not in index:
                    raise DomainError(f"table argument {render_id(a)} outside carrier")
            if value not in index:
                raise DomainError(f"table value {render_id(value)} outside carrier")
        # Rows of argument positions then the image, sorted by the arguments.
        cells = np.array(sorted(
            [*map(index.__getitem__, args), index[value]] for args, value in table.items()
        ), dtype=np.intp)
        rules[symbol] = list(cells[:, :-1].T), cells[:, -1]
    return closure_fixpoint(carrier, rules, D, denom, mode, lipschitz, max_decreases)


def closure_fixpoint(
    carrier: Sequence,
    rules: Mapping[str, tuple[Sequence[np.ndarray], np.ndarray]],
    D: np.ndarray,
    denom: int,
    mode: str,
    lipschitz: Mapping[str, Fraction] | None,
    max_decreases: int,
) -> PseudometricMatrix:
    """Close the mirror ``(D, denom)`` downward to the largest
    mode-congruential pseudometric; ``D`` is closed in place.  ``rules``
    maps symbols of positive arity to ``(args_idx, res_idx)``: one array of
    argument positions per place and the images, sorted by the arguments."""
    if mode not in ("M", "Q", "LIP"):
        raise DomainError(f"unknown mode {mode!r}; expected M, Q, or LIP")
    tables = []
    for symbol in sorted(rules):
        k = None
        if mode == "LIP":
            if lipschitz is None or symbol not in lipschitz:
                raise SignatureError(f"LIP mode needs a constant for {symbol}")
            k = checked_value(Fraction, lipschitz[symbol], f"Lipschitz constant for {symbol}")
            if k <= 0:
                raise DomainError(f"Lipschitz constant for {symbol} must be positive")
        tables.append((symbol, *rules[symbol], k))

    return PseudometricMatrix._trusted(carrier, *_fix_int(D, denom, tables, mode, max_decreases))


def _fix_int(D: np.ndarray, denom: int, tables, mode: str, max_decreases: int):
    decreases = 0
    np.fill_diagonal(D, 0)
    np.minimum(D, D.T, out=D)
    while True:
        before = D.copy()
        for idx in _finite_components(D):
            sub = D[np.ix_(idx, idx)]
            for k in range(len(idx)):
                np.minimum(sub, sub[:, k, None] + sub[None, k, :], out=sub)
            D[np.ix_(idx, idx)] = sub
        for _, args_idx, res_idx, k in tables:
            cand = _spread(D, args_idx)
            if mode == "M":
                cand = np.where(cand == 0, 0, _inf_code(cand))
            elif mode == "LIP":
                # Moving the shared denominator to denom * q keeps K * value
                # integral: finite entries of D and of the pass baseline are
                # multiplied by q, and those of cand by p.  An int64 mirror
                # that would reach the value guard is widened to Python ints.
                p, q = k.numerator, k.denominator
                if D.dtype != object and (
                    q * max(_finite_max(D), _finite_max(before), 1) >= _MAX_SCALED
                    or p * max(_finite_max(cand), 1) >= _MAX_SCALED
                ):
                    D, before, cand = _as_object(D), _as_object(before), _as_object(cand)
                if q != 1:
                    _scale_finite(D, q)
                    _scale_finite(before, q)
                    denom *= q
                _scale_finite(cand, p)
            if len(set(res_idx.tolist())) == len(res_idx):
                block = D[np.ix_(res_idx, res_idx)]
                np.minimum(block, cand, out=block)
                D[np.ix_(res_idx, res_idx)] = block
            else:
                np.minimum.at(
                    D, (res_idx[:, None], res_idx[None, :]), cand
                )
        np.fill_diagonal(D, 0)
        np.minimum(D, D.T, out=D)
        dropped = int((D < before).sum())
        decreases += dropped
        if decreases > max_decreases:
            raise ResourceLimitError(
                f"closure exceeded {max_decreases} entry decreases",
                "max_decreases",
                max_decreases,
            )
        if dropped == 0:
            break
    return D, denom


# Candidate cells checked at once by grid_congruences: a chunk of c
# candidates on n points holds c * n**3 triangle comparisons (or c * n**arity
# operation images, when larger).
_GRID_CELLS = 1 << 15


def grid_congruences(
    algebra: MetricAlgebra,
    values: Sequence[ExtRat] | None = None,
    cap: int = 100_000,
) -> list[Congruence]:
    """All congruences with off-diagonal entries from a finite value set.

    Candidates are symmetric matrices over the value grid, in the order of
    ``itertools.product`` over the cells above the diagonal; the ones that
    pass the congruential check are returned in that order.  The default
    grid is the set of metric values plus zero and infinity.  Candidates
    are checked a chunk at a time on the kernel of ``is_congruential``.
    """
    n = algebra.space.size
    if values is None:
        S, denom = algebra.space.D, algebra.space.denom
        codes = np.unique(np.concatenate([S.ravel(), np.array([0, _inf_code(S)], dtype=S.dtype)]))
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = len(codes if values is None else values) ** len(cells)
    if total > cap:
        raise ResourceLimitError(
            f"grid has {total} candidates, over the cap {cap}",
            "grid_cap",
            cap,
        )
    if values is not None:
        values = [v if isinstance(v, ExtRat) else ExtRat(v) for v in values]
        (codes, S), denom = _mirrors(scaled_int_array([values]), algebra.space)
        codes = codes[0]
    iu, ju = np.triu_indices(n, 1)
    tables = [t for t in algebra.tables.values() if t.ndim]
    chunk = max(1, _GRID_CELLS // n ** max([3] + [t.ndim for t in tables]))
    out = []
    for start in range(0, total, chunk):
        # Candidate number c has the digits of c in base len(codes), last
        # cell fastest: the order of itertools.product over the cells.
        rest = np.arange(start, min(start + chunk, total))
        digits = np.empty((len(rest), len(cells)), dtype=np.intp)
        for pos in reversed(range(len(cells))):
            rest, digits[:, pos] = np.divmod(rest, len(codes))
        C = np.zeros((len(digits), n, n), dtype=codes.dtype)
        C[:, iu, ju] = C[:, ju, iu] = codes[digits]
        # Zero diagonal and symmetry hold by construction; the triangle
        # reads d(x, z) > d(x, y) + d(y, z) on axes (candidate, x, y, z).
        ok = ~(C[:, :, None, :] > C[:, :, :, None] + C[:, None, :, :]).any(axis=(1, 2, 3))
        ok &= ~(C > S).any(axis=(1, 2))
        reps = _zero_reps(C)
        for table in tables:
            ok &= ~_image_classes(table, reps)[1].reshape(len(reps), -1).any(axis=1)
        out.extend(Congruence._trusted(algebra, D, denom) for D in C[ok])
    return out
