"""Congruential pseudometrics and their lattice of operations.

A congruential pseudometric on a metric algebra sits pointwise below the
algebra's metric and has a zero-set closed under every operation, so the
quotient is again a metric algebra.  Congruences are ordered by reversed
pointwise comparison: theta1 is below theta2 when theta1 >= theta2
pointwise.  Meets are pointwise suprema; joins are computed by a
decreasing fixpoint that alternates shortest-path closure with a
mode-dependent operation rule:

  M        force zero distances on operation images of zero argument pairs,
           read off the zero classes of the argument rows
  Q        bound d(op(a), op(b)) by the supremum of argument distances
  LIP(K)   bound d(op(a), op(b)) by K_op times that supremum

The same engine generates the smallest congruential pseudometric above a
finite set of distance constraints, which is what presentations of free
algebras need.  Each pass of the fixpoint redoes only what the last one
moved: the first closes every finite component by Floyd-Warshall, later
ones pivot only on the points in two closed blocks of the pass before
(sets where its matrix lies below a known pseudometric; see ``_fix_int``),
a rule runs again only when its argument rows moved, and the first pass
whose rules lower nothing ends it.  A mode-M join needs no rules (see
``join``).  In mode M a rule groups its argument tuples by their tuples of
zero-class representatives and zeroes the images within each group, which
costs a sort and the pairs it writes.  A Q or LIP rule, or an M rule on a
zero-set an earlier rule of the pass has left intransitive, compares only
the pairs of argument tuples whose places pair points of one finite
component, a fixed number of cells at a time: every other pair has an
infinite candidate.  Every operation here reads and writes the matrices'
scaled mirrors, rescaled only by ``extmetric``'s ``_mirrors`` and
``_scaled``, so the fixpoint is exact whatever the denominators.

With a LIP constant below 1 the passes may reach the greatest fixpoint
only in their limit, so after each pass that lowers a cell the closure
solves exactly for the limit its current bounds point to, and stops there
only with a proof that it is the greatest fixpoint (``_jump``, after the
policy iteration of Costan et al., CAV 2005, and Gawlitza and Seidl, ESOP
2007); unproved, the passes go on, up to the decrease cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import Homomorphism, MetricAlgebra, _cells, mode_constants, product, quotient
from .errors import (
    LIMIT_DEFAULTS,
    CongruenceError,
    DomainError,
    SignatureError,
    TableError,
    Verdict,
    checked_count,
    over_cap,
)
from .extmetric import (
    ExtRat,
    PseudometricMatrix,
    SquareMatrix,
    _TRIANGLE_CELLS,
    _array_violation,
    _as_verdict,
    _checked_carrier,
    _codes,
    _first,
    _ids,
    _inf_code,
    _mirrors,
    _scaled,
    _shared,
    _zero_reps,
    checked_value,
    render_id,
    scaled_int_array,
)
from .terms import rule_tables


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
        self.matrix = _shared(PseudometricMatrix, base.carrier, matrix)

    @classmethod
    def _trusted(cls, base: MetricAlgebra, D: np.ndarray, denom: int) -> "Congruence":
        """A congruence on ``base`` around a mirror, in its carrier order,
        that is congruential by construction; nothing is checked."""
        return cls._around(base, PseudometricMatrix._trusted(base.carrier, D, denom))

    @classmethod
    def _around(cls, base: MetricAlgebra, matrix: PseudometricMatrix) -> "Congruence":
        """``_trusted`` around a pseudometric on ``base``'s carrier, already canonical."""
        out = object.__new__(cls)
        out.base, out.matrix = base, matrix
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


def _first_pair(m1: SquareMatrix, m2: SquareMatrix) -> tuple | None:
    """The first pair (a, b) of the carrier the two matrices share, in
    row-major order, where they differ, or None."""
    (A, B), _ = _mirrors(m1, m2)
    bad = _first(A != B)
    return None if bad is None else _ids(m1.carrier, bad)


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
    """Min-plus relational composition; not a pseudometric in general: one
    broadcast, ``_TRIANGLE_CELLS`` cells (or one row's) at a time."""
    if t1.base != t2.base:
        raise DomainError("congruences live on different algebras")
    # Both matrices are indexed in base carrier order.
    (a, b), denom = _mirrors(t1.matrix, t2.matrix)
    out, step = np.empty_like(a), max(1, _TRIANGLE_CELLS // a.size)
    for start in range(0, len(a), step):
        rows = slice(start, start + step)
        np.min(a[rows, :, None] + b, axis=1, out=out[rows])
    return SquareMatrix._trusted(t1.base.carrier, out, denom)


def are_permutable(t1: Congruence, t2: Congruence) -> bool:
    """True when the two relational compositions agree as matrices."""
    return compose(t1, t2) == compose(t2, t1)


def join(
    thetas: Sequence[Congruence],
    mode: str = "M",
    lipschitz: Mapping[str, Fraction] | Fraction | None = None,
    max_decreases: int = LIMIT_DEFAULTS["max_decreases"],
) -> Congruence:
    """Least upper bound in the congruence order.

    Starts from the pointwise minimum and closes it with the fixpoint
    engine under the requested mode rule.  The closure only lowers
    entries below the inputs, which sit below the algebra metric, and
    ends with a pseudometric whose zero-set is closed under every
    operation, so the result is a congruence by construction.  A LIP
    closure with a constant below 1 may end on a proved jump to its limit.

    In mode M the engine gets no rules: the join of congruences is the
    transitive closure of their union (Burris and Sankappanavar, 1981, ch.
    II), so the path closure theta of the minimum is congruential already.
    Each input's zero-set is closed under each operation f (its constructor
    checked it, or meet, join, kernel, pullback, finest or coarsest built
    it so).  If theta(a_l, b_l) = 0 at every place l, change one argument
    at a time along a path of zero steps of the minimum from a_l to b_l:
    a step is a zero of one input, so of the minimum on the images around
    it, and theta's zero-set is transitive, so theta(f(a), f(b)) = 0.  The
    first pass's Floyd-Warshall is the whole closure, with the decreases
    and the cap point of the rule-running engine.  ``mode`` and
    ``lipschitz`` are checked by ``algebra.mode_constants``.
    """
    base = _same_base(thetas)
    symbols = [s for s, t in base.tables.items() if t.ndim]
    constants = mode_constants(mode, lipschitz, symbols)
    arrays, denom = _mirrors(*(t.matrix for t in thetas))
    rules = {} if mode == "M" else {s: _cells(base.tables[s]) for s in symbols}
    rules = rule_tables(len(base.carrier), rules)
    D = np.minimum.reduce(arrays)
    # The carriers are small: one union over every finite cell labels D.
    label = _merged(np.arange(len(D)), *(D < _inf_code(D)).nonzero())
    closed = closure_fixpoint(base.carrier, rules, D, denom, label, mode, constants, max_decreases)
    return Congruence._around(base, closed)


def pullback_congruence(f: Homomorphism, rho: Congruence) -> Congruence:
    """Pull a congruence on the target back along a homomorphism."""
    if rho.base != f.target:
        raise DomainError("congruence is not on the target algebra")
    return Congruence._trusted(f.source, rho.matrix.D[np.ix_(f.fidx, f.fidx)], rho.matrix.denom)


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

    Requires the congruence meet, the max of the two mirrors, to equal the
    algebra metric, the join to be the all-zero pseudometric, and the pair
    to permute, and fails with the first pair at which a hypothesis breaks.
    The mode-M join is the path closure of min(theta1, theta2) (see
    ``join``), so it is 0 at (a, b) exactly when a path of zero steps of
    theta1 or theta2 joins a to b: one union of those zero cells decides
    it, and no closure runs.  When all three hold, the canonical map a ->
    (p1(a), p2(a)) into the product of the quotients is an isomorphism by
    the factor-congruence theorem (Burris and Sankappanavar, 1981, ch. II),
    and is returned unchecked.  It is a homomorphism into each quotient, so
    into their product.  A quotient's metric is its congruence read on
    representatives, so the product metric between images is the meet,
    which is d: the map is isometric, and so injective.  Permutability
    makes the zero-sets' composites agree, so every such path shortens to
    one zero step of theta1 and one of theta2: a join of 0 gives every
    (a, b) some c with theta1(a, c) = theta2(c, b) = 0, whose image is
    (p1(a), p2(b)), and the map is surjective.
    """
    for t in (t1, t2):
        if t.base != algebra:
            raise DomainError("congruence is not on this algebra")
    carrier = algebra.carrier
    (A, B, S), _ = _mirrors(t1.matrix, t2.matrix, algebra.space)
    bad = _first(np.maximum(A, B) != S)
    if bad is not None:
        return Decomposition(False, "meet-not-the-metric", _ids(carrier, bad))
    label = _merged(np.arange(len(A)), *((A == 0) | (B == 0)).nonzero())
    # The first pair across two components is point 0 and the first point outside its own.
    bad = _first(label != label[0])
    if bad is not None:
        return Decomposition(False, "join-not-zero", (carrier[0], carrier[bad[0]]))
    bad = _first_pair(compose(t1, t2), compose(t2, t1))
    if bad is not None:
        return Decomposition(False, "not-permutable", bad)
    q1, p1 = quotient(algebra, t1)
    q2, p2 = quotient(algebra, t2)
    prod, _ = product([q1, q2])
    # The pairs of the two quotient maps' positions, in C order.
    iso = Homomorphism._trusted(algebra, prod, p1.fidx * q2.space.size + p2.fidx)
    return Decomposition(True, "", (), (q1, q2), prod, iso)


def generate_congruence(
    carrier: Sequence,
    ops: Mapping[str, Mapping[tuple, object]],
    constraints: Iterable[tuple],
    mode: str = "M",
    lipschitz: Mapping[str, Fraction] | Fraction | None = None,
    max_decreases: int = LIMIT_DEFAULTS["max_decreases"],
) -> PseudometricMatrix:
    """Largest pseudometric satisfying the constraints and the mode rule.

    Starts from the discrete pseudometric (zero on the diagonal,
    infinity elsewhere), caps entries by the given ``(x, y, bound)``
    constraints, and closes downward under symmetry, triangle, and the
    mode rule.  Operation tables may be partial; rules fire only on the
    listed entries, which yields a sound over-approximation on truncated
    term universes.  Entries only decrease, in passes of the closure or, in
    LIP mode with a constant below 1, in a jump to the greatest fixpoint
    that is kept only when proved; the decreases, the jump's cells
    included, are capped, so a closure whose limit no jump reaches raises
    ``ResourceLimitError``.  ``mode`` and ``lipschitz`` are checked by
    ``algebra.mode_constants`` for the operations of positive arity.
    """
    carrier = _checked_carrier(carrier)
    index = {x: i for i, x in enumerate(carrier)}
    caps = []
    for constraint in constraints:
        try:
            x, y, bound = constraint
        except (TypeError, ValueError):
            raise DomainError(f"constraint {constraint!r} is not an (x, y, bound) triple") from None
        try:
            i, j = index[x], index[y]
        except (KeyError, TypeError):
            raise DomainError(
                f"constraint mentions {render_id(x)} or {render_id(y)} outside the carrier"
            ) from None
        caps.append((i, j, checked_value(
            ExtRat, bound, f"bound of the constraint on ({render_id(x)}, {render_id(y)})"
        )))
    D, denom, label = _start_matrix(len(carrier), caps)
    if not isinstance(ops, Mapping):
        raise TableError("bad operation table: not-a-mapping at ()")
    rules = {}
    for symbol, table in ops.items():
        if not isinstance(table, Mapping):
            raise TableError(f"bad operation table: not-a-mapping at {(symbol,)}")
        cells = []
        for args, value in table.items():
            if not isinstance(args, tuple):
                raise TableError(f"bad operation table: bad-arguments at {(symbol, args)}")
            if cells and len(args) + 1 != len(cells[0]):
                raise SignatureError(f"mixed arities in the table for {symbol}")
            cells.append([*(_position(index, a, "table argument") for a in args),
                          _position(index, value, "table value")])
        if not cells or len(cells[0]) == 1:
            continue
        # Rows of argument positions then the image, sorted by the arguments.
        cells = np.array(sorted(cells), dtype=np.intp)
        rules[symbol] = list(cells[:, :-1].T), cells[:, -1]
    constants = mode_constants(mode, lipschitz, rules)
    return closure_fixpoint(
        carrier, rule_tables(len(carrier), rules), D, denom, label, mode, constants, max_decreases
    )


def _position(index: Mapping, x, what: str) -> int:
    """The carrier position of ``x`` in a table of ``generate_congruence``."""
    try:
        return index[x]
    except (KeyError, TypeError):
        raise DomainError(f"{what} {render_id(x)} outside carrier") from None


def _start_matrix(n: int, cells: Sequence[tuple[int, int, ExtRat]]):
    """The mirror of the discrete pseudometric on ``n`` points with each
    ``(i, j, bound)`` capping (i, j) and (j, i), as ``(D, denom, label)``:
    ``label`` joins the ends of each finite bound (see ``_merged``)."""
    codes, denom = _codes([c[2]._q for c in cells])
    D = np.full((n, n), _inf_code(codes), dtype=codes.dtype)
    i, j = np.array([c[:2] for c in cells], dtype=np.intp).reshape(-1, 2).T
    np.minimum.at(D, (i, j), codes)
    np.minimum.at(D, (j, i), codes)
    finite = codes < _inf_code(codes)
    return D, denom, _merged(np.arange(n), i[finite], j[finite])


def closure_fixpoint(
    carrier: Sequence,
    rules: tuple,
    D: np.ndarray,
    denom: int,
    label: np.ndarray,
    mode: str,
    constants: Mapping[str, Fraction] | None,
    max_decreases: int,
) -> PseudometricMatrix:
    """Close the mirror ``(D, denom)`` downward to the largest
    mode-congruential pseudometric.  ``D`` must be symmetric, as the
    discrete start of ``generate_congruence`` and ``free_algebra`` and the
    minimum of the congruences ``join`` reads are; it is closed in place
    unless the closure widens it to Python ints.  ``label`` names each
    point's finite component of D by its least point, as ``_merged`` gives
    it from D's finite cells; the closure keeps it current from its writes.
    ``rules`` are the ``terms.rule_tables`` of the operations of arity > 0,
    and ``mode`` and ``constants`` a mode and its ``mode_constants``.
    The result is exact: the greatest fixpoint, reached by passes or by a
    proved jump (``_fix_int``), or ``ResourceLimitError`` at the cap."""
    max_decreases = checked_count(max_decreases, "max_decreases")
    tables = [
        (args_idx, res_idx, None if constants is None else constants[symbol], *view)
        for symbol, args_idx, res_idx, *view in rules
    ]
    D, denom = _fix_int(D, denom, label, tables, mode, max_decreases)
    return PseudometricMatrix._trusted(carrier, D, denom)


def _merged(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The component labels ``label`` (each point's least component member)
    with the components of ``a[i]`` and ``b[i]`` joined for every i: a new
    array, or ``label`` itself when each pair shares a label already.  Each
    round hooks every root to the least root paired with it, then pointer
    jumping shortens every label to its root (union-find: Tarjan, 1975)."""
    out, la, lb = label, label[a], label[b]
    while (la != lb).any():
        out = label.copy() if out is label else out
        np.minimum.at(out, la, lb)
        np.minimum.at(out, lb, la)
        while not ((up := out[out]) == out).all():
            out = up
        la, lb = out[la], out[lb]
    return out


def _groups(label: np.ndarray) -> list[np.ndarray]:
    """The components of two or more points of the labels ``label`` (see
    ``_merged``), each sorted, in increasing order by least member."""
    order = (np.bincount(label)[label] > 1).nonzero()[0]
    order = order[label[order].argsort(kind="stable")]
    cuts = [0, *((label[order[1:]] != label[order[:-1]]).nonzero()[0] + 1).tolist(), len(order)]
    return [order[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


def _fix_int(D: np.ndarray, denom: int, label: np.ndarray, tables, mode: str, max_decreases: int):
    """Close ``(D, denom)`` in passes of triangle repair and then the rules,
    up to the first pass whose rules lower nothing.  The first repair is
    Floyd-Warshall over each finite component; a later one pivots only on
    the points that lie in two or more closed blocks of the pass before.
    With D0 the closed matrix after a pass's repair and D1 the one after
    its rules, a closed block is a set B with a pseudometric rho on B and
    D1 <= rho on B x B: (a) a finite component of D0 of two or more
    points, with rho = D0; (b) the images lowered by a rule with injective
    images, with rho its candidate (K * max_l S(a_l, b_l) for the snapshot
    S of its rows, or 0 within a group of ``_zero_class_rule``), which is
    a pseudometric for ``_zero_class_rule`` and, in Q and LIP, when no
    earlier rule of the pass lowered a cell in those rows, so that S is D0
    there; (c) every other cell a rule lowered, as a block of two points.
    Every finite cell of D1 lies in a block whose rho equals D1 there (its
    last writer's, or its component), and two hops in a row within one
    block are no shorter than one, by rho's triangle inequality; so a
    shortest path of fewest hops changes block at each inner point, which
    then lies in two blocks, and Floyd-Warshall over those points gives the
    full closure.  A block (a) C is covered when C lies within the images
    of a rule of (b) in Q or LIP and the rule's candidate is <= D, so
    after it = D, on every ordered pair of distinct points of C.  As D1 is
    <= the candidate on all the rule's images, the rule's block may be its
    lowered images and C; and every finite cell of D1 within C equals the
    candidate there or was lowered later by a writer whose block holds it,
    so C's own block is not needed.  The points of C the rule lowered then
    count one block fewer, and the others keep C's count for the rule's
    block.  A component drops its block once a pass: at the points a
    second covering rule lowers and the first did not, its count stands
    for the first rule's block.  A rule whose argument rows have not moved
    since it last ran is skipped, as it would lower nothing, so every pass
    ends on the matrix of full passes and the decrease count is unchanged.
    A pass counts the distinct positions it lowered from its own writes
    (the repair's within each component, and each rule's); the stale rules
    and the blocks come from the same writes.

    The candidate of two argument tuples is finite only when every place
    pairs two points at a finite distance, so of one finite component.  A
    rule builds only those pairs, from a snapshot of the rows it reads and
    a fixed budget of cells at a time: from the finite pairs of
    ``D[S, S]`` when its tuples are S**arity (``_product_cells``), and
    within the groups of tuples with one tuple of component labels
    otherwise (``_grouped_cells``).  A write whose ends carry two labels
    merges them (``_merged``), so the caller's labels stay current unscanned.

    In mode M the zero-set of a repaired D is an equivalence, so a rule
    runs on its zero classes (``_zero_class_rule``).  A rule that lowers
    an entry may leave the zero-set intransitive for the rules after it in
    the pass; each of those tests the zero-set against its classes and,
    where it fails, builds its zero pairs as Q builds its finite ones.

    In LIP mode with a constant below 1, every pass that lowers a cell
    ends with a try of ``_jump`` on the cells lowered in the last
    ``_JUMP_PASSES`` passes, if at most ``_JUMP_CELLS``.  A proved jump
    ends the closure, its lowered cells counted as decreases.
    """
    n, D = len(D), np.ascontiguousarray(D)
    np.fill_diagonal(D, 0)
    stale = np.ones((len(tables), n), dtype=bool)
    pivots = np.ones(n, dtype=bool)
    decreases, groups = 0, None
    jump = mode == "LIP" and any(table[2] < 1 for table in tables)
    start, recent = ((D.copy(), denom), []) if jump else (None, None)
    while True:
        # A repaired D is triangle-closed, so its zero-set is an equivalence
        # with classes ``rep``; once a rule lowers an entry it is tested anew.
        rep, classes = None, True
        if groups is None:
            groups = _groups(label)
        # The closed blocks each point lies in, from its component on; the
        # components by the pass-start labels, and those whose block a rule
        # has already dropped.
        size = np.bincount(label, minlength=n)
        blocks = (size[label] > 1).astype(np.intp)
        comp, dropped = label, None
        # What the repair lowered, one mask per component, and the flat
        # positions the rules lowered, and those of blocks (c).
        repaired, written, loose = [], [], []
        for idx in groups:
            # Two points at a finite distance are triangle-closed already.
            if len(idx) > 2 and (ks := pivots[idx].nonzero()[0].tolist()):
                low = _repair(D, idx, ks)
                if (count := np.count_nonzero(low)):
                    decreases += count
                    repaired.append((idx, low))
                    stale[:, idx[low.any(axis=1)]] = True
        # The rows the rules of this pass have lowered so far.
        moved = np.zeros(n, dtype=bool)
        for r, (args_idx, res_idx, _, reads, rows, _, _, injective) in enumerate(tables):
            if not stale[r, reads].any():
                continue
            stale[r] = False
            if mode == "M" and rep is None:
                rep = _zero_reps(D)
                classes = classes or bool(((D == 0) == (rep[:, None] == rep)).all())
            if mode == "M" and classes:
                pos, kept = _zero_class_rule(D, rep, args_idx, res_idx, reads), None
            else:
                # A block (b) needs a snapshot no earlier rule of the pass moved.
                injective = injective and mode != "M" and not moved[rows].any()
                kept = [] if injective else None
                D, denom, pos = _bound_rule(D, denom, tables[r], mode, label, kept)
            if len(pos):
                rep, classes = None, False
                x = pos // n
                moved[x] = stale[:, x] = True
                if injective:
                    # One block for the rule: a repeated index adds 1 once.
                    blocks[x] += 1
                    if kept and (cover := _covered(D, kept, x, comp, size)) is not None:
                        # A component the rule covers drops its block, once.
                        if dropped is None:
                            dropped = np.zeros(n, dtype=bool)
                        cover &= ~dropped
                        dropped |= cover
                        blocks[x[cover[comp[x]]]] -= 1
                else:
                    loose.append(pos)
                written.append(pos)
                if (merged := _merged(label, x, pos - x * n)) is not label:
                    label, groups = merged, None
        if written:
            # The positions the rules lowered, less those the repair did.
            pos = _distinct(written)
            if repaired:
                seen = np.zeros((n, n), dtype=bool)
                for idx, low in repaired:
                    seen[idx[:, None], idx] = low
                pos = pos[~seen.reshape(-1)[pos]]
            decreases += len(pos)
        if loose:
            # A cell is a block of its two ends, each row counting its cells.
            blocks += np.bincount(_distinct(loose) // n, minlength=n)
        if jump and written:
            # The unordered cells lowered in the last _JUMP_PASSES passes.
            now = [*written, *(idx[r] * n + idx[c] for idx, low in repaired for r, c in [low.nonzero()])]
            i, j = np.divmod(np.concatenate(now), n)
            recent = [*recent[1 - _JUMP_PASSES:], np.minimum(i, j) * n + np.maximum(i, j)]
            cells = _distinct(recent)
            groups = _groups(label) if groups is None else groups
            if len(cells) <= _JUMP_CELLS and (
                out := _jump(D, denom, start, tables, cells, groups, label)
            ):
                # The greatest fixpoint: a further pass would lower nothing.
                D, denom, count = out
                decreases += count
                written = []
        over_cap(
            decreases, max_decreases, "max_decreases", "closure exceeded {cap} entry decreases"
        )
        if not written:
            return D, denom
        pivots = blocks > 1


# The passes whose lowered cells a jump solves for; the most of those cells,
# and the most policy rounds of its certificate.
_JUMP_PASSES = 4
_JUMP_CELLS = 64


def _jump(D: np.ndarray, denom: int, start: tuple, tables, cells: np.ndarray, groups, label):
    """The greatest fixpoint gfp <= ``(D, denom)`` of a LIP closure, solved
    for on the unordered ``cells`` (positions i * n + j, i < j) with every
    other cell held, as ``(D, denom, decreases)``; None when not proved.
    ``groups`` and ``label``, D's finite components, are Y's as well.

    Each unknown takes its least bound at D, the first of equals of: its
    start value in ``start``; K * D[a_l, b_l] for a rule pair with images
    (i, j), at the place l of the max; D[i, m] + D[m, j] for the least m.
    Their affine equations, solved exactly, give Y.  Y <= gfp if a full
    pass lowers nothing in Y.  gfp <= Y if also each bound, with its max
    over every place, is tight at Y, and some v > 0 solves v = 1 + H(v),
    H the bounds' homogeneous part (0, W_a + W_b or K * max_l W_l): then
    W = gfp - Y is 0 off the unknowns, as gfp <= D = Y there, and W <= H(W)
    on them, so s = max W / v gives W <= H(s v) = s (v - 1), forcing s = 0.
    v comes by max-policy iteration: an exact solve, then each rule moves
    to a place of strictly larger v, until none does.
    """
    n, inf, (S, start_denom) = len(D), _inf_code(D), start
    unknown = {c: u for u, c in enumerate(cells.tolist())}

    def term(a, b):
        # An unknown's number, or the held value (None when infinite).
        c = min(a, b) * n + max(a, b)
        if c in unknown:
            return unknown[c]
        return None if D.flat[c] >= inf else Fraction(int(D.flat[c]), denom)

    def at(t, y):
        return y[t] if type(t) is int else t

    def value(row, y):
        k, terms, add = row
        vals = [at(t, y) for t in terms]
        return None if None in vals else k * (sum(vals) if add else max(vals))

    def solve(picks, homogeneous):
        # y = b + A y, each row read at its pick: a place, or None for none.
        system = []
        for (k, terms, add), pick in zip(rows, picks):
            b, coef = Fraction(homogeneous), {}
            for t in terms if add else terms[pick:pick + 1] if pick is not None else ():
                if type(t) is int:
                    coef[t] = coef.get(t, 0) + k
                elif not homogeneous:
                    b += k * t
            system.append((b, coef))
        return _affine_solve(system)

    now = [Fraction(int(D.flat[c]), denom) for c in unknown]
    rows, picks, caps = [], [], []
    for c in unknown:
        i, j = divmod(c, n)
        caps.append(None if S[i, j] >= _inf_code(S) else Fraction(int(S[i, j]), start_denom))
        options = [(1, (caps[-1],), False)]
        for args_idx, res_idx, k, *_ in tables:
            for t in np.flatnonzero(res_idx == i).tolist():
                for u in np.flatnonzero(res_idx == j).tolist():
                    options.append((k, tuple(term(int(a[t]), int(a[u])) for a in args_idx), False))
        through = D[i] + D[j]
        through[[i, j]] = inf
        if through[m := int(through.argmin())] < inf:
            options.append((1, (term(i, m), term(m, j)), True))
        # A lowered cell is finite, and so is the bound that lowered it.
        bounds = [(v, r) for r, row in enumerate(options) if (v := value(row, now)) is not None]
        rows.append(row := options[min(bounds)[1]])
        picks.append(max(range(len(row[1])), key=lambda l: at(row[1][l], now)))
    y = solve(picks, False)
    if y is None or min(y) < 0 or any(
        value(row, y) != y[c] or (cap is not None and y[c] > cap)
        for c, (row, cap) in enumerate(zip(rows, caps))
    ):
        return None
    picks = [None] * len(rows)
    for _ in range(_JUMP_CELLS):
        v = solve(picks, True)
        if v is None or min(v) <= 0:
            return None
        better = False
        for c, (_, terms, add) in enumerate(rows):
            for place, t in enumerate(() if add else terms):
                if type(t) is int and (picks[c] is None or v[t] > v[terms[picks[c]]]):
                    picks[c], better = place, True
        if not better:
            break
    else:
        return None
    # Y: D with the solution written in, on their common denominator.
    (Y, codes), denom = _mirrors((D, denom), _codes(y))
    Y = D.copy() if Y is D else Y
    i, j = np.divmod(cells, n)
    Y[i, j] = Y[j, i] = codes
    if any(_repair(Y, idx, range(len(idx))).any() for idx in groups) or any(
        len(_bound_rule(Y.copy(), 1, table, "LIP", label)[2]) for table in tables
    ):
        return None
    return Y, denom, 2 * sum(a < b for a, b in zip(y, now))


def _affine_solve(system) -> list[Fraction] | None:
    """The solution of y_c = b_c + sum_u a_cu * y_u, for ``system`` the list
    of ``(b_c, {u: a_cu})``, exactly by Gauss-Jordan elimination; None
    when the system is singular."""
    m = len(system)
    M = [[(u == c) - coef.get(u, 0) for u in range(m)] + [b] for c, (b, coef) in enumerate(system)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if M[r][col]), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        top = M[col]
        nonzero = [z for z in range(col, m + 1) if top[z]]
        for row in M:
            if row is not top and row[col]:
                f = Fraction(row[col]) / top[col]
                for z in nonzero:
                    row[z] -= f * top[z]
    return [Fraction(M[c][m]) / M[c][c] for c in range(m)]


def _bound_rule(D: np.ndarray, denom: int, table, mode: str, label: np.ndarray, kept=None):
    """Lower ``(D, denom)`` by a Q, LIP or intransitive-M rule over the pairs
    of argument tuples whose places pair points of one component (by
    ``label``); returns ``(D, denom, pos)``, ``pos`` the positions lowered.
    Each ``(pos, c)`` chunk of candidates is appended to ``kept`` if given."""
    args_idx, res_idx, k, _, rows, square, first, _ = table
    sub = D[rows[:, None], rows]
    if mode == "M":
        sub = np.where(sub == 0, sub, _inf_code(sub))
    elif mode == "LIP":
        # Moving the shared denominator to denom * q keeps K * value
        # integral: finite entries of D are multiplied by q, and those of
        # the rows read (so of every candidate) by p.
        D, sub = _scaled((D, k.denominator), (sub, k.numerator), owned=True)
        denom *= k.denominator
    if square is None:
        local = [np.searchsorted(rows, a) for a in args_idx]
        cells = _grouped_cells(sub, local, label[rows], res_idx, len(D))
    else:
        cells = _product_cells(sub, len(args_idx), res_idx, first, len(D))
    return D, denom, _lower(D, cells, kept)


def _covered(D: np.ndarray, kept, x: np.ndarray, label: np.ndarray, size: np.ndarray):
    """The mask, over labels, of the components of two or more points (by
    ``label``, with ``size`` points each) that hold a row of ``x`` and whose
    every ordered pair of distinct points is a cell of the ``(pos, c)``
    chunks ``kept`` with ``c <= D[pos]``; None when there is none.  The
    chunks must hold each position at most once."""
    n = len(D)
    want = np.zeros(n, dtype=bool)
    want[label[x]] = True
    want &= size > 1
    if not want.any():
        return None
    flat, count = D.reshape(-1), np.zeros(n, dtype=np.intp)
    for pos, c in kept:
        i, j = np.divmod(pos, n)
        at = label[i]
        hit = want[at] & (at == label[j]) & (i != j)
        hit[hit] = c[hit] <= flat.take(pos[hit])
        count += np.bincount(at[hit], minlength=n)
    cover = want & (count == size * (size - 1))
    return cover if cover.any() else None


def _repair(D: np.ndarray, idx: np.ndarray, ks: list[int]) -> np.ndarray:
    """Floyd-Warshall on the block ``D[idx, idx]`` over its pivots ``ks``,
    in place; returns the mask of the block's entries it lowered."""
    sub = D[idx[:, None], idx]
    old = sub.copy()
    for k in ks:
        np.minimum(sub, sub[:, k, None] + sub[None, k, :], out=sub)
    D[idx[:, None], idx] = sub
    return sub < old


def _distinct(chunks: list[np.ndarray]) -> np.ndarray:
    """The distinct positions of a list of arrays, sorted."""
    pos = np.sort(np.concatenate(chunks))
    return pos[np.concatenate(([True], pos[1:] != pos[:-1]))]


# Candidate cells a closure rule builds at once.
_RULE_CELLS = _TRIANGLE_CELLS
_NO_POSITIONS = np.zeros(0, dtype=np.intp)


def _lower(D: np.ndarray, cells, kept=None) -> np.ndarray:
    """Lower ``D`` at each flat position ``pos`` to ``c`` for every
    ``(pos, c)`` chunk of ``cells`` where that is lower, and return the
    positions lowered; each chunk is appended to ``kept`` if given."""
    flat, out = D.reshape(-1), []
    for pos, c in cells:
        if kept is not None:
            kept.append((pos, c))
        hit = c < flat.take(pos)
        if hit.any():
            pos = pos[hit]
            np.minimum.at(flat, pos, c[hit])
            out.append(pos)
    return np.concatenate(out) if out else _NO_POSITIONS


def _product_cells(sub: np.ndarray, arity: int, res_idx: np.ndarray, first, n: int):
    """The candidates of a rule whose argument tuples are S**arity in
    row-major order, with ``sub`` the block ``D[S, S]``, over the pairs of
    tuples whose every place pairs a finite entry (a_l, b_l): ``(pos, c)``
    for the flat position ``pos`` of their images in D and the candidate
    ``c = max_l sub[a_l, b_l]``.  The pairs of the last place are crossed
    with a block of the combinations of the others, at most
    ``_RULE_CELLS`` cells (or one combination's) at a time.

    Tuple ``a`` has index ``t = sum_l a_l * |S|**(arity - 1 - l)``, so the
    code ``t * width + u`` of a pair is that sum over ``a_l * width + b_l``.
    When the images are the run from ``first``, the code with width ``n``
    is the position less ``first * (n + 1)``; otherwise it is decoded.
    """
    s = len(sub)
    fa, fb = (sub < _inf_code(sub)).nonzero()
    vals = sub[fa, fb]
    width = s**arity if first is None else n
    w = fa * width + fb
    heads = len(w) ** (arity - 1)
    step = max(1, _RULE_CELLS // len(w))
    for start in range(0, heads, step):
        code, c = w, vals
        if arity > 1:
            # Block number h picks pair h mod |w| at place arity - 2, and so on.
            rest, head, top = np.arange(start, min(start + step, heads)), 0, 0
            for power in range(1, arity):
                rest, pick = np.divmod(rest, len(w))
                head = head + w[pick] * s**power
                top = np.maximum(top, vals[pick])
            code = (head[:, None] + w).ravel()
            c = np.maximum(top[:, None], vals).ravel()
        if first is None:
            t, u = np.divmod(code, width)
            yield res_idx[t] * n + res_idx[u], c
        else:
            yield code + first * (n + 1), c


def _grouped_cells(sub, local: Sequence[np.ndarray], label, res_idx: np.ndarray, n: int):
    """The candidates of any rule, with ``sub`` the block of the rows it
    reads and ``local`` the argument positions within them: ``(pos, c)`` as
    in ``_product_cells``, for every pair of tuples whose places lie
    pairwise in one component (by ``label``)."""
    order, new = _sorted_runs([label[a] for a in local])
    for left, right in _run_pairs(new):
        t, u = order[left], order[right]
        c = sub[local[0][t], local[0][u]]
        for a in local[1:]:
            np.maximum(c, sub[a[t], a[u]], out=c)
        yield res_idx[t] * n + res_idx[u], c


def _sorted_runs(keys: Sequence[np.ndarray], last: np.ndarray | None = None):
    """The order that sorts the tuples of ``keys`` (one array per place),
    ties broken by ``last``, and a mask of the entries in that order that
    start a run of equal key tuples.  One ``np.lexsort``."""
    order = np.lexsort(keys[::-1] if last is None else [last, *keys[::-1]])
    keys = np.stack(keys)[:, order]
    return order, np.concatenate(([True], (keys[:, 1:] != keys[:, :-1]).any(axis=0)))


def _run_pairs(new: np.ndarray):
    """Every ordered pair ``(i, j)`` of entries of one run of two or more,
    the runs starting where ``new`` is true, as ``(left, right)`` arrays of
    at most ``_RULE_CELLS`` pairs (or one entry's) at a time.  An entry of a
    run of s entries from b pairs with b, ..., b + s - 1."""
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=len(new))
    start, size = np.repeat(starts, sizes), np.repeat(sizes, sizes)
    entries = np.flatnonzero(size > 1)
    ends = np.cumsum(size[entries])
    lo = 0
    while lo < len(entries):
        base = ends[lo] - size[entries[lo]]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _RULE_CELLS, "right")))
        e = entries[lo:hi]
        left = np.repeat(e, size[e])
        offset = np.arange(len(left)) - np.repeat(ends[lo:hi] - size[e] - base, size[e])
        yield left, np.repeat(start[e], size[e]) + offset
        lo = hi


def _zero_class_rule(D, rep, args_idx, res_idx, reads) -> np.ndarray:
    """The mode-M rule when the zero-set of ``D`` is an equivalence with
    classes ``rep``: two argument tuples are at distance zero exactly when
    their tuples of class representatives agree, so every pair of images
    within such a group is set to zero.  Returns the flat positions it
    lowered.

    One sort by (representative tuple, image) groups the tuples and drops
    repeated images, so the pairs written number sum |images_g|**2, not
    the |tuples|**2 of a candidate block.
    """
    rows = reads.nonzero()[0]
    if (rep[rows] == rows).all():
        # No two rows read are at distance zero: every group is one tuple.
        return _NO_POSITIONS
    order, new = _sorted_runs([rep[a] for a in args_idx], res_idx)
    images = res_idx[order]
    # The distinct images of each group, as runs of entries.
    keep = new.copy()
    keep[1:] |= images[1:] != images[:-1]
    images, new = images[keep], new[keep]
    flat, offsets, out = D.reshape(-1), images * len(D), [_NO_POSITIONS]
    for left, right in _run_pairs(new):
        pos = offsets[left] + images[right]
        pos = pos[flat.take(pos) != 0]
        flat[pos] = 0
        out.append(pos)
    return np.concatenate(out)


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
        codes = np.sort(np.concatenate([S.ravel(), np.array([0, _inf_code(S)], dtype=S.dtype)]))
        codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = len(codes if values is None else values) ** len(cells)
    over_cap(total, cap, "grid_cap", "grid has {count} candidates, over the cap {cap}")
    if values is not None:
        values = [checked_value(ExtRat, v, "grid value") for v in values]
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
