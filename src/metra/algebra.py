"""Finite metric algebras and structure-preserving maps between them.

A metric algebra is a finite metric space with total operation tables
over a signature, stored as index tables: carrier positions in arrays
of shape ``(n,) * arity``.  Every construction and check runs on them;
carrier elements appear only at the edges (``ops``, ``apply`` and the
reports).  Homomorphisms are required to preserve operations and to be
nonexpansive; both properties are validated when a ``Homomorphism`` is
constructed.  Quantitativity (every operation nonexpansive for the
supremum metric on argument tuples) is a separate check, not a
construction invariant.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AxiomError,
    DomainError,
    ResourceLimitError,
    SignatureError,
    TableError,
    Verdict,
)
from .extmetric import (
    _MAX_SCALED,
    _TRIANGLE_CELLS,
    FiniteMetricSpace,
    _along,
    _as_object,
    _finite_max,
    _first,
    _ids,
    _mirrors,
    _scale_finite,
    _validated,
    metric_identification,
    render_id,
    restrict_space,
    sup_product,
)
from .terms import Signature

if TYPE_CHECKING:  # pragma: no cover
    from .congruence import Congruence


class MetricAlgebra:
    """A finite metric space with total operation tables.

    ``tables[symbol]`` is a read-only ``intp`` array of shape
    ``(n,) * arity``: entry ``[i1, ..., ik]`` is the carrier position of
    the operation's value on the elements at positions ``i1, ..., ik``.
    The constructor takes dict tables from argument tuples to carrier
    elements (a bare value for a constant) and checks them once.
    """

    __slots__ = ("sig", "space", "tables")

    def __init__(self, sig: Signature, space: FiniteMetricSpace, ops: Mapping):
        space = _validated(space, FiniteMetricSpace)
        verdict = _table_check(sig, space, ops)
        if not verdict:
            raise TableError(
                f"bad operation table: {verdict.reason} at {verdict.witness}"
            )
        self._assign(sig, space, verdict.value)

    def _assign(self, sig: Signature, space: FiniteMetricSpace, tables: dict) -> None:
        # Indexing a constant's 0-d table gives a numpy scalar.
        tables = {symbol: np.asarray(table) for symbol, table in tables.items()}
        for table in tables.values():
            table.flags.writeable = False
        self.sig = sig
        self.space = space
        self.tables = tables

    @classmethod
    def _trusted(cls, sig: Signature, space: FiniteMetricSpace, tables: dict):
        """An algebra around index tables that are total and in range by
        construction, such as a product or a quotient; nothing is checked,
        and the tables must not be written afterwards."""
        out = object.__new__(cls)
        out._assign(sig, space, tables)
        return out

    @property
    def carrier(self) -> tuple:
        return self.space.carrier

    @property
    def ops(self) -> dict:
        """The tables as dicts from argument tuples to carrier elements, in
        carrier order, built on each read."""
        carrier = self.carrier
        return {
            symbol: dict(zip(
                itertools.product(carrier, repeat=table.ndim),
                map(carrier.__getitem__, table.ravel().tolist()),
            ))
            for symbol, table in self.tables.items()
        }

    def apply(self, symbol: str, args: Sequence) -> object:
        arity = self.sig.arity(symbol)
        if not isinstance(args, Iterable):
            raise SignatureError(f"{symbol} takes a sequence of arguments, got {args!r}")
        args = tuple(args)
        if arity != len(args):
            raise SignatureError(f"{symbol} expects {arity} arguments, got {len(args)}")
        at = tuple(self.space.index(a) for a in args)
        return self.carrier[self.tables[symbol][at]]

    def constant(self, symbol: str) -> object:
        return self.apply(symbol, ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricAlgebra):
            return NotImplemented
        return (
            self.sig == other.sig
            and self.space == other.space
            and all(np.array_equal(t, other.tables[s]) for s, t in self.tables.items())
        )

    def __repr__(self) -> str:
        return f"<MetricAlgebra |A|={self.space.size} sig={self.sig!r}>"


def _table_check(sig: Signature, space: FiniteMetricSpace, ops) -> Verdict:
    """Check dict tables against the signature and the carrier while filling
    the index tables; the passing verdict carries them.

    A table for an unknown symbol raises ``SignatureError``.  Otherwise the
    first defect fails: a symbol without a table, then, table by table, a
    table that is not a mapping, an entry whose arguments are not a tuple
    of carrier elements of the symbol's arity or whose value is not in the
    carrier, and a table that is not total.
    """
    if not isinstance(ops, Mapping):
        return Verdict.failed("not-a-mapping", ())
    for symbol in ops:
        if symbol not in sig:
            raise SignatureError(f"table for unknown symbol {symbol!r}")
    for symbol in sig.symbols:
        if symbol not in ops:
            return Verdict.failed("missing-table", (symbol,))
    n, index, tables = space.size, space._index, {}
    for symbol, table in ops.items():
        arity = sig.arity(symbol)
        if arity == 0 and not isinstance(table, Mapping):
            table = {(): table}
        if not isinstance(table, Mapping):
            return Verdict.failed("not-a-mapping", (symbol,))
        flat = [-1] * n**arity
        for args, value in table.items():
            cell = 0
            try:
                args = tuple(args)
                for a in args:
                    cell = cell * n + index[a]
            except (KeyError, TypeError):
                return Verdict.failed("bad-arguments", (symbol, args))
            if len(args) != arity:
                return Verdict.failed("bad-arguments", (symbol, args))
            try:
                flat[cell] = index[value]
            except (KeyError, TypeError):
                return Verdict.failed("value-outside-carrier", (symbol, args))
        if -1 in flat:
            return Verdict.failed("partial-table", (symbol,))
        tables[symbol] = np.array(flat, dtype=np.intp).reshape((n,) * arity)
    return Verdict.passed(tables)


def validate_algebra(algebra: MetricAlgebra) -> Verdict:
    """Run the constructor's table check on the algebra's tables as dicts:
    every table total over the carrier with in-carrier values."""
    return _table_check(algebra.sig, algebra.space, algebra.ops)


def _on(table: np.ndarray, idx) -> np.ndarray:
    """The table on the argument tuples drawn from the positions ``idx``,
    as an array of shape ``(len(idx),) * arity``."""
    return table[np.ix_(*[idx] * table.ndim)]


def _cells(table: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """A table of positive arity as ``(args_idx, res_idx)``: one array of
    argument positions per place and the images, in row-major order."""
    args_idx = np.indices(table.shape, dtype=np.intp).reshape(table.ndim, -1)
    return list(args_idx), table.ravel()


def _spread(D: np.ndarray, args_idx: Sequence[np.ndarray], rows=slice(None)) -> np.ndarray:
    """``max_i D[a_i, b_i]`` for the argument tuples ``a`` at ``rows`` and
    every tuple ``b``, with the tuples given as ``args_idx``."""
    out = D[np.ix_(args_idx[0][rows], args_idx[0])]
    for pos in args_idx[1:]:
        np.maximum(out, D[np.ix_(pos[rows], pos)], out=out)
    return out


def is_quantitative(algebra: MetricAlgebra, max_checks: int = 1_000_000) -> Verdict:
    """Check every operation nonexpansive for the sup metric on tuples.

    The witness of a failure is ``(symbol, args, args2)`` for the first
    violating pair in the deterministic scan order.
    """
    return _modulus_scan(algebra, None, max_checks)


def _modulus_scan(algebra: MetricAlgebra, constants, max_checks=None) -> Verdict:
    """First argument pair an operation stretches beyond its modulus.

    Checks d(op(a), op(b)) <= K_op * max_i d(a_i, b_i) symbol by symbol in
    signature order, over argument tuples in carrier order (a outer, b
    inner); the witness is ``(symbol, a, b)``.  ``constants`` maps symbols
    to K_op, and ``None`` means K = 1: the quantitativity check.  The pairs
    are compared on the mirror a block of ``a`` at a time, at most
    ``_TRIANGLE_CELLS`` pairs but at least one ``a``.
    """
    D, carrier, checks = algebra.space.D, algebra.carrier, 0
    reason = "expansive-operation" if constants is None else "not-lipschitz"
    for symbol in algebra.sig.symbols:
        table = algebra.tables[symbol]
        if table.ndim == 0:
            continue
        if constants is not None and symbol not in constants:
            raise SignatureError(f"no Lipschitz constant for symbol {symbol!r}")
        k = 1 if constants is None else constants[symbol]
        if k <= 0:
            raise DomainError(f"Lipschitz constant for {symbol} must be positive")
        checks += table.size**2
        if max_checks is not None and checks > max_checks:
            raise ResourceLimitError(
                f"quantitativity scan exceeds {max_checks} pairs", "max_checks", max_checks
            )
        p, q = k.numerator, k.denominator
        # d(op(a), op(b)) * q > spread * p on the codes.  The scaled finite
        # values stay below the int64 guard, or the mirror is widened, so an
        # infinite spread, kept at the infinity code, is never exceeded.
        M = D if max(p, q) * max(_finite_max(D), 1) < _MAX_SCALED else _as_object(D)
        args_idx, res_idx = _cells(table)
        step = max(1, _TRIANGLE_CELLS // table.size)
        for start in range(0, table.size, step):
            rows = slice(start, start + step)
            spread = _spread(M, args_idx, rows)
            image = M[np.ix_(res_idx[rows], res_idx)]
            bad = _first(_scale_finite(image, q) > _scale_finite(spread, p))
            if bad is not None:
                a, b = (np.unravel_index(i, table.shape) for i in (start + bad[0], bad[1]))
                return Verdict.failed(reason, (symbol, _ids(carrier, a), _ids(carrier, b)))
    return Verdict.passed()


def is_homomorphism(f: Mapping, source: MetricAlgebra, target: MetricAlgebra) -> Verdict:
    """Check operation preservation and nonexpansiveness of ``f``.

    Witnesses are the first argument tuple, or pair, in carrier order.
    """
    if source.sig != target.sig:
        return Verdict.failed("signature-mismatch", ())
    targets = set(target.carrier)
    for a in source.carrier:
        if a not in f:
            return Verdict.failed("undefined", (a,))
        if f[a] not in targets:
            return Verdict.failed("value-outside-target", (a,))
    fidx = np.array([target.space.index(f[a]) for a in source.carrier], dtype=np.intp)
    for symbol in source.sig.symbols:
        bad = _first(fidx[source.tables[symbol]] != _on(target.tables[symbol], fidx))
        if bad is not None:
            return Verdict.failed("operation-not-preserved", (symbol, _ids(source.carrier, bad)))
    X, Y = _along(f, source.space, target.space)
    bad = _first(Y > X)
    if bad is not None:
        return Verdict.failed("expansive", _ids(source.carrier, bad))
    return Verdict.passed()


class Homomorphism:
    """A validated nonexpansive, operation-preserving map."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: MetricAlgebra, target: MetricAlgebra, mapping: Mapping):
        verdict = is_homomorphism(mapping, source, target)
        if not verdict:
            raise AxiomError(
                f"not a homomorphism: {verdict.reason} at {verdict.witness}", verdict
            )
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    @classmethod
    def _trusted(cls, source: MetricAlgebra, target: MetricAlgebra, mapping: Mapping):
        """A map that is a homomorphism by construction, such as a
        projection or an inclusion; nothing is checked."""
        out = object.__new__(cls)
        out.source, out.target, out.mapping = source, target, dict(mapping)
        return out

    def __call__(self, x) -> object:
        try:
            return self.mapping[x]
        except KeyError:
            raise DomainError(f"{render_id(x)} is not in the source carrier") from None

    @property
    def is_surjective(self) -> bool:
        return set(self.mapping.values()) == set(self.target.carrier)

    @property
    def is_injective(self) -> bool:
        values = list(self.mapping.values())
        return len(set(values)) == len(values)

    @property
    def is_isometric(self) -> bool:
        X, Y = _along(self.mapping, self.source.space, self.target.space)
        return bool(np.array_equal(X, Y))

    def then(self, other: "Homomorphism") -> "Homomorphism":
        if self.target is not other.source and self.target != other.source:
            raise DomainError("composition needs matching middle algebra")
        return Homomorphism._trusted(
            self.source, other.target, {a: other(self(a)) for a in self.source.carrier}
        )

    def __repr__(self) -> str:
        return f"<Homomorphism {self.source.space.size} -> {self.target.space.size}>"


def generate_subalgebra(
    algebra: MetricAlgebra, seed: Iterable
) -> tuple[MetricAlgebra, Homomorphism]:
    """Smallest subalgebra containing ``seed``, with its inclusion map.

    The carrier grows from the seed as a mask, adding the images of every
    operation on the tuples of the carrier so far until nothing changes;
    constants always join the closure.  The carrier order of the result
    follows the base algebra.
    """
    keep = np.zeros(algebra.space.size, dtype=bool)
    for x in seed:
        keep[algebra.space.index(x)] = True
    if not keep.any() and all(t.ndim for t in algebra.tables.values()):
        raise DomainError("subalgebra seed is empty and the signature has no constants")
    while True:
        idx = np.flatnonzero(keep)
        for table in algebra.tables.values():
            keep[_on(table, idx)] = True
        if keep.sum() == len(idx):
            break
    sub_space = restrict_space(algebra.space, _ids(algebra.carrier, idx))
    position = np.zeros(algebra.space.size, dtype=np.intp)
    position[idx] = np.arange(len(idx))
    tables = {s: position[_on(t, idx)] for s, t in algebra.tables.items()}
    sub = MetricAlgebra._trusted(algebra.sig, sub_space, tables)
    inclusion = Homomorphism._trusted(sub, algebra, {x: x for x in sub_space.carrier})
    return sub, inclusion


def product(
    algebras: Sequence[MetricAlgebra], max_size: int = 4096
) -> tuple[MetricAlgebra, list[Homomorphism]]:
    """Componentwise product with the supremum metric and projections.

    The carrier is the tuples in ``itertools.product`` order, so a
    product position unravels in C order into the factors' positions and
    each table is the raveled tuple of the factors' tables.
    """
    if not algebras:
        raise DomainError("product of zero algebras is not defined")
    sig = algebras[0].sig
    for a in algebras[1:]:
        if a.sig != sig:
            raise SignatureError("product factors must share one signature")
    space = sup_product([a.space for a in algebras], max_size=max_size)
    sizes = [a.space.size for a in algebras]
    coords = np.unravel_index(np.arange(space.size), sizes)
    tables = {}
    for symbol in sig.symbols:
        arity = sig.arity(symbol)
        if space.size ** arity > 1_000_000:
            raise ResourceLimitError(
                f"product table for {symbol} would exceed 1000000 entries",
                "table_size",
                1_000_000,
            )
        factors = [_on(a.tables[symbol], c) for a, c in zip(algebras, coords)]
        tables[symbol] = np.ravel_multi_index(factors, sizes)
    prod = MetricAlgebra._trusted(sig, space, tables)
    projections = [
        Homomorphism._trusted(prod, a, {p: p[i] for p in space.carrier})
        for i, a in enumerate(algebras)
    ]
    return prod, projections


def quotient(
    algebra: MetricAlgebra, theta: "Congruence"
) -> tuple[MetricAlgebra, Homomorphism]:
    """Quotient algebra by a congruential pseudometric, with its projection.

    The carrier is the metric identification of theta's zero classes,
    named by earliest representatives; the metric is theta itself read
    on representatives; operations act on representatives and are well
    defined because theta's zero-set is closed under every operation.
    """
    if theta.base is not algebra and theta.base != algebra:
        raise DomainError("congruence is not on this algebra")
    space, qmap = metric_identification(theta.matrix)
    # The classes in the order of their least members, and each point's class.
    reps, position = np.unique((theta.matrix.D == 0).argmax(axis=1), return_inverse=True)
    tables = {s: position[_on(t, reps)] for s, t in algebra.tables.items()}
    quot = MetricAlgebra._trusted(algebra.sig, space, tables)
    projection = Homomorphism._trusted(
        algebra, quot, {x: qmap.class_of(x) for x in algebra.carrier}
    )
    return quot, projection


def kernel(f: Homomorphism) -> "Congruence":
    """ker(f)(a, b) = d(f(a), f(b)): the target metric pulled back along ``f``."""
    from .congruence import finest_congruence, pullback_congruence

    return pullback_congruence(f, finest_congruence(f.target))


def image(f: Homomorphism) -> MetricAlgebra:
    """Set-image of ``f`` with the structure induced from the target."""
    # f preserves every operation, so its image is already closed under them.
    return generate_subalgebra(f.target, [f(a) for a in f.source.carrier])[0]


def saturate(algebra: MetricAlgebra, subset: Iterable, theta: "Congruence") -> tuple:
    """Elements at theta-distance zero from the subset, in carrier order."""
    if theta.base != algebra:
        raise DomainError("congruence is not on this algebra")
    rows = [algebra.space.index(s) for s in subset]
    near = (theta.matrix.D[rows] == 0).any(axis=0)
    return tuple(a for a, hit in zip(algebra.carrier, near.tolist()) if hit)


def is_reflexive_quotient(p: Homomorphism, max_sections: int = 1_000_000) -> Verdict:
    """Search for an isometric section of a surjective homomorphism.

    Sections assign to each target element one of its preimages; they
    are enumerated lexicographically in target-carrier and preimage
    order, so the first witness found is deterministic.  The section
    must preserve distances exactly but need not preserve operations.
    """
    if not p.is_surjective:
        return Verdict.failed("not-surjective", ())
    targets, sources = p.target.carrier, p.source.carrier
    fibers = [[i for i, a in enumerate(sources) if p(a) == b] for b in targets]
    total = 1
    for fiber in fibers:
        total *= len(fiber)
        if total > max_sections:
            raise ResourceLimitError(
                f"section search space exceeds {max_sections}",
                "max_sections",
                max_sections,
            )
    (src, dst), _ = _mirrors(p.source.space, p.target.space)
    src, dst = src.tolist(), dst.tolist()
    for choice in itertools.product(*fibers):
        if all(
            src[i][j] == d for i, row in zip(choice, dst) for j, d in zip(choice, row)
        ):
            return Verdict.passed(dict(zip(targets, map(sources.__getitem__, choice))))
    return Verdict.failed("no-isometric-section", ())


def find_isomorphism(a: MetricAlgebra, b: MetricAlgebra) -> dict | None:
    """A bijective isometric homomorphism from ``a`` onto ``b``, or None.

    Backtracking assignment in carrier order, pruning on exact distance
    agreement with every previously assigned element; operation tables
    are verified on each completed candidate.  Returns the
    lexicographically first isomorphism for deterministic output.
    """
    if a.sig != b.sig or a.space.size != b.space.size:
        return None
    xs, ys = a.carrier, b.carrier
    (da, db), _ = _mirrors(a.space, b.space)
    da, db = da.tolist(), db.tolist()

    def extend(chosen: list[int]) -> dict | None:
        x = len(chosen)
        if x == len(xs):
            assignment = dict(zip(xs, map(ys.__getitem__, chosen)))
            return assignment if is_homomorphism(assignment, a, b) else None
        for y in range(len(ys)):
            if y in chosen or any(db[y][y2] != da[x][x2] for x2, y2 in enumerate(chosen)):
                continue
            found = extend(chosen + [y])
            if found is not None:
                return found
        return None

    return extend([])


def relabel(algebra: MetricAlgebra, mapping: Mapping) -> MetricAlgebra:
    """Rename carrier elements along a bijection; structure is transported.

    Positions are unchanged, so the renamed algebra shares the mirror and
    the index tables."""
    carrier = algebra.carrier
    if set(mapping) != set(carrier) or len(set(mapping.values())) != len(carrier):
        raise DomainError("relabeling must be a bijection on the carrier")
    new_carrier = [mapping[x] for x in carrier]
    space = FiniteMetricSpace._trusted(new_carrier, algebra.space.D, algebra.space.denom)
    return MetricAlgebra._trusted(algebra.sig, space, dict(algebra.tables))
