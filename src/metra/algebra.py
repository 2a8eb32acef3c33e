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
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    LIMIT_DEFAULTS,
    AxiomError,
    DomainError,
    SignatureError,
    TableError,
    Verdict,
    over_cap,
)
from .extmetric import (
    _TRIANGLE_CELLS,
    FiniteMetricSpace,
    _first,
    _first_in_blocks,
    _ids,
    _mirrors,
    _scaled,
    _validated,
    checked_value,
    metric_identification,
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
        if self is other:
            return True
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
    n, index, tables = space.size, space._positions(), {}
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
    """Check the index tables against the signature and the carrier: a
    table for every symbol, of shape ``(n,) * arity``, whose every entry is
    a position in ``range(n)``.  The first defect fails, symbol by symbol."""
    n, tables = algebra.space.size, algebra.tables
    for symbol in algebra.sig.symbols:
        table = tables.get(symbol)
        if table is None:
            return Verdict.failed("missing-table", (symbol,))
        if table.shape != (n,) * algebra.sig.arity(symbol):
            return Verdict.failed("bad-shape", (symbol, table.shape))
        outside = _first((table < 0) | (table >= n))
        if outside is not None:
            return Verdict.failed("value-outside-carrier", (symbol, _ids(algebra.carrier, outside)))
    return Verdict.passed()


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
    out = D[args_idx[0][rows, None], args_idx[0]]
    for pos in args_idx[1:]:
        np.maximum(out, D[pos[rows, None], pos], out=out)
    return out


def mode_constants(mode: str, lipschitz, symbols: Iterable[str]) -> dict | None:
    """The one check of a closure mode and its Lipschitz constants.

    ``mode`` is M, Q or LIP.  In LIP the result maps each of ``symbols``,
    the operations of positive arity, to its constant as a positive
    ``Fraction``, read from the mapping ``lipschitz`` or, for any other
    value, shared by all; the mapping's other entries are not read.  In M
    and Q the result is None and ``lipschitz`` is not read.
    """
    if mode not in ("M", "Q", "LIP"):
        raise DomainError(f"unknown mode {mode!r}; expected M, Q, or LIP")
    if mode != "LIP":
        return None
    if lipschitz is None:
        raise DomainError("LIP mode needs a Lipschitz constant")
    constants = {}
    for symbol in symbols:
        if not isinstance(lipschitz, Mapping):
            k = lipschitz
        elif symbol in lipschitz:
            k = lipschitz[symbol]
        else:
            raise SignatureError(f"LIP mode needs a constant for {symbol}")
        k = constants[symbol] = checked_value(Fraction, k, f"Lipschitz constant for {symbol}")
        if k <= 0:
            raise DomainError(f"Lipschitz constant for {symbol} must be positive")
    return constants


def is_quantitative(algebra: MetricAlgebra, max_checks: int = 1_000_000) -> Verdict:
    """Check every operation nonexpansive for the sup metric on tuples.

    The witness of a failure is ``(symbol, args, args2)`` for the first
    violating pair in the deterministic scan order.
    """
    return _modulus_scan(algebra, None, max_checks)


def _modulus_scan(algebra: MetricAlgebra, constants, max_checks: int = 1_000_000) -> Verdict:
    """First argument pair an operation stretches beyond its modulus.

    Checks d(op(a), op(b)) <= K_op * max_i d(a_i, b_i) symbol by symbol in
    signature order, over argument tuples in carrier order (a outer, b
    inner); the witness is ``(symbol, a, b)``.  ``constants`` are the
    ``mode_constants`` of LIP, and ``None`` means K = 1: the quantitativity
    check.  More than ``max_checks`` pairs in all raise.  The pairs are
    compared on the mirror a block of ``a`` at a time, at most
    ``_TRIANGLE_CELLS`` pairs but at least one ``a``.
    """
    D, carrier, checks = algebra.space.D, algebra.carrier, 0
    reason = "expansive-operation" if constants is None else "not-lipschitz"
    for symbol in algebra.sig.symbols:
        table = algebra.tables[symbol]
        if table.ndim == 0:
            continue
        k = 1 if constants is None else constants[symbol]
        checks += table.size**2
        over_cap(checks, max_checks, "max_checks", "quantitativity scan exceeds {cap} pairs")
        # d(op(a), op(b)) * q > spread * p on the codes; an infinite
        # spread, kept at the infinity code, is never exceeded.
        Dq, Dp = _scaled((D, k.denominator), (D, k.numerator))
        args_idx, res_idx = _cells(table)

        def stretched(rows: slice) -> np.ndarray:
            return Dq[np.ix_(res_idx[rows], res_idx)] > _spread(Dp, args_idx, rows)

        bad = _first_in_blocks(table.size, _TRIANGLE_CELLS // table.size, stretched)
        if bad is not None:
            a, b = (np.unravel_index(i, table.shape) for i in bad)
            return Verdict.failed(reason, (symbol, _ids(carrier, a), _ids(carrier, b)))
    return Verdict.passed()


def is_homomorphism(f: Mapping, source: MetricAlgebra, target: MetricAlgebra) -> Verdict:
    """Check operation preservation and nonexpansiveness of ``f``.

    A malformed dict fails first: not a mapping, then an element without an
    image or with one outside the target.  Witnesses are the first element,
    tuple or pair in carrier order; a pass carries the target positions ``fidx``.
    """
    if source.sig != target.sig:
        return Verdict.failed("signature-mismatch", ())
    if not isinstance(f, Mapping):
        return Verdict.failed("not-a-mapping", ())
    index, fidx = target.space._positions(), []
    for a in source.carrier:
        if a not in f:
            return Verdict.failed("undefined", (a,))
        try:
            fidx.append(index[f[a]])
        except (KeyError, TypeError):
            return Verdict.failed("value-outside-target", (a,))
    fidx = np.array(fidx, dtype=np.intp)
    verdict = _preserves(fidx, source, target)
    return Verdict.passed(fidx) if verdict else verdict


def _preserves(fidx: np.ndarray, source: MetricAlgebra, target: MetricAlgebra) -> Verdict:
    """Whether the map with target positions ``fidx`` preserves every
    operation and is nonexpansive, with the first witness of a failure."""
    for symbol in source.sig.symbols:
        bad = _first(fidx[source.tables[symbol]] != _on(target.tables[symbol], fidx))
        if bad is not None:
            return Verdict.failed("operation-not-preserved", (symbol, _ids(source.carrier, bad)))
    (X, Y), _ = _mirrors(source.space, target.space)
    bad = _first(Y[np.ix_(fidx, fidx)] > X)
    if bad is not None:
        return Verdict.failed("expansive", _ids(source.carrier, bad))
    return Verdict.passed()


class Homomorphism:
    """A validated nonexpansive, operation-preserving map.

    Stored once as ``fidx``, a read-only ``intp`` array: ``fidx[i]`` is the
    target position of the image of the source element at position ``i``.
    Carrier elements appear only at the edges, ``mapping`` and calls.
    """

    __slots__ = ("source", "target", "fidx")

    def __init__(self, source: MetricAlgebra, target: MetricAlgebra, mapping: Mapping):
        if isinstance(mapping, Mapping):
            for a in mapping:
                source.space.index(a)  # DomainError for a key outside the source carrier
        verdict = is_homomorphism(mapping, source, target)
        if not verdict:
            raise AxiomError(
                f"not a homomorphism: {verdict.reason} at {verdict.witness}", verdict
            )
        self.source, self.target, self.fidx = source, target, verdict.value
        self.fidx.flags.writeable = False

    @classmethod
    def _trusted(cls, source: MetricAlgebra, target: MetricAlgebra, fidx: np.ndarray):
        """A map that is a homomorphism by construction, such as a projection,
        on its target positions; nothing is checked, and ``fidx`` is not
        written afterwards."""
        out = object.__new__(cls)
        out.source, out.target, out.fidx = source, target, fidx
        fidx.flags.writeable = False
        return out

    @property
    def mapping(self) -> dict:
        """The map as a dict from source to target elements, built on each read."""
        return dict(zip(self.source.carrier, _ids(self.target.carrier, self.fidx.tolist())))

    def __call__(self, x) -> object:
        return self.target.carrier[self.fidx[self.source.space.index(x)]]

    @property
    def is_surjective(self) -> bool:
        return bool(np.bincount(self.fidx, minlength=self.target.space.size).all())

    @property
    def is_injective(self) -> bool:
        return bool(np.bincount(self.fidx).max() <= 1)

    @property
    def is_isometric(self) -> bool:
        (X, Y), _ = _mirrors(self.source.space, self.target.space)
        return bool(np.array_equal(X, Y[np.ix_(self.fidx, self.fidx)]))

    def then(self, other: "Homomorphism") -> "Homomorphism":
        if self.target is not other.source and self.target != other.source:
            raise DomainError("composition needs matching middle algebra")
        return Homomorphism._trusted(self.source, other.target, other.fidx[self.fidx])

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
    inclusion = Homomorphism._trusted(sub, algebra, idx)
    return sub, inclusion


def product(
    algebras: Sequence[MetricAlgebra], max_size: int = LIMIT_DEFAULTS["max_size"]
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
        over_cap(
            space.size ** sig.arity(symbol), 1_000_000, "table_size",
            f"product table for {symbol} would exceed {{cap}} entries",
        )
        factors = [_on(a.tables[symbol], c) for a, c in zip(algebras, coords)]
        tables[symbol] = np.ravel_multi_index(factors, sizes)
    prod = MetricAlgebra._trusted(sig, space, tables)
    projections = [Homomorphism._trusted(prod, a, c) for a, c in zip(algebras, coords)]
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
    reps = np.flatnonzero(qmap.rep == np.arange(len(qmap.rep)))
    position = np.searchsorted(reps, qmap.rep)
    tables = {s: position[_on(t, reps)] for s, t in algebra.tables.items()}
    quot = MetricAlgebra._trusted(algebra.sig, space, tables)
    return quot, Homomorphism._trusted(algebra, quot, position)


def kernel(f: Homomorphism) -> "Congruence":
    """ker(f)(a, b) = d(f(a), f(b)): the target metric pulled back along ``f``."""
    from .congruence import finest_congruence, pullback_congruence

    return pullback_congruence(f, finest_congruence(f.target))


def is_reflexive_quotient(p: Homomorphism, max_sections: int = 1_000_000) -> Verdict:
    """Search for an isometric section of a surjective homomorphism.

    Sections assign to each target element one of its preimages; they
    are enumerated lexicographically in target-carrier and preimage
    order, so the first witness found is deterministic.  The section
    must preserve distances exactly but need not preserve operations.
    """
    counts = np.bincount(p.fidx, minlength=p.target.space.size)
    if not counts.all():
        return Verdict.failed("not-surjective", ())
    over_cap(
        math.prod(counts.tolist()), max_sections, "max_sections",
        "section search space exceeds {cap}",
    )
    fibers = [np.flatnonzero(p.fidx == b).tolist() for b in range(len(counts))]
    (src, dst), _ = _mirrors(p.source.space, p.target.space)
    src, dst = src.tolist(), dst.tolist()
    for choice in itertools.product(*fibers):
        if all(src[i][j] == d for i, row in zip(choice, dst) for j, d in zip(choice, row)):
            return Verdict.passed(dict(zip(p.target.carrier, _ids(p.source.carrier, choice))))
    return Verdict.failed("no-isometric-section", ())

