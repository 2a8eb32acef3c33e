"""Finite metric algebras and structure-preserving maps between them.

A metric algebra is a finite metric space with total operation tables
over a signature.  Homomorphisms are required to preserve operations and
to be nonexpansive; both properties are validated when a
``Homomorphism`` is constructed.  Quantitativity (every operation
nonexpansive for the supremum metric on argument tuples) is a separate
check, not a construction invariant.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
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
    FiniteMetricSpace,
    QuotientMap,
    _along,
    _first,
    _ids,
    _inf_code,
    _mirrors,
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
    """A finite metric space with total operation tables."""

    __slots__ = ("sig", "space", "ops")

    def __init__(self, sig: Signature, space: FiniteMetricSpace, ops: Mapping):
        space = _validated(space, FiniteMetricSpace)
        normalized = {}
        for symbol, table in dict(ops).items():
            if symbol not in sig:
                raise SignatureError(f"table for unknown symbol {symbol!r}")
            if sig.arity(symbol) == 0 and not isinstance(table, Mapping):
                table = {(): table}
            normalized[symbol] = {tuple(k): v for k, v in dict(table).items()}
        self.sig = sig
        self.space = space
        self.ops = normalized
        verdict = validate_algebra(self)
        if not verdict:
            raise TableError(
                f"bad operation table: {verdict.reason} at {verdict.witness}"
            )

    @property
    def carrier(self) -> tuple:
        return self.space.carrier

    def apply(self, symbol: str, args: Sequence) -> object:
        args = tuple(args)
        if self.sig.arity(symbol) != len(args):
            raise SignatureError(
                f"{symbol} expects {self.sig.arity(symbol)} arguments, got {len(args)}"
            )
        try:
            return self.ops[symbol][args]
        except KeyError:
            raise DomainError(
                f"arguments {tuple(render_id(a) for a in args)} not in the carrier"
            ) from None

    def constant(self, symbol: str) -> object:
        return self.apply(symbol, ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricAlgebra):
            return NotImplemented
        return (
            self.sig == other.sig
            and self.space == other.space
            and self.ops == other.ops
        )

    def __repr__(self) -> str:
        return f"<MetricAlgebra |A|={self.space.size} sig={self.sig!r}>"


def index_tables(algebra: MetricAlgebra) -> dict[str, np.ndarray]:
    """Each operation as an ``intp`` array of shape ``(n,) * arity``.

    Entry ``[i1, ..., ik]`` is the carrier index of the operation's value
    on the elements at carrier indices ``i1, ..., ik``.
    """
    carrier = algebra.carrier
    index = {x: i for i, x in enumerate(carrier)}
    n = len(carrier)
    tables = {}
    for symbol, table in algebra.ops.items():
        arity = algebra.sig.arity(symbol)
        cells = itertools.product(carrier, repeat=arity)
        tables[symbol] = np.fromiter(
            (index[table[args]] for args in cells), dtype=np.intp, count=n**arity
        ).reshape((n,) * arity)
    return tables


def validate_algebra(algebra: MetricAlgebra) -> Verdict:
    """Check that every table is total over the carrier with in-carrier values."""
    carrier = set(algebra.space.carrier)
    for symbol in algebra.sig.symbols:
        if symbol not in algebra.ops:
            return Verdict.failed("missing-table", (symbol,))
    for symbol, table in algebra.ops.items():
        arity = algebra.sig.arity(symbol)
        expected = len(carrier) ** arity
        for args, value in table.items():
            if len(args) != arity or any(a not in carrier for a in args):
                return Verdict.failed("bad-arguments", (symbol, args))
            if value not in carrier:
                return Verdict.failed("value-outside-carrier", (symbol, args))
        if len(table) != expected:
            return Verdict.failed("partial-table", (symbol,))
    return Verdict.passed()


def is_quantitative(algebra: MetricAlgebra, max_checks: int = 1_000_000) -> Verdict:
    """Check every operation nonexpansive for the sup metric on tuples.

    The witness of a failure is ``(symbol, args, args2)`` for the first
    violating pair in the deterministic scan order.
    """
    return _modulus_scan(algebra, None, max_checks)


def _modulus_scan(algebra: MetricAlgebra, constants, max_checks=None) -> Verdict:
    """First argument pair an operation stretches beyond its modulus.

    Checks d(op(a), op(b)) <= K_op * max_i d(a_i, b_i) symbol by symbol in
    signature order, over argument tuples in carrier order; the witness is
    ``(symbol, a, b)``.  ``constants`` maps symbols to K_op, and ``None``
    means K = 1: the quantitativity check.
    """
    space, checks = algebra.space, 0
    dist, inf = space.D.tolist(), _inf_code(space.D)
    reason = "expansive-operation" if constants is None else "not-lipschitz"
    for symbol in algebra.sig.symbols:
        arity = algebra.sig.arity(symbol)
        if arity == 0:
            continue
        if constants is not None and symbol not in constants:
            raise SignatureError(f"no Lipschitz constant for symbol {symbol!r}")
        k = Fraction(1 if constants is None else constants[symbol])
        if k <= 0:
            raise DomainError(f"Lipschitz constant for {symbol} must be positive")
        tuples = list(itertools.product(space.carrier, repeat=arity))
        checks += len(tuples) ** 2
        if max_checks is not None and checks > max_checks:
            raise ResourceLimitError(
                f"quantitativity scan exceeds {max_checks} pairs", "max_checks", max_checks
            )
        table = algebra.ops[symbol]
        scan = [(t, [space.index(x) for x in t], space.index(table[t])) for t in tuples]
        for a, a_pos, a_img in scan:
            for b, b_pos, b_img in scan:
                # d(op(a), op(b)) > K * spread, on the codes.
                spread = max(dist[i][j] for i, j in zip(a_pos, b_pos))
                image = dist[a_img][b_img]
                if spread < inf and (image >= inf or image * k.denominator > spread * k.numerator):
                    return Verdict.failed(reason, (symbol, a, b))
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
    src_tables, tgt_tables = index_tables(source), index_tables(target)
    for symbol in source.sig.symbols:
        table = src_tables[symbol]
        mapped = tgt_tables[symbol][np.ix_(*[fidx] * table.ndim)]
        bad = _first(fidx[table] != mapped)
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
        return Homomorphism(
            self.source, other.target, {a: other(self(a)) for a in self.source.carrier}
        )

    def __repr__(self) -> str:
        return f"<Homomorphism {self.source.space.size} -> {self.target.space.size}>"


def generate_subalgebra(
    algebra: MetricAlgebra, seed: Iterable
) -> tuple[MetricAlgebra, Homomorphism]:
    """Smallest subalgebra containing ``seed``, with its inclusion map.

    The carrier is closed under every operation by a worklist pass;
    constants always join the closure.  The carrier order of the result
    follows the base algebra.
    """
    closure = set()
    frontier = list(dict.fromkeys(seed))
    for x in frontier:
        algebra.space.index(x)
    for symbol in algebra.sig.symbols:
        if algebra.sig.arity(symbol) == 0:
            frontier.append(algebra.constant(symbol))
    if not frontier:
        raise DomainError("subalgebra seed is empty and the signature has no constants")
    while frontier:
        x = frontier.pop()
        if x in closure:
            continue
        closure.add(x)
        for symbol in algebra.sig.symbols:
            arity = algebra.sig.arity(symbol)
            if arity == 0:
                continue
            for args in itertools.product(sorted(closure, key=algebra.space.index), repeat=arity):
                value = algebra.apply(symbol, args)
                if value not in closure:
                    frontier.append(value)
    sub_space = restrict_space(algebra.space, closure)
    ops = {}
    for symbol in algebra.sig.symbols:
        arity = algebra.sig.arity(symbol)
        ops[symbol] = {
            args: algebra.apply(symbol, args)
            for args in itertools.product(sub_space.carrier, repeat=arity)
        }
    sub = MetricAlgebra(algebra.sig, sub_space, ops)
    inclusion = Homomorphism(sub, algebra, {x: x for x in sub_space.carrier})
    return sub, inclusion


def product(
    algebras: Sequence[MetricAlgebra], max_size: int = 4096
) -> tuple[MetricAlgebra, list[Homomorphism]]:
    """Componentwise product with the supremum metric and projections."""
    if not algebras:
        raise DomainError("product of zero algebras is not defined")
    sig = algebras[0].sig
    for a in algebras[1:]:
        if a.sig != sig:
            raise SignatureError("product factors must share one signature")
    space = sup_product([a.space for a in algebras], max_size=max_size)
    ops = {}
    for symbol in sig.symbols:
        arity = sig.arity(symbol)
        if len(space.carrier) ** arity > 1_000_000:
            raise ResourceLimitError(
                f"product table for {symbol} would exceed 1000000 entries",
                "table_size",
                1_000_000,
            )
        table = {}
        for args in itertools.product(space.carrier, repeat=arity):
            value = tuple(
                a.apply(symbol, tuple(arg[i] for arg in args))
                for i, a in enumerate(algebras)
            )
            table[args] = value
        ops[symbol] = table
    prod = MetricAlgebra(sig, space, ops)
    projections = [
        Homomorphism(prod, a, {p: p[i] for p in space.carrier})
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
    ops = {}
    for symbol in algebra.sig.symbols:
        arity = algebra.sig.arity(symbol)
        table = {}
        for args in itertools.product(space.carrier, repeat=arity):
            table[args] = qmap.class_of(algebra.apply(symbol, args))
        ops[symbol] = table
    quot = MetricAlgebra(algebra.sig, space, ops)
    projection = Homomorphism(
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
    """Rename carrier elements along a bijection; structure is transported."""
    carrier = algebra.carrier
    if set(mapping) != set(carrier) or len(set(mapping.values())) != len(carrier):
        raise DomainError("relabeling must be a bijection on the carrier")
    new_carrier = [mapping[x] for x in carrier]
    space = FiniteMetricSpace._trusted(new_carrier, algebra.space.D, algebra.space.denom)
    ops = {}
    for symbol, table in algebra.ops.items():
        ops[symbol] = {
            tuple(mapping[x] for x in args): mapping[value]
            for args, value in table.items()
        }
    return MetricAlgebra(algebra.sig, space, ops)
