"""Formulas over metric algebras and the reasoning tools built on them.

Formulas come in three shapes.  A metric equation ``s =[e] t`` asserts
that the distance between the values of two terms is at most ``e``.  A
metric implication chains premise equations to a conclusion equation; it
is *basic* when every premise compares two variables.  A metric
inequality applies an exact arithmetic expression (sums, differences,
products, maxima, minima, squares, rational constants) to distance
atoms ``d(s, t)`` and compares the result with zero.

Satisfaction is decided by checking every valuation, which is complete on
finite algebras.  The terms are compiled to index arrays over the
operation tables and the valuations are checked a chunk at a time in a
deterministic order (variables sorted by name, carrier order per
variable), so reported countermodels are always the lexicographically
least ones.  Equations, implications and inequalities share this scan;
inequalities are evaluated exactly on each chunk, as Python-int
numerators over a common scale.  Entailment is relative to an explicit
finite list of algebras, and every verdict names its sample.

A presentation packages generators, relation equations, a closure mode,
and a term depth.  Its free algebra is the depth-bounded term universe
modulo the largest pseudometric satisfying the relations and the mode's
closure rule.  Relations constrain the generators themselves, so they
are instantiated at their literal terms; adding substitution instances
would be unsound in mode M, where nothing links an operation's output
distance to its input distances.  Distances computed this way never
undershoot the true free-algebra distances, and they can only shrink as
the depth grows.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    MetricAlgebra,
    _modulus_scan,
    generate_subalgebra,
    is_reflexive_quotient,
    mode_constants,
    product,
    quotient,
)
from .congruence import (
    _start_matrix,
    closure_fixpoint,
    coarsest_congruence,
    finest_congruence,
    grid_congruences,
)
from .errors import (
    LIMIT_DEFAULTS,
    AxiomError,
    DomainError,
    ResourceLimitError,
    SignatureError,
    UnsupportedInputError,
    Verdict,
    checked_count,
    over_cap,
)
from .extmetric import (
    INF,
    ZERO,
    ExtRat,
    _first,
    _inf_code,
    _mirrors,
    checked_value,
    metric_identification,
    render_id,
    within,
)
from .terms import (
    App,
    Signature,
    Term,
    TokenStream,
    Var,
    _term_universe,
    check_term,
    evaluate,
    read_term,
)


# ---------------------------------------------------------------------------
# Formula types


@dataclass(frozen=True)
class MetricEquation:
    """The formula ``lhs =[bound] rhs``."""

    lhs: Term
    rhs: Term
    bound: ExtRat

    def __post_init__(self):
        object.__setattr__(self, "bound", checked_value(ExtRat, self.bound, "equation bound"))
        for side in (self.lhs, self.rhs):
            if not isinstance(side, Term):
                raise DomainError(f"{side!r} is not a term")

    def variables(self) -> frozenset:
        return self.lhs.variables() | self.rhs.variables()

    def __str__(self):
        return f"{self.lhs} =[{self.bound}] {self.rhs}"


@dataclass(frozen=True)
class MetricImplication:
    """Premise equations joined to a conclusion equation."""

    premises: tuple
    conclusion: MetricEquation

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))
        for p in self.premises:
            if not isinstance(p, MetricEquation):
                raise DomainError(f"premise {p!r} is not a metric equation")
        if not isinstance(self.conclusion, MetricEquation):
            raise DomainError("the conclusion must be a metric equation")

    @property
    def is_basic(self) -> bool:
        """True when every premise compares two variables."""
        return all(
            isinstance(p.lhs, Var) and isinstance(p.rhs, Var) for p in self.premises
        )

    def variables(self) -> frozenset:
        out = self.conclusion.variables()
        for p in self.premises:
            out |= p.variables()
        return out

    def __str__(self):
        if not self.premises:
            return str(self.conclusion)
        return " , ".join(str(p) for p in self.premises) + f" |- {self.conclusion}"


def as_implication(formula) -> MetricImplication:
    """View a bare equation as a premise-free implication."""
    if isinstance(formula, MetricImplication):
        return formula
    if isinstance(formula, MetricEquation):
        return MetricImplication((), formula)
    raise DomainError(f"{formula!r} is not a formula")


# ---------------------------------------------------------------------------
# Inequality expressions


class IneqExpr:
    """Base class for exact expression trees over distance atoms.

    ``atoms()`` lists the tree's distance atoms, left to right, and
    ``columns(atoms, size)`` evaluates it on ``size`` valuations at once
    as a pair ``(numerators, scale)``: an object column of Python ints and
    a positive int, the values being ``numerators / scale``.  The mapping
    ``atoms`` gives each distance atom its values in that form.
    """

    def variables(self) -> frozenset:
        return frozenset().union(*(a.lhs.variables() | a.rhs.variables() for a in self.atoms()))


@dataclass(frozen=True)
class Const(IneqExpr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))

    def columns(self, atoms, size):
        return np.full(size, self.value.numerator, dtype=object), self.value.denominator

    def atoms(self):
        return ()

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class DistAtom(IneqExpr):
    lhs: Term
    rhs: Term

    def columns(self, atoms, size):
        return atoms[self]

    def atoms(self):
        return (self,)

    def __str__(self):
        return f"d({self.lhs}, {self.rhs})"


@dataclass(frozen=True)
class _BinOp(IneqExpr):
    left: IneqExpr
    right: IneqExpr

    symbol = ""

    def columns(self, atoms, size):
        """Both sides brought to the lcm of their scales, then combined."""
        a, s = self.left.columns(atoms, size)
        b, t = self.right.columns(atoms, size)
        scale = math.lcm(s, t)
        return self._op(a * (scale // s), b * (scale // t)), scale

    def atoms(self):
        return self.left.atoms() + self.right.atoms()

    def __str__(self):
        return f"({self.left} {self.symbol} {self.right})"


class Add(_BinOp):
    symbol = "+"
    _op = operator.add


class Sub(_BinOp):
    symbol = "-"
    _op = operator.sub


class Mul(_BinOp):
    symbol = "*"

    def columns(self, atoms, size):
        a, s = self.left.columns(atoms, size)
        b, t = self.right.columns(atoms, size)
        return a * b, s * t


class Max(_BinOp):
    symbol = "max"
    _op = np.maximum


class Min(_BinOp):
    symbol = "min"
    _op = np.minimum


@dataclass(frozen=True)
class Square(IneqExpr):
    inner: IneqExpr

    def columns(self, atoms, size):
        v, s = self.inner.columns(atoms, size)
        return v * v, s * s

    def atoms(self):
        return self.inner.atoms()

    def __str__(self):
        return f"{self.inner}^2"


_RELATIONS = (">=", "<=", "=")


@dataclass(frozen=True)
class MetricInequality:
    """An expression compared with zero: ``expr >= 0``, ``<= 0``, or ``= 0``."""

    expr: IneqExpr
    relation: str

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise DomainError(f"relation must be one of {_RELATIONS}")
        if not isinstance(self.expr, IneqExpr):
            raise DomainError(f"{self.expr!r} is not an inequality expression")

    def holds(self, value):
        """The comparison with zero, of one value or elementwise over an array."""
        if self.relation == ">=":
            return value >= 0
        if self.relation == "<=":
            return value <= 0
        return value == 0

    def variables(self) -> frozenset:
        return self.expr.variables()

    def __str__(self):
        return f"{self.expr} {self.relation} 0"


# ---------------------------------------------------------------------------
# Satisfaction


# Valuations a compiled scan checks at once; bounds its index arrays' memory.
_CHUNK = 1 << 13


def _program(sides, names):
    """Slots for the variables, then for every distinct application.

    Slot ``i < len(names)`` is the variable ``names[i]``; each later slot
    is an application ``(symbol, arg_slots)`` whose arguments come
    earlier.  Returns the applications and the slots of each side's
    ``lhs`` and ``rhs``.
    """
    slots = {name: pos for pos, name in enumerate(names)}
    apps = []

    def slot(term):
        if isinstance(term, Var):
            return slots[term.name]
        key = (term.symbol, tuple(slot(a) for a in term.args))
        if key not in slots:
            slots[key] = len(names) + len(apps)
            apps.append(key)
        return slots[key]

    return apps, [(slot(s.lhs), slot(s.rhs)) for s in sides]


def _grid_scan(algebra: MetricAlgebra, names, sides, max_valuations):
    """The scan of every valuation of ``names`` for the terms ``lhs`` and
    ``rhs`` of ``sides`` (equations or distance atoms).

    The cap and every term against the algebra's signature are checked,
    and the terms compiled, before this returns.  The scan walks the grid
    in chunks of ``_CHUNK`` in C order, the last variable varying fastest
    (``itertools.product`` order), and calls ``flag(cells, size)`` on
    each: ``cells`` holds each side's carrier positions of ``lhs`` and
    ``rhs`` under ``size`` valuations, and ``flag`` returns a boolean
    column.  It returns the first flagged valuation as a dict, or None.
    """
    total = len(algebra.carrier) ** len(names)
    over_cap(total, max_valuations, "max_valuations", "{count} valuations exceed the cap {cap}")
    for s in sides:
        check_term(s.lhs, algebra.sig)
        check_term(s.rhs, algebra.sig)
    apps, pairs = _program(sides, names)
    n = len(algebra.carrier)

    def scan(flag):
        for start in range(0, total, _CHUNK):
            rest = np.arange(start, min(start + _CHUNK, total))
            values = [None] * len(names)
            for pos in reversed(range(len(names))):
                rest, values[pos] = np.divmod(rest, n)
            for symbol, args in apps:
                values.append(algebra.tables[symbol][tuple(values[a] for a in args)])
            bad = flag([(values[lhs], values[rhs]) for lhs, rhs in pairs], len(rest))
            if bad.any():
                at = np.unravel_index(start + int(np.argmax(bad)), (n,) * len(names))
                return {name: algebra.carrier[i] for name, i in zip(names, at)}
        return None

    return scan


def _countermodel(algebra: MetricAlgebra, names, premises, conclusion, max_valuations):
    """The least valuation where the premises hold and the conclusion fails, or None."""
    equations = (*premises, conclusion)
    scan = _grid_scan(algebra, names, equations, max_valuations)
    near = [within(algebra.space, e.bound) for e in equations]

    def flag(cells, size):
        bad = ~near[-1][cells[-1]]
        for w, cell in zip(near, cells[:-1]):
            bad = bad & w[cell]
        return bad

    return scan(flag)


def satisfies_under(algebra: MetricAlgebra, valuation, e: MetricEquation) -> bool:
    """Whether one valuation satisfies one metric equation, exactly."""
    a = evaluate(e.lhs, algebra, valuation)
    b = evaluate(e.rhs, algebra, valuation)
    return algebra.space.get(a, b) <= e.bound


def satisfies(
    algebra: MetricAlgebra, formula, max_valuations=LIMIT_DEFAULTS["max_valuations"]
) -> Verdict:
    """Whether every valuation satisfies the formula.

    Valuations assign carrier points to the formula's variables, sorted
    by name.  They are checked a chunk at a time on index arrays, in
    the order of ``itertools.product`` over the carrier, so a failure
    carries the lexicographically least countermodel valuation.  The
    valuation cap and the formula's terms against the algebra's
    signature are checked before the scan.
    """
    phi = as_implication(formula)
    names = sorted(phi.variables())
    found = _countermodel(algebra, names, phi.premises, phi.conclusion, max_valuations)
    if found is None:
        return Verdict.passed()
    return Verdict.failed("countermodel", tuple(found.items()), found)


def entails(
    algebras: Sequence[MetricAlgebra],
    delta: Sequence[MetricEquation],
    e: MetricEquation,
    max_valuations=LIMIT_DEFAULTS["max_valuations"],
) -> Verdict:
    """Entailment over an explicit finite list of algebras.

    Checks that every valuation satisfying all of ``delta`` in any of
    the listed algebras also satisfies ``e``, one algebra after the other
    with the chunked scan of ``satisfies``.  The passing verdict records
    the sample size; failures name the first failing algebra's index and
    its least countermodel valuation.
    """
    algebras, delta = list(algebras), tuple(delta)
    variables = set(e.variables())
    for d in delta:
        variables |= d.variables()
    names = sorted(variables)
    for pos, algebra in enumerate(algebras):
        found = _countermodel(algebra, names, delta, e, max_valuations)
        if found is not None:
            return Verdict.failed(
                "countermodel",
                (pos, tuple(found.items())),
                {"algebra": pos, "valuation": found},
            )
    return Verdict.passed(len(algebras))


def satisfies_inequality(
    algebra: MetricAlgebra, q: MetricInequality, max_valuations=LIMIT_DEFAULTS["max_valuations"]
) -> Verdict:
    """Whether the inequality holds under every valuation.

    Checked and scanned as in ``satisfies``, the expression evaluated
    exactly on each chunk.  The first valuation that fails, or that makes
    a distance atom infinite, stops the scan: a failure carries it as the
    least countermodel, and an infinite atom raises
    ``UnsupportedInputError`` naming the first such atom, left to right.
    """
    atoms = tuple(dict.fromkeys(q.expr.atoms()))
    names = sorted(q.variables())
    scan = _grid_scan(algebra, names, atoms, max_valuations)
    D, denom = algebra.space.D, algebra.space.denom
    top = _inf_code(D)

    def flag(cells, size):
        codes = [np.broadcast_to(D[cell], size) for cell in cells]
        infinite = [c >= top for c in codes]
        # Infinite codes read 0 in the arithmetic; their valuations raise below.
        columns = {
            atom: (np.where(inf, 0, c).astype(object, copy=False), denom)
            for atom, c, inf in zip(atoms, codes, infinite)
        }
        bad = ~q.holds(q.expr.columns(columns, size)[0])
        for inf in infinite:
            bad |= inf
        if bad.any():
            at = int(np.argmax(bad))
            for atom, inf in zip(atoms, infinite):
                if inf[at]:
                    raise UnsupportedInputError(
                        f"{atom} is infinite; expression arithmetic needs finite distances"
                    )
        return bad

    found = scan(flag)
    if found is None:
        return Verdict.passed()
    return Verdict.failed("countermodel", tuple(found.items()), found)


# ---------------------------------------------------------------------------
# Presentations and free algebras


class Presentation:
    """Generators, relations, a closure mode, and a term depth.

    ``lipschitz`` holds the ``algebra.mode_constants`` of the mode: a
    positive ``Fraction`` per operation of positive arity in LIP, else None.
    """

    __slots__ = ("sig", "variables", "relations", "mode", "lipschitz", "depth")

    def __init__(self, sig: Signature, variables, relations, mode="M", depth=1, lipschitz=None):
        self.sig = sig
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise DomainError("generator names must be distinct")
        self.relations = tuple(relations)
        names = set(self.variables)
        for r in self.relations:
            if not isinstance(r, MetricEquation):
                raise DomainError(f"relation {r!r} is not a metric equation")
            for side in (r.lhs, r.rhs):
                check_term(side, sig)
            stray = r.variables() - names
            if stray:
                raise DomainError(
                    f"relation {r} mentions unknown generators {sorted(stray)}"
                )
        self.lipschitz = mode_constants(mode, lipschitz, [s for s, a in sig.items() if a])
        self.mode = mode
        self.depth = checked_count(depth, "depth")

    def __repr__(self):
        return (
            f"Presentation(variables={self.variables!r}, "
            f"relations={len(self.relations)}, mode={self.mode!r}, depth={self.depth})"
        )


class FreeAlgebra:
    """Depth-bounded term universe with the generated pseudometric.

    The carrier is every term up to the presentation's depth; the
    pseudometric is the largest one satisfying the relations and the
    mode's closure rule.  Because operations on a truncated universe
    cannot be total (applying them once more exceeds the depth), the
    operation tables are partial; ``apply`` works on class
    representatives whenever the result stays within the universe.  A
    class is read off the term's row of ``theta``'s mirror, so ``eta``,
    ``class_of`` and ``apply`` build no quotient; ``space`` is built once,
    on first use.
    """

    def __init__(self, presentation: Presentation, universe, theta):
        self.presentation = presentation
        self.universe = tuple(universe)
        if tuple(theta.carrier) != self.universe:
            raise DomainError("the pseudometric does not live on the term universe")
        self.theta = theta

    @cached_property
    def space(self):
        """Metric space on class representatives (built on first use)."""
        return metric_identification(self.theta)[0]

    def class_of(self, term: Term) -> Term:
        """Representative of a term's zero-distance class: the first term
        at distance zero from it, as in ``space``."""
        try:
            row = self.theta.D[self.theta._positions()[term]]
        except (KeyError, TypeError):
            raise DomainError(f"element {render_id(term)} is not in the source carrier") from None
        return self.universe[int((row == 0).argmax())]

    def eta(self, name: str) -> Term:
        """The unit map: a generator's class representative."""
        if name not in self.presentation.variables:
            raise DomainError(f"{name!r} is not a generator")
        return self.class_of(Var(name))

    def distance(self, s: Term, t: Term) -> ExtRat:
        """Computed free distance between two universe terms."""
        return self.theta.get(s, t)

    def apply(self, symbol: str, args) -> Term:
        """Apply an operation to class representatives when possible."""
        arity = self.presentation.sig.arity(symbol)
        args = tuple(args)
        if len(args) != arity:
            raise SignatureError(f"{symbol} expects {arity} arguments, got {len(args)}")
        candidate = App(symbol, args)
        if candidate not in self.theta._positions():
            raise DomainError(
                f"{candidate} falls outside the depth-{self.presentation.depth} universe"
            )
        return self.class_of(candidate)

    @property
    def size(self) -> int:
        return len(self.universe)

    def __repr__(self):
        return f"<FreeAlgebra on {len(self.universe)} terms>"


def free_algebra(
    p: Presentation,
    max_terms: int = LIMIT_DEFAULTS["max_terms"],
    max_decreases: int = LIMIT_DEFAULTS["max_decreases"],
) -> FreeAlgebra:
    """Free algebra of a presentation on the depth-bounded term universe.

    Relations whose terms exceed the depth are rejected rather than
    silently dropped, so the result always satisfies every relation
    (checked before returning).  Distances are exact upper bounds for
    the unbounded free algebra and can only shrink at greater depth.
    """
    universe, position, rules = _term_universe(p.sig, p.variables, p.depth, max_terms)
    pairs = []
    for r in p.relations:
        i, j = position(r.lhs), position(r.rhs)
        if i < 0 or j < 0:
            raise UnsupportedInputError(
                f"relation term {r.lhs if i < 0 else r.rhs} exceeds depth {p.depth}; "
                f"raise the presentation depth"
            )
        pairs.append((i, j, r.bound))
    D, denom, label = _start_matrix(len(universe), pairs)
    theta = closure_fixpoint(universe, rules, D, denom, label, p.mode, p.lipschitz, max_decreases)
    free = FreeAlgebra(p, universe, theta)
    for r, (i, j, _) in zip(p.relations, pairs):
        if not theta.at(i, j) <= r.bound:
            verdict = Verdict.failed("relation", (r.lhs, r.rhs))
            raise AxiomError(f"the free algebra breaks its relation {r}", verdict)
    return free


def in_mode_class(algebra: MetricAlgebra, mode: str, lipschitz=None) -> Verdict:
    """Whether an algebra belongs to the class a mode quantifies over.

    Mode M admits every metric algebra: equal arguments give equal
    results, which is all the zero-propagation rule asks on a metric
    space.  Mode Q requires nonexpansive operations, and mode LIP
    requires each operation to satisfy its Lipschitz bound.  The Q and LIP
    scans share ``is_quantitative``'s cap on argument pairs.
    """
    constants = mode_constants(mode, lipschitz, [s for s, t in algebra.tables.items() if t.ndim])
    if mode == "M":
        return Verdict.passed()
    return _modulus_scan(algebra, constants)


def soundness_check(
    free: FreeAlgebra, samples: Sequence[MetricAlgebra], trials: int = 20, seed: int = 0
) -> Verdict:
    """Certify computed free distances against sample models.

    Whenever the computed distance between two universe terms is some
    finite ``e``, the relations must entail ``s =[e] t`` over any sample
    algebras from the mode's class: samples can witness that a computed
    distance is too small, never that it is too large.  Checks the
    relation and generator pairs, then randomly chosen pairs.
    """
    p = free.presentation
    delta = p.relations
    pairs = [(r.lhs, r.rhs) for r in delta]
    for a, b in itertools.combinations(p.variables, 2):
        pairs.append((Var(a), Var(b)))
    rng = random.Random(seed)
    for _ in range(trials):
        pairs.append((rng.choice(free.universe), rng.choice(free.universe)))
    checked = 0
    for s, t in pairs:
        eps = free.distance(s, t)
        if eps.is_infinite:
            continue
        verdict = entails(samples, delta, MetricEquation(s, t, eps))
        checked += 1
        if not verdict:
            return Verdict.failed(
                "unsound-distance", (s, t, eps), verdict.value
            )
    return Verdict.passed(checked)


def check_soundness_of_free(
    p: Presentation, samples: Sequence[MetricAlgebra], trials: int = 20, seed: int = 0
) -> Verdict:
    """Build the free algebra and certify it against sample models."""
    for pos, sample in enumerate(samples):
        verdict = in_mode_class(sample, p.mode, p.lipschitz)
        if not verdict:
            raise DomainError(
                f"sample {pos} is outside the mode-{p.mode} class: {verdict.reason} "
                f"at {verdict.witness}"
            )
    return soundness_check(free_algebra(p), samples, trials, seed)


def factoring_map(free: FreeAlgebra, algebra: MetricAlgebra, valuation) -> Verdict:
    """The induced map from the free algebra into a model.

    For an algebra in the presentation's mode class and a valuation
    satisfying the relations, evaluation factors through the quotient:
    the map on class representatives is nonexpansive, hence well defined,
    and it preserves every in-universe operation application because
    evaluation computes each value from those of the arguments.  The
    passing verdict carries the mapping.
    """
    p = free.presentation
    verdict = in_mode_class(algebra, p.mode, p.lipschitz)
    if not verdict:
        raise DomainError(
            f"the algebra is outside the mode-{p.mode} class: {verdict.reason}"
        )
    for r in p.relations:
        if not satisfies_under(algebra, valuation, r):
            raise DomainError(f"the valuation does not satisfy the relation {r}")
    values = {t: evaluate(t, algebra, valuation) for t in free.universe}
    at = [algebra.space.index(values[t]) for t in free.universe]
    (A, F), _ = _mirrors(algebra.space, free.theta)
    bad = _first(np.triu(A[np.ix_(at, at)] > F, 1))
    if bad is not None:
        return Verdict.failed("not-nonexpansive", tuple(free.universe[i] for i in bad))
    # Terms of one class are at free distance 0, so at model distance 0
    # once the check above passes: the map is well defined.
    return Verdict.passed({free.class_of(t): values[t] for t in free.universe})


# ---------------------------------------------------------------------------
# Weak compactness, equicontinuity, continuous families


def weak_compactness_search(
    algebras: Sequence[MetricAlgebra],
    delta: Sequence[MetricEquation],
    e: MetricEquation,
    slack,
    max_valuations=LIMIT_DEFAULTS["max_valuations"],
) -> Verdict:
    """Smallest subset of the premises entailing the slack-relaxed goal.

    Searches subsets in increasing size (then in positional order), so
    the witness is minimal; the relaxed bound may not undershoot the
    goal's own bound.  The exhaustion verdict carries the countermodel
    found for the full premise set.
    """
    delta = tuple(delta)
    slack = checked_value(ExtRat, slack, "slack")
    if slack < e.bound:
        raise DomainError("the relaxed bound cannot undershoot the goal bound")
    over_cap(len(delta), 20, "subset_search", "subset search over {count} premises is out of reach")
    relaxed = MetricEquation(e.lhs, e.rhs, slack)
    algebras = list(algebras)
    for size in range(len(delta) + 1):
        for combo in itertools.combinations(range(len(delta)), size):
            subset = tuple(delta[i] for i in combo)
            if entails(algebras, subset, relaxed, max_valuations):
                return Verdict.passed(combo)
    full = entails(algebras, delta, relaxed, max_valuations)
    return Verdict.failed("not-entailed-by-full-set", (), full.value)


def equicontinuity_check(
    algebras: Sequence[MetricAlgebra],
    formula,
    eps_prime,
    delta_grid,
    max_valuations=LIMIT_DEFAULTS["max_valuations"],
) -> Verdict:
    """Largest grid delta making the relaxed implication hold everywhere.

    Premises are loosened by delta and the conclusion bound is replaced
    with ``eps_prime``, which must strictly exceed the original bound.
    Larger deltas fire more premises, so working deltas form a downward
    closed set and the grid is scanned from the largest down; the first
    success is returned.
    """
    phi = as_implication(formula)
    eps_prime = checked_value(ExtRat, eps_prime, "eps_prime")
    if not eps_prime > phi.conclusion.bound:
        raise DomainError("eps_prime must strictly exceed the conclusion bound")
    grid = sorted({checked_value(ExtRat, d, "grid delta") for d in delta_grid}, reverse=True)
    if not grid:
        raise DomainError("the delta grid must be nonempty")
    if grid[-1] == ZERO:
        raise DomainError("grid deltas must be positive")
    if grid[0].is_infinite:
        raise DomainError("grid deltas must be finite")
    goal = MetricEquation(phi.conclusion.lhs, phi.conclusion.rhs, eps_prime)
    algebras = list(algebras)
    last = None
    for delta in grid:
        relaxed = MetricImplication(
            tuple(
                MetricEquation(p.lhs, p.rhs, p.bound + delta) for p in phi.premises
            ),
            goal,
        )
        countermodel = None
        for algebra in algebras:
            verdict = satisfies(algebra, relaxed, max_valuations)
            if not verdict:
                countermodel = (delta, verdict.witness)
                break
        if countermodel is None:
            return Verdict.passed(delta)
        last = countermodel
    return Verdict.failed("no-grid-delta-works", last or ())


def _schema_for(symbol: str, arity: int, phi: MetricImplication) -> bool:
    """Whether phi is the congruence schema for the symbol."""
    c = phi.conclusion
    if c.bound != ZERO:
        return False
    if not (isinstance(c.lhs, App) and isinstance(c.rhs, App)):
        return False
    if c.lhs.symbol != symbol or c.rhs.symbol != symbol:
        return False
    left = c.lhs.args
    right = c.rhs.args
    if len(left) != arity or len(right) != arity:
        return False
    names = []
    for v in left + right:
        if not isinstance(v, Var):
            return False
        names.append(v.name)
    if len(set(names)) != 2 * arity:
        return False
    wanted = {
        frozenset((left[i].name, right[i].name)) for i in range(arity)
    }
    seen = set()
    for p in phi.premises:
        if p.bound != ZERO:
            return False
        if not (isinstance(p.lhs, Var) and isinstance(p.rhs, Var)):
            return False
        seen.add(frozenset((p.lhs.name, p.rhs.name)))
    return seen == wanted


def _relaxation_of(phi: MetricImplication, psi: MetricImplication, eps_prime) -> bool:
    """Whether psi is phi with premises shifted by one common delta and
    the conclusion bound replaced by eps_prime."""
    if psi.conclusion.lhs != phi.conclusion.lhs:
        return False
    if psi.conclusion.rhs != phi.conclusion.rhs:
        return False
    if psi.conclusion.bound != eps_prime:
        return False
    if len(psi.premises) != len(phi.premises):
        return False
    if not phi.premises:
        return True

    def key(p):
        return (p.lhs.sort_key(), p.rhs.sort_key())

    ours = sorted(phi.premises, key=key)
    theirs = sorted(psi.premises, key=key)
    shift = None
    for p, q in zip(ours, theirs):
        if (p.lhs, p.rhs) != (q.lhs, q.rhs):
            return False
        if q.bound < p.bound:
            return False
        if p.bound.is_infinite:
            continue
        if q.bound.is_infinite:
            return False
        gap = ExtRat(q.bound.finite - p.bound.finite)
        if shift is None:
            shift = gap
        elif shift != gap:
            return False
    return True


def is_continuous_family(
    family: Sequence[MetricImplication],
    sig: Signature,
    probes: Sequence[Sequence],
) -> Verdict:
    """Probe-relative continuity check for a family of implications.

    Condition (a): the zero-bound congruence schema for every operation
    symbol appears in the family.  Condition (b): for each member and
    each probed bound above its conclusion bound, the family contains
    the member's relaxed form: same terms, premises shifted by one
    common nonnegative delta, conclusion bound exactly the probe.  A
    finite family can only witness finitely many probes, so the verdict
    is relative to the probe list.
    """
    family = [as_implication(phi) for phi in family]
    if len(probes) != len(family):
        raise DomainError("probes must align with the family, one list per member")
    for symbol in sig.symbols:
        arity = sig.arity(symbol)
        if not any(_schema_for(symbol, arity, phi) for phi in family):
            return Verdict.failed("missing-congruence-schema", (symbol,))
    checked = 0
    for pos, (phi, eps_list) in enumerate(zip(family, probes)):
        for eps_prime in eps_list:
            eps_prime = checked_value(ExtRat, eps_prime, "probe")
            if not eps_prime > phi.conclusion.bound:
                raise DomainError(
                    f"probe {eps_prime} does not exceed the conclusion bound "
                    f"of member {pos}"
                )
            if not any(_relaxation_of(phi, psi, eps_prime) for psi in family):
                return Verdict.failed("missing-relaxation", (pos, eps_prime))
            checked += 1
    return Verdict.passed(checked)


# ---------------------------------------------------------------------------
# Closure suite


@dataclass
class ClosureRecord:
    """One preservation check inside a closure suite run."""

    construction: str
    source: str
    ok: bool
    expected: bool
    witness: tuple = ()


@dataclass
class ClosureReport:
    """Outcome of a closure suite: records plus failure views."""

    records: list = field(default_factory=list)

    @property
    def unexpected_failures(self):
        return [r for r in self.records if not r.ok and r.expected]

    @property
    def expected_failures(self):
        return [r for r in self.records if not r.ok and not r.expected]

    def summary(self) -> str:
        bad = len(self.unexpected_failures)
        noted = len(self.expected_failures)
        return (
            f"{len(self.records)} checks, {bad} unexpected failures, "
            f"{noted} expected failures"
        )


def _congruence_family(algebra, values=None, cap=4096):
    try:
        return grid_congruences(algebra, values=values, cap=cap)
    except ResourceLimitError:
        return [finest_congruence(algebra), coarsest_congruence(algebra)]


def closure_suite(
    formulas,
    instances: Sequence[MetricAlgebra],
    quotient_values: Sequence | None = None,
    max_product_size: int = 256,
    max_valuations: int = LIMIT_DEFAULTS["max_valuations"],
) -> ClosureReport:
    """Exercise class-closure properties of formula satisfaction.

    Instances satisfying every formula are combined into products and
    generated subalgebras, which must keep satisfying them.  When every
    formula is a bare equation, arbitrary congruence quotients must
    preserve them as well.  When implications are present (they must be
    basic), quotients are split by whether the projection admits an
    isometric section: reflexive quotients must preserve satisfaction,
    while failures under non-reflexive quotients are recorded as
    expected, documenting that the reflexivity hypothesis is needed.
    ``quotient_values`` widens the value grid the quotient congruences
    are drawn from.
    """
    max_product_size = checked_count(max_product_size, "max_product_size")
    formulas = list(formulas)
    implications = [f for f in formulas if isinstance(f, MetricImplication)]
    for phi in implications:
        if not phi.is_basic:
            raise DomainError(
                "closure arguments cover implications with variable premises only"
            )
    equations_only = not implications
    instances = list(instances)
    if instances:
        sig = instances[0].sig
        for a in instances[1:]:
            if a.sig != sig:
                raise DomainError("closure suite instances must share a signature")
    report = ClosureReport()

    def check_all(algebra):
        for f in formulas:
            verdict = satisfies(algebra, f, max_valuations)
            if not verdict:
                return verdict
        return Verdict.passed()

    def record(construction, source, verdict, expected=True):
        report.records.append(
            ClosureRecord(construction, source, verdict.ok, expected, verdict.witness)
        )

    sat = [
        (f"A{pos}", a) for pos, a in enumerate(instances) if check_all(a).ok
    ]
    for (name_a, a), (name_b, b) in itertools.combinations_with_replacement(sat, 2):
        if a.space.size * b.space.size <= max_product_size:
            record("product", f"{name_a} x {name_b}", check_all(product([a, b])[0]))
    for name, a in sat:
        for x in a.carrier:
            record("subalgebra", f"{name} from {x!r}", check_all(generate_subalgebra(a, [x])[0]))
    for name, a in sat:
        for pos, theta in enumerate(_congruence_family(a, quotient_values)):
            quot, projection = quotient(a, theta)
            verdict, source = check_all(quot), f"{name} / theta{pos}"
            if equations_only:
                record("quotient", source, verdict)
            elif is_reflexive_quotient(projection).ok:
                record("reflexive-quotient", source, verdict)
            else:
                record("non-reflexive-quotient", source, verdict, expected=False)
    return report


# ---------------------------------------------------------------------------
# Concrete syntax


def _read_bound(stream: TokenStream) -> ExtRat:
    token = stream.peek()
    if token[0] == "num":
        stream.next()
        return ExtRat(stream.fraction(token))
    if token[0] == "name" and token[1] == "inf":
        stream.next()
        return INF
    raise stream.expected("a bound", token)


def read_equation(stream: TokenStream, sig: Signature | None = None) -> MetricEquation:
    """Read ``s =[bound] t`` from the stream; bounds are rationals or ``inf``."""
    lhs = read_term(stream, sig)
    stream.expect("eqb")
    bound = _read_bound(stream)
    stream.expect("punct", "]")
    return MetricEquation(lhs, read_term(stream, sig), bound)


def read_formula(stream: TokenStream, sig: Signature | None = None):
    """Read an equation, or an implication written ``e1 , e2 |- e``."""
    premises = [read_equation(stream, sig)]
    while stream.at("punct", ","):
        stream.next()
        premises.append(read_equation(stream, sig))
    if stream.at("turnstile"):
        stream.next()
        return MetricImplication(tuple(premises), read_equation(stream, sig))
    if len(premises) > 1:
        raise stream.error("premise list needs a |- conclusion", stream.peek())
    return premises[0]


def _parse_whole(read, text: str, sig):
    stream = TokenStream(text)
    result = read(stream, sig)
    stream.finish("formula")
    return result


def parse_equation(text: str, sig: Signature | None = None) -> MetricEquation:
    """Parse ``s =[bound] t``; bounds are rationals or ``inf``."""
    return _parse_whole(read_equation, text, sig)


def parse_formula(text: str, sig: Signature | None = None):
    """Parse an equation, or an implication written ``e1 , e2 |- e``."""
    return _parse_whole(read_formula, text, sig)


def parse_implication(text: str, sig: Signature | None = None) -> MetricImplication:
    """Parse a formula and view it as an implication."""
    return as_implication(parse_formula(text, sig))


def _parse_primary(stream: TokenStream, sig) -> IneqExpr:
    token = stream.peek()
    if token[0] == "num":
        stream.next()
        return Const(stream.fraction(token))
    if stream.at("punct", "("):
        stream.next()
        inner = _parse_maxmin(stream, sig)
        stream.expect("punct", ")")
        return inner
    if stream.at("name", "d"):
        stream.next()
        stream.expect("punct", "(")
        lhs = read_term(stream, sig)
        stream.expect("punct", ",")
        rhs = read_term(stream, sig)
        stream.expect("punct", ")")
        return DistAtom(lhs, rhs)
    raise stream.expected("a constant, d(s,t), or a parenthesised expression", token)


def _parse_postfix(stream: TokenStream, sig) -> IneqExpr:
    node = _parse_primary(stream, sig)
    while stream.at("sq"):
        stream.next()
        node = Square(node)
    return node


def _parse_product(stream: TokenStream, sig) -> IneqExpr:
    node = _parse_postfix(stream, sig)
    while stream.at("punct", "*"):
        stream.next()
        node = Mul(node, _parse_postfix(stream, sig))
    return node


def _parse_sum(stream: TokenStream, sig) -> IneqExpr:
    node = _parse_product(stream, sig)
    while stream.at("punct", "+") or stream.at("punct", "-"):
        op = stream.next()[1]
        right = _parse_product(stream, sig)
        node = Add(node, right) if op == "+" else Sub(node, right)
    return node


def _parse_maxmin(stream: TokenStream, sig) -> IneqExpr:
    node = _parse_sum(stream, sig)
    while stream.at("name", "max") or stream.at("name", "min"):
        op = stream.next()[1]
        right = _parse_sum(stream, sig)
        node = Max(node, right) if op == "max" else Min(node, right)
    return node


def parse_inequality(text: str, sig: Signature | None = None) -> MetricInequality:
    """Parse an expression compared with zero, such as
    ``d(x,z) - d(x,y) - d(y,z) <= 0``."""
    stream = TokenStream(text)
    expr = _parse_maxmin(stream, sig)
    token = stream.peek()
    relation = {"ge": ">=", "le": "<=", "punct": "="}.get(token[0])
    if relation is None or token[1] != relation:
        raise stream.expected(">=, <=, or =", token)
    stream.next()
    token = stream.peek()
    if token[0] != "num" or stream.fraction(token) != 0:
        raise stream.error("inequalities compare with 0", token)
    stream.next()
    stream.finish("formula")
    return MetricInequality(expr, relation)
