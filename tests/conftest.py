"""Shared strategies and independent oracles used across the test suite."""

from __future__ import annotations

import contextlib
import itertools
import json
import operator
import re
from collections.abc import Mapping
from fractions import Fraction
from unittest import mock

from hypothesis import strategies as st

import numpy as np

import metra.extmetric as extmetric_module
from metra.algebra import Homomorphism, _cells, _spread, generate_subalgebra, product, quotient
from metra.congruence import (
    Decomposition,
    closure_fixpoint,
    coarsest_congruence,
    compose,
    join,
    meet,
)
from metra.errors import (
    DomainError,
    ParseError,
    ResourceLimitError,
    SignatureError,
    UnsupportedInputError,
    Verdict,
)
from metra.extmetric import (
    _MAX_SCALED,
    INF,
    ZERO,
    ExtRat,
    FiniteMetricSpace,
    PseudometricMatrix,
    SquareMatrix,
    _as_object,
    _finite_max,
    _inf_code,
    _mirrors,
    _scale_finite,
    check_pseudometric,
    metric_identification,
    render_id,
)
from metra.filters import SeqForm
from metra.logic import (
    Add,
    Const,
    DistAtom,
    Max,
    MetricEquation,
    MetricImplication,
    Min,
    Mul,
    Square,
    Sub,
    as_implication,
    satisfies_under,
)
from metra.terms import _TOKEN, App, TokenStream, Var, evaluate, rule_tables

# Small pool of exact distances; keeps closures and lcm computations tame.
FINITE_POOL = [
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
]
POSITIVE_POOL = FINITE_POOL[1:]


def fw_close(rows):
    """Min-plus shortest-path closure, written independently as an oracle."""
    n = len(rows)
    m = [[ExtRat(v) for v in row] for row in rows]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = m[i][k] + m[k][j]
                if through < m[i][j]:
                    m[i][j] = through
    return m


def object_mirrors():
    """Context in which every scaled-integer mirror made in it holds Python ints.

    With the int64 value guard at 0 no finite value fits, so the closure,
    the axiom check and ``compose`` run their array code on ``dtype=object``.
    The guard is read in ``extmetric`` alone, so the patch reaches every
    guard, the closure's and the modulus scan's included.  An int64 mirror
    made before it stays one when ``_scaled`` does not scale it, so objects
    are built, or rebuilt (``revalidated``), inside.
    """
    return mock.patch.object(extmetric_module, "_MAX_SCALED", 0)


def reference_closure(carrier, ops, constraints, mode, lipschitz=None, max_decreases=1_000_000):
    """``generate_congruence`` in pure ``ExtRat`` arithmetic, as an oracle.

    Starts from the same capped discrete matrix and lowers entries one at a
    time under symmetry, the triangle inequality and the mode rule until
    nothing changes.  Returns the closed rows in carrier order.
    """
    carrier = tuple(carrier)
    index = {x: i for i, x in enumerate(carrier)}
    n = len(carrier)
    m = [[ZERO if i == j else INF for j in range(n)] for i in range(n)]
    for x, y, bound in constraints:
        i, j = index[x], index[y]
        m[i][j] = m[j][i] = min(m[i][j], ExtRat(bound))
    tables = []
    for symbol in sorted(ops):
        entries = [(tuple(index[a] for a in args), index[v]) for args, v in ops[symbol].items()]
        if not entries or not entries[0][0]:
            continue
        args_idx = [[args[pos] for args, _ in entries] for pos in range(len(entries[0][0]))]
        k = Fraction(lipschitz[symbol]) if mode == "LIP" else None
        tables.append((args_idx, [v for _, v in entries], k))
    decreases = 0

    def lower(i, j, value) -> int:
        if value < m[i][j]:
            m[i][j] = value
            m[j][i] = value
            return 1
        return 0

    while True:
        dropped = 0
        for i in range(n):
            for j in range(n):
                if m[j][i] < m[i][j]:
                    dropped += lower(i, j, m[j][i])
        for k in range(n):
            for i in range(n):
                if m[i][k].is_infinite:
                    continue
                for j in range(n):
                    dropped += lower(i, j, m[i][k] + m[k][j])
        for args_idx, res_idx, k in tables:
            for e in range(len(res_idx)):
                for f in range(len(res_idx)):
                    spread = max(m[arg[e]][arg[f]] for arg in args_idx)
                    if mode == "M":
                        if spread == ZERO:
                            dropped += lower(res_idx[e], res_idx[f], ZERO)
                    elif mode == "Q":
                        dropped += lower(res_idx[e], res_idx[f], spread)
                    else:
                        bound = spread if spread.is_infinite else spread.scale(k)
                        dropped += lower(res_idx[e], res_idx[f], bound)
        decreases += dropped
        if decreases > max_decreases:
            raise ResourceLimitError(
                f"closure exceeded {max_decreases} entry decreases",
                "max_decreases",
                max_decreases,
            )
        if dropped == 0:
            return m


def reference_limit_closure(carrier, ops, constraints, lipschitz, passes=3000):
    """The LIP closure of ``generate_congruence`` in floats, by full passes
    of Floyd-Warshall and every rule pair until a pass changes nothing or
    for ``passes`` passes, as an oracle for closures whose greatest
    fixpoint is the limit of the passes.  Returns the float rows in carrier
    order, ``inf`` where infinite."""
    index = {x: i for i, x in enumerate(carrier)}
    n = len(carrier)
    m = np.full((n, n), np.inf)
    np.fill_diagonal(m, 0)
    for x, y, bound in constraints:
        i, j = index[x], index[y]
        m[i, j] = m[j, i] = min(m[i, j], float(bound))
    rules = [
        (
            float(lipschitz[symbol]),
            np.array([[index[a] for a in args] for args in table]).T,
            np.array([index[v] for v in table.values()]),
        )
        for symbol, table in ops.items()
        if table and next(iter(table))
    ]
    for _ in range(passes):
        before = m.copy()
        for k in range(n):
            np.minimum(m, m[:, k, None] + m[None, k, :], out=m)
        for k, args, res in rules:
            spread = np.max([m[a[:, None], a] for a in args], axis=0)
            np.minimum.at(m, (res[:, None], res), k * spread)
        if (m == before).all():
            break
    return m


def reference_enumerate_terms(sig, variables, depth, max_terms=20000):
    """The term universe built on ``App`` objects, deduplicated in a set of
    terms and sorted by ``sort_key`` at the end, as an oracle."""
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    names = sorted(set(variables))
    for name in names:
        if not re.match(r"[A-Za-z_][A-Za-z0-9_']*$", name):
            raise SignatureError(f"bad variable name {name!r}")
        if name in sig:
            raise SignatureError(f"variable {name!r} collides with an operation symbol")
    universe = [Var(name) for name in names]
    universe += [App(s) for s, a in sig.items() if a == 0]
    if len(universe) > max_terms:
        raise ResourceLimitError(
            f"term universe exceeds {max_terms} terms", "max_terms", max_terms
        )
    seen = set(universe)
    for _ in range(depth):
        layer = list(universe)
        grew = False
        for symbol, arity in sig.items():
            if arity == 0:
                continue
            for args in itertools.product(layer, repeat=arity):
                candidate = App(symbol, args)
                if candidate not in seen:
                    universe.append(candidate)
                    seen.add(candidate)
                    grew = True
                    if len(universe) > max_terms:
                        raise ResourceLimitError(
                            f"term universe exceeds {max_terms} terms", "max_terms", max_terms
                        )
        if not grew:
            break
    return sorted(universe, key=lambda t: t.sort_key())


def reference_components(finite):
    """The groups of two or more indices connected through the true entries
    of a symmetric boolean mask, by a union-find, as an oracle: lists in
    increasing order, ordered by their least member."""
    n = finite.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in np.nonzero(finite[i, i + 1 :])[0]:
            ri, rj = find(i), find(int(j) + i + 1)
            if ri != rj:
                parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [g for g in groups.values() if len(g) > 1]


def reference_labels(D):
    """The finite components of two or more points of a mirror, by
    ``reference_components``, as arrays, and each point's label: the least
    point of its component."""
    groups = [np.array(g) for g in reference_components(D < _inf_code(D))]
    label = np.arange(len(D))
    for g in groups:
        label[g] = g[0]
    return groups, label


def reference_fix_int(D, denom, tables, mode, max_decreases):
    """The closure engine with a full Floyd-Warshall repair and every rule in
    every pass, until a pass lowers nothing, as an oracle.

    Takes the engine's arguments, reading ``(args_idx, res_idx, k)`` from
    the front of each table, and returns ``(D, denom, decreases)``: the
    decreases are the entries each pass lowered, summed over the passes.
    """
    decreases = 0
    np.fill_diagonal(D, 0)
    np.minimum(D, D.T, out=D)
    while True:
        before = D.copy()
        for idx in reference_components(D < _inf_code(D)):
            sub = D[np.ix_(idx, idx)]
            for k in range(len(idx)):
                np.minimum(sub, sub[:, k, None] + sub[None, k, :], out=sub)
            D[np.ix_(idx, idx)] = sub
        for args_idx, res_idx, k, *_ in tables:
            cand = _spread(D, args_idx)
            if mode == "M":
                cand = np.where(cand == 0, 0, _inf_code(cand))
            elif mode == "LIP":
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
                np.minimum.at(D, (res_idx[:, None], res_idx[None, :]), cand)
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
            return D, denom, decreases


def reference_rule_join(thetas, max_decreases=1_000_000):
    """The mode-M join with the operations' rule tables handed to the
    closure engine, which then runs the M rule in its passes."""
    base = thetas[0].base
    arrays, denom = _mirrors(*(t.matrix for t in thetas))
    D = np.minimum.reduce(arrays)
    rules = rule_tables(len(D), {s: _cells(t) for s, t in base.tables.items() if t.ndim})
    return closure_fixpoint(
        base.carrier, rules, D, denom, reference_labels(D)[1], "M", None, max_decreases
    )


def reference_mode_m_rule(D, args_idx, res_idx):
    """The mode-M rule through the candidate block of every pair of argument
    tuples, as an oracle: the images of each pair at distance zero in every
    place are set to zero.  Lowers ``D`` in place and returns the rows it
    lowered, sorted."""
    before = D.copy()
    cand = _spread(D, args_idx)
    cand = np.where(cand == 0, 0, _inf_code(cand))
    np.minimum.at(D, (res_idx[:, None], res_idx[None, :]), cand)
    return np.flatnonzero((D < before).any(axis=1))


def reference_violation(rows, n):
    """The first pseudometric axiom failing on ``ExtRat`` rows, one entry at
    a time, as an oracle: ``(reason, indices)`` or None."""
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


def reference_rows_at(m, idx):
    """The entries of ``m`` on the rows and columns ``idx``, in that order."""
    return [[m.at(i, j) for j in idx] for i in idx]


def reference_pointwise(pick, matrices):
    """Entrywise ``pick`` (``min`` or ``max``) over the matrices' entries."""
    return [[pick(vs) for vs in zip(*rows)] for rows in zip(*(m.entries for m in matrices))]


def reference_compose(m1, m2):
    """Min-plus composition of two matrices' entries."""
    cols = list(zip(*m2.entries))
    return [[min(x + y for x, y in zip(row, col)) for col in cols] for row in m1.entries]


def reference_identification(p):
    """Metric identification read off the entries: (class ids, rows, class map)."""
    carrier, rows = p.carrier, p.entries
    rep = [row.index(ZERO) for row in rows]
    reps = [i for i, r in enumerate(rep) if r == i]
    classes = {x: carrier[r] for x, r in zip(carrier, rep)}
    return tuple(carrier[i] for i in reps), reference_rows_at(p, reps), classes


def reference_sup(spaces, positions=None):
    """The sup over ``positions`` (all by default) of the coordinates'
    distances, on the product carrier in ``itertools.product`` order."""
    positions = range(len(spaces)) if positions is None else positions
    tuples = list(itertools.product(*(range(s.size) for s in spaces)))
    return [
        [max((spaces[p].at(x[p], y[p]) for p in positions), default=ZERO) for y in tuples]
        for x in tuples
    ]


def reference_is_homomorphism(f, source, target):
    """``is_homomorphism`` one argument tuple and one entry at a time, as an
    oracle."""
    if source.sig != target.sig:
        return Verdict.failed("signature-mismatch", ())
    if not isinstance(f, Mapping):
        return Verdict.failed("not-a-mapping", ())
    for a in source.carrier:
        if a not in f:
            return Verdict.failed("undefined", (a,))
        try:
            if f[a] not in set(target.carrier):
                return Verdict.failed("value-outside-target", (a,))
        except TypeError:  # an unhashable value
            return Verdict.failed("value-outside-target", (a,))
    for symbol in source.sig.symbols:
        arity = source.sig.arity(symbol)
        for args in itertools.product(source.carrier, repeat=arity):
            mapped = tuple(f[a] for a in args)
            if f[source.apply(symbol, args)] != target.apply(symbol, mapped):
                return Verdict.failed("operation-not-preserved", (symbol, args))
    for a in source.carrier:
        for b in source.carrier:
            if target.space.get(f[a], f[b]) > source.space.get(a, b):
                return Verdict.failed("expansive", (a, b))
    return Verdict.passed()


def reference_modulus_scan(algebra, constants, max_checks=None):
    """``algebra._modulus_scan`` one argument pair at a time on the mirror's
    Python ints, as an oracle: a outer, b inner, in carrier order."""
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
                spread = max(dist[i][j] for i, j in zip(a_pos, b_pos))
                image = dist[a_img][b_img]
                if spread < inf and (image >= inf or image * k.denominator > spread * k.numerator):
                    return Verdict.failed(reason, (symbol, a, b))
    return Verdict.passed()


def reference_product(algebras):
    """The product's carrier and dict tables, applying each factor's
    operation coordinatewise, as an oracle."""
    sig = algebras[0].sig
    carrier = tuple(itertools.product(*(a.carrier for a in algebras)))
    ops = {
        symbol: {
            args: tuple(
                a.apply(symbol, tuple(arg[i] for arg in args)) for i, a in enumerate(algebras)
            )
            for args in itertools.product(carrier, repeat=sig.arity(symbol))
        }
        for symbol in sig.symbols
    }
    return carrier, ops


def reference_quotient(algebra, theta):
    """The quotient's carrier and dict tables, applying the operations to
    class representatives, as an oracle."""
    space, qmap = metric_identification(theta.matrix)
    ops = {
        symbol: {
            args: qmap.class_of(algebra.apply(symbol, args))
            for args in itertools.product(space.carrier, repeat=algebra.sig.arity(symbol))
        }
        for symbol in algebra.sig.symbols
    }
    return space.carrier, ops


def reference_decompose(algebra, t1, t2):
    """``decompose_product`` through the lattice operations, as an oracle:
    the meet and the mode-M join built as congruences and compared, one
    entry at a time, with the metric and the all-zero pseudometric, then
    the two composites; the canonical map goes through the ``Homomorphism``
    constructor."""

    def first_pair(m1, m2):
        return next(((a, b) for a in m1.carrier for b in m1.carrier
                     if m1.get(a, b) != m2.get(a, b)), None)

    checks = (
        ("meet-not-the-metric", lambda: (meet([t1, t2]).matrix, algebra.space)),
        ("join-not-zero", lambda: (join([t1, t2]).matrix, coarsest_congruence(algebra).matrix)),
        ("not-permutable", lambda: (compose(t1, t2), compose(t2, t1))),
    )
    for reason, pair in checks:
        bad = first_pair(*pair())
        if bad is not None:
            return Decomposition(False, reason, bad)
    q1, p1 = quotient(algebra, t1)
    q2, p2 = quotient(algebra, t2)
    prod, _ = product([q1, q2])
    iso = Homomorphism(algebra, prod, {a: (p1(a), p2(a)) for a in algebra.carrier})
    return Decomposition(True, "", (), (q1, q2), prod, iso)


def image(f):
    """Set-image of the homomorphism ``f`` with the structure induced from
    the target: f preserves every operation, so its image is already closed
    under them."""
    return generate_subalgebra(f.target, [f.target.carrier[i] for i in f.fidx.tolist()])[0]


def reference_generate_subalgebra(algebra, seed):
    """The generated subalgebra's carrier and dict tables by a worklist over
    carrier elements, as an oracle."""
    closure = set()
    frontier = list(seed) + [
        algebra.constant(s) for s in algebra.sig.symbols if algebra.sig.arity(s) == 0
    ]
    while frontier:
        x = frontier.pop()
        if x in closure:
            continue
        closure.add(x)
        for symbol in algebra.sig.symbols:
            arity = algebra.sig.arity(symbol)
            for args in itertools.product(closure, repeat=arity):
                frontier.append(algebra.apply(symbol, args))
    carrier = tuple(x for x in algebra.carrier if x in closure)
    ops = {
        symbol: {
            args: algebra.apply(symbol, args)
            for args in itertools.product(carrier, repeat=algebra.sig.arity(symbol))
        }
        for symbol in algebra.sig.symbols
    }
    return carrier, ops


def edges_refused():
    """Context in which reading ``MetricAlgebra.ops`` or calling
    ``MetricAlgebra.apply`` fails, so only code that works on the index
    tables runs through it."""
    from metra.algebra import MetricAlgebra

    def refuse(*args):
        raise AssertionError("carrier elements were rebuilt from the index tables")

    return mock.patch.multiple(MetricAlgebra, ops=property(refuse), apply=refuse)


@contextlib.contextmanager
def maps_refused():
    """Context in which reading ``Homomorphism.mapping``, calling a
    ``Homomorphism`` or calling ``QuotientMap.class_of`` fails, so only code
    that works on the position arrays runs through it."""
    from metra.algebra import Homomorphism
    from metra.extmetric import QuotientMap

    def refuse(*args):
        raise AssertionError("a map was read through carrier elements")

    with mock.patch.multiple(Homomorphism, mapping=property(refuse), __call__=refuse):
        with mock.patch.object(QuotientMap, "class_of", refuse):
            yield


def reference_is_congruential(algebra, matrix):
    """``is_congruential`` one entry at a time, as an oracle.

    The zero-set scan tries, for every argument tuple in carrier order,
    every tuple of zero-class members, so the witness is the first
    violating pair by definition.
    """
    if matrix.carrier != algebra.carrier:
        return Verdict.failed("carrier-mismatch", ())
    axioms = check_pseudometric(matrix)
    if not axioms:
        return axioms
    carrier = algebra.carrier
    for a in carrier:
        for b in carrier:
            if matrix.get(a, b) > algebra.space.get(a, b):
                return Verdict.failed("containment", (a, b))
    classes = {
        a: tuple(b for b in carrier if matrix.get(a, b) == ZERO) for a in carrier
    }
    for symbol in algebra.sig.symbols:
        arity = algebra.sig.arity(symbol)
        if arity == 0:
            continue
        for args in itertools.product(carrier, repeat=arity):
            pools = [classes[a] for a in args]
            for args2 in itertools.product(*pools):
                if matrix.get(
                    algebra.apply(symbol, args), algebra.apply(symbol, args2)
                ) != ZERO:
                    return Verdict.failed("zero-set", (symbol, args, args2))
    return Verdict.passed()


def reference_grid_congruences(algebra, values=None, cap=100_000):
    """``grid_congruences`` one candidate at a time, as an oracle: the
    matrices of the accepted candidates in ``itertools.product`` order,
    over the given values without repeats, in first-occurrence order."""
    if values is None:
        seen = {ZERO, INF}
        for row in algebra.space.entries:
            seen.update(row)
        values = sorted(seen)
    values = list(dict.fromkeys(values))
    n = algebra.space.size
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(values) ** len(cells) > cap:
        raise ResourceLimitError(
            f"grid has {len(values) ** len(cells)} candidates, over the cap {cap}",
            "grid_cap",
            cap,
        )
    out = []
    for combo in itertools.product(values, repeat=len(cells)):
        rows = [[ZERO] * n for _ in range(n)]
        for (i, j), v in zip(cells, combo):
            rows[i][j] = v
            rows[j][i] = v
        mat = SquareMatrix(algebra.carrier, rows)
        if reference_is_congruential(algebra, mat):
            out.append(mat)
    return out


def _reference_valuations(algebra, names, max_valuations):
    total = len(algebra.carrier) ** len(names)
    if total > max_valuations:
        raise ResourceLimitError(
            f"{total} valuations exceed the cap {max_valuations}",
            "max_valuations",
            max_valuations,
        )
    for choice in itertools.product(algebra.carrier, repeat=len(names)):
        yield dict(zip(names, choice))


def _reference_holds(algebra, valuation, premises, conclusion):
    if all(satisfies_under(algebra, valuation, p) for p in premises):
        return satisfies_under(algebra, valuation, conclusion)
    return True


def reference_satisfies(algebra, formula, max_valuations=1_000_000):
    """``satisfies`` one valuation at a time by term recursion, as an oracle.

    Valuations come from ``itertools.product`` over the carrier with the
    variables sorted by name, so the first failure is the least one.
    """
    phi = as_implication(formula)
    names = sorted(phi.variables())
    for valuation in _reference_valuations(algebra, names, max_valuations):
        if not _reference_holds(algebra, valuation, phi.premises, phi.conclusion):
            return Verdict.failed("countermodel", tuple(sorted(valuation.items())), valuation)
    return Verdict.passed()


def reference_entails(algebras, delta, e, max_valuations=1_000_000):
    """``entails`` one algebra and one valuation at a time, as an oracle."""
    delta = tuple(delta)
    variables = set(e.variables())
    for d in delta:
        variables |= d.variables()
    names = sorted(variables)
    for pos, algebra in enumerate(algebras):
        for valuation in _reference_valuations(algebra, names, max_valuations):
            if not _reference_holds(algebra, valuation, delta, e):
                return Verdict.failed(
                    "countermodel",
                    (pos, tuple(sorted(valuation.items()))),
                    {"algebra": pos, "valuation": valuation},
                )
    return Verdict.passed(len(algebras))


def reference_equicontinuity(algebras, formula, eps_prime, delta_grid):
    """``equicontinuity_check`` one delta, algebra and valuation at a time,
    as an oracle, on a grid of positive finite deltas: each relaxed
    implication is handed to ``reference_satisfies`` per algebra."""
    phi = as_implication(formula)
    goal = MetricEquation(phi.conclusion.lhs, phi.conclusion.rhs, eps_prime)
    last = ()
    for delta in sorted({ExtRat(d) for d in delta_grid}, reverse=True):
        premises = [MetricEquation(p.lhs, p.rhs, p.bound + delta) for p in phi.premises]
        relaxed = MetricImplication(premises, goal)
        failures = [v for v in (reference_satisfies(a, relaxed) for a in algebras) if not v]
        if not failures:
            return Verdict.passed(delta)
        last = (delta, failures[0].witness)
    return Verdict.failed("no-grid-delta-works", last)


def _reference_value(expr, algebra, valuation):
    """An inequality expression under one valuation, in ``Fraction``s."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, DistAtom):
        a = evaluate(expr.lhs, algebra, valuation)
        b = evaluate(expr.rhs, algebra, valuation)
        d = algebra.space.get(a, b)
        if d.is_infinite:
            raise UnsupportedInputError(
                f"{expr} is infinite; expression arithmetic needs finite distances"
            )
        return d.finite
    if isinstance(expr, Square):
        v = _reference_value(expr.inner, algebra, valuation)
        return v * v
    left = _reference_value(expr.left, algebra, valuation)
    right = _reference_value(expr.right, algebra, valuation)
    ops = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Max: max, Min: min}
    return ops[type(expr)](left, right)


def reference_satisfies_inequality(algebra, q, max_valuations=1_000_000):
    """``satisfies_inequality`` one valuation at a time with ``Fraction``
    arithmetic, as an oracle; the first infinite atom met raises."""
    names = sorted(q.variables())
    for valuation in _reference_valuations(algebra, names, max_valuations):
        if not q.holds(_reference_value(q.expr, algebra, valuation)):
            return Verdict.failed("countermodel", tuple(sorted(valuation.items())), valuation)
    return Verdict.passed()


def symmetric_rows(draw, n, values):
    rows = [[ZERO for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(values)
            rows[i][j] = v
            rows[j][i] = v
    return rows


LABELS = ("a", "b", "c", "d", "e", "f")


def split_rows(draw, rows, allow_inf):
    """``rows`` as they are or, with ``allow_inf``, in about half the draws
    with their points fallen into drawn components at distance INF from
    each other, which no finite path through ``fw_close`` can shorten."""
    n = len(rows)
    if allow_inf and draw(st.booleans()):
        component = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        for i, j in itertools.product(range(n), repeat=2):
            if component[i] != component[j]:
                rows[i][j] = INF
    return rows


@st.composite
def pseudometric_spaces(draw, max_size=4, allow_inf=True):
    """A pseudometric space on up to ``max_size`` points, with infinite
    distances as ``split_rows`` draws them."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    rows = symmetric_rows(draw, n, st.sampled_from([ExtRat(q) for q in FINITE_POOL]))
    return PseudometricMatrix(LABELS[:n], fw_close(split_rows(draw, rows, allow_inf)))


@st.composite
def metric_spaces(draw, max_size=4, allow_inf=False, min_size=1):
    """A metric space on ``min_size`` to ``max_size`` points, with infinite
    distances as ``split_rows`` draws them."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rows = symmetric_rows(draw, n, st.sampled_from([ExtRat(q) for q in POSITIVE_POOL]))
    return FiniteMetricSpace(LABELS[:n], fw_close(split_rows(draw, rows, allow_inf)))


def all_correspondences(nx, ny):
    """Every relation on nx x ny points that is total on both sides."""
    cells = list(itertools.product(range(nx), range(ny)))
    for mask in range(1, 1 << len(cells)):
        rel = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        if len({x for x, _ in rel}) == nx and len({y for _, y in rel}) == ny:
            yield rel


def brute_force_gh(x_space, y_space):
    """Reference Gromov-Hausdorff value by exhausting all correspondences."""
    best = None
    for rel in all_correspondences(x_space.size, y_space.size):
        dis = Fraction(0)
        for (i, j), (i2, j2) in itertools.product(rel, rel):
            gap = abs(x_space.at(i, i2).finite - y_space.at(j, j2).finite)
            if gap > dis:
                dis = gap
        if best is None or dis < best:
            best = dis
    return ExtRat(best / 2)


def reference_gromov_hausdorff(x_space, y_space):
    """Gromov-Hausdorff value by branch-and-bound over pairs of functions.

    The optimum is attained on a correspondence graph(f) union graph(g)^T
    for f: X -> Y and g: Y -> X, because dropping pairs never increases
    distortion; the search assigns f, then g, and prunes any partial
    assignment whose distortion already reaches the best found.
    """
    nx, ny = x_space.size, y_space.size
    (dx, dy), denom = _mirrors(x_space, y_space)
    dx, dy = dx.tolist(), dy.tolist()
    best = None

    def assign_g(g, f, cur):
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

    def assign_f(f, cur):
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


def reference_stagewise_triangle(carrier, forms):
    """The stagewise triangle check of ``pointwise_limit_metric`` one triple
    at a time on the ``SeqForm`` parts, as an oracle: the error message of
    the first failing (x, z, y), in that loop order, or None."""
    parsed = {}
    for (a, b), form in forms.items():
        parsed[(a, b)] = parsed[(b, a)] = form
    for a in carrier:
        parsed[(a, a)] = SeqForm(Fraction(0))
    for x in carrier:
        for z in carrier:
            for y in carrier:
                gap_c = parsed[(x, z)].c - parsed[(x, y)].c - parsed[(y, z)].c
                gap_r = parsed[(x, z)].r - parsed[(x, y)].r - parsed[(y, z)].r
                if gap_c > 0 or (gap_c == 0 and gap_r > 0):
                    return (
                        f"the stagewise triangle through {render_id(y)} fails "
                        f"at ({render_id(x)}, {render_id(z)}) at every late stage"
                    )
    return None


def reference_parse_seq_form(text):
    """``filters.parse_seq_form`` through the token reader it replaced, as
    an oracle: the lexer's tokens, one at a time."""
    lx = TokenStream(text)

    def coefficient():
        negative = lx.at("punct", "-")
        if negative:
            lx.next()
        value = lx.fraction(lx.expect("num"))
        return -value if negative else value

    def over_n():
        lx.expect("punct", "/")
        lx.expect("name", "n")

    try:
        c, r = coefficient(), Fraction(0)
        if lx.at("punct", "+"):
            lx.next()
            r = coefficient()
            over_n()
        elif lx.at("punct", "/"):
            over_n()
            c, r = Fraction(0), c
        lx.finish("sequence form")
    except ParseError:
        raise UnsupportedInputError(
            f"cannot read {text!r}; expected q, q/n, or q + r/n"
        ) from None
    return SeqForm(c, r)


def reference_source(text, start, end):
    """``TokenStream.source`` by one pass of the lexer over the span, as an
    oracle: each ``skip`` match (blank space and comments) read as a space,
    then each run of blank space as one."""
    parts = (
        " " if m.lastgroup == "skip" else m.group() for m in _TOKEN.finditer(text, start, end)
    )
    return " ".join("".join(parts).split())


# Metric-space helpers that only the tests use.


def reference_text_rows(m):
    """``SquareMatrix.text_rows`` one cell at a time through ``ExtRat``."""
    return [[str(m.at(i, j)) for j in range(m.size)] for i in range(m.size)]


def point_set_distance(space, x, subset):
    """d(x, S) = min over s in S of d(x, s); S must be nonempty."""
    subset = list(subset)
    if not subset:
        raise DomainError("distance to the empty set is not defined")
    return space._value(space.D[space.index(x), [space.index(s) for s in subset]].min())


def diameter(space):
    return space._value(space.D.max())


def _along(f, x_space, y_space):
    """The mirrors of ``x_space`` and of ``y_space`` along the dict map ``f``,
    over one denominator."""
    idx = []
    for a in x_space.carrier:
        if a not in f:
            raise DomainError(f"map is undefined at {render_id(a)}")
        idx.append(y_space.index(f[a]))
    (X, Y), _ = _mirrors(x_space, y_space)
    return X, Y[np.ix_(idx, idx)]


def is_nonexpansive_map(f, x_space, y_space):
    """True when d(f(a), f(b)) <= d(a, b) for all a, b in the source."""
    X, Y = _along(f, x_space, y_space)
    return not (Y > X).any()


def is_isometric_embedding(f, x_space, y_space):
    """True when f preserves every distance exactly and is injective."""
    X, Y = _along(f, x_space, y_space)
    image = [f[a] for a in x_space.carrier]
    return len(set(image)) == len(image) and bool(np.array_equal(X, Y))


def line_algebra(op, top=2):
    """Algebra on {0..top} with the line metric and one binary operation."""
    from metra.algebra import MetricAlgebra
    from metra.terms import Signature

    carrier = list(range(top + 1))
    sig = Signature({"sigma": 2})
    space = space_from(carrier, lambda x, y: abs(x - y))
    table = {
        (p, q): op(p, q) for p in carrier for q in carrier
    }
    return MetricAlgebra(sig, space, {"sigma": table})


def line_min_algebra(top=2):
    return line_algebra(lambda p, q: min(p + q, top), top)


def line_max_algebra(top=2):
    return line_algebra(max, top)


def bare_algebra(space):
    """Wrap a metric space as an algebra over the empty signature."""
    from metra.algebra import MetricAlgebra
    from metra.terms import Signature

    return MetricAlgebra(Signature(), space, {})


def space_from(carrier, fn):
    """A metric space from a distance function on element ids."""
    carrier = tuple(carrier)
    return FiniteMetricSpace(carrier, [[ExtRat(fn(x, y)) for y in carrier] for x in carrier])


def relabel(algebra, mapping):
    """``algebra`` with each element ``x`` renamed ``mapping[x]``, sharing its
    mirror and index tables; ``mapping`` must be a bijection."""
    from metra.algebra import MetricAlgebra

    carrier, space = [mapping[x] for x in algebra.carrier], algebra.space
    space = FiniteMetricSpace._trusted(carrier, space.D, space.denom)
    return MetricAlgebra._trusted(algebra.sig, space, dict(algebra.tables))


def find_isomorphism(a, b):
    """The first bijection from ``a`` onto ``b`` that keeps every distance and
    operation, in lexicographic order of the images' positions, as a dict, or
    None: a search over every permutation."""
    if a.sig != b.sig or a.space.size != b.space.size:
        return None
    ops_a, ops_b = a.ops, b.ops
    for images in itertools.permutations(b.carrier):
        f = dict(zip(a.carrier, images))
        if all(a.space.get(x, y) == b.space.get(f[x], f[y]) for x in f for y in f) and all(
            ops_b[s][tuple(map(f.get, args))] == f[v]
            for s, table in ops_a.items() for args, v in table.items()
        ):
            return f
    return None


def order_leq(t1, t2):
    """Whether ``t1`` is below ``t2`` in the congruence order, that is
    ``t1 >= t2`` pointwise, compared entry by entry."""
    pairs = zip(itertools.chain(*t1.matrix.entries), itertools.chain(*t2.matrix.entries))
    return all(u >= v for u, v in pairs)


def quotient_congruence(rho, theta):
    """``rho`` pushed down to the quotient by ``theta``, for a ``rho`` pointwise
    below ``theta``: its distances between the classes' least members."""
    from metra.algebra import quotient
    from metra.congruence import Congruence

    quot, _ = quotient(theta.base, theta)
    rows = [[rho.matrix.get(x, y) for y in quot.carrier] for x in quot.carrier]
    return Congruence(quot, SquareMatrix(quot.carrier, rows))


def revalidated(obj):
    """``obj`` rebuilt through its public constructor, which re-runs every check.

    Library results that are built without validation (closures, meets,
    kernels, products, quotients and their maps) must survive this; all
    but homomorphisms compare equal.
    """
    from metra.algebra import Homomorphism, MetricAlgebra
    from metra.congruence import Congruence

    if isinstance(obj, Congruence):
        return Congruence(obj.base, revalidated(obj.matrix))
    if isinstance(obj, Homomorphism):
        return Homomorphism(revalidated(obj.source), revalidated(obj.target), obj.mapping)
    if isinstance(obj, MetricAlgebra):
        return MetricAlgebra(obj.sig, revalidated(obj.space), obj.ops)
    return type(obj)(obj.carrier, obj.entries)


def reference_render_algebra(a):
    """``cli._render_algebra`` through the dict tables of ``MetricAlgebra.ops``,
    each sorted by ``str`` of its argument tuples, so that where tuples render
    alike the last of them in that order wins."""
    ops, tables = {}, a.ops
    for symbol in a.sig.symbols:
        table = tables[symbol]
        ops[symbol] = {
            ",".join(render_id(x) for x in args) or "()": render_id(value)
            for args, value in sorted(table.items(), key=lambda kv: str(kv[0]))
        }
    return {
        "carrier": [render_id(x) for x in a.carrier],
        "metric": reference_text_rows(a.space),
        "ops": ops,
    }


def reference_render_json(results):
    """``cli.render_json`` through ``json.dumps``, whose indented layout the
    report writer reproduces byte for byte."""
    payload = {"schema": 1, "results": [r.to_obj() for r in results]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
