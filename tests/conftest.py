"""Shared strategies and independent oracles used across the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import strategies as st

import metra.extmetric as extmetric_module
from metra.errors import DomainError, ResourceLimitError, SignatureError, Verdict
from metra.extmetric import (
    INF,
    ZERO,
    ExtRat,
    FiniteMetricSpace,
    PseudometricMatrix,
    SquareMatrix,
    _inf_code,
    check_pseudometric,
    metric_identification,
)
from metra.logic import as_implication, satisfies_under

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
    """Context in which every scaled-integer mirror holds Python ints.

    With the int64 value guard at 0 no finite value fits, so the closure,
    the axiom check and ``compose`` run their array code on ``dtype=object``.
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
    for a in source.carrier:
        if a not in f:
            return Verdict.failed("undefined", (a,))
        if f[a] not in set(target.carrier):
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
    matrices of the accepted candidates in ``itertools.product`` order."""
    if values is None:
        seen = {ZERO, INF}
        for row in algebra.space.entries:
            seen.update(row)
        values = sorted(seen)
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


def symmetric_rows(draw, n, values):
    rows = [[ZERO for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(values)
            rows[i][j] = v
            rows[j][i] = v
    return rows


LABELS = ("a", "b", "c", "d", "e", "f")


@st.composite
def pseudometric_spaces(draw, max_size=4, allow_inf=True):
    n = draw(st.integers(min_value=1, max_value=max_size))
    pool = [ExtRat(q) for q in FINITE_POOL]
    if allow_inf:
        pool = pool + [INF]
    rows = symmetric_rows(draw, n, st.sampled_from(pool))
    return PseudometricMatrix(LABELS[:n], fw_close(rows))


@st.composite
def metric_spaces(draw, max_size=4, allow_inf=False):
    n = draw(st.integers(min_value=1, max_value=max_size))
    pool = [ExtRat(q) for q in POSITIVE_POOL]
    if allow_inf:
        pool = pool + [INF]
    rows = symmetric_rows(draw, n, st.sampled_from(pool))
    return FiniteMetricSpace(LABELS[:n], fw_close(rows))


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


def line_algebra(op, top=2):
    """Algebra on {0..top} with the line metric and one binary operation."""
    from metra.algebra import MetricAlgebra
    from metra.extmetric import space_from
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
