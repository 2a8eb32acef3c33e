"""Tests for congruential pseudometrics, the lattice operations, and the
downward closure engine behind generation and joins."""

import contextlib
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metra.congruence as congruence_module
import metra.extmetric as extmetric_module
from metra.algebra import (
    Homomorphism,
    MetricAlgebra,
    generate_subalgebra,
    kernel,
    product,
    quotient,
)
from metra.congruence import (
    Congruence,
    are_permutable,
    coarsest_congruence,
    compose,
    decompose_product,
    finest_congruence,
    generate_congruence,
    grid_congruences,
    is_congruential,
    join,
    meet,
    order_leq,
    pointwise_leq,
    pullback_congruence,
    quotient_congruence,
    restrict,
)
from metra.errors import (
    CongruenceError,
    DomainError,
    OrderError,
    ResourceLimitError,
)
from metra.extmetric import (
    ExtRat,
    FiniteMetricSpace,
    INF,
    SquareMatrix,
    ZERO,
    scaled_int_array,
    space_from,
)
from metra.logic import MetricEquation, Presentation, free_algebra
from metra.terms import App, Signature, Var

from conftest import (
    FINITE_POOL,
    POSITIVE_POOL,
    bare_algebra,
    fw_close,
    line_max_algebra,
    line_min_algebra,
    metric_spaces,
    object_mirrors,
    reference_closure,
    reference_compose,
    reference_grid_congruences,
    reference_identification,
    reference_is_congruential,
    reference_pointwise,
    reference_rows_at,
    revalidated,
    symmetric_rows,
)

HALF = ExtRat(Fraction(1, 2))
ONE = ExtRat(1)
POSITIVE_CAPS = [ExtRat(q) for q in POSITIVE_POOL] + [INF]


def matrix_on(algebra, pairs, default=ONE):
    """Symmetric matrix with given off-diagonal values, defaulting elsewhere."""
    carrier = algebra.carrier
    lookup = {}
    for a, b, v in pairs:
        lookup[(a, b)] = ExtRat(v)
        lookup[(b, a)] = ExtRat(v)
    rows = [
        [
            ZERO if a == b else lookup.get((a, b), default)
            for b in carrier
        ]
        for a in carrier
    ]
    return SquareMatrix(carrier, rows)


def unary_algebra(images, metric=None):
    """Algebra on (a, b, c, ...) with one unary operation given by images."""
    carrier = tuple(sorted(images))
    sig = Signature({"f": 1})
    if metric is None:
        metric = lambda x, y: 0 if x == y else 1
    space = space_from(carrier, metric)
    table = {(x,): images[x] for x in carrier}
    return MetricAlgebra(sig, space, {"f": table})


def chain_pair():
    """Two merging congruences on a bare three-point space."""
    space = space_from(["a", "b", "c"], lambda x, y: 0 if x == y else 1)
    algebra = bare_algebra(space)
    t1 = Congruence(algebra, matrix_on(algebra, [("a", "b", 0)]))
    t2 = Congruence(algebra, matrix_on(algebra, [("b", "c", 0)]))
    return algebra, t1, t2


def square_algebra():
    """Product of two two-point algebras with a componentwise unary map."""
    space = space_from([0, 1], lambda x, y: abs(x - y))
    a1 = MetricAlgebra(Signature({"f": 1}), space, {"f": {(0,): 0, (1,): 1}})
    a2 = MetricAlgebra(Signature({"f": 1}), space, {"f": {(0,): 1, (1,): 0}})
    return product([a1, a2])


class TestIsCongruential:
    def test_zero_set_must_be_closed(self):
        algebra = unary_algebra({"a": "a", "b": "c", "c": "c"})
        candidate = matrix_on(algebra, [("a", "b", 0)])
        verdict = is_congruential(algebra, candidate)
        assert not verdict
        assert verdict.reason == "zero-set"
        assert verdict.witness == ("f", ("a",), ("b",))
        with pytest.raises(CongruenceError):
            Congruence(algebra, candidate)

    def test_containment_below_the_metric(self):
        algebra = unary_algebra({"a": "a", "b": "b", "c": "c"})
        candidate = matrix_on(algebra, [("a", "b", 2)])
        verdict = is_congruential(algebra, candidate)
        assert verdict.reason == "containment"
        assert verdict.witness == ("a", "b")

    def test_carrier_mismatch(self):
        algebra = unary_algebra({"a": "a", "b": "b", "c": "c"})
        other = matrix_on(bare_algebra(space_from([0, 1], lambda x, y: abs(x - y))), [])
        assert is_congruential(algebra, other).reason == "carrier-mismatch"

    def test_pseudometric_axioms_are_checked(self):
        algebra = unary_algebra({"a": "a", "b": "b", "c": "c"})
        rows = [
            [ZERO, ONE, ONE],
            [ZERO, ZERO, ONE],
            [ONE, ONE, ZERO],
        ]
        verdict = is_congruential(algebra, SquareMatrix(algebra.carrier, rows))
        assert verdict.reason == "symmetry"


class TestLatticeBasics:
    def test_bounds_of_the_order(self):
        algebra = line_min_algebra()
        bottom = finest_congruence(algebra)
        top = coarsest_congruence(algebra)
        assert bottom.matrix == algebra.space
        assert all(v == ZERO for row in top.matrix.entries for v in row)
        assert order_leq(bottom, top)
        assert not order_leq(top, bottom)

    def test_pointwise_leq_reports_first_failure(self):
        algebra = line_min_algebra()
        bottom = finest_congruence(algebra)
        top = coarsest_congruence(algebra)
        assert pointwise_leq(top.matrix, bottom.matrix) is None
        assert pointwise_leq(bottom.matrix, top.matrix) == (0, 1)

    def test_meet_and_join_with_the_bounds(self):
        algebra = line_min_algebra()
        rows = [
            [ZERO, ONE, ONE],
            [ONE, ZERO, ZERO],
            [ONE, ZERO, ZERO],
        ]
        theta = Congruence(algebra, SquareMatrix(algebra.carrier, rows))
        bottom = finest_congruence(algebra)
        assert meet([theta, bottom]) == bottom
        assert join([theta, bottom]) == theta
        assert join([theta, theta]) == theta
        assert meet([theta, theta]) == theta

    def test_lattice_laws_against_the_full_grid_family(self):
        """meet and join are the exact bounds within the family of all
        congruences whose entries come from the metric value grid."""
        algebra = line_min_algebra()
        family = grid_congruences(algebra)
        assert finest_congruence(algebra) in family
        assert coarsest_congruence(algebra) in family
        assert len(family) >= 3
        for s, t in itertools.product(family, repeat=2):
            m = meet([s, t])
            j = join([s, t])
            assert order_leq(m, s) and order_leq(m, t)
            assert order_leq(s, j) and order_leq(t, j)
            for u in family:
                if order_leq(u, s) and order_leq(u, t):
                    assert order_leq(u, m)
                if order_leq(s, u) and order_leq(t, u):
                    assert order_leq(j, u)

    def test_grid_counts_on_a_two_point_algebra(self):
        algebra = bare_algebra(space_from([0, 1], lambda x, y: abs(x - y)))
        assert len(grid_congruences(algebra)) == 2
        richer = grid_congruences(algebra, values=[ZERO, HALF, ONE])
        assert len(richer) == 3

    def test_grid_cap(self):
        algebra = line_min_algebra()
        with pytest.raises(ResourceLimitError):
            grid_congruences(algebra, cap=10)


class TestComposeAndPermutability:
    def test_chain_congruences_do_not_permute(self):
        _, t1, t2 = chain_pair()
        c12 = compose(t1, t2)
        c21 = compose(t2, t1)
        assert c12.get("a", "c") == ZERO
        assert c21.get("a", "c") == ONE
        assert not are_permutable(t1, t2)

    def test_composition_can_be_asymmetric(self):
        _, t1, t2 = chain_pair()
        c12 = compose(t1, t2)
        assert c12.get("a", "c") == ZERO
        assert c12.get("c", "a") == ONE

    @pytest.mark.parametrize("big", [1 << 44, 1 << 60, 10**400])
    def test_compose_keeps_large_finite_entries_and_infinities(self, big):
        # 2**44 + 2**44 still fits the int64 mirror; 2**60 is its infinity
        # code, so that matrix is mirrored in Python ints, as is 10**400,
        # which no float can hold.
        big = ExtRat(big)
        far = [
            [ZERO, big, INF, INF],
            [big, ZERO, INF, INF],
            [INF, INF, ZERO, ONE],
            [INF, INF, ONE, ZERO],
        ]
        algebra = bare_algebra(FiniteMetricSpace("abcd", far))
        t1 = finest_congruence(algebra)
        t2 = Congruence(algebra, matrix_on(algebra, [("a", "b", big), ("c", "d", 0)], INF))
        for s, t in itertools.product((t1, t2), repeat=2):
            expected = [
                [min(x + y for x, y in zip(row, col)) for col in zip(*t.matrix.entries)]
                for row in s.matrix.entries
            ]
            assert as_rows(compose(s, t)) == expected
            with object_mirrors():
                assert as_rows(compose(s, t)) == expected
        assert compose(t1, t1).get("a", "b") == big
        assert compose(t1, t2).get("b", "a") == big
        assert compose(t1, t2).get("a", "c") == INF
        assert compose(t1, t2).get("c", "c") == ZERO

    def test_join_of_the_chain_is_everything(self):
        algebra, t1, t2 = chain_pair()
        assert join([t1, t2]) == coarsest_congruence(algebra)

    def test_factor_kernels_permute(self):
        prod, projections = square_algebra()
        t1 = kernel(projections[0])
        t2 = kernel(projections[1])
        assert are_permutable(t1, t2)
        c12 = compose(t1, t2)
        assert c12.get((0, 0), (1, 1)) == ZERO


class TestDecomposition:
    def test_square_decomposes(self):
        prod, projections = square_algebra()
        t1 = kernel(projections[0])
        t2 = kernel(projections[1])
        outcome = decompose_product(prod, t1, t2)
        assert outcome.ok
        assert tuple(f.space.size for f in outcome.factors) == (2, 2)
        assert outcome.iso.is_isometric
        assert outcome.iso.is_injective and outcome.iso.is_surjective
        back = {outcome.iso(x): x for x in prod.carrier}
        assert len(back) == 4

    def test_meet_failure_reason(self):
        prod, projections = square_algebra()
        t1 = kernel(projections[0])
        outcome = decompose_product(prod, t1, t1)
        assert not outcome.ok
        assert outcome.reason == "meet-not-the-metric"
        assert outcome.witness == ((0, 0), (0, 1))

    def test_join_failure_reason(self):
        prod, projections = square_algebra()
        t1 = kernel(projections[0])
        bottom = finest_congruence(prod)
        outcome = decompose_product(prod, t1, bottom)
        assert outcome.reason == "join-not-zero"
        assert outcome.witness == ((0, 0), (1, 0))

    def test_permutability_failure_reason(self):
        algebra, t1, t2 = chain_pair()
        outcome = decompose_product(algebra, t1, t2)
        assert outcome.reason == "not-permutable"
        assert outcome.witness == ("a", "c")


class TestQuotientCongruence:
    def setup_method(self):
        space = space_from([0, 1, 2, 3], lambda x, y: abs(x - y))
        self.algebra = bare_algebra(space)
        self.theta = Congruence(
            self.algebra, matrix_on(self.algebra, [(0, 1, 0), (2, 3, 0)])
        )
        self.rho = Congruence(
            self.algebra,
            matrix_on(self.algebra, [(0, 1, 0), (2, 3, 0)], default=HALF),
        )

    def test_push_down_and_pull_back(self):
        pushed = quotient_congruence(self.rho, self.theta)
        assert pushed.base.carrier == (0, 2)
        assert pushed.matrix.get(0, 2) == HALF
        _, projection = quotient(self.algebra, self.theta)
        assert pullback_congruence(projection, pushed).matrix == self.rho.matrix

    def test_swapped_arguments_are_diagnosed(self):
        with pytest.raises(OrderError, match="opposite order"):
            quotient_congruence(self.theta, self.rho)

    def test_incomparable_pair(self):
        rho2 = Congruence(
            self.algebra,
            matrix_on(self.algebra, [(2, 3, 0)], default=HALF),
        )
        with pytest.raises(OrderError) as err:
            quotient_congruence(rho2, self.theta)
        assert "opposite order" not in str(err.value)

    @pytest.mark.parametrize(
        "zeros, rows, witness",
        [
            (
                [(0, 1, 0), (2, 3, 0)],
                [[0, 0, HALF, ONE], [0, 0, HALF, ONE], [HALF, HALF, 0, 0], [ONE, ONE, 0, 0]],
                "(2, 0)",
            ),
            (
                [(0, 3, 0), (1, 2, 0)],
                [[0, HALF, HALF, 0], [HALF, 0, 0, ONE], [HALF, 0, 0, HALF], [0, ONE, HALF, 0]],
                "(0, 1)",
            ),
        ],
    )
    def test_push_down_that_is_not_well_defined(self, zeros, rows, witness):
        """Only a rho that is not a pseudometric can differ within a class
        of theta; the witness is the first point with a differing class
        member and the first column where their rows differ."""
        theta = Congruence(self.algebra, matrix_on(self.algebra, zeros))
        rows = [[ExtRat(v) for v in row] for row in rows]
        rho = Congruence._trusted(self.algebra, *scaled_int_array(rows))
        with pytest.raises(OrderError) as err:
            quotient_congruence(rho, theta)
        assert str(err.value) == f"pushed-down value not well defined at {witness}"

    def test_pullback_of_the_metric_is_the_kernel(self):
        a = line_min_algebra()
        rows = [
            [v.scale(Fraction(1, 2)) for v in row] for row in a.space.entries
        ]
        b = MetricAlgebra(a.sig, FiniteMetricSpace(a.carrier, rows), a.ops)
        f = Homomorphism(a, b, {x: x for x in a.carrier})
        assert pullback_congruence(f, finest_congruence(b)) == kernel(f)


class TestRestrict:
    def test_restriction_to_a_subalgebra(self):
        algebra = line_min_algebra()
        sub, _ = generate_subalgebra(algebra, [1])
        rows = [
            [ZERO, ONE, ONE],
            [ONE, ZERO, ZERO],
            [ONE, ZERO, ZERO],
        ]
        theta = Congruence(algebra, SquareMatrix(algebra.carrier, rows))
        small = restrict(theta, sub)
        assert small.base is sub
        assert small.matrix.get(1, 2) == ZERO

    def test_disagreeing_tables_are_rejected(self):
        algebra = line_min_algebra()
        theta = coarsest_congruence(algebra)
        with pytest.raises(DomainError):
            restrict(theta, line_max_algebra())

    def test_foreign_elements_are_rejected(self):
        algebra = line_min_algebra()
        theta = coarsest_congruence(algebra)
        stranger = bare_algebra(space_from([7, 8], lambda x, y: abs(x - y)))
        with pytest.raises(DomainError):
            restrict(theta, stranger)


def mode_rule_holds(rows, index, ops, mode, lipschitz=None):
    """Direct statement of the mode rule, written independently of the engine."""
    for symbol, table in ops.items():
        for args1, r1 in table.items():
            for args2, r2 in table.items():
                spread = ZERO
                for x, y in zip(args1, args2):
                    v = rows[index[x]][index[y]]
                    if v > spread:
                        spread = v
                out = rows[index[r1]][index[r2]]
                if mode == "M":
                    if spread == ZERO and out != ZERO:
                        return False
                elif mode == "Q":
                    if out > spread:
                        return False
                else:
                    bound = spread if spread.is_infinite else spread.scale(
                        lipschitz[symbol]
                    )
                    if out > bound:
                        return False
    return True


def greatest_grid_fixpoint(carrier, ops, constraints, mode, values, lipschitz=None):
    """Pointwise maximum of every matrix over the value grid that satisfies
    the constraints, the pseudometric axioms, and the mode rule.  The family
    is closed under pointwise maxima, so this is its greatest member."""
    n = len(carrier)
    index = {x: i for i, x in enumerate(carrier)}
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = None
    for combo in itertools.product(values, repeat=len(cells)):
        rows = [[ZERO] * n for _ in range(n)]
        for (i, j), v in zip(cells, combo):
            rows[i][j] = v
            rows[j][i] = v
        if any(rows[index[x]][index[y]] > ExtRat(b) for x, y, b in constraints):
            continue
        if fw_close(rows) != rows:
            continue
        if not mode_rule_holds(rows, index, ops, mode, lipschitz):
            continue
        if best is None:
            best = rows
        else:
            best = [
                [max(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(best, rows)
            ]
    return best


def as_rows(matrix):
    return [list(row) for row in matrix.entries]


class TestGenerateCongruence:
    Q_CARRIER = ("x", "y", "sxx", "syy")
    Q_OPS = {"sigma": {("x", "x"): "sxx", ("y", "y"): "syy"}}

    def test_mode_q_transfers_the_bound(self):
        result = generate_congruence(
            self.Q_CARRIER, self.Q_OPS, [("x", "y", 1)], mode="Q"
        )
        assert result.get("x", "y") == ONE
        assert result.get("sxx", "syy") == ONE
        assert result.get("x", "sxx") == INF
        assert result.get("y", "syy") == INF

    def test_mode_q_matches_the_grid_oracle(self):
        result = generate_congruence(
            self.Q_CARRIER, self.Q_OPS, [("x", "y", 1)], mode="Q"
        )
        oracle = greatest_grid_fixpoint(
            self.Q_CARRIER,
            self.Q_OPS,
            [("x", "y", 1)],
            "Q",
            [ZERO, HALF, ONE, INF],
        )
        assert as_rows(result) == oracle

    def test_mode_m_ignores_positive_distances(self):
        result = generate_congruence(
            self.Q_CARRIER, self.Q_OPS, [("x", "y", 1)], mode="M"
        )
        assert result.get("x", "y") == ONE
        assert result.get("sxx", "syy") == INF

    def test_mode_m_propagates_zero(self):
        result = generate_congruence(
            self.Q_CARRIER, self.Q_OPS, [("x", "y", 0)], mode="M"
        )
        assert result.get("x", "y") == ZERO
        assert result.get("sxx", "syy") == ZERO
        assert result.get("x", "sxx") == INF

    def test_lipschitz_expansion_along_a_chain(self):
        carrier = ("a0", "a1", "a2", "a3")
        ops = {"f": {("a0",): "a1", ("a1",): "a2", ("a2",): "a3", ("a3",): "a3"}}
        result = generate_congruence(
            carrier, ops, [("a0", "a1", 1)], mode="LIP", lipschitz={"f": Fraction(2)}
        )
        expected = {
            ("a0", "a1"): 1,
            ("a0", "a2"): 3,
            ("a0", "a3"): 7,
            ("a1", "a2"): 2,
            ("a1", "a3"): 6,
            ("a2", "a3"): 4,
        }
        for (x, y), v in expected.items():
            assert result.get(x, y) == ExtRat(v)

    def test_lipschitz_contraction_with_rescaling(self):
        carrier = ("c0", "c1", "c2")
        ops = {"f": {("c0",): "c1", ("c1",): "c2", ("c2",): "c2"}}
        result = generate_congruence(
            carrier,
            ops,
            [("c0", "c1", 1)],
            mode="LIP",
            lipschitz={"f": Fraction(1, 2)},
        )
        assert result.get("c0", "c1") == ONE
        assert result.get("c1", "c2") == HALF
        assert result.get("c0", "c2") == ExtRat(Fraction(3, 2))
        oracle = greatest_grid_fixpoint(
            carrier,
            ops,
            [("c0", "c1", 1)],
            "LIP",
            [ZERO, HALF, ONE, ExtRat(Fraction(3, 2)), ExtRat(2), INF],
            lipschitz={"f": Fraction(1, 2)},
        )
        assert as_rows(result) == oracle

    def test_contractive_identity_hits_the_decrease_cap(self):
        carrier = ("b0", "b1")
        ops = {"f": {("b0",): "b0", ("b1",): "b1"}}
        with pytest.raises(ResourceLimitError) as err:
            generate_congruence(
                carrier,
                ops,
                [("b0", "b1", 1)],
                mode="LIP",
                lipschitz={"f": Fraction(1, 2)},
                max_decreases=40,
            )
        assert err.value.limit_name == "max_decreases"

    def test_fraction_path_agrees(self):
        lip_ops = {"f": {("c0",): "c1", ("c1",): "c2", ("c2",): "c2"}}
        args = [
            (self.Q_CARRIER, self.Q_OPS, [("x", "y", 1)], "Q", None),
            (self.Q_CARRIER, self.Q_OPS, [("x", "y", 0)], "M", None),
            (("c0", "c1", "c2"), lip_ops, [("c0", "c1", 1)], "LIP", {"f": Fraction(1, 2)}),
        ]
        fast = [generate_congruence(*a) for a in args]
        with object_mirrors():
            wide = [generate_congruence(*a) for a in args]
        assert fast == wide
        assert [as_rows(m) for m in fast] == [reference_closure(*a) for a in args]

    def test_free_algebra_closure_agrees_on_both_paths(self):
        sig = Signature({"sigma": 2})
        relation = MetricEquation(Var("x"), Var("y"), 1)
        runs = [
            lambda mode=mode: free_algebra(
                Presentation(sig, ["x", "y"], [relation], mode=mode, depth=2)
            ).theta
            for mode in ("Q", "M")
        ]
        fast = [run() for run in runs]
        assert [m.size for m in fast] == [38, 38]
        sxx = App("sigma", (Var("x"), Var("x")))
        syy = App("sigma", (Var("y"), Var("y")))
        assert [m.get(sxx, syy) for m in fast] == [ONE, INF]
        with object_mirrors():
            wide = [run() for run in runs]
        assert fast == wide

    def test_finite_bound_at_the_infinity_sentinel_stays_finite(self):
        # 2**60 is the int64 mirror's infinity code; such a bound must widen
        # the mirror to Python ints and come back finite.
        big = ExtRat(1 << 60)
        args = (self.Q_CARRIER, self.Q_OPS, [("x", "y", big)], "Q")
        fast = generate_congruence(*args)
        assert fast.get("x", "y") == big
        assert fast.get("sxx", "syy") == big
        assert as_rows(fast) == reference_closure(*args)

    def test_large_common_denominator_stays_exact(self):
        # The denominators' product exceeds 2**32, the scaled values do not
        # reach the value guard: the int64 mirror carries them exactly.
        bounds = [("x", "y", Fraction(1, 65537)), ("sxx", "y", Fraction(2, 65539))]
        for mode in ("M", "Q"):
            with mock.patch.object(
                congruence_module, "_fix_int", wraps=congruence_module._fix_int
            ) as engine:
                result = generate_congruence(self.Q_CARRIER, self.Q_OPS, bounds, mode)
            assert engine.call_args.args[0].dtype != object
            assert as_rows(result) == reference_closure(self.Q_CARRIER, self.Q_OPS, bounds, mode)
        assert result.get("x", "sxx") == ExtRat(Fraction(1, 65537) + Fraction(2, 65539))

    def test_lipschitz_rescaling_widens_partway_through_the_run(self):
        # The bound fits int64, but the k = 3/2 rescaling doubles it past the
        # value guard during the first pass, so the engine switches its
        # arrays to Python ints and carries on; c3 stays at infinity.
        carrier = ("c0", "c1", "c2", "c3")
        ops = {"f": {("c0",): "c1", ("c1",): "c2", ("c2",): "c2", ("c3",): "c3"}}
        args = (carrier, ops, [("c0", "c1", 1 << 44)], "LIP", {"f": Fraction(3, 2)})
        with mock.patch.object(
            congruence_module, "_as_object", wraps=extmetric_module._as_object
        ) as widen:
            result = generate_congruence(*args)
        assert widen.call_count == 3
        assert result.get("c1", "c2") == ExtRat(3 << 43)
        assert result.get("c0", "c3") == INF
        assert as_rows(result) == reference_closure(*args)

    @pytest.mark.parametrize(
        "constraint, k",
        [
            (-1, 1),
            ("x", 1),
            (math.nan, 1),
            (None, 1),
            (math.inf, 1),
            (1, "abc"),
            (1, None),
            (1, math.nan),
        ],
    )
    def test_bad_bounds_and_constants_raise_domain_errors(self, constraint, k):
        ops = {"f": {("a",): "b", ("b",): "a"}}
        with pytest.raises(DomainError, match="constraint on \\(a, b\\)" if k == 1 else "for f"):
            generate_congruence(("a", "b"), ops, [("a", "b", constraint)], "LIP", {"f": k})
        if constraint == 1:
            algebra = unary_algebra({"a": "b", "b": "a"})
            theta = finest_congruence(algebra)
            with pytest.raises(DomainError, match="for f"):
                join([theta], mode="LIP", lipschitz={"f": k})

    def test_input_validation(self):
        with pytest.raises(DomainError):
            generate_congruence(("a", "a"), {}, [])
        with pytest.raises(DomainError):
            generate_congruence(("a", "b"), {}, [("a", "z", 1)])
        with pytest.raises(DomainError):
            generate_congruence(("a", "b"), {"f": {("a",): "z"}}, [])
        with pytest.raises(DomainError):
            generate_congruence(("a", "b"), {}, [], mode="X")

    @given(
        images=st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
        bounds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
                st.sampled_from(FINITE_POOL),
            ),
            max_size=3,
        ),
        mode=st.sampled_from(["M", "Q"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_engine_output_laws(self, images, bounds, mode):
        """Whatever the inputs, the result is a closed pseudometric that
        honours every constraint and the mode rule."""
        carrier = (0, 1, 2, 3)
        ops = {"f": {(x,): images[x] for x in carrier}}
        result = generate_congruence(carrier, ops, bounds, mode=mode)
        rows = as_rows(result)
        assert fw_close(rows) == rows
        for i in carrier:
            assert rows[i][i] == ZERO
            for j in carrier:
                assert rows[i][j] == rows[j][i]
        for x, y, b in bounds:
            assert result.get(x, y) <= ExtRat(b)
        index = {x: x for x in carrier}
        assert mode_rule_holds(rows, index, ops, mode)


def lipschitz_able(matrix, algebra):
    """True when some finite constant bounds each operation under ``matrix``:
    a zero spread of arguments gives a zero output and a finite spread a
    finite one."""
    for symbol in algebra.sig.symbols:
        arity = algebra.sig.arity(symbol)
        for args in itertools.product(algebra.carrier, repeat=arity):
            for args2 in itertools.product(algebra.carrier, repeat=arity):
                spread = max((matrix.get(x, y) for x, y in zip(args, args2)), default=ZERO)
                out = matrix.get(algebra.apply(symbol, args), algebra.apply(symbol, args2))
                if spread == ZERO and out != ZERO:
                    return False
                if not spread.is_infinite and out.is_infinite:
                    return False
    return True


@st.composite
def congruences_on(draw, algebra):
    """A congruence on ``algebra``: the path closure of the metric capped by
    positive bounds and by zeros on a zero-set generated in mode M, so its
    zero-set is exactly the generated one."""
    carrier = algebra.carrier
    elem = st.sampled_from(carrier)
    pairs = draw(st.lists(st.tuples(elem, elem), max_size=2))
    zeros = generate_congruence(carrier, algebra.ops, [(x, y, 0) for x, y in pairs], "M")
    caps = symmetric_rows(draw, len(carrier), st.sampled_from(POSITIVE_CAPS))
    rows = [
        [min(values) for values in zip(*rows)]
        for rows in zip(zeros.entries, algebra.space.entries, caps)
    ]
    return Congruence(algebra, SquareMatrix(carrier, fw_close(rows)))


class TestJoinProperty:
    """Joins of Lipschitz inputs need no zero-forcing in mode M."""

    @given(
        space=metric_spaces(max_size=4, allow_inf=True),
        images=st.lists(st.integers(min_value=0, max_value=3), min_size=20, max_size=20),
        binary=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_path_closure_of_lipschitz_inputs_is_the_join(self, space, images, binary, data):
        carrier = space.carrier
        n = len(carrier)
        ops = {"f": {(x,): carrier[images[i] % n] for i, x in enumerate(carrier)}}
        if binary:
            ops["g"] = {
                (x, y): carrier[images[4 + 4 * i + j] % n]
                for i, x in enumerate(carrier)
                for j, y in enumerate(carrier)
            }
        sig = Signature({"f": 1, "g": 2} if binary else {"f": 1})
        algebra = MetricAlgebra(sig, space, ops)
        thetas = data.draw(st.lists(congruences_on(algebra), min_size=1, max_size=3))
        joined = join(thetas)
        assert revalidated(joined) == joined
        assert all(order_leq(t, joined) for t in thetas)
        if all(lipschitz_able(t.matrix, algebra) for t in thetas):
            lowest = [
                [min(values) for values in zip(*rows)]
                for rows in zip(*(t.matrix.entries for t in thetas))
            ]
            assert fw_close(lowest) == as_rows(joined.matrix)


class TestClosureEngines:
    """The int64 mirror, the Python-int mirror and the pure ``ExtRat``
    reference compute one closure."""

    # Beside the small pool: a large denominator, values past the int64
    # guard and past any float, and a tiny value whose LIP rescaling widens
    # the mirror mid-run.
    BOUNDS = FINITE_POOL + [
        Fraction(1, 65537),
        Fraction(1 << 60),
        Fraction(10**400),
        Fraction(3, 1 << 40),
    ]

    @given(
        n=st.integers(min_value=1, max_value=6),
        mode=st.sampled_from(["M", "Q", "LIP"]),
        k=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]),
        data=st.data(),
    )
    @settings(max_examples=80)
    def test_engines_agree(self, n, mode, k, data):
        elem = st.integers(min_value=0, max_value=n - 1)
        ops = {
            "f": data.draw(st.dictionaries(st.tuples(elem), elem, max_size=n)),
            "g": data.draw(st.dictionaries(st.tuples(elem, elem), elem, max_size=8)),
        }
        bounds = data.draw(
            st.lists(st.tuples(elem, elem, st.sampled_from(self.BOUNDS)), max_size=4)
        )
        lipschitz = {"f": k, "g": k} if mode == "LIP" else None
        args = (range(n), ops, bounds, mode, lipschitz)
        fast = generate_congruence(*args)
        with object_mirrors():
            wide = generate_congruence(*args)
        assert fast == wide
        assert as_rows(fast) == reference_closure(*args)

    @pytest.mark.parametrize("k", [Fraction(1, 10**20), Fraction(10**20)], ids=["q", "p"])
    def test_constants_past_int64_on_an_all_zero_mirror(self, k):
        """A constant whose numerator or denominator does not fit in int64
        widens the mirror even when every finite entry is zero."""
        args = ((0, 1), {"f": {(0,): 1, (1,): 0}}, [(0, 1, 0)], "LIP", {"f": k})
        assert as_rows(generate_congruence(*args)) == reference_closure(*args)

    @pytest.mark.parametrize(
        "images, constraint",
        [({0: 1, 1: 0, 2: 2}, (0, 1, 1)), ({0: 0, 1: 1, 2: 2}, (0, 1, 1))],
    )
    def test_contracting_constants_hit_the_cap_on_both_engines(self, images, constraint):
        ops = {"f": {(x,): y for x, y in images.items()}}

        def run():
            return generate_congruence(
                (0, 1, 2), ops, [constraint], mode="LIP",
                lipschitz={"f": Fraction(1, 2)}, max_decreases=50,
            )

        with mock.patch.object(
            congruence_module, "_as_object", side_effect=AssertionError("widened")
        ):
            with pytest.raises(ResourceLimitError) as fast:
                run()
        with object_mirrors():
            with pytest.raises(ResourceLimitError) as wide:
                run()
        with pytest.raises(ResourceLimitError) as exact:
            reference_closure(
                (0, 1, 2), ops, [constraint], "LIP", {"f": Fraction(1, 2)}, max_decreases=50
            )
        assert (
            fast.value.limit_name
            == wide.value.limit_name
            == exact.value.limit_name
            == "max_decreases"
        )


class TestTrustedResults:
    """Results built by construction pass the public constructors unchanged."""

    MODES = [("M", None), ("Q", None), ("LIP", Fraction(2)), ("LIP", Fraction(3, 2))]

    @pytest.mark.parametrize("mode, k", MODES)
    def test_closure_output_on_both_engines(self, mode, k):
        carrier = ("a0", "a1", "a2", "a3")
        ops = {"f": {("a0",): "a1", ("a1",): "a2", ("a2",): "a3", ("a3",): "a3"}}
        lipschitz = {"f": k} if k else None

        def run():
            return generate_congruence(
                carrier, ops, [("a0", "a1", 1), ("a2", "a3", 0)], mode, lipschitz
            )

        fast = run()
        with object_mirrors():
            wide = run()
        assert revalidated(fast) == fast == wide == revalidated(wide)

    @pytest.mark.parametrize("mode, k", MODES)
    def test_lattice_operations(self, mode, k):
        algebra = line_min_algebra()
        lipschitz = {"sigma": k} if k else None
        family = grid_congruences(algebra)
        assert all(revalidated(t) == t for t in family)
        for t in (finest_congruence(algebra), coarsest_congruence(algebra)):
            assert revalidated(t) == t
        index = {x: i for i, x in enumerate(algebra.carrier)}
        for s, t in itertools.product(family, repeat=2):
            joined = join([s, t], mode=mode, lipschitz=lipschitz)
            assert revalidated(joined) == joined
            rows = as_rows(joined.matrix)
            assert mode_rule_holds(rows, index, algebra.ops, mode, lipschitz)
            assert revalidated(meet([s, t])) == meet([s, t])
            assert revalidated(compose(s, t)) == compose(s, t)

    def test_kernels_pullbacks_and_push_downs(self):
        prod, projections = square_algebra()
        for p in projections:
            assert revalidated(kernel(p)) == kernel(p)
        space = space_from([0, 1, 2, 3], lambda x, y: abs(x - y))
        algebra = bare_algebra(space)
        theta = Congruence(algebra, matrix_on(algebra, [(0, 1, 0), (2, 3, 0)]))
        rho = Congruence(
            algebra, matrix_on(algebra, [(0, 1, 0), (2, 3, 0)], default=HALF)
        )
        pushed = quotient_congruence(rho, theta)
        assert revalidated(pushed) == pushed
        quot, projection = quotient(algebra, theta)
        assert revalidated(quot.space) == quot.space
        pulled = pullback_congruence(projection, pushed)
        assert revalidated(pulled) == pulled == rho


KERNEL_SIG = Signature({"c": 0, "f": 1, "g": 2, "h": 3})
KERNEL_POOL = [ExtRat(q) for q in FINITE_POOL] + [INF]
BOTH_MIRRORS = (contextlib.nullcontext, object_mirrors)


@st.composite
def kernel_algebras(draw, max_size=6):
    """Algebras on up to ``max_size`` points with a constant, a unary, a
    binary and a ternary operation, over a metric from the pool plus inf."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    carrier = tuple(range(n))
    rows = symmetric_rows(draw, n, st.sampled_from(POSITIVE_CAPS))
    elem = st.integers(min_value=0, max_value=n - 1)
    ops = {"c": draw(elem)}
    for symbol, arity in (("f", 1), ("g", 2), ("h", 3)):
        cells = list(itertools.product(carrier, repeat=arity))
        images = draw(st.lists(elem, min_size=len(cells), max_size=len(cells)))
        ops[symbol] = dict(zip(cells, images))
    return MetricAlgebra(KERNEL_SIG, FiniteMetricSpace(carrier, fw_close(rows)), ops)


@st.composite
def kernel_candidates(draw, algebra):
    """Matrices on the algebra's carrier: the largest pseudometric below the
    metric that is zero on a random partition, sometimes doubled (which
    breaks containment), then with up to two entries overwritten, on one
    side or on both (which breaks reflexivity, symmetry or the triangle)."""
    n = algebra.space.size
    label = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    rows = fw_close(
        [
            [ZERO if label[i] == label[j] else algebra.space.at(i, j) for j in range(n)]
            for i in range(n)
        ]
    )
    if draw(st.booleans()):
        rows = [[v.scale(2) for v in row] for row in rows]
    index = st.integers(0, n - 1)
    edits = draw(
        st.lists(
            st.tuples(index, index, st.sampled_from(KERNEL_POOL), st.booleans()), max_size=2
        )
    )
    for i, j, v, both in edits:
        rows[i][j] = v
        if both:
            rows[j][i] = v
    return SquareMatrix(algebra.carrier, rows)


def verdict_of(verdict):
    return verdict.ok, verdict.reason, verdict.witness


class TestCongruenceKernel:
    """``is_congruential`` and ``grid_congruences`` on the mirror agree with
    the entry-by-entry references in ``conftest``, on both mirrors."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_verdicts_match_the_reference(self, data):
        algebra = data.draw(kernel_algebras())
        matrix = data.draw(kernel_candidates(algebra))
        expected = verdict_of(reference_is_congruential(algebra, matrix))
        for mirrors in BOTH_MIRRORS:
            with mirrors():
                assert verdict_of(is_congruential(algebra, matrix)) == expected

    @staticmethod
    def line_algebra(n):
        carrier = tuple(range(n))
        ops = {
            "c": 0,
            "f": {(x,): (x + 1) % n for x in carrier},
            "g": {(x, y): max(x, y) for x in carrier for y in carrier},
            "h": {
                (x, y, z): min(x, y, z) for x in carrier for y in carrier for z in carrier
            },
        }
        space = space_from(carrier, lambda x, y: abs(x - y))
        return MetricAlgebra(KERNEL_SIG, space, ops)

    @staticmethod
    def edited(reason, rows, n):
        """Half the metric, edited so that exactly ``reason`` fails first."""
        if reason == "reflexivity":
            rows[n - 1][n - 1] = ONE
        elif reason == "symmetry":
            rows[0][n - 1] = HALF
        elif reason == "triangle":
            rows[0][n - 1] = rows[n - 1][0] = INF
        elif reason == "containment":
            rows = [[v.scale(4) for v in row] for row in rows]
        else:
            rows[0][1] = rows[1][0] = ZERO
            rows = fw_close(rows)
        return rows

    @pytest.mark.parametrize(
        "reason", ["reflexivity", "symmetry", "triangle", "containment", "zero-set"]
    )
    @pytest.mark.parametrize("n", [3, 5])
    def test_each_failure_on_both_paths(self, reason, n):
        """Every reason, on three and on five points."""
        algebra = self.line_algebra(n)
        rows = [[v.scale(Fraction(1, 2)) for v in row] for row in algebra.space.entries]
        matrix = SquareMatrix(algebra.carrier, self.edited(reason, rows, n))
        expected = reference_is_congruential(algebra, matrix)
        assert expected.reason == reason
        for mirrors in BOTH_MIRRORS:
            with mirrors():
                assert verdict_of(is_congruential(algebra, matrix)) == verdict_of(expected)

    @given(
        data=st.data(),
        cells=st.integers(min_value=1, max_value=200),
        wide=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_matches_the_reference(self, data, cells, wide):
        """Any chunk size, down to one candidate per chunk."""
        algebra = data.draw(kernel_algebras(max_size=3))
        values = data.draw(
            st.none() | st.lists(st.sampled_from(KERNEL_POOL), min_size=1, max_size=5)
        )
        expected = reference_grid_congruences(algebra, values)
        with mock.patch.object(congruence_module, "_GRID_CELLS", cells):
            with object_mirrors() if wide else contextlib.nullcontext():
                # Rebuilt in the context, the metric stores the Python-int mirror.
                got = grid_congruences(revalidated(algebra), values)
        assert [t.matrix for t in got] == expected

    def test_grid_crossing_the_default_chunk(self):
        algebra = line_min_algebra()
        values = [ExtRat(Fraction(k, 2)) for k in range(13)] + [INF]
        assert len(values) ** 3 > congruence_module._GRID_CELLS // 3**3
        expected = reference_grid_congruences(algebra, values)
        assert len(expected) > 1
        for mirrors in BOTH_MIRRORS:
            with mirrors():
                assert [t.matrix for t in grid_congruences(algebra, values)] == expected


class TestLatticeKernelsMatchTheEntries:
    """Lattice operations on the mirror against the same operations on
    ``ExtRat`` entries, on both mirrors."""

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(data=st.data(), mode=st.sampled_from(["M", "Q"]))
    @settings(max_examples=40, deadline=None)
    def test_lattice_operations(self, mirrors, data, mode):
        algebra = data.draw(kernel_algebras(max_size=4))
        carrier = algebra.carrier
        thetas = data.draw(st.lists(congruences_on(algebra), min_size=1, max_size=3))
        s, t = thetas[0], thetas[-1]
        lowest = reference_pointwise(min, [u.matrix for u in thetas])
        cells = itertools.product(enumerate(carrier), repeat=2)
        start = [(x, y, lowest[i][j]) for (i, x), (j, y) in cells]
        with mirrors():
            wide = [revalidated(u) for u in thetas]
            assert (meet(wide).matrix.D.dtype == object) == (mirrors is object_mirrors)
            highest = reference_pointwise(max, [u.matrix for u in thetas])
            assert as_rows(meet(wide).matrix) == highest
            closed = reference_closure(carrier, algebra.ops, start, mode)
            assert as_rows(join(wide, mode).matrix) == closed
            assert as_rows(compose(wide[0], wide[-1])) == reference_compose(s.matrix, t.matrix)

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_restrict_push_down_and_pull_back(self, mirrors, data):
        algebra = data.draw(kernel_algebras(max_size=4))
        carrier = algebra.carrier
        theta, other = data.draw(congruences_on(algebra)), data.draw(congruences_on(algebra))
        sub, _ = generate_subalgebra(algebra, [data.draw(st.sampled_from(carrier))])
        classes = reference_identification(theta.matrix)[0]
        with mirrors():
            theta_w = revalidated(theta)
            rho = join([theta_w, revalidated(other)])
            restricted = restrict(theta_w, sub)
            pushed = quotient_congruence(rho, theta_w)
            _, projection = quotient(algebra, theta_w)
            pulled = pullback_congruence(projection, pushed)
        assert as_rows(restricted.matrix) == reference_rows_at(
            theta.matrix, [carrier.index(x) for x in sub.carrier]
        )
        assert pushed.base.carrier == classes
        assert as_rows(pushed.matrix) == reference_rows_at(
            rho.matrix, [carrier.index(x) for x in classes]
        )
        assert as_rows(pulled.matrix) == [
            [pushed.matrix.get(projection(a), projection(b)) for b in carrier] for a in carrier
        ]
