"""Tests for congruential pseudometrics, the lattice operations, and the
downward closure engine behind generation and joins."""

import contextlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metra.congruence as congruence_module
import metra.extmetric as extmetric_module
from metra.algebra import (
    Homomorphism,
    MetricAlgebra,
    _spread,
    generate_subalgebra,
    kernel,
    product,
    quotient,
)
from metra.congruence import (
    Congruence,
    _grouped_cells,
    _groups,
    _merged,
    _product_cells,
    _zero_class_rule,
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
    pullback_congruence,
)
from metra.errors import (
    CongruenceError,
    DomainError,
    ResourceLimitError,
)
from metra.extmetric import (
    ExtRat,
    FiniteMetricSpace,
    INF,
    SquareMatrix,
    ZERO,
    _inf_code,
    _sup,
    _zero_reps,
    gromov_hausdorff,
    scaled_int_array,
    sup_product,
)
from metra.logic import (
    MetricEquation,
    Presentation,
    closure_suite,
    free_algebra,
    parse_equation,
)
from metra.terms import App, Signature, Var

from conftest import (
    FINITE_POOL,
    POSITIVE_POOL,
    bare_algebra,
    brute_force_gh,
    fw_close,
    line_max_algebra,
    line_min_algebra,
    metric_spaces,
    object_mirrors,
    order_leq,
    quotient_congruence,
    reference_closure,
    reference_components,
    reference_compose,
    reference_decompose,
    reference_fix_int,
    reference_grid_congruences,
    reference_identification,
    reference_is_congruential,
    reference_labels,
    reference_limit_closure,
    reference_mode_m_rule,
    reference_pointwise,
    reference_rows_at,
    reference_rule_join,
    reference_sup,
    revalidated,
    space_from,
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
                # Rebuilt in the context, the matrices store the Python-int mirror.
                assert as_rows(compose(revalidated(s), revalidated(t))) == expected
        assert compose(t1, t1).get("a", "b") == big
        assert compose(t1, t2).get("b", "a") == big
        assert compose(t1, t2).get("a", "c") == INF
        assert compose(t1, t2).get("c", "c") == ZERO

    def test_compose_on_one_base_compares_no_matrices(self, monkeypatch):
        # Both congruences share one algebra object, so the base check
        # stops at identity and never compares the spaces.
        _, t1, t2 = chain_pair()
        assert t1.base is t2.base
        expected = compose(t1, t2)
        calls = []
        monkeypatch.setattr(SquareMatrix, "__eq__", lambda *args: calls.append(args))
        assert as_rows(compose(t1, t2)) == as_rows(expected)
        assert calls == []

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
        sub, inclusion = generate_subalgebra(algebra, [1])
        rows = [
            [ZERO, ONE, ONE],
            [ONE, ZERO, ZERO],
            [ONE, ZERO, ZERO],
        ]
        theta = Congruence(algebra, SquareMatrix(algebra.carrier, rows))
        small = pullback_congruence(inclusion, theta)
        assert small.base is sub
        assert small.matrix.get(1, 2) == ZERO

    @pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_validated_restriction(self, mirrors, data):
        algebra = data.draw(kernel_algebras(max_size=4))
        theta = data.draw(congruences_on(algebra))
        seed = data.draw(st.lists(st.sampled_from(algebra.carrier), min_size=1, max_size=2))
        sub, inclusion = generate_subalgebra(algebra, seed)
        idx = [algebra.carrier.index(x) for x in sub.carrier]
        want = Congruence(sub, SquareMatrix(sub.carrier, reference_rows_at(theta.matrix, idx)))
        with mirrors():
            got = pullback_congruence(inclusion, revalidated(theta))
        assert got.base is sub
        assert got == want

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

    def test_contractive_identity_closes_to_zero(self):
        """d(b0, b1) <= d(b0, b1) / 2 from 1 reaches 0 only in the limit of
        the passes, which alone hit the cap; the closure is exact."""
        carrier = ("b0", "b1")
        ops = {"f": {("b0",): "b0", ("b1",): "b1"}}
        args = (carrier, ops, [("b0", "b1", 1)], "LIP", {"f": Fraction(1, 2)}, 40)
        for mirrors in (contextlib.nullcontext, object_mirrors):
            with mirrors():
                assert generate_congruence(*args).get("b0", "b1") == ZERO
        with pytest.raises(ResourceLimitError) as err:
            reference_closure(*args)
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

    def test_an_infinite_bound_joins_no_components(self):
        """An INF bound caps nothing, so its ends start in two components:
        the first pass runs on the group {2, 3} alone, and the second on
        {0, 1} as well, which f's finite write joined."""
        cuts, real = [], congruence_module._groups

        def spy(label):
            cuts.append([g.tolist() for g in real(label)])
            return real(label)

        args = (range(4), {"f": {(2,): 0, (3,): 1}}, [(0, 1, INF), (2, 3, 1)], "Q")
        with mock.patch.object(congruence_module, "_groups", spy):
            got = generate_congruence(*args)
        assert cuts == [[[2, 3]], [[0, 1], [2, 3]]]
        assert got.get(0, 1) == got.get(2, 3) == ONE
        assert as_rows(got) == reference_closure(*args)

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
        # arrays (D and the rows the rule reads) to Python ints and carries
        # on; c3 stays at infinity.
        carrier = ("c0", "c1", "c2", "c3")
        ops = {"f": {("c0",): "c1", ("c1",): "c2", ("c2",): "c2", ("c3",): "c3"}}
        args = (carrier, ops, [("c0", "c1", 1 << 44)], "LIP", {"f": Fraction(3, 2)})
        with mock.patch.object(
            extmetric_module, "_as_object", wraps=extmetric_module._as_object
        ) as widen:
            result = generate_congruence(*args)
        assert widen.call_count == 2
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
    def test_contracting_constants_close_on_both_engines(self, images, constraint):
        """Where the exact passes hit the cap, both mirrors give d(0, 1) = 0,
        the int64 one without widening."""
        ops = {"f": {(x,): y for x, y in images.items()}}
        args = ((0, 1, 2), ops, [constraint], "LIP", {"f": Fraction(1, 2)}, 50)
        with mock.patch.object(
            extmetric_module, "_as_object", side_effect=AssertionError("widened")
        ):
            fast = generate_congruence(*args)
        with object_mirrors():
            wide = generate_congruence(*args)
        assert fast == wide
        assert as_rows(fast) == [[ZERO, ZERO, INF], [ZERO, ZERO, INF], [INF, INF, ZERO]]
        with pytest.raises(ResourceLimitError) as exact:
            reference_closure(*args)
        assert exact.value.limit_name == "max_decreases"


def passes_only():
    """Context in which the closure proves no jump, so a LIP closure with a
    constant below 1 runs the passes that full passes run."""
    return mock.patch.object(congruence_module, "_jump", return_value=None)


def on_full_passes(run):
    """``run()`` with ``reference_fix_int`` as the closure engine: its
    result and the reference's decrease count."""
    counts = []

    def full_passes(D, denom, label, tables, mode, max_decreases):
        D, denom, count = reference_fix_int(D, denom, tables, mode, max_decreases)
        counts.append(count)
        return D, denom

    with mock.patch.object(congruence_module, "_fix_int", full_passes):
        result = run()
    return result, counts[0]


class TestIncrementalClosure:
    """The engine, which repairs over touched pivots, re-runs only rules
    whose arguments moved and stops at the first rule-stable pass, against
    full passes until nothing changes: the same matrix, and the same cap
    verdict at the reference's decrease count and one below it."""

    @pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
    @given(
        n=st.integers(min_value=1, max_value=7),
        mode=st.sampled_from(["M", "Q", "LIP"]),
        k=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]),
        cap=st.sampled_from([5, 20, 300]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_full_passes(self, mirrors, n, mode, k, cap, data):
        elem = st.integers(min_value=0, max_value=n - 1)
        # "h" maps its arguments onto a run of positions, the engine's view path.
        run = sorted(data.draw(st.sets(elem, min_size=1)))
        start = data.draw(st.integers(min_value=0, max_value=n - len(run)))
        ops = {
            "f": data.draw(st.dictionaries(st.tuples(elem), elem, max_size=n)),
            "g": data.draw(st.dictionaries(st.tuples(elem, elem), elem, max_size=16)),
            "h": {(a,): start + i for i, a in enumerate(run)},
        }
        bounds = data.draw(
            st.lists(st.tuples(elem, elem, st.sampled_from(TestClosureEngines.BOUNDS)), max_size=4)
        )
        lipschitz = dict.fromkeys(ops, k) if mode == "LIP" else None
        args = (range(n), ops, bounds, mode, lipschitz)
        with mirrors():
            try:
                want, count = on_full_passes(lambda: generate_congruence(*args, max_decreases=cap))
            except ResourceLimitError:
                with passes_only(), pytest.raises(ResourceLimitError):
                    generate_congruence(*args, max_decreases=cap)
                return
            with passes_only():
                assert generate_congruence(*args, max_decreases=count) == want
                if count:
                    with pytest.raises(ResourceLimitError):
                        generate_congruence(*args, max_decreases=count - 1)
            # A jump lands on the same fixpoint, with no more decreases.
            assert generate_congruence(*args, max_decreases=count) == want

    def test_a_rule_runs_again_when_the_repair_moves_its_arguments(self):
        """h has read rows 2 and 5 by the end of the first pass, and in the
        second only the repair moves them (it lowers d(2, 5)); h must run
        again for the closure to go on."""
        ops = {
            "g": {(0, 5): 0, (1, 1): 5, (0, 3): 0, (5, 0): 4, (3, 2): 4,
                  (4, 0): 2, (1, 0): 2, (4, 5): 0},
            "h": {(5,): 5, (2,): 1, (3,): 5, (1,): 3},
        }
        args = (range(6), ops, [(0, 5, 0)], "Q", None)
        want, count = on_full_passes(lambda: generate_congruence(*args))
        assert generate_congruence(*args, max_decreases=count) == want

    @pytest.mark.parametrize("mode", ["M", "Q", "LIP"])
    def test_free_algebras_match_full_passes(self, mode):
        """Depth-2 universes over sigma and u, whose rules read a product of
        earlier terms and write a run of positions."""
        sig = Signature({"sigma": 2, "u": 1})
        relations = [MetricEquation(Var("x"), Var("y"), Fraction(1, 2))]
        p = Presentation(
            sig, ["x", "y"], relations, mode=mode, depth=2, lipschitz=Fraction(3, 2)
        )
        want, count = on_full_passes(lambda: free_algebra(p).theta)
        assert free_algebra(p, max_decreases=count).theta == want
        # In mode M nothing falls below the bound 1/2, and -1 is no cap.
        if count:
            with pytest.raises(ResourceLimitError):
                free_algebra(p, max_decreases=count - 1)


def engine_squares(run):
    """``run()`` and, for each rule the engine was handed, the rows whose
    power its argument tuples are, or None."""
    with mock.patch.object(
        congruence_module, "_fix_int", wraps=congruence_module._fix_int
    ) as engine:
        result = run()
    return result, [table[5] for table in engine.call_args.args[3]]


class TestProductRules:
    """A rule whose argument tuples are the power S**arity of the sorted
    rows S it reads, in row-major order, takes its candidates from the
    finite pairs of ``D[S, S]`` (``_product_cells``); any other rule takes
    them within the groups of tuples with one tuple of component labels
    (``_grouped_cells``).  The block on ``D[S, S]`` against ``_spread``, and
    the engine against the full-pass one, which always spreads, on both
    mirrors."""

    MIRRORS = [contextlib.nullcontext, object_mirrors]

    @pytest.mark.parametrize("mirrors", MIRRORS)
    @given(
        n=st.integers(min_value=1, max_value=6),
        arity=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_equals_spread(self, mirrors, n, arity, data):
        rows = symmetric_rows(data.draw, n, st.sampled_from(POSITIVE_CAPS))
        S = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        args_idx = list(S[np.indices((len(S),) * arity).reshape(arity, -1)])
        with mirrors():
            D, _ = scaled_int_array(rows)
        block = _sup([D[S[:, None], S]] * arity)
        assert block.dtype == D.dtype
        assert np.array_equal(block, _spread(D, args_idx))

    @pytest.mark.parametrize("mirrors", MIRRORS)
    @given(
        n=st.integers(min_value=1, max_value=6),
        arity=st.integers(min_value=1, max_value=3),
        mode=st.sampled_from(["M", "Q", "LIP"]),
        k=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_full_passes(self, mirrors, n, arity, mode, k, data):
        elem = st.integers(min_value=0, max_value=n - 1)
        S = sorted(data.draw(st.sets(elem, min_size=1, max_size=3 if arity == 3 else n)))
        cells = list(itertools.product(S, repeat=arity))
        images = data.draw(st.lists(elem, min_size=len(cells), max_size=len(cells)))
        table = dict(zip(cells, images))
        # Without one tuple, every row of S is still read (arity 2 or more,
        # two rows or more), so the table is no longer a power.
        partial = arity > 1 and len(S) > 1 and data.draw(st.booleans())
        if partial:
            del table[data.draw(st.sampled_from(cells))]
        bounds = data.draw(
            st.lists(st.tuples(elem, elem, st.sampled_from(TestClosureEngines.BOUNDS)), max_size=3)
        )
        args = (range(n), {"f": table}, bounds, mode, {"f": k} if mode == "LIP" else None)
        with mirrors():
            try:
                want, count = on_full_passes(lambda: generate_congruence(*args, max_decreases=300))
            except ResourceLimitError:
                with passes_only(), pytest.raises(ResourceLimitError):
                    generate_congruence(*args, max_decreases=300)
                return
            with passes_only():
                got, (square,) = engine_squares(
                    lambda: generate_congruence(*args, max_decreases=count)
                )
            assert generate_congruence(*args, max_decreases=count) == want
        assert got == want
        assert square is None if partial else square.tolist() == S

    @pytest.mark.parametrize("mirrors", MIRRORS)
    @pytest.mark.parametrize("mode", ["M", "Q", "LIP"])
    def test_free_algebra_rules_are_powers_of_a_proper_subset(self, mirrors, mode):
        sig = Signature({"sigma": 2, "u": 1})
        relations = [MetricEquation(Var("x"), Var("y"), Fraction(1, 2))]
        p = Presentation(sig, ["x", "y"], relations, mode=mode, depth=2, lipschitz=Fraction(3, 2))
        with mirrors():
            want, _ = on_full_passes(lambda: free_algebra(p).theta)
            got, squares = engine_squares(lambda: free_algebra(p).theta)
        assert got == want
        # Both symbols read the depth-1 terms: x, y, sigma(., .) and u(.).
        assert [len(rows) for rows in squares] == [8, 8]
        assert got.size == 2 + 8**2 + 8

    @pytest.mark.parametrize("mirrors", MIRRORS)
    def test_full_table_joins_and_a_partial_table(self, mirrors):
        partial = {"g": {(0, 1): 2, (1, 0): 0, (1, 1): 1}}

        def run():
            return generate_congruence(range(3), partial, [(0, 1, 1)], "Q")

        with mirrors():
            _, projections = product([line_max_algebra(), line_min_algebra()])
            thetas = [kernel(p) for p in projections]
            for mode in ("M", "Q"):
                want, _ = on_full_passes(lambda: join(thetas, mode))
                got, squares = engine_squares(lambda: join(thetas, mode))
                assert got == want
                # A mode-M join hands the engine no rule tables (see ``join``).
                assert [rows.tolist() for rows in squares] == ([] if mode == "M" else [list(range(9))])
            want, _ = on_full_passes(run)
            got, squares = engine_squares(run)
        assert got == want
        assert squares == [None]


@st.composite
def finiteness_masks(draw):
    """Symmetric boolean masks with a true diagonal: a chain through the
    points in a drawn order, of drawn length, plus a few drawn entries."""
    n = draw(st.integers(min_value=1, max_value=60))
    order = draw(st.permutations(range(n)))
    length = draw(st.integers(min_value=0, max_value=n))
    point = st.integers(min_value=0, max_value=n - 1)
    extra = draw(st.lists(st.tuples(point, point), max_size=n // 4))
    mask = np.eye(n, dtype=bool)
    for a, b in [*zip(order[: length - 1], order[1:length]), *extra]:
        mask[a, b] = mask[b, a] = True
    return mask


def mask_groups(mask):
    """The groups ``_groups`` cuts from ``_merged`` over a mask's true cells."""
    return [g.tolist() for g in _groups(_merged(np.arange(len(mask)), *mask.nonzero()))]


class TestFiniteComponents:
    """Component labels merged over cells (``_merged``) and the groups cut
    from them (``_groups``), against the union-find of
    ``reference_components`` on the finiteness mask."""

    @given(mask=finiteness_masks())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_union_find(self, mask):
        assert mask_groups(mask) == reference_components(mask)

    @pytest.mark.parametrize("n", [2, 3, 500])
    def test_long_chains(self, n):
        """A chain through the points in descending and in shuffled order."""
        for order in (list(range(n))[::-1], np.random.default_rng(n).permutation(n)):
            mask = np.eye(n, dtype=bool)
            mask[order[:-1], order[1:]] = mask[order[1:], order[:-1]] = True
            assert mask_groups(mask) == [list(range(n))]

    @given(
        n=st.integers(min_value=1, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_merged_labels_follow_batches_of_writes(self, n, data):
        """Labels from start cells, then merged batch by batch as the
        closure merges its writes: after each batch they name every point's
        least component member, and cut into the reference's groups; the
        labels merged from are left as they were."""
        point = st.integers(min_value=0, max_value=n - 1)
        cells = st.lists(st.tuples(point, point), max_size=n)
        mask = np.eye(n, dtype=bool)
        label = np.arange(n)
        for batch in [data.draw(cells), *data.draw(st.lists(cells, max_size=6))]:
            a, b = np.array(batch, dtype=np.intp).reshape(-1, 2).T
            mask[a, b] = mask[b, a] = True
            old, kept = label, label.copy()
            label = _merged(old, a, b)
            assert np.array_equal(old, kept)
            _, want = reference_labels(np.where(mask, 0, _inf_code(label)))
            assert label.tolist() == want.tolist()
            assert [g.tolist() for g in _groups(label)] == reference_components(mask)


class TestTrustedResults:
    """Results built by construction pass the public constructors unchanged."""

    MODES = [("M", None), ("Q", None), ("LIP", Fraction(2)), ("LIP", Fraction(3, 2))]

    @pytest.mark.parametrize("mode, k", MODES)
    def test_closure_output_on_both_engines(self, mode, k):
        carrier = ("a0", "a1", "a2", "a3")
        ops = {"f": {("a0",): "a1", ("a1",): "a2", ("a2",): "a3", ("a3",): "a3"}}
        lipschitz = {"f": k} if k else None

        def run(lipschitz=lipschitz):
            return generate_congruence(
                carrier, ops, [("a0", "a1", 1), ("a2", "a3", 0)], mode, lipschitz
            )

        fast = run()
        with object_mirrors():
            wide = run()
        assert revalidated(fast) == fast == wide == revalidated(wide)
        if k:
            # One constant shared by every operation reads as the mapping.
            assert run(k) == fast

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
            if k:
                assert join([s, t], mode=mode, lipschitz=k) == joined
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
                # Rebuilt in the context, the mirrors are that context's.
                got = is_congruential(revalidated(algebra), revalidated(matrix))
                assert verdict_of(got) == expected

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
                got = is_congruential(revalidated(algebra), revalidated(matrix))
                assert verdict_of(got) == verdict_of(expected)

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
        sub, inclusion = generate_subalgebra(algebra, [data.draw(st.sampled_from(carrier))])
        classes = reference_identification(theta.matrix)[0]
        with mirrors():
            theta_w = revalidated(theta)
            rho = join([theta_w, revalidated(other)])
            restricted = pullback_congruence(inclusion, theta_w)
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


TINY = ExtRat(Fraction(1, 1 << 70))


def tiny_algebras():
    """A two-point algebra at distance 1/2**70 whose operation swaps the
    points, a one-point algebra of its signature, and the two-point one's
    coarsest congruence, an all-zero int64 mirror, and finest."""
    sig = Signature({"f": 1})
    space = FiniteMetricSpace("ab", [[ZERO, TINY], [TINY, ZERO]])
    two = MetricAlgebra(sig, space, {"f": {("a",): "b", ("b",): "a"}})
    one = MetricAlgebra(sig, FiniteMetricSpace("o", [[ZERO]]), {"f": {("o",): "o"}})
    return two, one, coarsest_congruence(two), finest_congruence(two)


def tiny_join(mode):
    def run(two, one, zero, metric):
        return as_rows(join([zero, metric], mode).matrix)

    def reference(two, one, zero, metric):
        lowest = reference_pointwise(min, [zero.matrix, metric.matrix])
        cells = itertools.product(enumerate(two.carrier), repeat=2)
        start = [(x, y, lowest[i][j]) for (i, x), (j, y) in cells]
        return reference_closure(two.carrier, two.ops, start, mode)

    return run, reference


def tiny_congruence(two, one, zero, metric):
    return as_rows(Congruence(two, SquareMatrix(two.carrier, as_rows(zero.matrix))).matrix)


def tiny_closure_suite(two, one, zero, metric):
    return closure_suite([parse_equation("f(f(x)) =[0] x", two.sig)], [one, two]).records


# Each entry point on tiny_algebras(), with its reference or None.
TINY_CASES = {
    "meet": (
        lambda two, one, zero, metric: as_rows(meet([zero, metric]).matrix),
        lambda two, one, zero, metric: reference_pointwise(max, [zero.matrix, metric.matrix]),
    ),
    "join-M": tiny_join("M"),
    "join-Q": tiny_join("Q"),
    "compose": (
        lambda two, one, zero, metric: as_rows(compose(zero, metric)),
        lambda two, one, zero, metric: reference_compose(zero.matrix, metric.matrix),
    ),
    "are_permutable": (
        lambda two, one, zero, metric: are_permutable(zero, metric),
        lambda two, one, zero, metric: (
            reference_compose(zero.matrix, metric.matrix)
            == reference_compose(metric.matrix, zero.matrix)
        ),
    ),
    # The algebra is the product of its quotients by its metric and by zero.
    "decompose_product": (
        lambda two, one, zero, metric: decompose_product(two, metric, zero).ok,
        lambda two, one, zero, metric: True,
    ),
    "Congruence": (
        tiny_congruence,
        lambda two, one, zero, metric: (
            as_rows(zero.matrix) if reference_is_congruential(two, zero.matrix) else None
        ),
    ),
    "sup_product": (
        lambda two, one, zero, metric: as_rows(sup_product([one.space, two.space])),
        lambda two, one, zero, metric: reference_sup([one.space, two.space]),
    ),
    "product": (
        lambda two, one, zero, metric: as_rows(product([one, two])[0].space),
        lambda two, one, zero, metric: reference_sup([one.space, two.space]),
    ),
    "gromov_hausdorff": (
        lambda two, one, zero, metric: gromov_hausdorff(one.space, two.space),
        lambda two, one, zero, metric: brute_force_gh(one.space, two.space),
    ),
    "grid_congruences": (
        lambda two, one, zero, metric: [as_rows(t.matrix) for t in grid_congruences(two)],
        lambda two, one, zero, metric: [as_rows(m) for m in reference_grid_congruences(two)],
    ),
    "closure_suite": (tiny_closure_suite, None),
}


class TestDenominatorsPastInt64:
    """A metric at 1/2**70 brought to one denominator with an all-zero int64
    mirror, which takes a factor of 2**70: every entry point gives the
    exact answer, the one it gives on ``object_mirrors()`` and the
    reference's where there is one."""

    @pytest.mark.parametrize("name", list(TINY_CASES))
    def test_entry_points_are_exact(self, name):
        run, reference = TINY_CASES[name]
        inputs = tiny_algebras()
        got = run(*inputs)
        with object_mirrors():
            # Built in the context, the inputs hold Python-int mirrors.
            assert run(*tiny_algebras()) == got
        if reference is not None:
            assert got == reference(*inputs)


def binary_product(m, seed):
    """The product of two m-point algebras with seeded binary tables over the
    line metric, and four congruences on it: the kernels T1 and T2 of its
    projections (whose mode-M join is all zero), T3 = min(d, 1) and
    T4 = d/2."""
    rng = random.Random(seed)
    sig = Signature({"s": 2})
    space = space_from(range(m), lambda x, y: abs(x - y))
    factors = [
        MetricAlgebra(sig, space, {"s": {
            (x, y): rng.randrange(m) for x in range(m) for y in range(m)
        }})
        for _ in range(2)
    ]
    P, projections = product(factors)
    rows = P.space.entries
    T3 = [[min(v, ONE) for v in row] for row in rows]
    T4 = [[v.scale(Fraction(1, 2)) for v in row] for row in rows]
    thetas = [kernel(p) for p in projections]
    thetas += [Congruence(P, SquareMatrix(P.carrier, t)) for t in (T3, T4)]
    return P, thetas


class TestZeroClassRule:
    """In mode M, on a zero-set that is an equivalence, the rule groups the
    argument tuples by their tuples of zero-class representatives and zeroes
    the image pairs within each group: the writes of the candidate block,
    without the block."""

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(
        n=st.integers(min_value=1, max_value=6),
        arity=st.integers(min_value=1, max_value=3),
        full=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_candidate_block(self, mirrors, n, arity, full, data):
        # A pseudometric that is zero on a drawn partition, so its zero-set
        # is an equivalence.
        label = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        rows = symmetric_rows(data.draw, n, st.sampled_from(KERNEL_POOL))
        rows = fw_close([
            [ZERO if label[i] == label[j] else rows[i][j] for j in range(n)] for i in range(n)
        ])
        cells = list(itertools.product(range(n), repeat=arity))
        if not full:
            cells = sorted(data.draw(st.sets(st.sampled_from(cells), min_size=1)))
        elem = st.integers(min_value=0, max_value=n - 1)
        res_idx = np.array(data.draw(st.lists(elem, min_size=len(cells), max_size=len(cells))))
        args_idx = list(np.array(cells).T)
        reads = np.zeros(n, dtype=bool)
        reads[np.concatenate(args_idx)] = True
        with mirrors():
            D, _ = scaled_int_array(rows)
        want = D.copy()
        lowered = reference_mode_m_rule(want, args_idx, res_idx)
        got = D.copy()
        x, y = np.divmod(_zero_class_rule(got, _zero_reps(got), args_idx, res_idx, reads), n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert sorted(set(x.tolist())) == lowered.tolist()
        # The positions returned are the positions lowered.
        assert set(zip(x.tolist(), y.tolist())) == set(zip(*(want != D).nonzero()))

    def test_a_zero_set_that_stopped_being_an_equivalence(self):
        """f, the first rule of the pass, zeroes d(2, 3) while 3 and 4 are at
        zero and 2 and 4 are not: the zero-set is no longer transitive, the
        representatives of 3 and 4 differ, and g must still see that 3 and 4
        are at distance zero and zero d(0, 2) in the same pass."""
        ops = {"f": {(0,): 2, (1,): 3}, "g": {(3,): 0, (4,): 2}}
        args = (range(5), ops, [(0, 1, 0), (3, 4, 0), (0, 4, 1)], "M", None)
        for mirrors in BOTH_MIRRORS:
            with mirrors():
                want, count = on_full_passes(lambda: generate_congruence(*args))
                assert generate_congruence(*args, max_decreases=count) == want
                with pytest.raises(ResourceLimitError):
                    generate_congruence(*args, max_decreases=count - 1)
        assert as_rows(want) == [[ZERO] * 5] * 5

    def test_large_joins_stay_small(self):
        """Mode-M joins on a 64-point binary product keep their temporaries
        under 4 MB and finish under 50 ms; the candidate block of the
        binary rule alone would be 4096**2 cells.  Each join takes about
        1-2 ms on 2 CPUs, so the time limit leaves a margin of about 30x
        (the block rule took 340 ms)."""
        P, (t1, t2, t3, t4) = binary_product(8, seed=1)
        assert join([t1, t2]) == coarsest_congruence(P)
        for pair in ([t1, t2], [t3, t4]):
            tracemalloc.start()
            try:
                join(pair)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                join(pair)
                best = min(best, time.perf_counter() - start)
            assert best < 0.050

    def test_grid_and_join_leave_numpy_ma_unimported(self):
        """numpy.ma, which a plain np.unique imports, costs about 1 MB of
        RSS; importing metra, a default-grid grid_congruences and a mode-M
        join stay clear of it.  numpy < 2 imports numpy.ma itself."""
        probe = (
            "import sys\n"
            "import numpy\n"
            "print('numpy.ma' in sys.modules)\n"
            "from metra import FiniteMetricSpace, MetricAlgebra, Signature, grid_congruences, join\n"
            "print('numpy.ma' in sys.modules)\n"
            "carrier = range(3)\n"
            "space = FiniteMetricSpace(carrier, [[abs(x - y) for y in carrier] for x in carrier])\n"
            "ops = {'g': {(x, y): max(x, y) for x in carrier for y in carrier}}\n"
            "family = grid_congruences(MetricAlgebra(Signature({'g': 2}), space, ops))\n"
            "assert len(family) == 5\n"
            "assert join(family[1:3], 'M') == family[0]\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        package_root = os.path.dirname(os.path.dirname(congruence_module.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        run = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        with_numpy, with_metra, after_calls = run.stdout.split()
        if with_numpy == "True":
            pytest.skip("this numpy imports numpy.ma at import numpy")
        assert (with_metra, after_calls) == ("False", "False")


class TestFinitePairCandidates:
    """A Q or LIP rule builds only the pairs of argument tuples whose places
    pair points of one finite component: from the finite pairs of
    ``D[S, S]`` when the tuples are S**arity (``_product_cells``), within
    the groups of one tuple of component labels otherwise
    (``_grouped_cells``).  Their finite candidates are the finite cells of
    ``_spread``'s block, each pair once, at every chunk budget.  A tuple
    alone in its group is left out: its one pair, with itself, has
    candidate 0 on the diagonal of D, which is 0 already."""

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(
        n=st.integers(min_value=1, max_value=6),
        arity=st.integers(min_value=1, max_value=3),
        power=st.booleans(),
        run=st.booleans(),
        budget=st.sampled_from([1, 7, 64, 1 << 15]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_finite_cells_of_the_spread_block(self, mirrors, n, arity, power, run, budget, data):
        if arity == 3:
            n = min(n, 4)
        # Mostly infinite: entries between drawn components are INF, and a
        # drawn entry within one may be INF too.
        comp = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        rows = symmetric_rows(data.draw, n, st.sampled_from(POSITIVE_CAPS))
        rows = [[v if comp[i] == comp[j] else INF for j, v in enumerate(row)]
                for i, row in enumerate(rows)]
        point = st.integers(min_value=0, max_value=n - 1)
        if power:
            S = np.array(sorted(data.draw(st.sets(point, min_size=1))))
            args_idx = list(S[np.indices((len(S),) * arity).reshape(arity, -1)])
        else:
            cells = sorted(data.draw(st.sets(st.tuples(*[point] * arity), min_size=1)))
            args_idx = list(np.array(cells, dtype=np.intp).reshape(-1, arity).T)
        m = len(args_idx[0])
        # Images far apart enough that a flat position decodes to its tuples.
        offset = data.draw(st.integers(min_value=0, max_value=3))
        width = offset + m
        images = np.arange(offset, width)
        if not run:
            images = np.array(data.draw(st.permutations(images.tolist())), dtype=np.intp)
        tuple_of = {int(x): t for t, x in enumerate(images)}
        with mirrors():
            D, _ = scaled_int_array(rows)
        block = _spread(D, args_idx)
        inf = _inf_code(D)
        want = {
            (t, u): block[t, u] for t in range(m) for u in range(m) if t != u and block[t, u] < inf
        }
        reads = np.zeros(n, dtype=bool)
        reads[np.concatenate(args_idx)] = True
        rows_read = reads.nonzero()[0]
        sub = D[rows_read[:, None], rows_read]
        with mock.patch.object(congruence_module, "_RULE_CELLS", budget):
            if power:
                first = offset if run else None
                chunks = list(_product_cells(sub, arity, images, first, width))
                most = max(budget, len(sub) ** 2)
            else:
                local = [np.searchsorted(rows_read, a) for a in args_idx]
                labels = reference_labels(D)[1][rows_read]
                chunks = list(_grouped_cells(sub, local, labels, images, width))
                most = max(budget, m)
        got = {}
        for pos, c in chunks:
            assert len(pos) == len(c) <= most
            assert c.dtype == D.dtype
            for p, v in zip(pos.tolist(), c.tolist()):
                x, y = divmod(p, width)
                key = tuple_of[x], tuple_of[y]
                assert key not in got
                got[key] = v
        # Only pairs whose places pair points of one component.
        label = reference_labels(D)[1]
        for t, u in got:
            assert all(label[a[t]] == label[a[u]] for a in args_idx)
        if power:
            assert all(v < inf for v in got.values())
        assert {(t, u): v for (t, u), v in got.items() if t != u and v < inf} == want

    def test_mode_q_joins_in_bounded_memory(self):
        """A mode-Q join on a 64-point binary product keeps its temporaries
        under 8 MB: its rule reads all 64 points, and builds its candidates
        from the finite pairs of the 64 x 64 block a fixed number of cells at
        a time.  The candidate block of 4096**2 cells took 128 MB."""
        P, (_, _, t3, t4) = binary_product(8, seed=1)
        tracemalloc.start()
        try:
            theta = join([t3, t4], "Q")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        # The join lowers both inputs and still separates some points.
        assert all(
            theta.matrix.at(i, j) <= min(t.matrix.at(i, j) for t in (t3, t4))
            for i in range(P.space.size)
            for j in range(P.space.size)
        )
        assert theta != coarsest_congruence(P)


def repairs(run, on_call=None):
    """``run()`` and, for each repair of one component the engine made,
    ``(points, pivots, rows lowered)`` as lists of points; ``on_call()``
    runs at each repair."""
    calls, real = [], congruence_module._repair

    def repair(D, idx, ks):
        low = real(D, idx, ks)
        calls.append((idx.tolist(), idx[ks].tolist(), idx[low.any(axis=1)].tolist()))
        if on_call is not None:
            on_call()
        return low

    with mock.patch.object(congruence_module, "_repair", repair):
        return run(), calls


@st.composite
def block_tables(draw, n):
    """Operation tables on ``range(n)`` of arity 1 or 2 that reach each kind
    of closed block of ``_fix_int``: "a" and "c" have injective images,
    often shared; "b" has injective images and reads only "a"'s points,
    and, running after it in a pass, often rows "a" has just lowered; and
    "d" is drawn freely, so it mostly sends two tuples to one image."""
    elem = st.integers(min_value=0, max_value=n - 1)
    ops = {}
    for symbol in "abcd":
        place = elem
        if symbol == "b" and ops["a"]:
            place = st.sampled_from(sorted({*ops["a"].values(), *itertools.chain(*ops["a"])}))
        arity = draw(st.sampled_from([1, 1, 2]))
        args = draw(st.lists(st.tuples(*[place] * arity), unique=True, max_size=n))
        if symbol == "d":
            images = draw(st.lists(elem, min_size=len(args), max_size=len(args)))
        else:
            images = draw(st.permutations(range(n)))
        ops[symbol] = dict(zip(args, images))
    return ops


# Distances of the star and chord in ``covering_tables``.
STAR = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


@st.composite
def covering_tables(draw):
    """``(n, ops, bounds)`` where the product rule "a" maps S onto C, a
    copy of a star on S around s0, and "b" sends two points of S to a(s0)
    and to a point outside.  A chord of S between the ends of two arms,
    shorter than the two together and no shorter than their difference,
    lowers its images' cell, so "a" lowers rows of the component C.  C is
    covered, and a(s0)'s row is not lowered, unless C's arms start longer
    than S's, which "a" lowers, or a near-cover bound halves C's arm to
    the chord's end, below the candidate there.  The points are
    renumbered at random."""
    m = draw(st.integers(min_value=3, max_value=5))
    n = 2 * m + draw(st.integers(min_value=1, max_value=2))
    at = draw(st.permutations(range(n)))
    S, C = at[:m], at[m:2 * m]
    arms = draw(st.lists(st.sampled_from(STAR), min_size=m - 1, max_size=m - 1))
    longer = [0] * (m - 1)
    if draw(st.booleans()):
        extra = st.sampled_from([0, Fraction(1, 2)])
        longer = draw(st.lists(extra, min_size=m - 1, max_size=m - 1))
    bounds = []
    for i, (v, up) in enumerate(zip(arms, longer), start=1):
        bounds += [(S[0], S[i], v), (C[0], C[i], v + up)]
    i, j = draw(st.lists(st.integers(1, m - 1), min_size=2, max_size=2, unique=True))
    far, near = arms[i - 1] + arms[j - 1], abs(arms[i - 1] - arms[j - 1])
    bounds.append((S[i], S[j], draw(st.sampled_from([v for v in STAR if near <= v < far]))))
    if draw(st.booleans()):
        bounds.append((C[0], C[i], arms[i - 1] / 2))
    k, ell = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    ops = {"a": {(s,): c for s, c in zip(S, C)}, "b": {(S[k],): C[0], (S[ell],): at[-1]}}
    return n, ops, bounds


def matches_full_passes(args, cap=300):
    """``generate_congruence(*args)`` against full passes: the same matrix
    within the reference's decrease count and not below it, with no jump;
    with the jump on, the same matrix; or the cap on both."""
    try:
        want, count = on_full_passes(lambda: generate_congruence(*args, max_decreases=cap))
    except ResourceLimitError:
        with passes_only(), pytest.raises(ResourceLimitError):
            generate_congruence(*args, max_decreases=cap)
        return
    with passes_only():
        assert generate_congruence(*args, max_decreases=count) == want
        if count:
            with pytest.raises(ResourceLimitError):
                generate_congruence(*args, max_decreases=count - 1)
    assert generate_congruence(*args, max_decreases=count) == want


class TestBlockPivots:
    """A repair after the first pivots only on the points that lie in two
    or more closed blocks of the pass before (see ``_fix_int``): its
    component, unless a rule covers it, the images of each clean rule with
    injective images, and each other cell a rule lowered.  Against full
    passes on both mirrors, on tables with every kind of block and with
    covered components, and through spies on the repair."""

    # Beside TestClosureEngines.BOUNDS, a bound that LIP rescaling by 3/2
    # or 3 carries past the int64 guard partway through a pass.
    BOUNDS = TestClosureEngines.BOUNDS + [Fraction(1 << 44)]

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(
        n=st.integers(min_value=2, max_value=8),
        mode=st.sampled_from(["M", "Q", "LIP"]),
        k=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_full_passes(self, mirrors, n, mode, k, data):
        ops = data.draw(block_tables(n))
        elem = st.integers(min_value=0, max_value=n - 1)
        bounds = data.draw(
            st.lists(st.tuples(elem, elem, st.sampled_from(self.BOUNDS)), max_size=5)
        )
        lipschitz = dict.fromkeys(ops, k) if mode == "LIP" else None
        with mirrors():
            matches_full_passes((range(n), ops, bounds, mode, lipschitz))

    def test_a_point_on_two_cells_of_a_rule_that_read_lowered_rows(self):
        """"a" lowers d(4, 5) and d(1, 6) in the first pass, then "d" reads
        rows 1, 2, 4 and 5 with d(2, 4) = d(4, 5) = 1 and d(2, 5) still
        infinite: its candidates are no pseudometric, so its two cells
        (4, 0) and (0, 3) are blocks of two points and 0, on both, is a
        pivot of the next repair.  Taking them as one closed block leaves 0
        out; the matrix still comes out right, through "d" running again,
        but the decrease count does not."""
        ops = {"a": {(1,): 6, (2,): 5, (3,): 1, (4,): 4},
               "d": {(1,): 6, (2,): 4, (4,): 0, (5,): 3}}
        args = (range(7), ops, [(3, 1, 3), (2, 4, 1)], "Q", None)
        want, count = on_full_passes(lambda: generate_congruence(*args))
        got, calls = repairs(lambda: generate_congruence(*args, max_decreases=count))
        assert got == want
        with pytest.raises(ResourceLimitError):
            generate_congruence(*args, max_decreases=count - 1)
        # The first repair after the first pass is on all seven points.
        idx, pivots, _ = calls[0]
        assert idx == list(range(7)) and 0 in pivots

    def test_a_point_on_two_cells_of_a_table_that_is_not_injective(self):
        """f sends 0 and 2 to 4: its cells (4, 5) and (4, 6) are two blocks
        of two points, so 4 is a pivot and d(5, 6) = 2.  Counting them as
        one block leaves d(5, 6) infinite, since f never runs again."""
        ops = {"f": {(0,): 4, (1,): 5, (2,): 4, (3,): 6}}
        args = (range(7), ops, [(0, 1, 1), (2, 3, 1)], "Q", None)
        want, count = on_full_passes(lambda: generate_congruence(*args))
        got, calls = repairs(lambda: generate_congruence(*args, max_decreases=count))
        assert got == want
        assert got.get(5, 6) == ExtRat(2)
        assert [(idx, pivots) for idx, pivots, _ in calls] == [([4, 5, 6], [4])]

    def test_a_point_of_a_component_that_a_rule_lowered(self):
        """d(0, 1) = 1 before the pass, and f lowers d(1, 5) to 1: 1 lies in
        its component and in f's block, so it is a pivot and d(0, 5) = 2.
        Without the component's block f's alone leaves d(0, 5) infinite."""
        args = (range(6), {"f": {(2,): 1, (3,): 5}}, [(0, 1, 1), (2, 3, 1)], "Q", None)
        want, count = on_full_passes(lambda: generate_congruence(*args))
        got, calls = repairs(lambda: generate_congruence(*args, max_decreases=count))
        assert got == want
        assert got.get(0, 5) == ExtRat(2)
        assert [(idx, pivots) for idx, pivots, _ in calls] == [([0, 1, 5], [1])]

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    def test_components_a_rule_does_not_cover_or_did_not_lower(self, mirrors):
        """f sends 4, 5, 6 and 7 to 0, 1, 2 and 3, and P = {4, 5, 6, 7} is
        closer than {0, 1, 2} except at (6, 4): d(4, 6) = 2 > d(0, 2) = 1.
        f lowers d(0, 1) and d(1, 2), but {0, 1, 2} is not covered, so
        its points stay pivots and d(3, 2) = d(3, 0) + d(0, 2) = 2.
        g covers {8, 9, 10}, lowering only d(8, 9), so 8 and 9 drop its
        block and 10, whose row g did not lower, keeps it; with h's cell
        (10, 16), 10 is the one pivot, and d(16, 8) = 2."""
        ops = {"f": {(4,): 0, (5,): 1, (6,): 2, (7,): 3},
               "g": {(11,): 8, (12,): 9, (13,): 10},
               "h": {(14,): 10, (15,): 16}}
        caps = [(0, 1, 2), (1, 2, 2), (0, 2, 1), (4, 5, 1), (5, 6, 1), (7, 4, 1),
                (8, 9, 2), (8, 10, 1), (9, 10, 1), (11, 12, 1), (12, 13, 1), (11, 13, 1),
                (14, 15, 1)]
        args = (range(17), ops, caps, "Q", None)
        with mirrors():
            want, count = on_full_passes(lambda: generate_congruence(*args))
            got, calls = repairs(lambda: generate_congruence(*args, max_decreases=count))
            with pytest.raises(ResourceLimitError):
                generate_congruence(*args, max_decreases=count - 1)
        assert got == want
        assert got.get(3, 2) == got.get(16, 8) == ExtRat(2)
        # After the first pass's repairs, of the four components of 3 or 4.
        assert [(idx, pivots) for idx, pivots, _ in calls[4:]] == [
            ([0, 1, 2, 3], [0, 1, 2]), ([8, 9, 10, 16], [10])
        ]

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    def test_matches_full_passes_on_covering_rules(self, mirrors):
        """Product rules that cover a component, fall one bound short of it
        or leave a point of it unlowered, against full passes; some
        examples must cover a component."""
        covered, real = [], congruence_module._covered

        def spy(*args):
            cover = real(*args)
            covered.append(cover is not None)
            return cover

        @given(
            tables=covering_tables(),
            mode=st.sampled_from(["Q", "LIP"]),
            k=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]),
        )
        @settings(max_examples=150, deadline=None)
        def run(tables, mode, k):
            n, ops, bounds = tables
            lipschitz = dict.fromkeys(ops, k) if mode == "LIP" else None
            matches_full_passes((range(n), ops, bounds, mode, lipschitz))

        with mirrors(), mock.patch.object(congruence_module, "_covered", spy):
            run()
        assert any(covered)

    def test_a_component_drops_its_block_once_a_pass(self):
        """f and g both cover C = {6, 7}: each sends two arguments at
        distance 1 onto C and a third, in their component, to 8 or to 9, so
        each lowers rows 6 and 7.  Both rules' blocks hold 6 and 7, and C
        drops its own block once; dropped again for g, 6 and 7 would count
        one block each, and without them as pivots the repair would leave
        d(8, 9) = d(8, 6) + d(6, 9) = 2 infinite."""
        ops = {"f": {(0,): 6, (1,): 7, (2,): 8}, "g": {(3,): 6, (4,): 7, (5,): 9}}
        caps = [(0, 1, 1), (0, 2, 1), (3, 4, 1), (3, 5, 1), (6, 7, 1)]
        args = (range(10), ops, caps, "Q", None)
        covered, real = [], congruence_module._covered

        def spy(*args):
            cover = real(*args)
            covered.append(cover is not None and cover[6])
            return cover

        want, count = on_full_passes(lambda: generate_congruence(*args))
        with mock.patch.object(congruence_module, "_covered", spy):
            got, calls = repairs(lambda: generate_congruence(*args, max_decreases=count))
        assert got == want
        assert got.get(8, 9) == ExtRat(2)
        assert covered == [True, True]
        # After the first pass's repairs of {0, 1, 2} and {3, 4, 5}.
        assert [(idx, pivots) for idx, pivots, _ in calls[2:]] == [([6, 7, 8, 9], [6, 7])]

    def test_criterion_08_repairs_nothing_after_the_first_pass(self):
        """In the depth-3 free algebra of criterion 08 one rule builds, pass
        after pass, components of 4 to 256 terms out of terms that were
        alone or in older components.  Each lies in the rule's block, and
        an older one it merges is covered: the rule's candidate is <= its
        distance on every cell of it.  So no repair runs after the first
        pass, while the rule runs in several and covers components."""
        sig = Signature({"sigma": 2})
        p = Presentation(
            sig, ["x", "y"], [MetricEquation(Var("x"), Var("y"), Fraction(1))], depth=3, mode="Q"
        )
        events, real = [], congruence_module._covered

        def covered(*args):
            cover = real(*args)
            events.append("covered" if cover is not None else "rule")
            return cover

        with mock.patch.object(congruence_module, "_covered", covered):
            repairs(lambda: free_algebra(p), on_call=lambda: events.append("repair"))
        runs = [i for i, event in enumerate(events) if event != "repair"]
        assert len(runs) >= 3 and "covered" in events
        assert "repair" not in events[runs[0]:]

    def test_the_last_repair_of_a_large_closure_pivots_on_few_points(self):
        """The depth-3 free algebra over sigma, u and x with x near
        sigma(x, x) and u(x), as in the 183-term benchmark jobs: its rules
        merge the universe into one component, and its last repair lowers
        rows of all 183 terms while pivoting on fewer than a quarter of them."""
        x = Var("x")
        relations = [
            MetricEquation(x, App("sigma", (x, x)), Fraction(1, 2)),
            MetricEquation(x, App("u", (x,)), Fraction(1)),
        ]
        p = Presentation(Signature({"sigma": 2, "u": 1}), ["x"], relations, depth=3, mode="Q")
        want, count = on_full_passes(lambda: free_algebra(p).theta)
        got, calls = repairs(lambda: free_algebra(p, max_decreases=count).theta)
        assert got == want
        idx, pivots, lowered = calls[-1]
        assert len(idx) == len(lowered) == 183
        assert len(pivots) < len(lowered) // 4

    def test_a_pass_that_sets_no_pivot_runs_on(self):
        """In the depth-2 free algebra of sigma over x and y with x near y,
        the first pass lowers cells of sigma's images, each in one closed
        block: no pivot, so no repair.  Its rule must still run again, and
        lowers more."""
        p = Presentation(
            Signature({"sigma": 2}), ["x", "y"],
            [MetricEquation(Var("x"), Var("y"), Fraction(1))], depth=2, mode="Q",
        )
        events = []
        real = congruence_module._lower

        def lower(D, cells, kept=None):
            pos = real(D, cells, kept)
            events.append(len(pos))
            return pos

        want, count = on_full_passes(lambda: free_algebra(p).theta)
        with mock.patch.object(congruence_module, "_lower", lower):
            got, _ = repairs(lambda: free_algebra(p, max_decreases=count).theta,
                             on_call=lambda: events.append("repair"))
        assert got == want
        assert "repair" not in events[:2] and min(events[:2]) > 0


CONTRACTING = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
LIMIT_GRID = [ZERO, HALF, ONE, ExtRat(Fraction(3, 2)), ExtRat(2), ExtRat(3), INF]


class TestContractingClosure:
    """LIP closures with a constant below 1, whose greatest fixpoint the
    passes reach only in the limit: each returns that fixpoint exactly, on
    int64 and on ``object_mirrors()``, or raises ``ResourceLimitError``
    when no jump to it is proved."""

    @staticmethod
    def on_both_mirrors(args):
        fast = generate_congruence(*args)
        with object_mirrors():
            assert generate_congruence(*args) == fast
        return as_rows(fast)

    def test_a_nonzero_limit_is_exact(self):
        """d(0, 1) <= d(0, 2) / 2 with d(1, 2) = 1 goes down to d(0, 1) = 1
        and d(0, 2) = 2 from above; the exact passes never get there."""
        args = (
            (0, 1, 2), {"f": {(0,): 0, (2,): 1}}, [(0, 1, 2), (1, 2, 1)],
            "LIP", {"f": Fraction(1, 2)}, 200,
        )
        two = ExtRat(2)
        assert self.on_both_mirrors(args) == [[ZERO, ONE, two], [ONE, ZERO, ONE], [two, ONE, ZERO]]
        with pytest.raises(ResourceLimitError):
            reference_closure(*args)

    def test_a_contracting_three_cycle_closes_to_zero(self):
        args = (
            (0, 1, 2), {"f": {(0,): 1, (1,): 2, (2,): 0}}, [(0, 1, 1)],
            "LIP", {"f": Fraction(1, 2)}, 200,
        )
        assert self.on_both_mirrors(args) == [[ZERO] * 3] * 3

    def test_a_contracting_free_algebra_collapses(self):
        """x =[1] y with x and y at distance 0 from u(x) and u(y), for u
        LIP(1/2): d(x, y) <= d(x, y) / 2, so the depth-3 universe of 8
        terms is one class."""
        x, y = Var("x"), Var("y")
        relations = [
            MetricEquation(x, y, Fraction(1)),
            MetricEquation(x, App("u", (x,)), Fraction(0)),
            MetricEquation(y, App("u", (y,)), Fraction(0)),
        ]
        p = Presentation(
            Signature({"u": 1}), ["x", "y"], relations, mode="LIP", depth=3,
            lipschitz=Fraction(1, 2),
        )
        times = []
        for _ in range(3):
            start = time.perf_counter()
            free = free_algebra(p)
            times.append(time.perf_counter() - start)
        assert free.size == 8 and free.space.size == 1
        assert min(times) < 0.05

    def test_an_unproved_closure_still_hits_the_cap(self):
        """Here every jump's guess has a singular set of equations (g, of
        constant 1, makes cycles of gain 1), so the passes run on to the
        cap, though the limit is 0 everywhere."""
        ops = {"f": {(1,): 2, (2,): 0}, "g": {(0, 1): 1, (2, 0): 0, (2, 1): 0, (2, 2): 0}}
        args = (
            (0, 1, 2), ops, [(2, 1, Fraction(3, 2)), (0, 2, Fraction(1, 2))],
            "LIP", {"f": Fraction(1, 3), "g": Fraction(1)}, 500,
        )
        for mirrors in (contextlib.nullcontext, object_mirrors):
            with mirrors(), pytest.raises(ResourceLimitError) as err:
                generate_congruence(*args)
            assert err.value.limit_name == "max_decreases"
        assert np.abs(reference_limit_closure(*args[:3], args[4])).max() < 1e-9

    @staticmethod
    def jump_from(args, values, cells):
        """``_jump`` on the closure of ``args``, from its start with the
        unordered ``cells`` (as (i, j)) set to ``values`` on denominator 2."""
        seen, real = [], congruence_module._fix_int

        def spy(D, denom, label, tables, mode, max_decreases):
            seen.append((D.copy(), denom, tables))
            return real(D, denom, label, tables, mode, max_decreases)

        with mock.patch.object(congruence_module, "_fix_int", spy):
            closed = generate_congruence(*args)
        start, denom, tables = seen[0]
        assert denom == 1
        np.fill_diagonal(start, 0)
        D = np.where(start < _inf_code(start), 2 * start, start)
        for (i, j), v in zip(cells, values):
            D[i, j] = D[j, i] = 2 * v
        flat = np.array([i * len(D) + j for i, j in cells])
        groups, label = reference_labels(D)
        return closed, congruence_module._jump(D, 2, (start, denom), tables, flat, groups, label)

    def test_the_certificate_refuses_a_closed_tight_guess_below_the_gfp(self):
        """a = d(0, 1) <= 1, b = d(2, 3) <= 10 and c = d(4, 5), with
        c <= max(a, b) / 2 by g and b <= 2c by h: the greatest fixpoint has
        b = 10 and c = 5.  From bounds with b = 1 and c = 1/2 the jump
        guesses c = a / 2 and b = 2c, a guess that lowers nothing and is
        tight; but through the max of g the cycle b, c has gain 1, so no
        v > 0 solves v = 1 + H(v).  The place of the max in the bounds (a)
        alone, without the policy rounds, would let the guess through."""
        ops = {"g": {(0, 2): 4, (1, 3): 5}, "h": {(4,): 2, (5,): 3}}
        args = (range(6), ops, [(0, 1, 1), (2, 3, 10)], "LIP", {"g": Fraction(1, 2), "h": Fraction(2)})
        closed, out = self.jump_from(args, [1, Fraction(1, 2)], [(2, 3), (4, 5)])
        assert (closed.get(2, 3), closed.get(4, 5)) == (ExtRat(10), ExtRat(5))
        assert out is None

    def test_the_proof_refuses_a_guess_whose_max_moves(self):
        """a = d(0, 1) <= 8, e = d(1, 2) <= 1, b = d(3, 4) <= 4 and
        c = d(0, 2) <= max(a, b) / 2 by g: the greatest fixpoint has a = 3
        and c = 2.  From a = 5 and c = 5/2 the least bounds give c = a / 2
        (a is the max there) and a = c + e, so the guess a = 2, c = 1.  It
        lowers nothing, and v = 1 + H(v) has a positive solution, but at
        the guess the max of g is b: c's bound is not tight, and the jump
        refuses it."""
        ops = {"g": {(0, 3): 0, (1, 4): 2}}
        args = (range(5), ops, [(0, 1, 8), (1, 2, 1), (3, 4, 4)], "LIP", {"g": Fraction(1, 2)})
        closed, out = self.jump_from(args, [5, Fraction(5, 2)], [(0, 1), (0, 2)])
        assert (closed.get(0, 1), closed.get(0, 2)) == (ExtRat(3), ExtRat(2))
        assert out is None

    @given(n=st.integers(min_value=1, max_value=5), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_limit(self, n, data):
        """A closure with a constant below 1 returns a pseudometric within
        its caps that keeps the rule, lies at or above every grid solution
        and matches the float limit of the passes; or it raises at the cap
        on both mirrors."""
        elem = st.integers(min_value=0, max_value=n - 1)
        ops = {
            "f": data.draw(st.dictionaries(st.tuples(elem), elem, max_size=n)),
            "g": data.draw(st.dictionaries(st.tuples(elem, elem), elem, max_size=8)),
        }
        lipschitz = {
            "f": data.draw(st.sampled_from(CONTRACTING)),
            "g": data.draw(st.sampled_from(CONTRACTING + [Fraction(1), Fraction(2)])),
        }
        bounds = data.draw(
            st.lists(st.tuples(elem, elem, st.sampled_from(FINITE_POOL)), min_size=1, max_size=4)
        )
        carrier = tuple(range(n))
        args = (carrier, ops, bounds, "LIP", lipschitz, 500)
        try:
            rows = self.on_both_mirrors(args)
        except ResourceLimitError as err:
            assert err.limit_name == "max_decreases"
            with object_mirrors(), pytest.raises(ResourceLimitError):
                generate_congruence(*args)
            return
        assert fw_close(rows) == rows
        assert mode_rule_holds(rows, {x: x for x in carrier}, ops, "LIP", lipschitz)
        assert all(rows[x][y] <= ExtRat(b) for x, y, b in bounds)
        if n <= 3:
            grid = greatest_grid_fixpoint(carrier, ops, bounds, "LIP", LIMIT_GRID, lipschitz)
            assert all(a >= b for ra, rb in zip(rows, grid) for a, b in zip(ra, rb))
        limit = reference_limit_closure(carrier, ops, bounds, lipschitz)
        got = np.array([[math.inf if v.is_infinite else float(v.finite) for v in r] for r in rows])
        finite = np.isfinite(got)
        assert (finite == np.isfinite(limit)).all()
        assert np.abs(got[finite] - limit[finite]).max(initial=0) <= 1e-9


@st.composite
def join_factors(draw, n):
    """An algebra on ``n`` points with a unary and a binary operation, over
    a metric from the positive pool plus inf."""
    carrier = tuple(range(n))
    rows = symmetric_rows(draw, n, st.sampled_from(POSITIVE_CAPS))
    elem = st.integers(min_value=0, max_value=n - 1)
    ops = {}
    for symbol, arity in (("f", 1), ("g", 2)):
        cells = list(itertools.product(carrier, repeat=arity))
        ops[symbol] = dict(zip(cells, draw(st.lists(elem, min_size=len(cells), max_size=len(cells)))))
    return MetricAlgebra(Signature({"f": 1, "g": 2}), FiniteMetricSpace(carrier, fw_close(rows)), ops)


@st.composite
def kernels_and_meets(draw):
    """Two or three congruences built unchecked on a product of two factors,
    2 to 8 points in all: distinct kernels of maps onto the factors, onto a
    quotient of a factor or onto a quotient of the product (by congruences
    of ``congruences_on``), some met with another of them."""
    a = draw(st.integers(min_value=1, max_value=4))
    b = draw(st.integers(min_value=2 if a == 1 else 1, max_value=min(4, 8 // a)))
    factors = [draw(join_factors(a)), draw(join_factors(b))]
    algebra, projections = product(factors)
    maps = [*projections, quotient(algebra, draw(congruences_on(algebra)))[1]]
    for p, factor in zip(projections, factors):
        maps.append(p.then(quotient(factor, draw(congruences_on(factor)))[1]))
    pool = [kernel(f) for f in maps]
    order = draw(st.permutations(range(len(pool))))
    pairs = st.tuples(st.sampled_from(range(len(pool))), st.booleans())
    picks = draw(st.lists(pairs, min_size=2, max_size=3))
    return [meet([pool[i], pool[j]]) if both else pool[i] for i, (j, both) in zip(order, picks)]


class TestModeMJoin:
    """A mode-M join hands the engine no rules: the path closure of its
    inputs' minimum is congruential already (see ``join``).  Against the
    engine handed the rule tables, and full passes with them: the same
    matrix, the same decrease count and the same cap point."""

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_rule_running_engine(self, mirrors, data):
        with mirrors():
            thetas = data.draw(kernels_and_meets())
            want, count = on_full_passes(lambda: reference_rule_join(thetas))
            assert reference_rule_join(thetas, count) == want
            got, squares = engine_squares(lambda: join(thetas, max_decreases=count))
            assert squares == []
            assert got.matrix == want
            assert (got.matrix.D.dtype == object) == (mirrors is object_mirrors)
            if count:
                with pytest.raises(ResourceLimitError):
                    join(thetas, max_decreases=count - 1)
                with pytest.raises(ResourceLimitError):
                    reference_rule_join(thetas, count - 1)


class TestBlockedCompose:
    """``compose``, a broadcast over blocks of rows, against the
    entry-by-entry ``reference_compose``, on both mirrors."""

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(n=st.integers(1, 6) | st.integers(33, 40), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_the_reference(self, mirrors, n, data):
        """On a line cut into components at infinite distance, congruences
        s * |x // k - y // k| within the classes of a coarser cut and
        infinite across them; from 33 points on (1089 cells a row) the
        broadcast runs over two blocks of rows or more."""
        cut = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))

        def rows(k, part, s):
            return [
                [ExtRat(s * abs(x // k - y // k)) if part[x] == part[y] else INF for y in range(n)]
                for x in range(n)
            ]

        with mirrors():
            algebra = bare_algebra(FiniteMetricSpace(range(n), rows(1, cut, 1)))
            thetas = []
            for _ in range(2):
                k = data.draw(st.integers(1, 4))
                merge = data.draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
                s = data.draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3)]))
                matrix = SquareMatrix(range(n), rows(k, [merge[c] for c in cut], s))
                thetas.append(Congruence(algebra, matrix))
            for t1, t2 in itertools.permutations(thetas):
                got = compose(t1, t2)
                assert (got.D.dtype == object) == (mirrors is object_mirrors)
                assert as_rows(got) == reference_compose(t1.matrix, t2.matrix)


@st.composite
def one_operation_algebras(draw, n, arity):
    """An algebra on ``n`` points with one operation ``g`` of ``arity``, over
    a metric from 1 and 2, plus inf on at most three points; on four points
    the default grid of ``grid_congruences`` then has at most 4**6 candidates."""
    carrier = tuple(range(n))
    values = [ONE, ExtRat(2)] + ([INF] if n <= 3 else [])
    rows = symmetric_rows(draw, n, st.sampled_from(values))
    cells = list(itertools.product(carrier, repeat=arity))
    images = draw(st.lists(st.sampled_from(carrier), min_size=len(cells), max_size=len(cells)))
    space = FiniteMetricSpace(carrier, fw_close(rows))
    return MetricAlgebra(Signature({"g": arity}), space, {"g": dict(zip(cells, images))})


class TestDecompositionProperty:
    """``decompose_product`` reads the meet and the join on the mirrors and
    returns its canonical map unchecked once the meet, join and
    permutability verdicts pass (see its docstring).  Its outcome, reason,
    witness and map equal ``reference_decompose``'s, which builds the meet
    and the join as congruences and the map through the ``Homomorphism``
    constructor; a map it returns is a bijective isometry."""

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(arity=st.integers(1, 2), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_canonical_map_is_an_isomorphism(self, mirrors, arity, data):
        with mirrors():
            if data.draw(st.booleans()):
                # A pair from the grid family of a 2-4 point algebra.
                algebra = data.draw(one_operation_algebras(data.draw(st.integers(2, 4)), arity))
                family = grid_congruences(algebra)
                t1, t2 = (data.draw(st.sampled_from(family)) for _ in range(2))
                must_decompose = False
            else:
                # A product of two algebras, by its projections' kernels.
                factors = [data.draw(one_operation_algebras(n, arity)) for n in
                           data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))]
                algebra, projections = product(factors)
                t1, t2 = data.draw(st.permutations([kernel(p) for p in projections]))
                must_decompose = True
            outcome = decompose_product(algebra, t1, t2)
            want = reference_decompose(algebra, t1, t2)
        assert (outcome.ok, outcome.reason, outcome.witness) == (want.ok, want.reason, want.witness)
        assert outcome.ok or not must_decompose
        if outcome.ok:
            assert outcome.algebra == want.algebra and outcome.factors == want.factors
            assert outcome.iso.fidx.tolist() == want.iso.fidx.tolist()
            assert outcome.iso.is_injective and outcome.iso.is_surjective
            assert outcome.iso.is_isometric

    def test_runs_no_lattice_operation(self, monkeypatch):
        """The meet and the join are read on the mirrors: no meet, join or
        closure runs, for any of the four outcomes."""

        def refuse(*args, **kwargs):
            raise AssertionError("decompose_product built a meet or a join")

        for name in ("meet", "join", "closure_fixpoint"):
            monkeypatch.setattr(congruence_module, name, refuse)
        prod, projections = square_algebra()
        t1, t2 = kernel(projections[0]), kernel(projections[1])
        assert decompose_product(prod, t1, t2).ok
        assert decompose_product(prod, t1, t1).reason == "meet-not-the-metric"
        assert decompose_product(prod, t1, finest_congruence(prod)).reason == "join-not-zero"
        assert decompose_product(*chain_pair()).reason == "not-permutable"
