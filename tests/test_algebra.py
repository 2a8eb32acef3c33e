"""Tests for metric algebras, homomorphisms, and algebra constructions."""

import contextlib
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import metra.algebra as algebra_module
from metra.algebra import (
    Homomorphism,
    _modulus_scan,
    MetricAlgebra,
    generate_subalgebra,
    is_homomorphism,
    is_quantitative,
    is_reflexive_quotient,
    kernel,
    product,
    quotient,
    validate_algebra,
)
from metra.congruence import (
    Congruence,
    coarsest_congruence,
    decompose_product,
    finest_congruence,
    generate_congruence,
    grid_congruences,
    is_congruential,
    join,
    pullback_congruence,
)
from metra.errors import (
    AxiomError,
    DomainError,
    ResourceLimitError,
    SignatureError,
    TableError,
)
from metra.extmetric import (
    INF,
    ExtRat,
    FiniteMetricSpace,
    PseudometricMatrix,
    SquareMatrix,
    ZERO,
    metric_identification,
)
from metra.logic import closure_suite, entails, in_mode_class, parse_formula, satisfies
from metra.terms import Signature

from conftest import (
    FINITE_POOL,
    bare_algebra,
    edges_refused,
    find_isomorphism,
    fw_close,
    image,
    line_algebra,
    line_max_algebra,
    line_min_algebra,
    maps_refused,
    metric_spaces,
    object_mirrors,
    reference_generate_subalgebra,
    reference_identification,
    reference_is_homomorphism,
    reference_modulus_scan,
    reference_product,
    reference_quotient,
    relabel,
    revalidated,
    space_from,
    symmetric_rows,
)

HALF = Fraction(1, 2)


def shrunk_copy(algebra, factor=HALF):
    """Same carrier and tables, metric multiplied by a positive factor."""
    rows = [
        [v.scale(factor) if not v.is_infinite else v for v in row]
        for row in algebra.space.entries
    ]
    space = FiniteMetricSpace(algebra.carrier, rows)
    return MetricAlgebra(algebra.sig, space, algebra.ops)


HOMOMORPHISM_SIG = Signature({"c": 0, "f": 1, "g": 2})
HOMOMORPHISM_POOL = [ExtRat(q) for q in FINITE_POOL[1:] + [Fraction(1, 3), 10**400]] + [INF]


@st.composite
def homomorphism_algebras(draw, ops=None, n=None):
    """Algebras on up to 4 points with a constant, a unary and a binary
    operation; ``ops`` fixes the tables (and ``n`` the size)."""
    n = n or draw(st.integers(min_value=1, max_value=4))
    carrier = tuple(range(n))
    rows = symmetric_rows(draw, n, st.sampled_from(HOMOMORPHISM_POOL))
    if ops is None:
        elem = st.integers(min_value=0, max_value=n - 1)
        ops = {"c": draw(elem)}
        for symbol, arity in (("f", 1), ("g", 2)):
            cells = list(itertools.product(carrier, repeat=arity))
            images = draw(st.lists(elem, min_size=len(cells), max_size=len(cells)))
            ops[symbol] = dict(zip(cells, images))
    return MetricAlgebra(HOMOMORPHISM_SIG, FiniteMetricSpace(carrier, fw_close(rows)), ops)


class TestConstruction:
    def test_partial_table_rejected(self):
        space = space_from([0, 1], lambda x, y: abs(x - y))
        with pytest.raises(TableError):
            MetricAlgebra(Signature({"f": 1}), space, {"f": {(0,): 0}})

    def test_value_outside_carrier_rejected(self):
        space = space_from([0, 1], lambda x, y: abs(x - y))
        with pytest.raises(TableError):
            MetricAlgebra(Signature({"f": 1}), space, {"f": {(0,): 0, (1,): 7}})

    def test_missing_and_unknown_tables_rejected(self):
        space = space_from([0, 1], lambda x, y: abs(x - y))
        with pytest.raises(TableError):
            MetricAlgebra(Signature({"f": 1}), space, {})
        with pytest.raises(SignatureError):
            MetricAlgebra(Signature(), space, {"g": {(): 0}})

    def test_constants_accept_bare_values(self):
        space = space_from([0, 1], lambda x, y: abs(x - y))
        algebra = MetricAlgebra(Signature({"c": 0}), space, {"c": 1})
        assert algebra.constant("c") == 1
        assert validate_algebra(algebra).ok

    @pytest.mark.parametrize(
        "tables, reason, witness",
        [
            ({"c": 1}, "missing-table", ("f",)),
            ({"c": 1, "f": [[0, 1], [1, 0]]}, "bad-shape", ("f", (2, 2))),
            ({"c": 1, "f": [1, 2]}, "value-outside-carrier", ("f", (1,))),
            ({"c": -1, "f": [1, 0]}, "value-outside-carrier", ("c", ())),
        ],
        ids=["missing", "shape", "past-the-carrier", "negative"],
    )
    def test_validation_reads_the_index_tables(self, tables, reason, witness):
        space = space_from([0, 1], lambda x, y: abs(x - y))
        tables = {symbol: np.array(table) for symbol, table in tables.items()}
        algebra = MetricAlgebra._trusted(Signature({"c": 0, "f": 1}), space, tables)
        verdict = validate_algebra(algebra)
        assert (verdict.ok, verdict.reason, verdict.witness) == (False, reason, witness)

    def test_apply_checks_arity_and_membership(self):
        algebra = line_min_algebra()
        with pytest.raises(SignatureError):
            algebra.apply("sigma", (0,))
        with pytest.raises(DomainError):
            algebra.apply("sigma", (0, 9))

    @pytest.mark.parametrize(
        "ops, message",
        [
            ({"f": {0: 1, 1: 0}}, "bad-arguments at ('f', 0)"),
            ({"f": [1, 0]}, "not-a-mapping at ('f',)"),
            ({"f": None}, "not-a-mapping at ('f',)"),
            ({"f": {(0,): 1, (1,): [0]}}, "value-outside-carrier at ('f', (1,))"),
            (None, "not-a-mapping at ()"),
        ],
        ids=["keys-not-tuples", "list", "none", "unhashable-value", "no-mapping"],
    )
    def test_malformed_tables_are_table_errors(self, ops, message):
        space = space_from([0, 1], lambda x, y: abs(x - y))
        with pytest.raises(TableError) as err:
            MetricAlgebra(Signature({"f": 1}), space, ops)
        assert str(err.value) == f"bad operation table: {message}"

    @pytest.mark.parametrize(
        "symbol, args, error, message",
        [
            ("f", 0, SignatureError, "f takes a sequence of arguments, got 0"),
            ("f", ([0],), DomainError, "element [0] is not in the carrier"),
            ("f", (7,), DomainError, "element 7 is not in the carrier"),
            ("f", (0, 1), SignatureError, "f expects 1 arguments, got 2"),
            ("g", (0,), SignatureError, "unknown operation symbol 'g'"),
        ],
        ids=["not-a-sequence", "unhashable", "outside", "arity", "unknown"],
    )
    def test_bad_apply_arguments_are_typed_errors(self, symbol, args, error, message):
        space = space_from([0, 1], lambda x, y: abs(x - y))
        algebra = MetricAlgebra(Signature({"f": 1}), space, {"f": {(0,): 1, (1,): 0}})
        with pytest.raises(error) as err:
            algebra.apply(symbol, args)
        assert str(err.value) == message

    def test_tables_are_read_only_index_arrays(self):
        line = line_min_algebra()
        algebra = MetricAlgebra(
            Signature({"c": 0, "sigma": 2}), line.space, {"c": 2, "sigma": line.ops["sigma"]}
        )
        assert algebra.tables["c"].shape == () and algebra.tables["c"] == 2
        assert algebra.tables["sigma"].tolist() == [[0, 1, 2], [1, 2, 2], [2, 2, 2]]
        with pytest.raises(ValueError):
            algebra.tables["sigma"][0, 0] = 1
        assert algebra.ops["c"] == {(): 2}
        assert validate_algebra(algebra).ok


class TestQuantitative:
    def test_truncated_sum_fails_with_expected_witness(self):
        verdict = is_quantitative(line_min_algebra())
        assert not verdict
        assert verdict.witness == ("sigma", (0, 0), (1, 1))

    def test_max_is_quantitative(self):
        assert is_quantitative(line_max_algebra()).ok

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            is_quantitative(line_min_algebra(), max_checks=10)
        # The class checks of Q and LIP share the scan's default cap: a
        # binary operation on 32 points has 1024**2 argument pairs.
        big = line_max_algebra(31)
        for mode, k in [("Q", None), ("LIP", 2)]:
            with pytest.raises(ResourceLimitError) as err:
                in_mode_class(big, mode, k)
            assert str(err.value) == "quantitativity scan exceeds 1000000 pairs"
            assert (err.value.limit_name, err.value.limit_value) == ("max_checks", 1_000_000)

    @pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
    @pytest.mark.parametrize("cells", [1 << 15, 5], ids=["blocks", "row-per-block"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_scan_matches_the_reference(self, mirrors, cells, data):
        """Same verdict and witness as the pair loop, for K = 1 and for
        fractional, tiny and huge Lipschitz constants, on metrics with
        infinite distances and values past the int64 guard."""
        source = data.draw(homomorphism_algebras())
        k = data.draw(st.sampled_from([
            None, Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3),
            Fraction(1, 10**20), Fraction(10**30 + 1, 7),
        ]))
        constants = None if k is None else {"f": k, "g": k}
        with mirrors():
            algebra = revalidated(source)
            with mock.patch.object(algebra_module, "_TRIANGLE_CELLS", cells):
                got = _modulus_scan(algebra, constants)
        want = reference_modulus_scan(algebra, constants)
        assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)

    @pytest.mark.parametrize(
        "op", [max, min, lambda p, q: min(p + q, 2), lambda p, q: (p * q) % 3]
    )
    def test_lipschitz_one_is_the_same_scan(self, op):
        from metra.logic import in_mode_class

        algebra = line_algebra(op)
        quantitative = is_quantitative(algebra)
        lipschitz = in_mode_class(algebra, "LIP", 1)
        assert quantitative.ok == lipschitz.ok
        assert quantitative.witness == lipschitz.witness
        if not quantitative:
            assert quantitative.reason == "expansive-operation"
            assert lipschitz.reason == "not-lipschitz"


def zero_pair_congruence(algebra, zeros):
    """The largest congruence below the metric that is zero on the pairs."""
    carrier = algebra.carrier
    bounds = [(x, y, algebra.space.get(x, y)) for x in carrier for y in carrier]
    rows = generate_congruence(carrier, algebra.ops, bounds + [(x, y, 0) for x, y in zeros])
    return Congruence(algebra, rows)


class TestConstructionsMatchTheReference:
    """Products, quotients and generated subalgebras built on the index
    tables have the carrier and the dict tables of the loops over carrier
    elements, and pass the public constructors."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_product(self, data):
        algebras = data.draw(st.lists(homomorphism_algebras(), min_size=1, max_size=2))
        prod, projections = product(algebras)
        carrier, ops = reference_product(algebras)
        assert (prod.carrier, prod.ops) == (carrier, ops)
        assert revalidated(prod) == prod
        for p in projections:
            revalidated(p)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_quotient(self, data):
        algebra = data.draw(homomorphism_algebras())
        pairs = st.tuples(st.sampled_from(algebra.carrier), st.sampled_from(algebra.carrier))
        theta = zero_pair_congruence(algebra, data.draw(st.lists(pairs, max_size=2)))
        quot, projection = quotient(algebra, theta)
        carrier, ops = reference_quotient(algebra, theta)
        assert (quot.carrier, quot.ops) == (carrier, ops)
        assert revalidated(quot) == quot
        revalidated(projection)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_generate_subalgebra(self, data):
        algebra = data.draw(homomorphism_algebras())
        seed = data.draw(st.lists(st.sampled_from(algebra.carrier), max_size=2))
        sub, inclusion = generate_subalgebra(algebra, seed)
        carrier, ops = reference_generate_subalgebra(algebra, seed)
        assert (sub.carrier, sub.ops) == (carrier, ops)
        assert revalidated(sub) == sub
        revalidated(inclusion)


class TestEdges:
    def test_consumers_work_on_the_index_tables(self):
        """No construction or check rebuilds carrier elements from the tables."""
        a, b = line_min_algebra(), line_max_algebra()
        phi = parse_formula("x =[1] y |- sigma(x,x) =[1] sigma(y,y)", a.sig)
        with edges_refused():
            satisfies(a, phi)
            entails([a, b], phi.premises, phi.conclusion)
            closure_suite([phi], [a, b])
            prod, projections = product([b, b])
            thetas = [kernel(p) for p in projections]
            join(thetas)
            join(thetas, mode="LIP", lipschitz={"sigma": 2})
            assert is_congruential(prod, thetas[0].matrix)
            assert len(grid_congruences(a)) > 1
            quotient(prod, thetas[0])
            sub, inclusion = generate_subalgebra(prod, [(1, 0)])
            relabel(a, {0: "u", 1: "v", 2: "w"})
            pullback_congruence(inclusion, coarsest_congruence(prod))
            assert not is_homomorphism({x: x for x in a.carrier}, a, b)
            assert not is_quantitative(a)
            assert in_mode_class(b, "LIP", Fraction(1, 2)).reason == "not-lipschitz"

    def test_the_guard_refuses_the_edges(self):
        with edges_refused(), pytest.raises(AssertionError):
            line_min_algebra().ops
        with edges_refused(), pytest.raises(AssertionError):
            line_min_algebra().apply("sigma", (0, 0))

    @pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
    def test_map_consumers_work_on_the_position_arrays(self, mirrors):
        """No construction or check reads a map through carrier elements."""
        with mirrors():
            a, b = line_min_algebra(), line_max_algebra()
            shrunk = shrunk_copy(a)
            renamed = relabel(a, {0: "u", 1: "v", 2: "w"})
            f = Homomorphism(a, shrunk, {x: x for x in a.carrier})
            with edges_refused(), maps_refused():
                prod, projections = product([a, b])
                thetas = [kernel(p) for p in projections]
                quot, projection = quotient(prod, thetas[0])
                sub, inclusion = generate_subalgebra(prod, [(1, 0)])
                assert image(inclusion) == sub
                assert image(projection) == quot
                composed = inclusion.then(projections[0])
                assert composed.fidx.tolist() == [1, 2] and composed.is_injective
                assert projections[0].is_surjective and not projections[0].is_injective
                assert inclusion.is_injective and inclusion.is_isometric
                assert not inclusion.is_surjective and not f.is_isometric
                assert pullback_congruence(f, finest_congruence(shrunk)) == kernel(f)
                assert decompose_product(prod, *thetas).ok
                failed = decompose_product(prod, thetas[0], thetas[0])
                assert failed.reason == "meet-not-the-metric"
                assert is_reflexive_quotient(projections[0]).ok
                assert is_reflexive_quotient(f).reason == "no-isometric-section"
            assert find_isomorphism(a, renamed) == {0: "u", 1: "v", 2: "w"}
            assert find_isomorphism(a, b) is None

    def test_the_map_guard_refuses_the_edges(self):
        a = line_min_algebra()
        f = Homomorphism(a, a, {x: x for x in a.carrier})
        qmap = metric_identification(a.space)[1]
        for read in (lambda: f.mapping, lambda: f(0), lambda: qmap.class_of(0)):
            with maps_refused(), pytest.raises(AssertionError):
                read()


class TestHomomorphism:
    def test_shrinking_identity_is_a_homomorphism(self):
        a = line_min_algebra()
        b = shrunk_copy(a)
        ident = {x: x for x in a.carrier}
        assert is_homomorphism(ident, a, b).ok
        verdict = is_homomorphism(ident, b, a)
        assert verdict.reason == "expansive"
        assert verdict.witness == (0, 1)

    def test_operation_preservation_failure(self):
        a = line_min_algebra()
        b = line_max_algebra()
        ident = {x: x for x in a.carrier}
        verdict = is_homomorphism(ident, a, b)
        assert verdict.reason == "operation-not-preserved"
        assert verdict.witness == ("sigma", (1, 1))

    def test_constructor_validates(self):
        a = line_min_algebra()
        with pytest.raises(AxiomError):
            Homomorphism(shrunk_copy(a), a, {x: x for x in a.carrier})
        f = Homomorphism(a, shrunk_copy(a), {x: x for x in a.carrier})
        assert f.is_surjective and f.is_injective and not f.is_isometric

    def test_constructor_rejects_keys_outside_the_source(self):
        a = line_min_algebra()
        with pytest.raises(DomainError, match="element 99 is not in the carrier"):
            Homomorphism(a, a, {**{x: x for x in a.carrier}, 99: 5})

    @pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_reference(self, mirrors, data):
        """Same verdict, reason and witness as the loop over argument tuples
        and entries, for maps that are malformed, partial, leave the target,
        break an operation, or preserve every operation and stretch a
        distance."""
        source = data.draw(homomorphism_algebras())
        kinds = ["metric", "binary", "any", "malformed"]
        n, kind = source.space.size, data.draw(st.sampled_from(kinds))
        if kind == "malformed":
            # A list is not a mapping, and a list value is not hashable.
            target = data.draw(homomorphism_algebras())
            bad = data.draw(st.sampled_from(source.carrier))
            f = data.draw(st.sampled_from([
                list(source.carrier), {x: [x] if x == bad else 0 for x in source.carrier}
            ]))
        elif kind != "any":
            # The identity into another metric, and for "binary" another
            # table of g: only g's preservation and nonexpansiveness can fail.
            ops = dict(source.ops)
            if kind == "binary":
                ops["g"] = data.draw(homomorphism_algebras(n=n)).ops["g"]
            target = data.draw(homomorphism_algebras(ops, n))
            f = {x: x for x in source.carrier}
        else:
            target = data.draw(homomorphism_algebras())
            # The image target.space.size lies outside the target.
            image = st.integers(min_value=0, max_value=target.space.size)
            f = data.draw(st.fixed_dictionaries(dict.fromkeys(source.carrier, image)))
            for x in data.draw(st.sets(st.sampled_from(source.carrier), max_size=1)):
                del f[x]
        with mirrors():
            # Rebuilt in the context, the spaces store that context's mirrors.
            got = is_homomorphism(f, revalidated(source), revalidated(target))
        want = reference_is_homomorphism(f, source, target)
        assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)

    @pytest.mark.parametrize(
        "f, reason, witness",
        [([0, 1, 2], "not-a-mapping", ()), ({0: [0], 1: 1, 2: 2}, "value-outside-target", (0,))],
    )
    def test_malformed_maps_are_typed_outcomes(self, f, reason, witness):
        a = line_min_algebra()
        verdict = is_homomorphism(f, a, a)
        assert (verdict.ok, verdict.reason, verdict.witness) == (False, reason, witness)
        with pytest.raises(AxiomError, match=reason):
            Homomorphism(a, a, f)

    @pytest.mark.parametrize("x", [[0], 99])
    def test_calls_outside_the_source_are_domain_errors(self, x):
        a = line_min_algebra()
        f = Homomorphism(a, a, {x: x for x in a.carrier})
        with pytest.raises(DomainError, match="is not in the carrier"):
            f(x)

    def test_maps_are_read_only_position_arrays(self):
        prod, projections = product([line_min_algebra(), line_max_algebra()])
        assert Homomorphism.__slots__ == ("source", "target", "fidx")
        for i, p in enumerate(projections):
            assert p.fidx.dtype == np.intp and not p.fidx.flags.writeable
            assert p.mapping == {x: x[i] for x in prod.carrier}

    def test_composition(self):
        a = line_min_algebra()
        b = shrunk_copy(a)
        c = shrunk_copy(a, Fraction(1, 4))
        f = Homomorphism(a, b, {x: x for x in a.carrier})
        g = Homomorphism(b, c, {x: x for x in a.carrier})
        assert f.then(g)(2) == 2


class TestMapsMatchTheDicts:
    """Maps on position arrays against the dict maps they replace: the
    ``mapping`` views, composition, the properties and the kernel."""

    @pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_maps(self, mirrors, data):
        """On maps of up to 6 points that need not be nonexpansive: the
        properties are read off any map, the kernel only off nonexpansive
        ones.  Constant maps are always nonexpansive, and a permutation is
        isometric exactly when it is nonexpansive."""
        x = data.draw(metric_spaces(max_size=6))
        kind = data.draw(st.sampled_from(["any", "constant", "permutation"]))
        y = x if kind == "permutation" else data.draw(metric_spaces(max_size=6))
        z = data.draw(metric_spaces(max_size=6))
        if kind == "permutation":
            f_idx = data.draw(st.permutations(range(x.size)))
        else:
            image = st.integers(min_value=0, max_value=y.size - 1)
            size = 1 if kind == "constant" else x.size
            f_idx = data.draw(st.lists(image, min_size=size, max_size=size)) * (x.size // size)
        g_idx = data.draw(st.lists(
            st.integers(min_value=0, max_value=z.size - 1), min_size=y.size, max_size=y.size
        ))
        f = {a: y.carrier[i] for a, i in zip(x.carrier, f_idx)}
        g = {b: z.carrier[i] for b, i in zip(y.carrier, g_idx)}
        nonexpansive = all(y.get(f[a], f[b]) <= x.get(a, b) for a in x.carrier for b in x.carrier)
        with mirrors():
            X, Y, Z = (bare_algebra(revalidated(s)) for s in (x, y, z))
            hf = Homomorphism._trusted(X, Y, np.array(f_idx, dtype=np.intp))
            hg = Homomorphism._trusted(Y, Z, np.array(g_idx, dtype=np.intp))
            composed = hf.then(hg)
            got = (hf.is_surjective, hf.is_injective, hf.is_isometric)
            ker = kernel(hf) if nonexpansive else None
        assert hf.mapping == f and hg.mapping == g
        assert composed.mapping == {a: g[f[a]] for a in x.carrier}
        values = list(f.values())
        assert got == (
            set(values) == set(y.carrier),
            len(set(values)) == len(values),
            all(y.get(f[a], f[b]) == x.get(a, b) for a in x.carrier for b in x.carrier),
        )
        if ker is not None:
            assert ker.matrix.entries == tuple(
                tuple(y.get(f[a], f[b]) for b in x.carrier) for a in x.carrier
            )

    @pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_construction_maps(self, mirrors, data):
        """Projections, inclusions and quotient projections of products of
        up to 6 points."""
        n1, n2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        a = data.draw(homomorphism_algebras(n=n1))
        b = data.draw(homomorphism_algebras(n=n2))
        point = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
        seed = data.draw(st.lists(point, max_size=2))
        with mirrors():
            prod, projections = product([revalidated(a), revalidated(b)])
            sub, inclusion = generate_subalgebra(prod, seed)
            thetas = [kernel(p) for p in projections]
            quotients = [quotient(prod, theta) for theta in thetas]
        for i, p in enumerate(projections):
            assert p.mapping == {x: x[i] for x in prod.carrier}
        assert inclusion.mapping == {x: x for x in sub.carrier}
        for theta, (quot, projection) in zip(thetas, quotients):
            carrier, _, classes = reference_identification(theta.matrix)
            assert quot.carrier == carrier
            assert projection.mapping == classes


class TestSubalgebraProductQuotient:
    def test_generate_subalgebra(self):
        sub, inclusion = generate_subalgebra(line_min_algebra(), [1])
        assert sub.carrier == (1, 2)
        assert sub.apply("sigma", (1, 1)) == 2
        assert inclusion.is_isometric

    def test_constants_join_the_closure(self):
        space = space_from([0, 1], lambda x, y: abs(x - y))
        algebra = MetricAlgebra(Signature({"c": 0}), space, {"c": 1})
        sub, _ = generate_subalgebra(algebra, [0])
        assert sub.carrier == (0, 1)

    def test_product_structure(self):
        a = line_min_algebra()
        prod, projections = product([a, a])
        assert prod.carrier[0] == (0, 0)
        assert prod.apply("sigma", ((0, 1), (1, 1))) == (1, 2)
        assert prod.space.get((0, 0), (1, 2)) == ExtRat(2)
        for p in projections:
            assert p.is_surjective

    def test_product_signature_mismatch(self):
        with pytest.raises(SignatureError):
            product([line_min_algebra(), bare_algebra(line_min_algebra().space)])

    def test_quotient_by_congruence(self):
        a = line_min_algebra()
        rows = [
            [ZERO, ExtRat(1), ExtRat(1)],
            [ExtRat(1), ZERO, ZERO],
            [ExtRat(1), ZERO, ZERO],
        ]
        theta = Congruence(a, SquareMatrix(a.carrier, rows))
        quot, projection = quotient(a, theta)
        assert quot.carrier == (0, 1)
        assert quot.space.get(0, 1) == ExtRat(1)
        assert quot.apply("sigma", (1, 1)) == 1
        assert projection(2) == 1

    def test_quotient_checks_base(self):
        a = line_min_algebra()
        b = line_max_algebra()
        rows = a.space.entries
        theta = Congruence(a, SquareMatrix(a.carrier, rows))
        with pytest.raises(DomainError):
            quotient(b, theta)


class TestKernelImage:
    def test_kernel_of_shrinking_map(self):
        a = line_min_algebra()
        f = Homomorphism(a, shrunk_copy(a), {x: x for x in a.carrier})
        ker = kernel(f)
        assert ker.matrix.get(0, 2) == ExtRat(1)
        assert ker.matrix.get(0, 1) == ExtRat(HALF)

    def test_image_of_inclusion(self):
        a = line_min_algebra()
        sub, inclusion = generate_subalgebra(a, [1])
        img = image(inclusion)
        assert img.carrier == (1, 2)

    def test_first_isomorphism_example(self):
        a = line_min_algebra()
        b = shrunk_copy(a)
        f = Homomorphism(a, b, {x: x for x in a.carrier})
        quot, _ = quotient(a, kernel(f))
        iso = find_isomorphism(quot, image(f))
        assert iso is not None

class TestReflexiveQuotient:
    def test_shrinking_quotient_is_not_reflexive(self):
        a = line_min_algebra()
        f = Homomorphism(a, shrunk_copy(a), {x: x for x in a.carrier})
        verdict = is_reflexive_quotient(f)
        assert not verdict
        assert verdict.reason == "no-isometric-section"

    def test_projection_from_square_has_diagonal_section(self):
        a = line_max_algebra()
        prod, projections = product([a, a])
        verdict = is_reflexive_quotient(projections[0])
        assert verdict.ok
        section = verdict.value
        for b in a.carrier:
            assert projections[0](section[b]) == b
        for b in a.carrier:
            for b2 in a.carrier:
                assert prod.space.get(section[b], section[b2]) == a.space.get(b, b2)

    def test_section_cap(self):
        a = line_max_algebra()
        _, projections = product([a, a])
        with pytest.raises(ResourceLimitError):
            is_reflexive_quotient(projections[0], max_sections=2)

    def test_non_surjective_rejected(self):
        a = line_min_algebra()
        sub, inclusion = generate_subalgebra(a, [1])
        assert is_reflexive_quotient(inclusion).reason == "not-surjective"


class TestIsomorphismSearch:
    def test_finds_relabeling(self):
        a = line_min_algebra()
        b = relabel(a, {0: "u", 1: "v", 2: "w"})
        iso = find_isomorphism(a, b)
        assert iso == {0: "u", 1: "v", 2: "w"}

    def test_distinguishes_metrics(self):
        a = line_min_algebra()
        assert find_isomorphism(a, shrunk_copy(a)) is None

    def test_distinguishes_operations(self):
        assert find_isomorphism(line_min_algebra(), line_max_algebra()) is None

    @given(metric_spaces(max_size=4))
    @settings(max_examples=25)
    def test_every_space_is_isomorphic_to_itself(self, space):
        a = bare_algebra(space)
        iso = find_isomorphism(a, a)
        assert iso is not None

class TestTrustedResults:
    """Algebras, maps and congruences built by construction pass the public
    constructors unchanged."""

    def test_relabel_product_subalgebra_and_quotient(self):
        a = line_min_algebra()
        renamed = relabel(a, {0: "u", 1: "v", 2: "w"})
        assert renamed.carrier == ("u", "v", "w")
        assert revalidated(renamed.space) == renamed.space
        assert revalidated(renamed) == renamed
        prod, projections = product([a, line_max_algebra()])
        assert revalidated(prod.space) == prod.space
        assert revalidated(prod) == prod
        sub, inclusion = generate_subalgebra(prod, [(1, 0)])
        assert revalidated(sub.space) == sub.space
        assert revalidated(sub) == sub
        revalidated(inclusion)
        for p in projections:
            revalidated(p)
            theta = kernel(p)
            assert revalidated(theta) == theta
            quot, projection = quotient(prod, theta)
            assert type(quot.space) is FiniteMetricSpace
            assert revalidated(quot.space) == quot.space
            assert revalidated(quot) == quot
            revalidated(projection)
            revalidated(projection.then(Homomorphism(quot, quot, {x: x for x in quot.carrier})))

    def test_canonical_map_of_a_decomposition(self):
        prod, projections = product([line_min_algebra(), line_max_algebra()])
        result = decompose_product(prod, *(kernel(p) for p in projections))
        assert result.ok
        assert revalidated(result.iso).mapping == result.iso.mapping
