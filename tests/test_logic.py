"""Formula satisfaction, entailment, free algebras, and closure laws."""

import pickle
import re
import time
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metra.algebra import MetricAlgebra, is_quantitative
import metra.algebra as algebra_module
import metra.extmetric as extmetric_module
import metra.logic as logic_module
from metra.errors import (
    AxiomError,
    DomainError,
    ParseError,
    ResourceLimitError,
    SignatureError,
    UnsupportedInputError,
    ValuationError,
)
from metra.extmetric import ExtRat, INF, metric_identification, render_id
from metra.filters import FiniteFilter, reduced_product
from metra.logic import (
    Add,
    Const,
    DistAtom,
    FreeAlgebra,
    Max,
    MetricEquation,
    MetricImplication,
    MetricInequality,
    Min,
    Mul,
    Presentation,
    Square,
    Sub,
    as_implication,
    check_soundness_of_free,
    closure_suite,
    entails,
    equicontinuity_check,
    factoring_map,
    free_algebra,
    in_mode_class,
    is_continuous_family,
    parse_equation,
    parse_formula,
    parse_implication,
    parse_inequality,
    satisfies,
    satisfies_inequality,
    satisfies_under,
    soundness_check,
    weak_compactness_search,
)
from metra.extmetric import PseudometricMatrix
from metra.terms import App, Signature, Var, parse_term

from conftest import (
    FINITE_POOL,
    bare_algebra,
    line_algebra,
    line_max_algebra,
    line_min_algebra,
    metric_spaces,
    object_mirrors,
    reference_entails,
    reference_satisfies,
    reference_satisfies_inequality,
    revalidated,
    space_from,
)

SIG2 = Signature({"sigma": 2})
# Arguments that are no distance: ExtRat raises ValueError, TypeError or
# OverflowError for them, and the logic entry points turn that into DomainError.
BAD_VALUES = ["x", -1, None, float("inf")]


def discrete_pair():
    """Two points at infinite distance, empty signature."""
    space = space_from(("a", "b"), lambda x, y: ExtRat(0) if x == y else INF)
    return bare_algebra(space)


def unit_max_algebra():
    """({0, 1}, |.|, sigma = max): the witness model for the free-algebra laws."""
    space = space_from((0, 1), lambda x, y: abs(x - y))
    table = {(p, q): max(p, q) for p in (0, 1) for q in (0, 1)}
    return MetricAlgebra(SIG2, space, {"sigma": table})


class TestFormulaTypes:
    def test_equation_coerces_bound(self):
        e = MetricEquation(Var("x"), Var("y"), Fraction(3, 2))
        assert e.bound == ExtRat("3/2")
        assert str(e) == "x =[3/2] y"

    def test_equation_rejects_negative_bound(self):
        with pytest.raises(DomainError):
            MetricEquation(Var("x"), Var("y"), Fraction(-1))

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_equation_bound_errors_are_typed(self, bad):
        with pytest.raises(DomainError, match="equation bound"):
            MetricEquation(Var("x"), Var("y"), bad)

    def test_basic_implication_recognizes_variable_premises(self):
        basic = parse_implication("x =[1] y |- sigma(x,x) =[1] sigma(y,y)", SIG2)
        assert basic.is_basic
        general = parse_implication(
            "sigma(x,y) =[0] x |- x =[1] y", SIG2
        )
        assert not general.is_basic

    def test_as_implication_wraps_equations(self):
        phi = as_implication(parse_equation("x =[1] y"))
        assert isinstance(phi, MetricImplication)
        assert phi.premises == ()

    def test_formula_str_round_trips(self):
        text = "x =[1] y , y =[1/2] z |- x =[3/2] z"
        phi = parse_formula(text)
        assert str(parse_formula(str(phi))) == str(phi)


class TestFormulaParsing:
    def test_parse_equation_with_signature(self):
        e = parse_equation("sigma(x,y) =[1] x", SIG2)
        assert e.lhs == App("sigma", (Var("x"), Var("y")))
        assert e.rhs == Var("x")
        assert e.bound == ExtRat(1)

    def test_parse_infinite_bound(self):
        assert parse_equation("x =[inf] y").bound == INF

    def test_missing_bracket_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_equation("x = y")
        assert err.value.column == 3

    def test_unreadable_character_reports_its_column(self):
        text = "x =[1] y @"
        with pytest.raises(ParseError) as err:
            parse_equation(text)
        assert err.value.column == text.index("@") + 1

    def test_premises_need_a_conclusion(self):
        with pytest.raises(ParseError, match="conclusion"):
            parse_formula("x =[1] y , y =[1] z")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="after the formula"):
            parse_equation("x =[1] y y")

    def test_bare_symbol_of_positive_arity_rejected(self):
        with pytest.raises(ParseError, match="takes 2 arguments"):
            parse_equation("x =[1] sigma", SIG2)

    def test_wrong_arity_application_rejected(self):
        with pytest.raises(SignatureError):
            parse_equation("sigma(x) =[1] x", SIG2)

    def test_nullary_symbols_parse_as_applications(self):
        sig = Signature({"c": 0})
        e = parse_equation("c =[0] x", sig)
        assert e.lhs == App("c", ())
        assert e.rhs == Var("x")


class TestSatisfaction:
    def test_table_evaluation_under_one_valuation(self):
        """sigma = min(p+q, 2) on {0,1,2}: sigma(1,1) = 2 sits at distance
        1 from 1, so the bound 1 is met and the bound 1/2 is not."""
        algebra = line_min_algebra()
        e1 = parse_equation("sigma(x,y) =[1] x", SIG2)
        e_half = parse_equation("sigma(x,y) =[1/2] x", SIG2)
        v = {"x": 1, "y": 1}
        assert satisfies_under(algebra, v, e1) is True
        assert satisfies_under(algebra, v, e_half) is False

    def test_syntactic_identity_holds_at_any_bound(self):
        algebra = line_min_algebra()
        e = parse_equation("sigma(x,y) =[0] sigma(x,y)", SIG2)
        assert satisfies(algebra, e).ok

    def test_unbound_variable_raises(self):
        with pytest.raises(ValuationError):
            satisfies_under(line_min_algebra(), {"x": 0}, parse_equation("x =[1] y"))

    def test_countermodel_is_lex_least(self):
        algebra = line_min_algebra()
        verdict = satisfies(algebra, parse_equation("x =[1/2] y"))
        assert not verdict.ok
        assert verdict.reason == "countermodel"
        assert verdict.value == {"x": 0, "y": 1}

    def test_unsatisfiable_premises_make_implications_vacuous(self):
        algebra = discrete_pair()
        phi = parse_formula("x =[0] y |- x =[0] y")
        assert satisfies(algebra, phi).ok

    def test_nonexpansiveness_inference_tracks_is_quantitative(self):
        """x =[1] y |- sigma(x,x) =[1] sigma(y,y) holds exactly on the
        algebras whose operations are nonexpansive."""
        phi = parse_formula("x =[1] y |- sigma(x,x) =[1] sigma(y,y)", SIG2)
        good = line_max_algebra()
        assert is_quantitative(good).ok
        assert satisfies(good, phi).ok
        bad = line_min_algebra()
        assert not is_quantitative(bad).ok
        verdict = satisfies(bad, phi)
        assert not verdict.ok
        assert verdict.value == {"x": 0, "y": 1}

    def test_valuation_cap(self):
        phi = parse_formula("x =[1] y , y =[1] z |- x =[2] z")
        with pytest.raises(ResourceLimitError) as err:
            satisfies(line_min_algebra(), phi, max_valuations=5)
        assert err.value.limit_name == "max_valuations"

    @given(
        bound=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
        extra=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3)]),
        x=st.sampled_from([0, 1, 2]),
        y=st.sampled_from([0, 1, 2]),
    )
    def test_satisfaction_is_monotone_in_the_bound(self, bound, extra, x, y):
        algebra = line_min_algebra()
        v = {"x": x, "y": y}
        tight = MetricEquation(Var("x"), Var("y"), bound)
        loose = MetricEquation(Var("x"), Var("y"), bound + extra)
        if satisfies_under(algebra, v, tight):
            assert satisfies_under(algebra, v, loose)


class TestEntailment:
    SAMPLES = [line_min_algebra(), line_max_algebra(), discrete_pair()]

    def test_member_of_delta_is_entailed(self):
        delta = [parse_equation("x =[1] y")]
        assert entails(self.SAMPLES, delta, delta[0]).ok

    def test_symmetry_of_distance(self):
        delta = [parse_equation("x =[1] y")]
        assert entails(self.SAMPLES, delta, parse_equation("y =[1] x")).ok

    def test_triangle_inequality_as_entailment(self):
        delta = [parse_equation("x =[1] y"), parse_equation("y =[1] z")]
        goal = parse_equation("x =[2] z")
        verdict = entails(self.SAMPLES, delta, goal)
        assert verdict.ok
        assert verdict.value == len(self.SAMPLES)

    def test_countermodel_names_algebra_and_valuation(self):
        delta = [parse_equation("x =[1] y")]
        verdict = entails(self.SAMPLES, delta, parse_equation("x =[1/2] y"))
        assert not verdict.ok
        assert verdict.value["algebra"] == 0
        assert verdict.value["valuation"] == {"x": 0, "y": 1}


class TestInequality:
    @staticmethod
    def at(x, y):
        """``line_min_algebra`` with constants cx = x and cy = y: an
        inequality in them alone is checked at that one valuation."""
        base = line_min_algebra()
        tables = dict(base.ops, cx=x, cy=y)
        return MetricAlgebra(Signature({"sigma": 2, "cx": 0, "cy": 0}), base.space, tables)

    def holds_at(self, ground, x, y):
        """Whether the ground inequality ``ground`` in cx and cy holds at
        (cx, cy) = (x, y); the reference agrees."""
        algebra = self.at(x, y)
        q = parse_inequality(ground, algebra.sig)
        verdict = satisfies_inequality(algebra, q)
        same_verdict(verdict, reference_satisfies_inequality(algebra, q))
        return verdict.ok

    def test_self_cancellation_always_zero(self):
        q = parse_inequality("d(x,y) - d(x,y) = 0")
        assert satisfies_inequality(line_min_algebra(), q).ok

    def test_triangle_inequality_restated(self):
        q = parse_inequality("d(x,z) - d(x,y) - d(y,z) <= 0")
        for algebra in (line_min_algebra(), line_max_algebra(), unit_max_algebra()):
            assert satisfies_inequality(algebra, q).ok

    def test_symmetry_restated(self):
        q = parse_inequality("d(x,y) - d(y,x) = 0")
        assert satisfies_inequality(line_min_algebra(), q).ok

    def test_evaluation_is_exact(self):
        assert self.holds_at("(d(cx,cy) min 1) - 1 = 0", 0, 2)
        assert not self.holds_at("(d(cx,cy) min 1) - 1 = 0", 0, 0)
        q = parse_inequality("(d(x,y) min 1) - 1 = 0")
        verdict = satisfies_inequality(line_min_algebra(), q)
        assert verdict.value == {"x": 0, "y": 0}
        same_verdict(verdict, reference_satisfies_inequality(line_min_algebra(), q))

    def test_square_and_constant_arithmetic(self):
        assert self.holds_at("d(cx,cy)^2 - 4 = 0", 0, 2)
        q = parse_inequality("d(x,y)^2 - 4 = 0")
        verdict = satisfies_inequality(line_min_algebra(), q)
        assert verdict.value == {"x": 0, "y": 0}
        same_verdict(verdict, reference_satisfies_inequality(line_min_algebra(), q))

    def test_precedence_max_is_loosest(self):
        q = parse_inequality("d(x,y) max 1 + 1 >= 0")
        assert q.expr == Max(
            DistAtom(Var("x"), Var("y")), Add(Const(Fraction(1)), Const(Fraction(1)))
        )

    def test_precedence_square_binds_tightest(self):
        q = parse_inequality("d(x,y)^2 * 2 >= 0")
        assert q.expr == Mul(Square(DistAtom(Var("x"), Var("y"))), Const(Fraction(2)))

    def test_infinite_atom_is_unsupported(self):
        # (a, a) holds; the scan stops at (a, b), where d(x, y) is infinite.
        q = parse_inequality("d(x,y) >= 0")
        message = "d(x, y) is infinite; expression arithmetic needs finite distances"
        with pytest.raises(UnsupportedInputError) as err:
            satisfies_inequality(discrete_pair(), q)
        assert str(err.value) == message
        with pytest.raises(UnsupportedInputError, match=re.escape(message)):
            reference_satisfies_inequality(discrete_pair(), q)

    def test_comparison_must_be_with_zero(self):
        with pytest.raises(ParseError, match="compare with 0"):
            parse_inequality("d(x,y) >= 1")

    def test_countermodel_reported(self):
        q = parse_inequality("1 - d(x,y) = 0")
        verdict = satisfies_inequality(line_min_algebra(), q)
        assert not verdict.ok
        assert verdict.value == {"x": 0, "y": 0}

    def test_ultraproduct_preserves_inequalities(self):
        """Factors all satisfying an inequality pass it on to a reduced
        product along an ultrafilter."""
        q = parse_inequality("1 - d(x,y) >= 0")
        factors = [unit_max_algebra(), unit_max_algebra(), unit_max_algebra()]
        for factor in factors:
            assert satisfies_inequality(factor, q).ok
        ultra = FiniteFilter((0, 1, 2), (1,))
        rp = reduced_product(factors, ultra)
        assert rp.exists
        assert satisfies_inequality(rp.algebra, q).ok


class TestPresentation:
    def test_rejects_duplicate_generators(self):
        with pytest.raises(DomainError):
            Presentation(SIG2, ("x", "x"), ())

    def test_rejects_unknown_generator_in_relation(self):
        with pytest.raises(DomainError, match="unknown generators"):
            Presentation(SIG2, ("x",), (parse_equation("x =[1] y"),))

    def test_rejects_unknown_mode(self):
        with pytest.raises(DomainError):
            Presentation(SIG2, ("x",), (), mode="XXL")

    def test_lip_mode_needs_a_constant(self):
        with pytest.raises(DomainError):
            Presentation(SIG2, ("x",), (), mode="LIP")
        # Only the operations of positive arity are read from a mapping.
        sig = Signature({"sigma": 2, "c": 0})
        lipschitz = {"sigma": 2, "c": "junk", "other": None}
        p = Presentation(sig, ("x",), (), mode="LIP", lipschitz=lipschitz)
        assert p.lipschitz == {"sigma": Fraction(2)}

    def test_rejects_negative_depth(self):
        with pytest.raises(DomainError):
            Presentation(SIG2, ("x",), (), depth=-1)

    @pytest.mark.parametrize("bad", ["abc", float("nan"), float("inf")])
    def test_bad_lipschitz_constants_are_typed_errors(self, bad):
        for lipschitz in ({"sigma": bad}, bad):
            with pytest.raises(DomainError, match="Lipschitz constant for sigma"):
                Presentation(SIG2, ("x",), (), mode="LIP", lipschitz=lipschitz)
            with pytest.raises(DomainError, match="Lipschitz constant for sigma"):
                in_mode_class(line_max_algebra(), "LIP", lipschitz)
        with pytest.raises(DomainError, match="Lipschitz constant for sigma"):
            Presentation(SIG2, ("x",), (), mode="LIP", lipschitz={"sigma": None})


class TestFreeAlgebra:
    def test_empty_presentation_gives_discrete_infinity(self):
        """No relations and no operations: two generators stay at
        infinite distance and the unit map is injective."""
        p = Presentation(Signature(), ("x", "y"), (), mode="M", depth=0)
        free = free_algebra(p)
        assert free.size == 2
        assert free.distance(Var("x"), Var("y")) == INF
        assert free.eta("x") == Var("x")
        assert free.eta("y") == Var("y")
        assert free.space.size == 2

    def test_mode_q_depth_one_value(self):
        """With x =[1] y in mode Q, the nonexpansiveness rule forces
        d(sigma(x,x), sigma(y,y)) = 1 already at depth 1."""
        p = Presentation(
            SIG2, ("x", "y"), (parse_equation("x =[1] y", SIG2),), mode="Q", depth=1
        )
        free = free_algebra(p)
        assert free.size == 6
        s = parse_term("sigma(x,x)", SIG2)
        t = parse_term("sigma(y,y)", SIG2)
        assert free.distance(s, t) == ExtRat(1)
        assert free.distance(Var("x"), Var("y")) == ExtRat(1)

    def test_mode_m_ignores_positive_bounds(self):
        p = Presentation(
            SIG2, ("x", "y"), (parse_equation("x =[1] y", SIG2),), mode="M", depth=1
        )
        free = free_algebra(p)
        s = parse_term("sigma(x,x)", SIG2)
        t = parse_term("sigma(y,y)", SIG2)
        assert free.distance(s, t) == INF

    def test_mode_m_propagates_zero(self):
        p = Presentation(
            SIG2, ("x", "y"), (parse_equation("x =[0] y", SIG2),), mode="M", depth=1
        )
        free = free_algebra(p)
        s = parse_term("sigma(x,x)", SIG2)
        t = parse_term("sigma(y,y)", SIG2)
        assert free.distance(s, t) == ExtRat(0)
        assert free.class_of(Var("x")) == free.class_of(Var("y"))

    def test_mode_lip_scales_by_the_constant(self):
        p = Presentation(
            SIG2,
            ("x", "y"),
            (parse_equation("x =[1] y", SIG2),),
            mode="LIP",
            depth=1,
            lipschitz=2,
        )
        free = free_algebra(p)
        s = parse_term("sigma(x,x)", SIG2)
        t = parse_term("sigma(y,y)", SIG2)
        assert free.distance(s, t) == ExtRat(2)

    def test_depth_monotonicity_on_the_shared_universe(self):
        """Deeper universes add constraints, so distances can only
        shrink or stay put on the terms both depths share."""
        relations = (parse_equation("x =[1] y", SIG2),)
        shallow = free_algebra(Presentation(SIG2, ("x", "y"), relations, "Q", 1))
        deep = free_algebra(Presentation(SIG2, ("x", "y"), relations, "Q", 2))
        assert deep.size == 38
        for s in shallow.universe:
            for t in shallow.universe:
                assert deep.distance(s, t) <= shallow.distance(s, t)

    def test_relations_must_fit_in_the_universe(self):
        deep_eq = parse_equation("sigma(sigma(x,y),x) =[1] x", SIG2)
        with pytest.raises(UnsupportedInputError, match="depth"):
            free_algebra(Presentation(SIG2, ("x", "y"), (deep_eq,), "Q", 1))

    def test_apply_within_and_outside_the_universe(self):
        p = Presentation(SIG2, ("x", "y"), (), mode="Q", depth=1)
        free = free_algebra(p)
        inside = free.apply("sigma", (Var("x"), Var("y")))
        assert inside == parse_term("sigma(x,y)", SIG2)
        with pytest.raises(DomainError, match="outside the depth"):
            free.apply("sigma", (inside, Var("x")))
        with pytest.raises(SignatureError):
            free.apply("sigma", (Var("x"),))

    def test_eta_rejects_non_generators(self):
        free = free_algebra(Presentation(SIG2, ("x",), (), mode="Q", depth=0))
        with pytest.raises(DomainError):
            free.eta("z")

    def test_term_cap_is_enforced(self):
        p = Presentation(SIG2, ("x", "y"), (), mode="Q", depth=3)
        with pytest.raises(ResourceLimitError):
            free_algebra(p, max_terms=10)

    @pytest.mark.parametrize("mode, k", [("M", None), ("Q", None), ("LIP", 2)])
    def test_results_pass_the_public_constructors(self, mode, k):
        relations = (parse_equation("x =[1/2] y", SIG2), parse_equation("y =[0] z", SIG2))
        p = Presentation(SIG2, ("x", "y", "z"), relations, mode, depth=1, lipschitz=k)
        free = free_algebra(p)
        assert revalidated(free.theta) == free.theta
        assert revalidated(free.space) == free.space
        assert free.space.size < free.size

    def test_a_relation_broken_by_the_closure_raises(self, monkeypatch):
        relations = (parse_equation("x =[1] y", SIG2),)
        p = Presentation(SIG2, ("x", "y"), relations, mode="Q", depth=1)
        universe = free_algebra(p).universe
        rows = [[ExtRat(0) if s == t else INF for t in universe] for s in universe]
        broken = PseudometricMatrix(universe, rows)
        monkeypatch.setattr(logic_module, "closure_fixpoint", lambda *a, **k: broken)
        with pytest.raises(AxiomError, match="breaks its relation x =\\[1\\] y") as err:
            free_algebra(p)
        assert err.value.verdict.reason == "relation"
        assert err.value.verdict.witness == (Var("x"), Var("y"))


class TestSharedUniverse:
    """Free algebras on one (signature, generators, depth) share the term
    universe; each keeps its own theta, lookups and pickle."""

    SIG = Signature({"c": 0, "sigma": 2})

    def free(self, relation, mode="Q"):
        relations = (parse_equation(relation, self.SIG),)
        return free_algebra(Presentation(self.SIG, ("x", "y"), relations, mode, depth=1))

    def test_one_universe_and_own_thetas(self):
        a, b = self.free("x =[1] y"), self.free("x =[2] sigma(x,c)")
        assert a.universe is b.universe
        assert a.theta.carrier is a.universe and b.theta.carrier is b.universe
        assert a.distance(Var("x"), Var("y")) == ExtRat(1)
        assert b.distance(Var("x"), Var("y")) == INF
        assert a.theta != b.theta

    def test_a_larger_cap_after_a_refusal(self):
        p = Presentation(self.SIG, ("x", "y"), (), mode="Q", depth=1)
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="exceeds 11 terms"):
                free_algebra(p, max_terms=11)
        assert free_algebra(p, max_terms=12).size == 12
        with pytest.raises(ResourceLimitError, match="exceeds 11 terms"):
            free_algebra(p, max_terms=11)

    @staticmethod
    def message(call, *args) -> str:
        with pytest.raises(DomainError) as err:
            call(*args)
        return str(err.value)

    def test_lookups_and_their_errors(self):
        """``eta``, ``class_of``, ``distance`` and ``apply`` on a shared
        universe, inside it and outside it."""
        free = self.free("x =[0] sigma(x,c)", "M")
        x, y, c = Var("x"), Var("y"), App("c")
        assert [free.eta("x"), free.eta("y")] == [x, y]
        assert free.class_of(App("sigma", (x, c))) == x
        assert free.apply("sigma", (x, c)) == x
        assert free.apply("sigma", (y, x)) == App("sigma", (y, x))
        assert free.distance(App("sigma", (x, c)), x) == ExtRat(0)
        assert free.distance(x, y) == INF
        deep = parse_term("sigma(sigma(x,y),c)", self.SIG)
        for term in (deep, Var("z"), App("x"), "x", [1]):
            want = f"element {render_id(term)} is not in the "
            assert self.message(free.class_of, term) == want + "source carrier"
            assert self.message(free.distance, x, term) == want + "carrier"
            assert self.message(free.distance, term, x) == want + "carrier"
        want = "sigma(sigma(sigma(x,y),c),x) falls outside the depth-1 universe"
        assert self.message(free.apply, "sigma", (deep, x)) == want
        assert self.message(free.eta, "z") == "'z' is not a generator"

    def test_pickles(self):
        free = self.free("x =[1/2] y")
        loaded = pickle.loads(pickle.dumps(free))
        assert loaded.universe == free.universe and loaded.theta == free.theta
        assert loaded.distance(Var("x"), Var("y")) == ExtRat(Fraction(1, 2))


class TestClassOf:
    """``class_of``, and so ``eta`` and ``apply``, reads a term's class off
    its row of ``theta``'s mirror; ``metric_identification`` names the
    same classes."""

    @staticmethod
    def outcome(call, *args):
        try:
            return call(*args)
        except DomainError as err:
            return str(err)

    @pytest.mark.parametrize("mirror", ["int64", "object"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_identification(self, mirror, data):
        depth = data.draw(st.integers(0, 1))
        mode = data.draw(st.sampled_from(["M", "Q", "LIP"]))
        k = data.draw(st.sampled_from([1, Fraction(3, 2), 2])) if mode == "LIP" else None
        bounds = st.sampled_from([Fraction(0)] * 3 + FINITE_POOL + EDGE_BOUNDS)
        relations = data.draw(st.lists(
            st.builds(MetricEquation, small_terms(depth), small_terms(depth), bounds),
            max_size=4,
        ))
        p = Presentation(SIG_CUB, ("x", "y", "z"), relations, mode, depth, lipschitz=k)
        outside = [App("u", (App("u", (Var("x"),)),)), Var("w"), App("x"), "x", [1]]
        with object_mirrors() if mirror == "object" else nullcontext():
            free = free_algebra(p)
            qmap = metric_identification(free.theta)[1]
            for term in free.universe + tuple(outside):
                assert self.outcome(free.class_of, term) == self.outcome(qmap.class_of, term)
            for name in p.variables:
                assert free.eta(name) == qmap.class_of(Var(name))
            args = data.draw(st.tuples(*[st.sampled_from(free.universe)] * 2))
            want = App("b", args)
            got = self.outcome(free.apply, "b", args)
            assert got == (qmap.class_of(want) if want in free.universe else
                           f"{want} falls outside the depth-{depth} universe")

    def test_reads_no_identification(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a class was read through the metric identification")

        sig = Signature({"c": 0, "sigma": 2})
        relations = (parse_equation("x =[0] sigma(x,c)", sig),)
        free = free_algebra(Presentation(sig, ("x", "y"), relations, "M", depth=1))
        monkeypatch.setattr(logic_module, "metric_identification", refuse)
        monkeypatch.setattr(extmetric_module, "metric_identification", refuse)
        x, c = Var("x"), App("c")
        assert [free.eta("x"), free.eta("y")] == [x, Var("y")]
        assert free.class_of(App("sigma", (x, c))) == x
        assert free.apply("sigma", (x, c)) == x
        with pytest.raises(DomainError, match="is not in the source carrier"):
            free.class_of(Var("z"))


class TestSoundness:
    def presentation(self):
        return Presentation(
            SIG2, ("x", "y"), (parse_equation("x =[1] y", SIG2),), mode="Q", depth=1
        )

    def test_witness_algebra_certifies_the_computed_distance(self):
        """({0,1}, max) satisfies the relations and realizes distance 1
        between sigma(x,x) and sigma(y,y), so the computed value 1 is
        tight: the sample refutes any smaller claim."""
        p = self.presentation()
        verdict = check_soundness_of_free(p, [unit_max_algebra()], trials=10)
        assert verdict.ok
        assert verdict.value > 0
        s = parse_term("sigma(x,x)", SIG2)
        t = parse_term("sigma(y,y)", SIG2)
        smaller = MetricEquation(s, t, Fraction(1, 2))
        assert not entails([unit_max_algebra()], p.relations, smaller).ok

    def test_empty_relations_are_vacuously_sound(self):
        p = Presentation(SIG2, ("x", "y"), (), mode="Q", depth=1)
        assert check_soundness_of_free(p, [unit_max_algebra()], trials=5).ok

    def test_corrupted_distances_are_caught(self):
        """Halving the computed pseudometric claims bounds the relations
        do not entail; the sample model reports the violation."""
        p = self.presentation()
        free = free_algebra(p)
        halved = [
            [v.scale(Fraction(1, 2)) if not v.is_infinite else v for v in row]
            for row in free.theta.entries
        ]
        doctored = FreeAlgebra(
            p, free.universe, PseudometricMatrix(free.universe, halved)
        )
        verdict = soundness_check(doctored, [unit_max_algebra()], trials=5)
        assert not verdict.ok
        assert verdict.reason == "unsound-distance"
        assert verdict.witness[:2] == (Var("x"), Var("y"))

    def test_samples_outside_the_mode_class_are_rejected(self):
        with pytest.raises(DomainError, match="mode-Q"):
            check_soundness_of_free(self.presentation(), [line_min_algebra()])


class TestFactoringMap:
    def presentation(self):
        return Presentation(
            SIG2, ("x", "y"), (parse_equation("x =[1] y", SIG2),), mode="Q", depth=1
        )

    def test_evaluation_factors_through_the_quotient(self):
        free = free_algebra(self.presentation())
        algebra = unit_max_algebra()
        verdict = factoring_map(free, algebra, {"x": 0, "y": 1})
        assert verdict.ok
        mapping = verdict.value
        assert mapping[free.class_of(Var("x"))] == 0
        assert mapping[free.class_of(parse_term("sigma(x,y)", SIG2))] == 1

    def test_valuation_must_satisfy_the_relations(self):
        p = Presentation(
            SIG2, ("x", "y"), (parse_equation("x =[0] y", SIG2),), mode="Q", depth=1
        )
        free = free_algebra(p)
        with pytest.raises(DomainError, match="does not satisfy"):
            factoring_map(free, unit_max_algebra(), {"x": 0, "y": 1})

    def test_algebra_must_sit_in_the_mode_class(self):
        free = free_algebra(self.presentation())
        with pytest.raises(DomainError, match="mode-Q"):
            factoring_map(free, line_min_algebra(), {"x": 0, "y": 0})

    def test_corrupted_free_distances_break_nonexpansiveness(self):
        p = self.presentation()
        free = free_algebra(p)
        halved = [
            [v.scale(Fraction(1, 2)) if not v.is_infinite else v for v in row]
            for row in free.theta.entries
        ]
        doctored = FreeAlgebra(
            p, free.universe, PseudometricMatrix(free.universe, halved)
        )
        verdict = factoring_map(doctored, unit_max_algebra(), {"x": 0, "y": 1})
        assert not verdict.ok
        assert verdict.reason == "not-nonexpansive"
        assert verdict.witness == (Var("x"), Var("y"))


class TestWeakCompactness:
    def line4(self):
        return [bare_algebra(space_from(range(4), lambda x, y: abs(x - y)))]

    def test_single_premise_suffices(self):
        delta = [parse_equation("x =[1] y"), parse_equation("u =[2] w")]
        verdict = weak_compactness_search(
            self.line4(), delta, parse_equation("y =[1] x"), slack=1
        )
        assert verdict.ok
        assert verdict.value == (0,)

    def test_triangle_chain_needs_both_premises(self):
        delta = [parse_equation("x =[1] y"), parse_equation("y =[1] z")]
        verdict = weak_compactness_search(
            self.line4(), delta, parse_equation("x =[2] z"), slack=2
        )
        assert verdict.ok
        assert verdict.value == (0, 1)

    def test_empty_subset_when_goal_holds_outright(self):
        delta = [parse_equation("x =[1] y")]
        verdict = weak_compactness_search(
            self.line4(), delta, parse_equation("x =[3] z"), slack=3
        )
        assert verdict.ok
        assert verdict.value == ()

    def test_exhaustion_reports_the_full_set_countermodel(self):
        delta = [parse_equation("x =[1] y")]
        verdict = weak_compactness_search(
            self.line4(), delta, parse_equation("x =[1] z"), slack="3/2"
        )
        assert not verdict.ok
        assert verdict.reason == "not-entailed-by-full-set"
        assert verdict.value["algebra"] == 0

    def test_slack_cannot_undershoot_the_goal(self):
        with pytest.raises(DomainError):
            weak_compactness_search(
                self.line4(), [], parse_equation("x =[1] z"), slack="1/2"
            )

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_bad_slack_is_a_typed_error(self, bad):
        with pytest.raises(DomainError, match="slack"):
            weak_compactness_search(self.line4(), [], parse_equation("x =[1] z"), slack=bad)

    def test_subset_cap(self):
        delta = [
            MetricEquation(Var(f"v{i}"), Var(f"w{i}"), 1) for i in range(21)
        ]
        with pytest.raises(ResourceLimitError):
            weak_compactness_search(
                self.line4(), delta, parse_equation("x =[1] z"), slack=2
            )


class TestEquicontinuity:
    def test_premise_free_case_returns_largest_delta(self):
        verdict = equicontinuity_check(
            [line_min_algebra()],
            parse_equation("x =[1] y"),
            eps_prime=2,
            delta_grid=[Fraction(1, 2), Fraction(1, 4)],
        )
        assert verdict.ok
        assert verdict.value == ExtRat("1/2")

    def test_nonexpansiveness_works_at_delta_eps_gap(self):
        """On a quantitative algebra the slack delta = eps' - eps makes
        the relaxed inference true, while larger grid deltas fire too
        many premises; the scan returns the largest working delta."""
        phi = parse_formula("x =[1] y |- sigma(x,x) =[1] sigma(y,y)", SIG2)
        verdict = equicontinuity_check(
            [line_max_algebra()],
            phi,
            eps_prime="3/2",
            delta_grid=[1, Fraction(1, 2), Fraction(1, 4)],
        )
        assert verdict.ok
        assert verdict.value == ExtRat("1/2")

    def test_failure_when_no_grid_delta_works(self):
        phi = parse_formula("x =[1] y |- sigma(x,x) =[1] sigma(y,y)", SIG2)
        verdict = equicontinuity_check(
            [line_min_algebra()], phi, eps_prime="5/4", delta_grid=[2, 1]
        )
        assert not verdict.ok
        assert verdict.reason == "no-grid-delta-works"

    def test_eps_prime_must_exceed_the_conclusion_bound(self):
        with pytest.raises(DomainError):
            equicontinuity_check(
                [line_min_algebra()], parse_equation("x =[1] y"), 1, [Fraction(1, 2)]
            )

    def test_grid_validation(self):
        e = parse_equation("x =[1] y")
        with pytest.raises(DomainError, match="nonempty"):
            equicontinuity_check([line_min_algebra()], e, 2, [])
        with pytest.raises(DomainError, match="positive"):
            equicontinuity_check([line_min_algebra()], e, 2, [0])
        with pytest.raises(DomainError, match="finite"):
            equicontinuity_check([line_min_algebra()], e, 2, [INF])

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_bad_eps_prime_and_deltas_are_typed_errors(self, bad):
        e = parse_equation("x =[1] y")
        with pytest.raises(DomainError, match="eps_prime"):
            equicontinuity_check([line_min_algebra()], e, bad, [1])
        with pytest.raises(DomainError, match="grid delta"):
            equicontinuity_check([line_min_algebra()], e, 2, [1, bad])



class TestCompileOncePerSearch:
    """A search reads each algebra's stored index tables and builds none,
    however many scans it runs."""

    @pytest.fixture
    def refuse_building(self, monkeypatch):
        """Arms a guard under which filling index tables or making an
        algebra fails."""

        def arm():
            def refuse(*args):
                raise AssertionError("a search built operation tables")

            monkeypatch.setattr(algebra_module, "_table_check", refuse)
            monkeypatch.setattr(MetricAlgebra, "_assign", refuse)

        return arm

    def test_weak_compactness_search(self, refuse_building):
        """Four subsets are tried; only the last reaches the second algebra."""
        algebras = [
            bare_algebra(space_from(range(n), lambda x, y: abs(x - y))) for n in (4, 5)
        ]
        delta = [parse_equation("x =[1] y"), parse_equation("y =[1] z")]
        refuse_building()
        verdict = weak_compactness_search(
            algebras, delta, parse_equation("x =[2] z"), slack=2
        )
        assert verdict.value == (0, 1)

    def test_equicontinuity_check(self, refuse_building):
        """The delta 1 fails on the first algebra and 1/2 works on both."""
        algebras = [line_max_algebra(), line_max_algebra(top=3)]
        phi = parse_formula("x =[1] y |- sigma(x,x) =[1] sigma(y,y)", SIG2)
        refuse_building()
        verdict = equicontinuity_check(algebras, phi, "3/2", [1, Fraction(1, 2)])
        assert verdict.value == ExtRat("1/2")


SCHEMA_SIGMA = parse_formula(
    "x1 =[0] y1 , x2 =[0] y2 |- sigma(x1,x2) =[0] sigma(y1,y2)", SIG2
)


class TestContinuousFamily:
    SIG_WITH_CONST = Signature({"sigma": 2, "c": 0})

    def family(self):
        return [
            SCHEMA_SIGMA,
            parse_formula("c =[0] c", self.SIG_WITH_CONST),
        ]

    def test_schemas_alone_pass_without_probes(self):
        verdict = is_continuous_family(
            self.family(), self.SIG_WITH_CONST, probes=[[], []]
        )
        assert verdict.ok

    def test_missing_schema_is_reported(self):
        verdict = is_continuous_family(
            [SCHEMA_SIGMA], self.SIG_WITH_CONST, probes=[[]]
        )
        assert not verdict.ok
        assert verdict.reason == "missing-congruence-schema"
        assert verdict.witness == ("c",)

    def test_probe_without_relaxation_fails(self):
        verdict = is_continuous_family(
            self.family(), self.SIG_WITH_CONST, probes=[[1], []]
        )
        assert not verdict.ok
        assert verdict.reason == "missing-relaxation"
        assert verdict.witness == (0, ExtRat(1))

    def test_relaxed_member_satisfies_the_probe(self):
        relaxed = parse_formula(
            "x2 =[1/2] y2 , x1 =[1/2] y1 |- sigma(x1,x2) =[1] sigma(y1,y2)", SIG2
        )
        family = self.family() + [relaxed]
        verdict = is_continuous_family(
            family, self.SIG_WITH_CONST, probes=[[1], [], []]
        )
        assert verdict.ok

    def test_uneven_premise_shift_is_rejected(self):
        lopsided = parse_formula(
            "x1 =[1/2] y1 , x2 =[1/4] y2 |- sigma(x1,x2) =[1] sigma(y1,y2)", SIG2
        )
        family = self.family() + [lopsided]
        verdict = is_continuous_family(
            family, self.SIG_WITH_CONST, probes=[[1], [], []]
        )
        assert not verdict.ok
        assert verdict.reason == "missing-relaxation"

    def test_schema_accepts_any_variable_names_and_orientations(self):
        renamed = parse_formula(
            "v =[0] u , q =[0] p |- sigma(u,p) =[0] sigma(v,q)", SIG2
        )
        verdict = is_continuous_family([renamed], SIG2, probes=[[]])
        assert verdict.ok

    def test_probe_alignment_is_checked(self):
        with pytest.raises(DomainError, match="align"):
            is_continuous_family([SCHEMA_SIGMA], SIG2, probes=[])
        with pytest.raises(DomainError, match="probe"):
            is_continuous_family([SCHEMA_SIGMA], SIG2, probes=[[0]])


class TestClosureSuite:
    def commutative_instances(self):
        return [
            line_algebra(lambda p, q: min(p, q)),
            line_algebra(lambda p, q: max(p, q)),
            line_algebra(lambda p, q: p, top=1),
        ]

    def test_equations_survive_all_three_constructions(self):
        """Commutativity is equational, so products, subalgebras, and
        arbitrary quotients of its models keep satisfying it; the first
        projection never enters the corpus."""
        commutativity = [parse_equation("sigma(x,y) =[0] sigma(y,x)", SIG2)]
        report = closure_suite(commutativity, self.commutative_instances())
        assert report.records
        assert report.unexpected_failures == []
        constructions = {r.construction for r in report.records}
        assert constructions == {"product", "subalgebra", "quotient"}
        assert not any("A2" in r.source for r in report.records)

    def test_empty_formula_list_is_trivially_closed(self):
        report = closure_suite([], [line_min_algebra()])
        assert report.unexpected_failures == []

    def test_non_reflexive_quotient_breaks_an_inference(self):
        """Halving the metric of ({0,1,2}, |.|) is congruential but has
        no isometric section, and it flips which premises fire: the
        inference x =[1/2] y |- x =[0] y holds upstairs yet fails in
        the quotient.  The suite records this as an expected failure."""
        inference = parse_formula("x =[1/2] y |- x =[0] y")
        instance = bare_algebra(space_from(range(3), lambda x, y: abs(x - y)))
        assert satisfies(instance, inference).ok
        grid = [0, Fraction(1, 2), 1, Fraction(3, 2), 2, INF]
        report = closure_suite([inference], [instance], quotient_values=grid)
        assert report.unexpected_failures == []
        broken = [
            r for r in report.expected_failures
            if r.construction == "non-reflexive-quotient"
        ]
        assert broken
        assert all(not r.expected for r in broken)
        reflexive = [
            r for r in report.records if r.construction == "reflexive-quotient"
        ]
        assert reflexive
        assert all(r.ok for r in reflexive)

    def test_non_basic_implications_are_rejected(self):
        phi = parse_formula("sigma(x,x) =[0] y |- x =[0] y", SIG2)
        with pytest.raises(DomainError, match="variable premises"):
            closure_suite([phi], [line_min_algebra()])

    def test_instances_must_share_a_signature(self):
        with pytest.raises(DomainError, match="signature"):
            closure_suite([], [line_min_algebra(), discrete_pair()])

    def test_summary_counts(self):
        report = closure_suite(
            [parse_equation("sigma(x,y) =[0] sigma(y,x)", SIG2)],
            [line_algebra(lambda p, q: min(p, q), top=1)],
        )
        text = report.summary()
        assert "unexpected" in text
        assert str(len(report.records)) in text


class TestModeClass:
    def test_every_metric_algebra_is_in_mode_m(self):
        assert in_mode_class(line_min_algebra(), "M").ok

    def test_mode_q_is_the_quantitative_check(self):
        assert in_mode_class(line_max_algebra(), "Q").ok
        assert not in_mode_class(line_min_algebra(), "Q").ok

    def test_mode_lip_checks_the_stated_constant(self):
        assert in_mode_class(line_min_algebra(), "LIP", Fraction(2)).ok
        verdict = in_mode_class(line_min_algebra(), "LIP", Fraction(1))
        assert not verdict.ok
        assert verdict.reason == "not-lipschitz"

    def test_lip_needs_a_constant_for_every_symbol(self):
        with pytest.raises(SignatureError):
            in_mode_class(line_min_algebra(), "LIP", {"other": Fraction(1)})


@settings(max_examples=40)
@given(
    data=st.data(),
    bounds=st.lists(
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]),
        min_size=1,
        max_size=3,
    ),
)
def test_entailed_equations_survive_bound_widening(data, bounds):
    """If delta entails s =[e] t then it entails every looser bound."""
    samples = [line_min_algebra(), line_max_algebra()]
    delta = [
        MetricEquation(Var("x"), Var("y"), b) for b in bounds
    ]
    goal_bound = data.draw(
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)])
    )
    widen = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
    goal = MetricEquation(Var("x"), Var("z"), goal_bound)
    wider = MetricEquation(Var("x"), Var("z"), goal_bound + widen)
    if entails(samples, delta, goal).ok:
        assert entails(samples, delta, wider).ok


# ---------------------------------------------------------------------------
# Compiled satisfaction against the one-valuation-at-a-time reference

SIG_CUB = Signature({"c": 0, "u": 1, "b": 2})
# Bounds that sit on the scaled mirror's edges: zero, infinity, a value far
# below every distance's denominator, and one far above the int64 range.
EDGE_BOUNDS = [Fraction(0), INF, Fraction(3, 2**40), 10**400]


def small_terms(depth):
    leaves = st.sampled_from([Var("x"), Var("y"), Var("z"), App("c")])
    if depth == 0:
        return leaves
    sub = small_terms(depth - 1)
    return st.one_of(
        leaves,
        st.builds(lambda a: App("u", (a,)), sub),
        st.builds(lambda a, b: App("b", (a, b)), sub, sub),
    )


@st.composite
def cub_algebras(draw):
    """A metric space of at most 5 points (finite pool plus inf) with a
    constant, a unary and a binary operation drawn at random."""
    space = draw(metric_spaces(max_size=5, allow_inf=True))
    points = st.sampled_from(space.carrier)
    ops = {
        "c": draw(points),
        "u": {(p,): draw(points) for p in space.carrier},
        "b": {(p, q): draw(points) for p in space.carrier for q in space.carrier},
    }
    return MetricAlgebra(SIG_CUB, space, ops)


equations = st.builds(
    MetricEquation,
    small_terms(2),
    small_terms(2),
    st.sampled_from(FINITE_POOL + EDGE_BOUNDS),
)


def same_verdict(got, want):
    assert (got.ok, got.reason, got.witness, got.value) == (
        want.ok, want.reason, want.witness, want.value
    )


def same_outcome(got, want):
    """The same verdict from both calls, or an ``UnsupportedInputError``
    with the same text from both."""
    try:
        expected = want()
    except UnsupportedInputError as err:
        with pytest.raises(UnsupportedInputError) as raised:
            got()
        assert str(raised.value) == str(err)
        return
    same_verdict(got(), expected)


def inequality_exprs(depth):
    """Expressions over distance atoms of small terms and the constants 0,
    1/3 and 10**30, which no int64 holds once squared or scaled."""
    atoms = st.builds(DistAtom, small_terms(1), small_terms(1))
    leaves = st.one_of(
        st.sampled_from([Const(0), Const(Fraction(1, 3)), Const(10**30)]), atoms, atoms
    )
    if depth == 0:
        return leaves
    sub = inequality_exprs(depth - 1)
    return st.one_of(
        leaves,
        st.builds(Square, sub),
        *(st.builds(op, sub, sub) for op in (Add, Sub, Mul, Max, Min)),
    )


@pytest.mark.parametrize("mirror", ["int64", "object"])
class TestCompiledMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        algebra=cub_algebras(),
        premises=st.lists(equations, max_size=2),
        conclusion=equations,
    )
    def test_satisfies(self, mirror, algebra, premises, conclusion):
        phi = MetricImplication(premises, conclusion)
        with object_mirrors() if mirror == "object" else nullcontext():
            # A space built in the context stores the Python-int mirror.
            algebra = revalidated(algebra)
            assert (algebra.space.D.dtype == object) == (
                mirror == "object"
            )
            same_verdict(satisfies(algebra, phi), reference_satisfies(algebra, phi))

    @settings(max_examples=100, deadline=None)
    @given(
        algebras=st.lists(cub_algebras(), min_size=1, max_size=3),
        delta=st.lists(equations, max_size=2),
        goal=equations,
    )
    def test_entails(self, mirror, algebras, delta, goal):
        with object_mirrors() if mirror == "object" else nullcontext():
            same_verdict(
                entails(algebras, delta, goal), reference_entails(algebras, delta, goal)
            )

    @settings(max_examples=150, deadline=None)
    @given(
        algebra=cub_algebras(),
        expr=inequality_exprs(2),
        relation=st.sampled_from([">=", "<=", "="]),
    )
    def test_satisfies_inequality(self, mirror, algebra, expr, relation):
        q = MetricInequality(expr, relation)
        with object_mirrors() if mirror == "object" else nullcontext():
            algebra = revalidated(algebra)
            same_outcome(
                lambda: satisfies_inequality(algebra, q),
                lambda: reference_satisfies_inequality(algebra, q),
            )

    @pytest.mark.parametrize(
        "text",
        [
            "d(x, z) max d(y, z) >= 0",
            "d(y, z) max d(x, z) >= 0",
            "d(u(x), y) * 0 - 1/3 <= 0",
            "1/3 - d(b(x, y), c) min 1 >= 0",
            "d(x, y)^2 - 1000000000000000000000000000000 * d(x, u(y)) <= 0",
        ],
    )
    def test_inequality_with_infinite_distances(self, mirror, text):
        """On {a, b} at 1/2 and c infinitely far from both, the first
        valuation that fails or meets an infinite atom decides."""
        def dist(p, q):
            return 0 if p == q else INF if "c" in p + q else Fraction(1, 2)

        with object_mirrors() if mirror == "object" else nullcontext():
            space = space_from("abc", dist)
            unary = {("a",): "b", ("b",): "c", ("c",): "a"}
            binary = {(p, q): max(p, q) for p in "abc" for q in "abc"}
            algebra = MetricAlgebra(SIG_CUB, space, {"c": "b", "u": unary, "b": binary})
            assert (space.D.dtype == object) == (mirror == "object")
            q = parse_inequality(text, SIG_CUB)
            same_outcome(
                lambda: satisfies_inequality(algebra, q),
                lambda: reference_satisfies_inequality(algebra, q),
            )


def pinned_algebra(w, x, y, z):
    """Ten points on a line with constants cw, cx, cy and a unary f that
    moves exactly the points from z on.

    In ``w =[0] cw , x =[0] cx , y =[0] cy |- z =[0] f(z)`` the
    countermodels are the valuations (w, x, y, z') with z' >= z, so the
    first one sits at flat index 1000 w + 100 x + 10 y + z of the
    10,000-valuation grid, and none exists for z = 10.
    """
    space = space_from(range(10), lambda p, q: abs(p - q))
    sig = Signature({"cw": 0, "cx": 0, "cy": 0, "f": 1})
    f = {(p,): p if p < z else (p + 1) % 10 for p in range(10)}
    return MetricAlgebra(sig, space, {"cw": w, "cx": x, "cy": y, "f": f})


PINNED = parse_formula(
    "w =[0] cw , x =[0] cx , y =[0] cy |- z =[0] f(z)",
    Signature({"cw": 0, "cx": 0, "cy": 0, "f": 1}),
)
# Fails exactly where PINNED does: where w, x and y sit on their constants
# and f moves z.
PINNED_INEQUALITY = parse_inequality(
    "(d(z, f(z)) min 1) - d(w, cw) - d(x, cx) - d(y, cy) <= 0",
    Signature({"cw": 0, "cx": 0, "cy": 0, "f": 1}),
)


class TestChunkEdges:
    @pytest.mark.parametrize(
        "flat", [0, 8191, 8192, 9999], ids=["first", "chunk-end", "chunk-start", "last"]
    )
    def test_first_countermodel_at_a_chunk_edge(self, flat):
        digits = [int(d) for d in f"{flat:04d}"]
        algebra = pinned_algebra(*digits)
        verdict = satisfies(algebra, PINNED)
        assert not verdict.ok
        assert verdict.value == dict(zip("wxyz", digits))
        same_verdict(verdict, reference_satisfies(algebra, PINNED))

    @pytest.mark.parametrize(
        "flat", [0, 8191, 8192, 9999], ids=["first", "chunk-end", "chunk-start", "last"]
    )
    def test_first_inequality_countermodel_at_a_chunk_edge(self, flat):
        digits = [int(d) for d in f"{flat:04d}"]
        algebra = pinned_algebra(*digits)
        verdict = satisfies_inequality(algebra, PINNED_INEQUALITY)
        assert not verdict.ok
        assert verdict.value == dict(zip("wxyz", digits))
        same_verdict(verdict, reference_satisfies_inequality(algebra, PINNED_INEQUALITY))

    def test_formula_that_holds_everywhere(self):
        algebra = pinned_algebra(9, 9, 9, 10)
        verdict = satisfies(algebra, PINNED)
        assert verdict.ok
        same_verdict(verdict, reference_satisfies(algebra, PINNED))
        assert satisfies_inequality(algebra, PINNED_INEQUALITY).ok

    def test_cap_at_the_grid_size(self, monkeypatch):
        algebra = pinned_algebra(9, 9, 9, 9)
        assert not satisfies(algebra, PINNED, max_valuations=10_000).ok
        # The cap is checked before the scan builds its first array.
        monkeypatch.setattr(logic_module, "within", None)
        with pytest.raises(ResourceLimitError) as err:
            satisfies(algebra, PINNED, max_valuations=9_999)
        assert err.value.limit_name == "max_valuations"
        assert "10000 valuations exceed the cap 9999" in str(err.value)

    def test_ground_formula_is_checked_on_one_valuation(self):
        algebra = pinned_algebra(1, 2, 3, 4)
        ground = parse_formula("cw =[1] cx", algebra.sig)
        assert satisfies(algebra, ground, max_valuations=1).ok
        with pytest.raises(ResourceLimitError, match="1 valuations exceed the cap 0"):
            satisfies(algebra, ground, max_valuations=0)
        far = parse_formula("cw =[1] cy", algebra.sig)
        verdict = satisfies(algebra, far, max_valuations=1)
        assert (verdict.ok, verdict.witness, verdict.value) == (False, (), {})
        same_verdict(verdict, reference_satisfies(algebra, far))

    def test_ground_inequality_is_checked_on_one_valuation(self):
        algebra = pinned_algebra(1, 2, 3, 4)
        near = parse_inequality("d(cw, cx) - 1 <= 0", algebra.sig)
        assert satisfies_inequality(algebra, near, max_valuations=1).ok
        with pytest.raises(ResourceLimitError, match="1 valuations exceed the cap 0"):
            satisfies_inequality(algebra, near, max_valuations=0)
        far = parse_inequality("d(cw, cy) - 1 <= 0", algebra.sig)
        verdict = satisfies_inequality(algebra, far, max_valuations=1)
        assert (verdict.ok, verdict.witness, verdict.value) == (False, (), {})
        same_verdict(verdict, reference_satisfies_inequality(algebra, far))

    def test_inequality_over_a_million_valuations_within_budget(self):
        """Six variables on ten points fill the default cap of 10**6
        valuations; the path inequality holds on all of them."""
        algebra = pinned_algebra(0, 0, 0, 0)
        q = parse_inequality(
            "d(u,v) + d(v,w) + d(w,x) + d(x,y) + d(y,z) - d(u,z) >= 0", algebra.sig
        )
        start = time.perf_counter()
        verdict = satisfies_inequality(algebra, q)
        elapsed = time.perf_counter() - start
        assert verdict.ok
        assert elapsed < 5.0, f"{elapsed:.2f} s"

    def test_entails_names_the_failing_algebra_past_a_chunk(self):
        algebras = [pinned_algebra(9, 9, 9, 10), pinned_algebra(8, 1, 9, 2)]
        delta, goal = PINNED.premises, PINNED.conclusion
        verdict = entails(algebras, delta, goal)
        assert verdict.value == {"algebra": 1, "valuation": dict(zip("wxyz", (8, 1, 9, 2)))}
        same_verdict(verdict, reference_entails(algebras, delta, goal))


@pytest.mark.parametrize("bound, holds", [(10**30 - 1, False), (10**30, True), (INF, True)])
def test_distances_beyond_int64_stay_exact(bound, holds):
    """Distances of 10**30 put the mirror on Python ints without patching."""
    algebra = bare_algebra(space_from((0, 1, 2), lambda p, q: 10**30 * abs(p - q) // 2))
    phi = MetricImplication((MetricEquation(Var("x"), Var("y"), 10**30),),
                            MetricEquation(Var("x"), Var("y"), bound))
    assert algebra.space.D.dtype == object
    verdict = satisfies(algebra, phi)
    assert verdict.ok is holds
    same_verdict(verdict, reference_satisfies(algebra, phi))


class TestSignatureChecks:
    """Every term is checked against the algebra's signature before the
    scan, also where no valuation would ever evaluate it."""

    @staticmethod
    def flip_algebra():
        """{0, 1} on a line, sigma = max and n(p) = 1 - p, so n(x) =[0] x never holds."""
        space = space_from((0, 1), lambda p, q: abs(p - q))
        sigma = {(p, q): max(p, q) for p in (0, 1) for q in (0, 1)}
        flip = {(p,): 1 - p for p in (0, 1)}
        return MetricAlgebra(Signature({"sigma": 2, "n": 1}), space, {"sigma": sigma, "n": flip})

    @pytest.mark.parametrize(
        "bad_term, message",
        [
            (App("nosuch", (Var("x"),)), "unknown operation symbol"),
            (App("sigma", (Var("x"),)), "arity 2"),
        ],
        ids=["unknown-symbol", "wrong-arity"],
    )
    def test_ill_formed_terms_raise(self, bad_term, message):
        algebra = self.flip_algebra()
        never = MetricEquation(App("n", (Var("x"),)), Var("x"), 0)
        hidden = MetricImplication((never,), MetricEquation(bad_term, Var("x"), 0))
        with pytest.raises(SignatureError, match=message):
            satisfies(algebra, MetricEquation(bad_term, Var("x"), 0))
        # The premise never holds, so no valuation reaches the conclusion.
        with pytest.raises(SignatureError, match=message):
            satisfies(algebra, hidden)
        with pytest.raises(SignatureError, match=message):
            entails([algebra], hidden.premises, hidden.conclusion)
        with pytest.raises(SignatureError, match=message):
            satisfies_inequality(algebra, MetricInequality(DistAtom(bad_term, Var("x")), ">="))
