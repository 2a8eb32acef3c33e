"""Tests for signatures, term enumeration, evaluation, and substitution."""

import itertools
import os
import pickle
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metra

from metra.errors import (
    DomainError,
    ParseError,
    ResourceLimitError,
    SignatureError,
    ValuationError,
)
from metra.terms import (
    App,
    Signature,
    TokenStream,
    Var,
    _UNIVERSES_KEPT,
    _kept_universes,
    _term_universe,
    check_term,
    enumerate_terms,
    evaluate,
    parse_term,
    substitute,
)

from conftest import line_min_algebra, reference_enumerate_terms, reference_source

SIG = Signature({"sigma": 2})
X, Y = Var("x"), Var("y")


def s(a, b):
    return App("sigma", (a, b))


class TestSignature:
    def test_validation(self):
        with pytest.raises(SignatureError):
            Signature({"bad name": 1})
        with pytest.raises(SignatureError):
            Signature({"f": -1})
        assert Signature({"f": 1}).arity("f") == 1
        with pytest.raises(SignatureError):
            Signature({"f": 1}).arity("g")

    def test_symbols_sorted(self):
        sig = Signature({"zeta": 0, "alpha": 2})
        assert sig.symbols == ("alpha", "zeta")
        assert sig.items() == (("alpha", 2), ("zeta", 0))


class TestTermBasics:
    def test_heights(self):
        assert X.height() == 0
        assert App("c").height() == 0
        assert s(X, Y).height() == 1
        assert s(s(X, X), Y).height() == 2

    def test_variables(self):
        assert s(s(X, X), Y).variables() == {"x", "y"}
        assert App("c").variables() == frozenset()

    def test_str_forms(self):
        assert str(X) == "x"
        assert str(App("c")) == "c"
        assert str(s(X, s(Y, X))) == "sigma(x,sigma(y,x))"

    def test_check_term(self):
        sig = Signature({"sigma": 2, "c": 0})
        check_term(s(X, App("c")), sig)
        with pytest.raises(SignatureError):
            check_term(App("sigma", (X,)), sig)


class TestEnumeration:
    def test_depth_zero(self):
        assert enumerate_terms(SIG, ["x"], 0) == [X]

    def test_only_constant(self):
        sig = Signature({"c": 0})
        assert enumerate_terms(sig, [], 2) == [App("c")]

    def test_depth_one_order(self):
        got = enumerate_terms(SIG, ["x", "y"], 1)
        assert got == [X, Y, s(X, X), s(X, Y), s(Y, X), s(Y, Y)]

    def test_depth_two_single_variable(self):
        got = enumerate_terms(SIG, ["x"], 2)
        sxx = s(X, X)
        assert got == [X, sxx, s(X, sxx), s(sxx, X), s(sxx, sxx)]

    @given(st.integers(min_value=0, max_value=2))
    def test_deeper_universes_extend_shallower(self, depth):
        shallow = set(enumerate_terms(SIG, ["x", "y"], depth))
        deep = set(enumerate_terms(SIG, ["x", "y"], depth + 1))
        assert shallow <= deep

    def test_order_is_sorted_by_key(self):
        got = enumerate_terms(SIG, ["x", "y"], 2)
        assert got == sorted(got, key=lambda t: t.sort_key())
        assert len(got) == len(set(got))

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_terms(SIG, ["x", "y"], 3, max_terms=100)

    @pytest.mark.parametrize(
        "sig, variables, depth, size",
        [(Signature({}), ["a", "b", "c"], 0, 3), (Signature({"c": 0, "d": 0}), ["x", "y", "z"], 2, 5)],
    )
    def test_cap_counts_variables_and_constants(self, sig, variables, depth, size):
        """A universe without applications is capped too."""
        for cap in (size - 3, size - 1):
            with pytest.raises(ResourceLimitError, match=f"term universe exceeds {cap} terms"):
                enumerate_terms(sig, variables, depth, max_terms=cap)
        assert len(enumerate_terms(sig, variables, depth, max_terms=size)) == size

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            enumerate_terms(SIG, ["x"], -1)
        with pytest.raises(SignatureError):
            enumerate_terms(SIG, ["sigma"], 0)
        with pytest.raises(SignatureError):
            enumerate_terms(SIG, ["not a name"], 0)


class TestSharedUniverse:
    """A universe is built once per (signature, names, depth) and shared:
    its tuple and rule arrays are read-only, the cap is checked on every
    call, and refusals and bad input raise on every call."""

    def test_one_universe_per_key(self):
        first = _term_universe(SIG, ["y", "x", "x"], 2, 20000)
        again = _term_universe(Signature({"sigma": 2}), ("x", "y"), 2, 20000)
        assert again[0] is first[0]
        assert _term_universe(SIG, ["x", "y"], 2, len(first[0]))[0] is first[0]
        # The same rule tables, so the same sigma argument arrays and images.
        assert again[2] is first[2]
        assert list(first[0]) == reference_enumerate_terms(SIG, ["x", "y"], 2)

    def test_keeps_the_last_few(self):
        sig = Signature({"f": 1})

        def universe(name):
            return _term_universe(sig, [name], 1, 20000)[0]

        first = universe("a")
        for i in range(_UNIVERSES_KEPT - 1):
            universe(f"b{i}")
        assert universe("a") is first
        universe(f"b{_UNIVERSES_KEPT}")
        assert universe("a") is first and len(_kept_universes) == _UNIVERSES_KEPT
        for i in range(_UNIVERSES_KEPT):
            universe(f"c{i}")
        again = universe("a")
        assert again == first and again is not first

    def test_rule_arrays_are_read_only(self):
        _, _, tables = _term_universe(Signature({"f": 1, "sigma": 2}), ["x"], 2, 20000)
        for _, args_idx, res_idx, *_ in tables:
            for array in (*args_idx, res_idx):
                with pytest.raises(ValueError):
                    array[0] = 0
                with pytest.raises(ValueError):
                    array.flags.writeable = True
        # Each table's mask and sorted rows of the rows it reads.
        for array in [a for table in tables for a in table[3:5]]:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_enumerate_terms_returns_a_fresh_list(self):
        got = enumerate_terms(SIG, ["x", "y"], 1)
        want = list(got)
        got.reverse()
        got.append(X)
        assert enumerate_terms(SIG, ["x", "y"], 1) == want

    def test_refusals_and_bad_input_raise_on_every_call(self):
        sig = Signature({"f": 1, "sigma": 2})
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="exceeds 10 terms"):
                enumerate_terms(sig, ["x", "y"], 2, max_terms=10)
        assert len(enumerate_terms(sig, ["x", "y"], 2, max_terms=100)) == 74
        for cap in (10, 73):
            with pytest.raises(ResourceLimitError, match=f"exceeds {cap} terms"):
                enumerate_terms(sig, ["x", "y"], 2, max_terms=cap)
        assert len(enumerate_terms(sig, ["x", "y"], 2, max_terms=74)) == 74
        for _ in range(2):
            with pytest.raises(SignatureError, match="collides"):
                enumerate_terms(sig, ["x", "f"], 2, max_terms=100)
            with pytest.raises(DomainError, match="nonnegative"):
                enumerate_terms(sig, ["x", "y"], -1, max_terms=100)

    def test_position_map(self):
        sig = Signature({"c": 0, "sigma": 2})
        universe, position, _ = _term_universe(sig, ["x", "y"], 1, 20000)
        assert [position(t) for t in universe] == list(range(len(universe)))
        assert [position(App(t.symbol, t.args)) for t in universe if isinstance(t, App)] == [
            i for i, t in enumerate(universe) if isinstance(t, App)
        ]
        for outside in (Var("z"), App("x"), App("c", (X,)), s(s(X, X), X)):
            assert position(outside) == -1


# Symbol and variable names that sort before, between and after each other.
SYMBOLS = ["b", "f", "g_", "m", "t'"]
NAMES = ["a", "b0", "f", "g", "n", "z"]


@st.composite
def signatures(draw):
    names = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=4, unique=True))
    return Signature({name: draw(st.integers(min_value=0, max_value=3)) for name in names})


def outcome(enumerate, *args):
    """The list of terms, or the type and message of the error raised."""
    try:
        return enumerate(*args)
    except (DomainError, ResourceLimitError, SignatureError) as err:
        return type(err), str(err)


class TestEnumerationMatchesTheReference:
    """The universe built on integer term ids against the one built on
    ``App`` objects: the same list in the same order, or the same error."""

    @given(
        sig=signatures(),
        variables=st.lists(st.sampled_from(NAMES), max_size=3),
        depth=st.integers(min_value=0, max_value=3),
        max_terms=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_terms_or_error(self, sig, variables, depth, max_terms):
        args = (sig, variables, depth, max_terms)
        want = outcome(reference_enumerate_terms, *args)
        assert outcome(enumerate_terms, *args) == want
        if not isinstance(want, list):
            return
        # The cap counts every term, variables and constants included: the
        # universe's own size passes and one below raises.
        size = len(want)
        assert enumerate_terms(sig, variables, depth, size) == want
        below = (sig, variables, depth, size - 1)
        if not size:
            # An empty universe fits every cap, and -1 is not a cap.
            want_error = (DomainError, "max_terms must be a nonnegative int, got -1")
            assert outcome(enumerate_terms, *below) == want_error
            return
        want_error = (ResourceLimitError, f"term universe exceeds {size - 1} terms")
        assert outcome(enumerate_terms, *below) == want_error
        assert outcome(reference_enumerate_terms, *below) == want_error

    @pytest.mark.parametrize("variables, depth", [(["a", "c", "n", "z"], 1), (["g"], 2)])
    def test_every_arity(self, variables, depth):
        sig = Signature({"b": 0, "f": 1, "m": 2, "t": 3})
        got = enumerate_terms(sig, variables, depth)
        assert got == reference_enumerate_terms(sig, variables, depth)
        assert {len(t.args) for t in got if isinstance(t, App)} == {0, 1, 2, 3}


class TestPickle:
    def test_terms_load_under_another_hash_seed(self):
        """A term's cached hash stays out of its pickle, so terms pickled in
        one process hash and compare like fresh ones in a process whose
        ``str`` hashes differ, and dict lookups with them work."""
        sig = Signature({"c": 0, "f": 1, "sigma": 2})
        blob = pickle.dumps(enumerate_terms(sig, ["x", "y"], 2))
        assert b"_hash" not in blob
        child = textwrap.dedent(
            """
            import pickle, sys
            from metra.terms import App, Signature, Var, enumerate_terms

            assert hash("sigma") != int(sys.argv[1]), "str hashes did not change"
            loaded = pickle.loads(sys.stdin.buffer.read())
            fresh = enumerate_terms(Signature({"c": 0, "f": 1, "sigma": 2}), ["x", "y"], 2)
            assert loaded == fresh
            assert [hash(t) for t in loaded] == [hash(t) for t in fresh]
            index = {t: i for i, t in enumerate(fresh)}
            assert [index[t] for t in loaded] == list(range(len(fresh)))
            probe = App("sigma", (Var("x"), App("f", (App("c"),))))
            assert {t: i for i, t in enumerate(loaded)}[probe] == index[probe]
            """
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = os.path.dirname(os.path.dirname(metra.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        run = subprocess.run(
            [sys.executable, "-c", child, str(hash("sigma"))],
            input=blob, env=env, capture_output=True,
        )
        assert run.returncode == 0, run.stderr.decode()


class TestEvaluate:
    def test_example(self):
        algebra = line_min_algebra()
        assert evaluate(s(X, Y), algebra, {"x": 1, "y": 1}) == 2
        assert evaluate(s(s(X, X), Y), algebra, {"x": 1, "y": 0}) == 2

    def test_missing_variable(self):
        with pytest.raises(ValuationError):
            evaluate(s(X, Y), line_min_algebra(), {"x": 1})

    def test_value_outside_carrier(self):
        with pytest.raises(DomainError):
            evaluate(X, line_min_algebra(), {"x": 9})


class TestSubstitute:
    def test_simultaneous(self):
        swapped = substitute(s(X, Y), {"x": Y, "y": X})
        assert swapped == s(Y, X)

    def test_unmapped_variables_stay(self):
        assert substitute(s(X, Y), {"x": s(Y, Y)}) == s(s(Y, Y), Y)

    @given(
        st.sampled_from(enumerate_terms(SIG, ["x", "y"], 2)),
        st.sampled_from(enumerate_terms(SIG, ["x", "y"], 1)),
        st.sampled_from(enumerate_terms(SIG, ["x", "y"], 1)),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    )
    def test_compatible_with_evaluation(self, t, sx, sy, vx, vy):
        algebra = line_min_algebra()
        v = {"x": vx, "y": vy}
        direct = evaluate(substitute(t, {"x": sx, "y": sy}), algebra, v)
        staged = evaluate(
            t, algebra, {"x": evaluate(sx, algebra, v), "y": evaluate(sy, algebra, v)}
        )
        assert direct == staged


# Pieces of command text: names, numbers, strings with blank space or a
# comment sign inside, punctuation, blank space and comments.
SOURCE_PIECES = [
    "limitmetric", "a", "12", "1/2", '"a  b"', '"x#y"', '"#"', '" \t"', "{", "}", ";", ",",
    "->", "=[", " ", "  ", "\t", "\n", "# note\n", "#", '# "x" ;\n',
]


class TestSource:
    @given(pieces=st.lists(st.sampled_from(SOURCE_PIECES), max_size=12), data=st.data())
    @settings(max_examples=300)
    def test_source_matches_the_token_pass(self, pieces, data):
        """The echo of a span of whole pieces, with or without a ``#``,
        is the one the lexer's pass over the span gives."""
        bounds = list(itertools.accumulate(map(len, pieces), initial=0))
        start = data.draw(st.sampled_from(bounds))
        end = data.draw(st.sampled_from([b for b in bounds if b >= start]))
        text = "".join(pieces)
        assert TokenStream(text).source(start, end) == reference_source(text, start, end)


class TestParse:
    @given(st.sampled_from(enumerate_terms(Signature({"sigma": 2, "c": 0}), ["x", "y"], 2)))
    def test_round_trip(self, t):
        sig = Signature({"sigma": 2, "c": 0})
        assert parse_term(str(t), sig) == t

    def test_constants_need_signature(self):
        sig = Signature({"c": 0})
        assert parse_term("c", sig) == App("c")
        assert parse_term("c") == Var("c")

    def test_errors(self):
        sig = Signature({"sigma": 2})
        with pytest.raises(SignatureError, match="sigma has arity 2, got 1 arguments"):
            parse_term("sigma(x)", sig)
        with pytest.raises(SignatureError, match="unknown operation symbol 'tau'"):
            parse_term("tau(x)", sig)
        syntax_errors = [
            ("sigma", "line 1, column 1: symbol 'sigma' takes 2 arguments"),
            ("sigma(x,y) extra", "line 1, column 12: unexpected 'extra' after the term"),
            ("sigma(x,", "line 1, column 9: expected a term, found 'end of input'"),
            ("x + y", "line 1, column 3: unexpected '+' after the term"),
            ("sigma(x,\n  @)", "line 2, column 3: unreadable character '@'"),
        ]
        for text, message in syntax_errors:
            with pytest.raises(ParseError) as err:
                parse_term(text, sig)
            assert str(err.value) == message
