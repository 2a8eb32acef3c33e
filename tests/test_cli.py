"""Workspace DSL parsing, command execution, and report determinism."""

import contextlib
import itertools
import json
import random
import string
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metra.algebra import MetricAlgebra
from metra.cli import (
    LIMIT_DEFAULTS,
    CommandResult,
    _json_text,
    _parse_matrix,
    _plain,
    _render_algebra,
    _WorkspaceStream,
    load_workspace,
    main,
    parse_workspace,
    render_json,
    render_text,
    run_workspace,
)
from metra.errors import MetraError, ParseError, ShapeError
from metra.extmetric import INF, ExtRat, FiniteMetricSpace, SquareMatrix
from metra.logic import (
    MetricEquation,
    MetricImplication,
    parse_equation,
    parse_formula,
    parse_inequality,
)
from metra.terms import Signature, TokenStream, Var, enumerate_terms

from conftest import (
    FINITE_POOL,
    metric_spaces,
    object_mirrors,
    reference_render_algebra,
    reference_render_json,
)

GOLDEN = """
# two-op playground
signature S { sigma/2; }

algebra A over S {
    carrier 0,1,2;
    metric [[0,1,2],[1,0,1],[2,1,0]];
    op sigma = table{
        0,0 -> 0; 0,1 -> 1; 0,2 -> 2;
        1,0 -> 1; 1,1 -> 1; 1,2 -> 2;
        2,0 -> 2; 2,1 -> 2; 2,2 -> 2;
    };
}

congruence T on A { matrix [[0,1,2],[1,0,1],[2,1,0]]; }

axioms E over S {
    x =[1] y |- sigma(x,x) =[1] sigma(y,y);
    sigma(x,y) =[inf] sigma(y,x);
}

presentation P over S {
    vars x,y;
    mode Q;
    depth 1;
    rel x =[1] y;
}

filter F on {1,2} core {1}

validate;
quotient A by T;
sat A E;
free P;
hausdorff A {0} {0,1,2};
gh A A;
redprod [A,A] by F;
limitmetric {a,b} { a,b -> "1/n"; };
meet T T;
permutable T T;
"""

GRID = """
signature E0 { }
algebra G over E0 {
    carrier p,q,r,s;
    metric [[0,1,1,1],[1,0,1,1],[1,1,0,1],[1,1,1,0]];
}
congruence T1 on G { matrix [[0,0,1,1],[0,0,1,1],[1,1,0,0],[1,1,0,0]]; }
congruence T2 on G { matrix [[0,1,0,1],[1,0,1,0],[0,1,0,1],[1,0,1,0]]; }
decompose G by T1 T2;
"""


# A two-point algebra over S with one set of axioms, for run-time goal errors.
B2 = (
    "signature S { sigma/2; }\n"
    "algebra B over S {\n"
    "    carrier 0,1;\n"
    "    metric [[0,1],[1,0]];\n"
    "    op sigma = table{ 0,0 -> 0; 0,1 -> 1; 1,0 -> 1; 1,1 -> 1; };\n"
    "}\n"
    "axioms D over S { x =[1] y; }\n"
)
ONE_POINT = "signature Z { }\nalgebra A over Z { carrier a; metric [[0]]; }\n"
SIG_S = "signature S { sigma/2; }\n"

# Malformed inputs and the exact error each one raises: "ws" parses a
# workspace, "run" runs one and reads its last command's error, and the
# rest call the library parser of that name with the signature {sigma/2}.
PINNED_ERRORS = [
    pytest.param("ws", "signature S { sigma/2 }\n", "ParseError",
                 "line 1, column 23: expected ';', found '}'", id="expect-punct"),
    pytest.param("ws", "quotient A by;\n", "ParseError",
                 "line 1, column 14: expected 'name', found ';'", id="expect-name"),
    pytest.param("ws", ONE_POINT + "hom f : A A { }\n", "ParseError",
                 "line 3, column 11: expected 'arrow', found 'A'", id="expect-arrow"),
    pytest.param("ws", "entails [A] E x =[1] y;\n", "ParseError",
                 "line 1, column 15: expected 'turnstile', found 'x'",
                 id="expect-turnstile"),
    pytest.param("ws", "signature Z { }\nalgebra A over Z { carrier ; metric [[0]]; }\n",
                 "ParseError", "line 2, column 28: expected an id, found ';'", id="id"),
    pytest.param("ws", "signature Z { }\nalgebra A over Z { carrier 1/2; metric [[0]]; }\n",
                 "ParseError", "line 2, column 28: carrier ids are names or integers",
                 id="fractional-id"),
    pytest.param("ws", "signature Z { }\nalgebra A over Z { carrier a; metric [[x]]; }\n",
                 "ParseError", "line 2, column 40: expected a rational or inf, found 'x'",
                 id="scalar"),
    pytest.param("ws", "signature S { f/1/2; }\n", "ParseError",
                 "line 1, column 17: arity must be an integer", id="fractional-arity"),
    pytest.param("ws", "signature S { f/1; f/2; }\n", "ParseError",
                 "line 1, column 22: symbol 'f' listed twice", id="symbol-twice"),
    pytest.param("ws", "signature S { }\nsignature S { }\n", "ParseError",
                 "line 2, column 11: duplicate signature name 'S'", id="duplicate"),
    pytest.param("ws", "congruence T on NOPE { matrix [[0]]; }\n", "ParseError",
                 "line 1, column 17: unknown algebra 'NOPE'", id="unknown-reference"),
    pytest.param("ws", "presentation P { vars x; mode Q; depth 1/2; }\n", "ParseError",
                 "line 1, column 40: depth must be an integer", id="fractional-depth"),
    pytest.param("ws", "presentation P { vars x; mode Z; depth 1; }\n", "ParseError",
                 "line 1, column 31: unknown mode 'Z'; expected M, Q, or LIP",
                 id="bad-presentation"),
    pytest.param("ws", "limits { max_wiggle = 3; }\n", "ParseError",
                 "line 1, column 10: unknown limit 'max_wiggle'; expected one of "
                 "max_cells, max_decreases, max_size, max_terms, max_valuations",
                 id="unknown-limit"),
    pytest.param("ws", "limits { max_terms = 1/2; }\n", "ParseError",
                 "line 1, column 22: limits are integers", id="fractional-limit"),
    pytest.param("ws", "validate;\n{ }\n", "ParseError",
                 "line 2, column 1: expected a statement, found '{'", id="not-a-statement"),
    pytest.param("ws", "frobnicate A;\n", "ParseError",
                 "line 1, column 1: unknown statement 'frobnicate'", id="unknown-statement"),
    pytest.param("ws", "axioms E {\n    x =[1] y", "ParseError",
                 "line 2, column 5: expected ';' to end the formula",
                 id="formula-at-end-of-input"),
    pytest.param("ws", "axioms E { x =[1] y }\nvalidate;\n", "ParseError",
                 "line 1, column 12: expected ';' after the formula",
                 id="formula-closed-by-brace"),
    pytest.param("ws", "entails [A] E |- x =[1] y", "ParseError",
                 "line 1, column 18: expected ';' to end the formula",
                 id="goal-at-end-of-input"),
    pytest.param("ws", "axioms E { x =[1] y z; }\n", "ParseError",
                 "line 1, column 21: unexpected 'z' after the formula",
                 id="formula-trailing-token"),
    pytest.param("ws", "axioms E {\n  x =[1 y;\n}\n", "ParseError",
                 "line 2, column 9: expected ']', found 'y'", id="formula-syntax"),
    pytest.param("ws", SIG_S + "presentation P over S "
                 "{ vars x,y; mode Q; depth 1; rel x =[1] sigma; }\n", "ParseError",
                 "line 2, column 63: symbol 'sigma' takes 2 arguments", id="relation-syntax"),
    pytest.param("ws", SIG_S + "axioms E over S {\n    sigma(x) =[1] y;\n}\n", "ParseError",
                 "line 3, column 5: sigma has arity 2, got 1 arguments", id="formula-arity"),
    pytest.param("ws", SIG_S + "axioms E over S { x =[1] tau(y); }\n", "ParseError",
                 "line 2, column 19: unknown operation symbol 'tau'",
                 id="formula-unknown-symbol"),
    pytest.param("ws", "axioms E { x =[1] y @; }\n", "ParseError",
                 "line 1, column 21: unreadable character '@'", id="unreadable-in-formula"),
    pytest.param("ws", "validate;\nquotient A @ T;\n", "ParseError",
                 "line 2, column 12: unreadable character '@'", id="unreadable-in-statement"),
    pytest.param("ws", 'include "never.mt\n', "ParseError",
                 "line 1, column 9: unterminated string", id="unterminated-string"),
    pytest.param("ws", B2 + "entails [B] D |- x =[1 y;\n", "ParseError",
                 "line 8, column 24: expected ']', found 'y'", id="entails-goal-syntax"),
    pytest.param("run", B2 + "entails [B] D |-\n  sigma(x) =[1] y;\n", "CommandResult",
                 "line 9, column 3: sigma has arity 2, got 1 arguments",
                 id="entails-goal-arity"),
    pytest.param("ws", B2 + "equicont [B] 3/2 grid 1 : x =[1] y |- ;\n", "ParseError",
                 "line 8, column 38: expected a term, found 'end of input'",
                 id="equicont-formula-syntax"),
    pytest.param("ws", B2 + "weakcompact [B] D slack 2 |- x =[2] y y;\n", "ParseError",
                 "line 8, column 39: unexpected 'y' after the formula",
                 id="weakcompact-goal-syntax"),
    pytest.param("ws", "signature E { }\nalgebra X over E { carrier a; metric [[1/0]]; }\n",
                 "ParseError", "line 2, column 40: zero denominator in '1/0'",
                 id="zero-denominator-in-matrix"),
    pytest.param("run", 'limitmetric {a,b} { a,b -> "0.5 + 3/n"; };\n', "CommandResult",
                 "cannot read '0.5 + 3/n'; expected q, q/n, or q + r/n",
                 id="seq-form-decimal"),
    pytest.param("run", 'limitmetric {a,b} { a,b -> "1 + \u0663/n"; };\n', "CommandResult",
                 "cannot read '1 + \u0663/n'; expected q, q/n, or q + r/n",
                 id="seq-form-non-ascii-digit"),
    pytest.param("run", 'limitmetric {a, b} { a, b -> "1"; b, a -> "2"; };\n', "CommandResult",
                 "the pair (b, a) is given in both orders", id="limitmetric-both-orders"),
    pytest.param("run", 'limitmetric {a, b} { a, b -> "1"; a, a -> "3"; };\n', "CommandResult",
                 "the pair (a, a) lies on the diagonal, whose sequence is 0",
                 id="limitmetric-diagonal"),
    pytest.param("run", 'limitmetric {a, b} { a, b -> "1"; a, q -> "3"; };\n', "CommandResult",
                 "the pair (a, q) names q, which is not in the carrier",
                 id="limitmetric-outside-carrier"),
    pytest.param("equation", "x =[1/0] y", "ParseError",
                 "line 1, column 5: zero denominator in '1/0'", id="equation-zero-denominator"),
    pytest.param("inequality", "d(x,y) - 1/0 <= 0", "ParseError",
                 "line 1, column 10: zero denominator in '1/0'",
                 id="inequality-zero-denominator"),
    pytest.param("equation", "x = y", "ParseError",
                 "line 1, column 3: expected 'eqb', found '='", id="equation-missing-bracket"),
    pytest.param("equation", "x =[abc] y", "ParseError",
                 "line 1, column 5: expected a bound, found 'abc'", id="equation-bad-bound"),
    pytest.param("equation", "x =[1]", "ParseError",
                 "line 1, column 7: expected a term, found 'end of input'",
                 id="equation-missing-term"),
    pytest.param("equation", "x =[1] y y", "ParseError",
                 "line 1, column 10: unexpected 'y' after the formula",
                 id="equation-trailing-token"),
    pytest.param("equation", "x =[1] sigma", "ParseError",
                 "line 1, column 8: symbol 'sigma' takes 2 arguments",
                 id="equation-bare-symbol"),
    pytest.param("equation", "x =[1] y @", "ParseError",
                 "line 1, column 10: unreadable character '@'", id="equation-unreadable"),
    pytest.param("equation", "sigma(x) =[1] x", "SignatureError",
                 "sigma has arity 2, got 1 arguments", id="equation-wrong-arity"),
    pytest.param("formula", "x =[1] y , y =[1] z", "ParseError",
                 "line 1, column 20: premise list needs a |- conclusion",
                 id="formula-premises-without-conclusion"),
    pytest.param("formula", "x =[1] y |-", "ParseError",
                 "line 1, column 12: expected a term, found 'end of input'",
                 id="formula-missing-conclusion"),
    pytest.param("inequality", "d(x,y) >= 1", "ParseError",
                 "line 1, column 11: inequalities compare with 0",
                 id="inequality-nonzero-right-side"),
    pytest.param("inequality", "d(x,y)", "ParseError",
                 "line 1, column 7: expected >=, <=, or =, found 'end of input'",
                 id="inequality-missing-relation"),
    pytest.param("inequality", "e(x,y) >= 0", "ParseError",
                 "line 1, column 1: expected a constant, d(s,t), or a parenthesised "
                 "expression, found 'e'", id="inequality-bad-primary"),
    pytest.param("inequality", "d(x,y) ! 0", "ParseError",
                 "line 1, column 8: unreadable character '!'", id="inequality-unreadable"),
]

LIBRARY_PARSERS = {
    "equation": parse_equation,
    "formula": parse_formula,
    "inequality": parse_inequality,
}


@pytest.mark.parametrize("kind, text, error_type, message", PINNED_ERRORS)
def test_pinned_error_messages(kind, text, error_type, message):
    if kind == "run":
        results, _ = run_workspace(parse_workspace(text))
        assert (type(results[-1]).__name__, results[-1].error) == (error_type, message)
        return
    with pytest.raises(MetraError) as err:
        if kind == "ws":
            parse_workspace(text)
        else:
            LIBRARY_PARSERS[kind](text, Signature({"sigma": 2}))
    assert (type(err.value).__name__, str(err.value)) == (error_type, message)


U1 = "signature U { u/1; }\nalgebra A over U { carrier a, b; metric [[0, 1], [1, 0]];\n"
E2 = (
    "signature E { }\n"
    "algebra A over E { carrier a, b; metric [[0, 1], [1, 0]]; }\n"
    "algebra B over E { carrier a, b; metric [[0, 1], [1, 0]]; }\n"
)

# An entry given twice, in one literal run or after it, and the error at the
# repeated entry that both the literal runs and the token reader raise.
REPEATED_ENTRIES = [
    pytest.param(U1 + "  op u = table{ a -> a; b -> b; a -> b; }; }\n",
                 "line 3, column 33: cell a of op 'u' listed twice", id="table-cell"),
    pytest.param(U1 + "  op u = table{ a -> a; b -> b; # c\n a -> b; }; }\n",
                 "line 4, column 2: cell a of op 'u' listed twice", id="table-cell-after-run"),
    pytest.param("signature S { s/2; }\nalgebra A over S { carrier 0, 1; metric [[0, 1], [1, 0]];\n"
                 "  op s = table{ 0,0 -> 0; 0,1 -> 1; 1,0 -> 1; 1,1 -> 1; 00, 1 -> 0; }; }\n",
                 "line 3, column 57: cell 0,1 of op 's' listed twice", id="binary-cell"),
    pytest.param(U1 + "  op u = table{ a -> a; b -> b; }; op u = table{ a -> a; b -> b; }; }\n",
                 "line 3, column 39: op 'u' listed twice", id="op"),
    pytest.param(E2 + "hom f : A -> B { a -> a; a -> b; }\n",
                 "line 4, column 26: cell a of hom 'f' listed twice", id="hom-cell"),
    pytest.param(E2 + "hom f : A -> B { a -> a; b -> b;\n  # c\n  b -> a; }\n",
                 "line 6, column 3: cell b of hom 'f' listed twice", id="hom-cell-after-run"),
    pytest.param('limitmetric {c0, c1} { c0,c1 -> "1/n"; c1,c0 -> "1"; c0, c1 -> "2"; };\n',
                 "line 1, column 54: form c0,c1 listed twice", id="limitmetric-form"),
    pytest.param("limits { max_cells = 5; max_cells = 6; }\n",
                 "line 1, column 25: limit 'max_cells' listed twice", id="limit"),
    pytest.param("limits { max_cells = 5; }\nlimits { max_decreases = 9; max_cells = 6; }\n",
                 "line 2, column 29: limit 'max_cells' listed twice", id="limit-second-block"),
]


@pytest.mark.parametrize("text, message", REPEATED_ENTRIES)
def test_repeated_entries_are_parse_errors(token_only, text, message):
    for parse in (parse_workspace, token_only):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


@pytest.mark.parametrize("included_first", [False, True], ids=["in-the-include", "after-it"])
def test_a_limit_set_again_across_an_include_is_a_parse_error(tmp_path, token_only, included_first):
    """The second setting of a key is the error, whichever file holds it."""
    (tmp_path / "caps.mt").write_text("limits { max_cells = 6; }\n", encoding="utf-8")
    include, block = f'include "{tmp_path / "caps.mt"}";\n', "limits { max_cells = 5; }\n"
    text = include + block if included_first else block + include
    for parse in (parse_workspace, token_only):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line {2 if included_first else 1}, column 10: limit 'max_cells' listed twice"


def run_text(text, overrides=None):
    return run_workspace(parse_workspace(text), overrides)


def one(results, kind):
    picked = [r for r in results if r.kind == kind]
    assert len(picked) == 1
    return picked[0]


class TestParsing:
    """Statements build named objects; errors carry file positions."""

    def test_empty_text_gives_an_empty_workspace(self):
        ws = parse_workspace("")
        assert ws.signatures == {} and ws.algebras == {} and ws.commands == []

    def test_comments_and_whitespace_are_ignored(self):
        ws = parse_workspace("# nothing here\n\n   # more\n")
        assert ws.commands == []

    def test_golden_workspace_declares_every_kind(self):
        ws = parse_workspace(GOLDEN)
        assert set(ws.signatures) == {"S"}
        assert set(ws.algebras) == {"A"}
        assert set(ws.congruences) == {"T"}
        assert set(ws.filters) == {"F"}
        assert set(ws.axioms) == {"E"}
        assert set(ws.presentations) == {"P"}
        assert [kind for kind, _, _ in ws.commands] == [
            "validate", "quotient", "sat", "free", "hausdorff", "gh",
            "redprod", "limitmetric", "meet", "permutable",
        ]

    def test_axioms_parse_into_formula_objects(self):
        ws = parse_workspace(GOLDEN)
        first, second = ws.axioms["E"]
        assert isinstance(first, MetricImplication)
        assert isinstance(second, MetricEquation)
        assert second.bound.is_infinite

    def test_command_echo_is_normalized_source_text(self):
        ws = parse_workspace(GOLDEN)
        echoes = [echo for _, _, echo in ws.commands]
        assert "quotient A by T;" in echoes
        assert "hausdorff A {0} {0,1,2};" in echoes

    def test_command_echo_drops_comments(self):
        ws = parse_workspace(
            'validate # check all; now\n;\nlimitmetric {a,b} { a,b -> "1 #" ; };\n'
        )
        assert [echo for _, _, echo in ws.commands] == [
            "validate ;",
            'limitmetric {a,b} { a,b -> "1 #" ; };',
        ]

    def test_each_distance_literal_is_one_shared_value(self):
        ws = parse_workspace(
            "signature E { }\n"
            "algebra X over E { carrier a,b,c; metric [[0,1,inf],[1,0,inf],[inf,inf,0]]; }\n"
        )
        rows = ws.algebras["X"].space.entries
        assert rows[0][1] is rows[1][0]
        assert rows[0][0] is rows[1][1] is rows[2][2]
        assert rows[0][2] is rows[2][1] is INF

    def test_duplicate_names_are_rejected_per_kind(self):
        text = "signature S { }\nsignature S { }\n"
        with pytest.raises(ParseError, match="duplicate signature"):
            parse_workspace(text)

    def test_declarations_resolve_references_up_front(self):
        with pytest.raises(ParseError, match="unknown signature 'MISSING'"):
            parse_workspace("algebra A over MISSING { carrier a; metric [[0]]; }")

    def test_unknown_statements_are_parse_errors(self):
        with pytest.raises(ParseError, match="unknown statement 'frobnicate'"):
            parse_workspace("frobnicate A;")

    def test_arity_errors_in_formulas_point_at_the_file(self):
        text = "signature S { sigma/2; }\naxioms E over S {\n    sigma(x) =[1] y;\n}\n"
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert err.value.line == 3
        assert err.value.column == 5
        assert "sigma" in str(err.value)

    def test_formula_parse_errors_shift_into_the_file(self):
        text = "axioms E {\n  x =[1 y;\n}\n"
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert err.value.line == 2
        assert err.value.column > 3

    def test_carrier_ids_mix_names_and_integers(self):
        ws = parse_workspace(
            "signature Z { }\nalgebra A over Z { carrier a,0; metric [[0,1],[1,0]]; }"
        )
        assert ws.algebras["A"].carrier == ("a", 0)

    def test_fractional_carrier_ids_are_rejected(self):
        with pytest.raises(ParseError, match="names or integers"):
            parse_workspace(
                "signature Z { }\nalgebra A over Z { carrier 1/2; metric [[0]]; }"
            )

    def test_unterminated_strings_are_rejected(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_workspace('include "never.mt\n')

    def test_bad_congruence_matrices_fail_at_declaration(self):
        text = (
            "signature Z { }\n"
            "algebra A over Z { carrier a,b; metric [[0,1],[1,0]]; }\n"
            "congruence T on A { matrix [[0,2],[2,0]]; }\n"
        )
        with pytest.raises(Exception, match="not congruential"):
            parse_workspace(text)

    def test_limits_block_records_overrides(self):
        ws = parse_workspace("limits { max_terms = 77; }\n")
        assert ws.limits == {"max_terms": 77}

    def test_unknown_limits_are_rejected(self):
        with pytest.raises(ParseError, match="unknown limit"):
            parse_workspace("limits { max_wiggle = 3; }\n")


class TestLexing:
    """One lexer reads every statement and formula, with true positions."""

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "axioms E {\n  x =[1]\n  y @;\n}\n",
                "line 3, column 5: unreadable character '@'",
                id="multi-line-formula",
            ),
            pytest.param(
                "signature Z { }\nalgebra A over Z { carrier \u00b2; metric [[0]]; }\n",
                "line 2, column 28: unreadable character '\u00b2'",
                id="superscript-digit",
            ),
            pytest.param(
                "limits { max_terms = \u0663; }\n",
                "line 1, column 22: unreadable character '\u0663'",
                id="arabic-indic-digit",
            ),
            pytest.param(
                "axioms E { x =[1] ; }\n",
                "line 1, column 19: expected a term, found ';'",
                id="formula-ended-early",
            ),
        ],
    )
    def test_errors_point_at_the_offending_token(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert str(err.value) == message

    def test_non_ascii_digits_exit_one_without_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "digits.mt"
        path.write_text(
            "signature Z { }\nalgebra A over Z { carrier \u00b2; metric [[0]]; }\n",
            encoding="utf-8",
        )
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (
            "metra: error: line 2, column 28: unreadable character '\u00b2'\n"
        )

    def test_names_may_carry_primes(self):
        ws = parse_workspace(
            "signature S' { f'/1; }\n"
            "algebra A' over S' { carrier a', b; metric [[0,1],[1,0]];\n"
            "    op f' = table{ a' -> b; b -> a'; }; }\n"
            "axioms E' over S' { f'(x') =[1] x'; }\n"
        )
        assert ws.algebras["A'"].carrier == ("a'", "b")
        assert str(ws.axioms["E'"][0]) == "f'(x') =[1] x'"

    def test_comments_work_inside_formulas(self):
        text = (
            "signature E0 { }\n"
            "algebra B over E0 { carrier 0,1; metric [[0,1],[1,0]]; }\n"
            "axioms D over E0 {\n"
            "    x =[1] # a bound; with a semicolon\n"
            "    y;\n"
            "}\n"
            "entails [B] D |- y # the goal; with a semicolon\n =[1] x;\n"
        )
        ws = parse_workspace(text)
        assert str(ws.axioms["D"][0]) == "x =[1] y"
        results, _ = run_workspace(ws)
        assert (results[0].ok, results[0].error) == (True, "")

    def test_goal_errors_carry_file_positions(self):
        text = B2 + "entails [B] D |-\n  x =[1]\n  y @;\n"
        with pytest.raises(ParseError) as err:
            parse_workspace(text)
        assert str(err.value) == "line 10, column 5: unreadable character '@'"


@pytest.fixture(scope="module")
def token_only():
    """``parse_workspace`` with ``TokenStream.take`` refusing every run, so
    that the token reader reads every literal."""

    def parse(text):
        with mock.patch.object(TokenStream, "take", lambda self, pattern: None):
            return parse_workspace(text)

    return parse


def _outcome(parse, text):
    """What reading ``text`` gives: each object's carrier, mirror, tables
    and map, and the commands; or the error with its position."""
    try:
        ws = parse(text)
    except MetraError as err:
        return type(err).__name__, str(err), getattr(err, "line", None), getattr(err, "column", None)

    def mirror(m):
        return m.carrier, m.D.dtype, m.D.tolist(), m.denom, m.text_rows()

    return (
        {n: (mirror(a.space), a.ops) for n, a in ws.algebras.items()},
        {n: mirror(theta.matrix) for n, theta in ws.congruences.items()},
        {n: f.mapping for n, f in ws.homs.items()},
        ws.commands,
    )


# Blank space between tokens, Unicode spaces among it, and in half the texts
# a comment full of literal punctuation; "" only where no two name or number
# characters meet.
GAPS = ["", "", " ", " ", "\n", "\t ", "\u00a0", "\u2003", "\u3000"]
COMMENT = " # ], ; } -> 1/0\n"
WORDLIKE = str.maketrans(dict.fromkeys(string.ascii_letters + string.digits + "_'", "w"))
# Replacements for one token of a literal run: gone (a missing ``,`` ``]``
# ``;`` or ``}``), zero denominators, fractional ids, leading zeros, inf, an
# unreadable character, and names and numbers that run into the next token.
SPOILERS = ["", "1/0", "10/00", "1/2", "12/3", "007", "inf", "inf'", "@", "a'", "0x", ",", "]"]
ID_POOL = ["a", "b'", "_c", "x1", 0, 3, 12]
# Texts of limitmetric forms, punctuation and a comment sign among them.
FORM_TEXTS = ["1/n", "0", "1 + 1/n", "x, y -> z; # w"]
BASES = [None, Fraction(1), Fraction(1, 65537), Fraction(1, 65539), Fraction(10**400)]


@st.composite
def workspace_texts(draw):
    """A workspace whose every literal run varies in spelling and spacing,
    with up to two tokens of its literal runs spoilt, and now and then the
    text cut short."""
    n = draw(st.integers(1, 3))
    ids = draw(st.lists(st.sampled_from(ID_POOL), min_size=n, max_size=n, unique=True))
    base = draw(st.sampled_from(BASES))

    def id_text(x):
        return draw(st.sampled_from(["", "0"])) + str(x) if isinstance(x, int) else x

    def scalar(value):
        if value is None:
            return "inf"
        k = draw(st.sampled_from([1, 1, 3]))
        num, den = value.numerator * k, value.denominator * k
        text = str(num) if den == 1 and draw(st.booleans()) else f"{num}/{den}"
        return draw(st.sampled_from(["", "0"])) + text

    def listed(items, sep=","):
        return [tok for item in items for tok in (*item, sep)][:-1]

    def matrix(value):
        rows = [["[", *listed([[scalar(value(i, j))] for j in range(n)]), "]"] for i in range(n)]
        return ["[", *listed(rows), "]"]

    steps = {}
    for i in range(n):
        for j in range(i + 1, n):
            steps[i, j] = steps[j, i] = draw(st.sampled_from([1, Fraction(3, 2), 2]))
    metric = matrix(lambda i, j: Fraction(0) if i == j else base and base * steps[i, j])
    congruence = matrix(lambda i, j: Fraction(0) if i == j or base is None else base)

    def cells(arity, value=lambda args: draw(st.integers(0, n - 1))):
        out = []
        for args in itertools.product(range(n), repeat=arity):
            out += [*listed([[id_text(ids[a])] for a in args]), "->", id_text(ids[value(args)]), ";"]
        return out

    some = [id_text(x) for x in draw(st.lists(st.sampled_from(ids), max_size=3))]
    forms = []
    for x, y in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3)):
        text = draw(st.sampled_from(FORM_TEXTS))
        forms += [id_text(x), ",", id_text(y), "->", f'"{text}"', ";"]
    # Literal runs at the odd places, each spoilt up to its terminator.
    parts = [
        ["signature", "S", "{", "f", "/", "1", ";", "g", "/", "2", ";", "}",
         "algebra", "A", "over", "S", "{", "carrier"],
        listed([[id_text(x)] for x in ids]),
        [";", "metric"], metric, [";", "op", "f", "=", "table", "{"], cells(1),
        ["}", ";", "op", "g", "=", "table", "{"], cells(2),
        ["}", ";", "}", "congruence", "T", "on", "A", "{", "matrix"], congruence,
        [";", "}", "hom", "h", ":", "A", "->", "A", "{"], cells(1, lambda args: args[0]),
        ["}", "hausdorff", "A", "{"], listed([[x] for x in some]),
        ["}", "{"], [id_text(ids[0])],
        ["}", ";", "subalgebra", "A", "from", "{"], listed([[x] for x in some[::-1]]),
        ["}", ";", "limitmetric", "{"], listed([[id_text(x)] for x in ids]),
        ["}", "{"], forms,
        ["}", ";"],
    ]
    tokens, runs = [], []
    for place, part in enumerate(parts):
        if place % 2:
            runs.append((len(tokens), len(tokens) + len(part)))
        tokens += part
    for _ in range(draw(st.integers(0, 2))):
        start, stop = draw(st.sampled_from(runs))
        tokens[draw(st.integers(start, stop))] = draw(st.sampled_from(SPOILERS))
    gaps = GAPS + [COMMENT] * draw(st.booleans())
    text, starts = tokens[0], [0]
    for token in tokens[1:]:
        gap = draw(st.sampled_from(gaps))
        if not gap and (text[-1:] + token[:1]).translate(WORDLIKE).count("w") == 2:
            gap = " "
        text += gap
        starts.append(len(text))
        text += token
    if draw(st.integers(0, 4)) == 0:
        # Cut inside or after the declarations' literals, not the signature.
        return text[: starts[draw(st.integers(12, len(starts) - 1))] + draw(st.integers(0, 2))]
    return text


@pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
@settings(max_examples=200, deadline=None)
@given(text=workspace_texts())
def test_literal_runs_read_as_their_tokens_do(mirrors, token_only, text):
    """One match per literal run gives what the token reader gives: the same
    objects, or the same error at the same line and column."""
    with mirrors():
        assert _outcome(parse_workspace, text) == _outcome(token_only, text)


def _small_workspace(carrier="a, b", metric="[[0, 1], [1, 0]]", cells="a -> b; b -> a;",
                     hom="a -> a; b -> b;", sets="{a} {b}", forms='a, b -> "1/n";'):
    return (
        "signature S { f/1; }\n"
        f"algebra A over S {{ carrier {carrier}; metric {metric}; op f = table{{ {cells} }}; }}\n"
        f"hom h : A -> A {{ {hom} }}\n"
        f"hausdorff A {sets};\n"
        f"limitmetric {{a, b}} {{ {forms} }};\n"
    )


@pytest.mark.parametrize(
    "literal",
    [
        {"carrier": "12/3, a"},
        {"carrier": "a, 12/3"},
        {"carrier": "a,\u3000b'", "cells": "a -> b'; b' -> a;", "hom": "a -> a; b' -> b';"},
        {"carrier": "007, 8", "cells": "7 -> 08; 8 -> 7;", "hom": "7 -> 7; 08 -> 8;"},
        {"metric": "[[0, 1/0], [1/0, 0]]"},
        {"metric": "[[0, 10/00], [1, 0]]"},
        {"metric": "[[0, 1/2/3], [1, 0]]"},
        {"metric": "[[0, 1], [1, 0]"},
        {"metric": "[[0 1], [1, 0]]"},
        {"metric": "[[0, 1] [1, 0]]"},
        {"metric": "[[, 1], [1, 0]]"},
        {"metric": "[[0, inf'], [1, 0]]"},
        {"metric": "[[0, 1], [1, 0]] 2"},
        {"metric": "[[0, # one\n 1], [1, 0]]"},
        {"metric": "[]"},
        {"cells": "a -> b; b -> a"},
        {"cells": "a -> b; 12/3 -> a;"},
        {"cells": "a -> b # a comment\n; b -> a;"},
        {"hom": "a, b -> a;"},
        {"hom": "a -> a; b -> b; c"},
        {"sets": "{} {a}"},
        {"sets": "{ # comment\n a } {a, b}"},
        {"sets": "{a, # comment\n b} {\u3000b}"},
        {"sets": "{a, b,} {a}"},
        {"sets": "{a b} {a}"},
        {"sets": "{1/2} {a}"},
        {"sets": "{a} {b"},
        {"forms": ""},
        {"forms": 'a,b->"1/n";b ,\u3000a -> "x, y -> z; # w";'},
        {"forms": 'a, b -> "1/n"; b a -> "1";'},
        {"forms": 'a, b -> "1/n" # a comment\n; b, a -> "1";'},
        {"forms": 'a, 1/2 -> "1";'},
        {"forms": 'a, 007 -> "1"; 7, b -> "2";'},
        {"forms": 'a, b -> 1;'},
        {"forms": 'a, b -> "1/n"'},
        {"forms": 'a, b -> "1/n\n";'},
        {"forms": 'a, b -> "1/n"; a, b -> "2";'},
    ],
)
def test_literal_edge_cases_read_as_their_tokens_do(token_only, literal):
    text = _small_workspace(**literal)
    assert _outcome(parse_workspace, text) == _outcome(token_only, text)


def test_clean_literal_runs_read_no_id_token_by_token():
    """Each literal run of a well-formed workspace, id sets included, is read
    in one match, so the token reader's id parser never runs."""
    text = _small_workspace(sets="{a, b} { b }", forms='a, b -> "1/n"; b,a->"1 + 1/n";')
    text += "subalgebra A from {b, a};\n"
    with mock.patch("metra.cli._parse_id", side_effect=AssertionError("read by tokens")):
        ws = parse_workspace(text)
    assert [args for _, args, _ in ws.commands][-3:] == [
        {"algebra": "A", "left": ["a", "b"], "right": ["b"]},
        {"carrier": ["a", "b"], "forms": {("a", "b"): "1/n", ("b", "a"): "1 + 1/n"}},
        {"algebra": "A", "seed": ["b", "a"]},
    ]


def test_malformed_limitmetric_form_errors_alike_on_both_paths(token_only):
    """A form with its comma missing, after one the run reads, is reported
    where the token reader finds it."""
    text = 'limitmetric {a, b} {\n  a, b -> "1/n";\n  b a -> "1";\n};\n'
    expected = ("ParseError", "line 3, column 5: expected ',', found 'a'", 3, 5)
    assert _outcome(parse_workspace, text) == expected
    assert _outcome(token_only, text) == expected


@pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
@pytest.mark.parametrize(
    "big, dtype",
    [(Fraction(3), np.int64), (Fraction(10**400), object)],
    ids=["int64", "past-the-guard"],
)
def test_rendered_matrices_read_back_exactly(mirrors, big, dtype):
    """A matrix's ``text_rows()``, written back as a ``metric`` and as a
    ``congruence ... matrix``, reads back to the same mirror."""
    q, r = Fraction(1, 65537), Fraction(1, 65539)
    rows = [
        [0, big, q, INF],
        [big, 0, big + r, INF],
        [q, big + r, 0, INF],
        [INF, INF, INF, 0],
    ]
    with mirrors():
        space = FiniteMetricSpace("abcd", [[ExtRat(v) if v != INF else INF for v in row] for row in rows])
        literal = "[" + ", ".join("[" + ", ".join(row) + "]" for row in space.text_rows()) + "]"
        ws = parse_workspace(
            "signature E { }\n"
            f"algebra A over E {{ carrier a, b, c, d; metric {literal}; }}\n"
            f"congruence T on A {{ matrix {literal}; }}\n"
        )
        expected = space.D.dtype, space.D.tolist(), space.denom
        for m in (ws.algebras["A"].space, ws.congruences["T"].matrix):
            assert (m.D.dtype, m.D.tolist(), m.denom) == expected
    assert space.D.dtype == (object if mirrors is object_mirrors else dtype)


# Distance literals: unreduced fractions, leading zeros, inf, and values past
# the int64 guard of the mirror.
MATRIX_LITERALS = ["0", "00", "1", "2/4", "3/6", "12/3", "1/65537", "inf", str(2**50), f"{2**60}/3"]
# Blank space between tokens; a comment sends the literal to the token reader.
MATRIX_GAPS = ["", "", " ", "\n", "\t ", " # ], 1/0\n"]


@st.composite
def matrix_literals(draw):
    """A carrier size and a ``[[q, ...], ...]`` literal, its rows now and
    then one entry short or long and its row count now and then off by one."""
    n = draw(st.integers(1, 3))
    sizes = st.sampled_from([n, n, n, n, max(1, n - 1), n + 1])
    rows = [
        draw(st.lists(st.sampled_from(MATRIX_LITERALS), min_size=k, max_size=k))
        for k in (draw(sizes) for _ in range(draw(sizes)))
    ]

    def gap():
        return draw(st.sampled_from(MATRIX_GAPS))

    def listed(items):
        return "[" + gap() + ("," + gap()).join(items) + gap() + "]"

    return n, rows, listed([listed(row) for row in rows])


def _library_matrix(carrier, rows):
    try:
        m = SquareMatrix(carrier, [[ExtRat.parse(text) for text in row] for row in rows])
    except MetraError as err:
        return type(err).__name__, str(err)
    return m.carrier, m.D.dtype, m.D.tolist(), m.denom, m.text_rows()


def _parsed_matrix(carrier, text):
    lx = _WorkspaceStream(text)
    rows = _parse_matrix(lx)
    lx.finish("matrix")
    try:
        m = SquareMatrix._from_keys(carrier, rows, lx.scalars)
    except MetraError as err:
        return type(err).__name__, str(err)
    return m.carrier, m.D.dtype, m.D.tolist(), m.denom, m.text_rows()


@pytest.mark.differential
@pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
@settings(max_examples=200, deadline=None)
@given(literal=matrix_literals())
def test_literal_mirror_matches_the_library_constructor(mirrors, literal):
    """A matrix literal read straight into the scaled mirror, by one match or
    token by token, equals the library's matrix on the same rows of
    ``ExtRat`` values, or raises the same ``ShapeError``."""
    n, rows, text = literal
    carrier = tuple("abc"[:n])
    with mirrors():
        expected = _library_matrix(carrier, rows)
        assert _parsed_matrix(carrier, text) == expected
        with mock.patch.object(TokenStream, "take", lambda self, pattern: None):
            assert _parsed_matrix(carrier, text) == expected


def test_ragged_metric_literals_raise_the_constructors_error():
    for literal in ("[[0, 1], [1]]", "[[0, 1], [1, 0], [1, 1]]", "[[0, 1, 1], [1, 0, 1]]"):
        with pytest.raises(ShapeError) as err:
            parse_workspace(f"signature E {{ }}\nalgebra A over E {{ carrier a, b; metric {literal}; }}")
        assert str(err.value) == "matrix must be 2x2 to match the carrier"


# Carrier ids of every kind a report renders: names, integers, tuples as
# products make them, and library ids that render like another kind.
RENDER_IDS = (
    st.sampled_from(["a", "b'", "_c", "1", "(a,0)"])
    | st.integers(0, 12)
    | st.tuples(st.sampled_from(["a", 0]), st.integers(0, 2))
)


@st.composite
def algebra_parts(draw):
    """A signature of arities 0-2, a carrier, metric rows and dict tables."""
    space = draw(metric_spaces(max_size=4, allow_inf=True))
    carrier = draw(st.lists(RENDER_IDS, min_size=space.size, max_size=space.size, unique=True))
    arities = draw(st.lists(st.integers(0, 2), max_size=3))
    sig = Signature({f"f{k}": arity for k, arity in enumerate(arities)})
    values = st.sampled_from(carrier)
    ops = {
        symbol: {args: draw(values) for args in itertools.product(carrier, repeat=arity)}
        for symbol, arity in zip(sig.symbols, arities)
    }
    return sig, carrier, space.entries, ops


@pytest.mark.differential
@pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
@settings(max_examples=200, deadline=None)
@given(parts=algebra_parts())
def test_algebras_render_as_the_reference_does(mirrors, parts):
    """Tables rendered from their position arrays give the report text of
    the dict tables sorted by their argument tuples."""
    sig, carrier, entries, ops = parts
    with mirrors():
        algebra = MetricAlgebra(sig, FiniteMetricSpace(carrier, entries), ops)
        expected = _json_text(reference_render_algebra(algebra))
        assert _json_text(_render_algebra(algebra)) == expected


def test_ids_that_render_alike_keep_the_reference_winner():
    """The int 1 and the name "1" render alike; the cell of the tuple last
    in ``str`` order, (1,) after ('1',), names the value."""
    carrier = [1, "1", 2]
    space = FiniteMetricSpace(carrier, [[ExtRat(int(x != y)) for y in carrier] for x in carrier])
    algebra = MetricAlgebra(Signature({"u": 1}), space, {"u": {(1,): 2, ("1",): 1, (2,): 2}})
    rendered = _render_algebra(algebra)
    assert rendered["ops"] == {"u": {"1": "2", "2": "2"}}
    assert rendered == reference_render_algebra(algebra)


def test_validate_reports_the_constructors_checks():
    """``validate`` reads each algebra's index tables and checks no
    congruence again: no ``is_congruential`` and no dict tables."""
    ws = parse_workspace(GOLDEN + GRID)
    ws.commands = [command for command in ws.commands if command[0] == "validate"]
    refuse = mock.Mock(side_effect=AssertionError("checked again"))
    with contextlib.ExitStack() as stack:
        for module in [m for name, m in sys.modules.items() if name.startswith("metra")]:
            if hasattr(module, "is_congruential"):
                stack.enter_context(mock.patch.object(module, "is_congruential", refuse))
        stack.enter_context(
            mock.patch.object(MetricAlgebra, "ops", new_callable=mock.PropertyMock, side_effect=refuse)
        )
        (result,), code = run_workspace(ws)
    assert (result.ok, code, result.error) == (True, 0, "")
    assert [(o["kind"], o["name"]) for o in result.data["objects"]] == [
        ("algebra", "A"), ("algebra", "G"), ("congruence", "T"), ("congruence", "T1"),
        ("congruence", "T2"), ("axioms", "E"), ("filter", "F"), ("presentation", "P"),
        ("signature", "E0"), ("signature", "S"),
    ]
    refuse.assert_not_called()


EQUATIONS_SIG = Signature({"sigma": 2, "c": 0})
TERMS = enumerate_terms(EQUATIONS_SIG, ["x", "y", "z"], 2)
BOUNDS = [ExtRat(q) for q in FINITE_POOL] + [INF]
sides = st.sampled_from(TERMS)
equations = st.builds(MetricEquation, sides, sides, st.sampled_from(BOUNDS))
formulas = equations | st.builds(
    MetricImplication, st.lists(equations, min_size=1, max_size=3).map(tuple), equations
)


@settings(max_examples=200, deadline=None)
@given(phi=formulas)
def test_library_and_workspace_read_formulas_alike(phi):
    """A formula's text parses back to it through both entry points."""
    assert parse_formula(str(phi), EQUATIONS_SIG) == phi
    ws = parse_workspace(f"signature S {{ sigma/2; c/0; }}\naxioms E over S {{\n  {phi};\n}}")
    assert ws.axioms["E"] == [phi]


class TestCommands:
    """Commands run in order; verdicts are data and errors are captured."""

    def test_golden_workspace_runs_clean(self):
        results, code = run_text(GOLDEN)
        assert code == 0
        assert all(r.ok for r in results)
        assert all(r.error == "" for r in results)

    def test_every_result_echoes_the_limits_in_force(self):
        results, _ = run_text(GOLDEN)
        for r in results:
            assert r.limits == LIMIT_DEFAULTS

    def test_gh_of_a_space_with_itself_is_zero(self):
        results, _ = run_text(GOLDEN)
        assert one(results, "gh").data["distance"] == "0"

    def test_free_reports_the_generator_distance(self):
        results, _ = run_text(GOLDEN)
        free = one(results, "free").data["free"]
        assert free["size"] == 6
        assert free["generator_distances"]["x,y"] == "1"

    def test_limit_metric_reports_the_exact_limit(self):
        results, _ = run_text(GOLDEN)
        matrix = one(results, "limitmetric").data["matrix"]
        assert matrix["entries"] == [["0", "0"], ["0", "0"]]

    def test_reduced_product_by_principal_ultrafilter_matches_the_factor(self):
        text = (
            "signature E0 { }\n"
            "algebra X over E0 { carrier a,b; metric [[0,3],[3,0]]; }\n"
            "algebra Y over E0 { carrier u,v; metric [[0,1],[1,0]]; }\n"
            "filter F on {1,2} core {2}\n"
            "redprod [X,Y] by F;\n"
        )
        results, code = run_text(text)
        assert code == 0
        data = one(results, "redprod").data
        assert data["exists"] is True
        assert data["algebra"]["metric"] == [["0", "1"], ["1", "0"]]
        assert len(data["algebra"]["carrier"]) == 2

    def test_grid_decomposition_succeeds_with_two_binary_factors(self):
        results, code = run_text(GRID)
        assert code == 0
        data = one(results, "decompose").data
        assert data["ok"] is True
        assert [len(f["carrier"]) for f in data["factors"]] == [2, 2]
        assert len(data["iso"]["map"]) == 4

    def test_failed_verdicts_are_data_not_errors(self):
        text = (
            "signature E0 { }\n"
            "algebra B over E0 { carrier 0,1; metric [[0,1],[1,0]]; }\n"
            "axioms D over E0 { x =[1/2] y; }\n"
            "sat B D;\n"
        )
        results, code = run_text(text)
        assert code == 0
        sat = one(results, "sat")
        assert sat.ok is False and sat.error == ""
        row = sat.data["formulas"][0]
        assert row["witness"] == {"x": 0, "y": 1}

    def test_unknown_names_in_commands_are_captured_per_command(self):
        text = GOLDEN + "\nquotient A by MISSING;\nvalidate;\n"
        results, code = run_text(text)
        assert code == 0
        bad = [r for r in results if r.kind == "quotient"][-1]
        assert bad.ok is False
        assert bad.error == "unknown congruence 'MISSING'"
        assert results[-1].kind == "validate" and results[-1].ok

    def test_resource_caps_flip_the_exit_code_to_two(self):
        text = (
            "signature S { sigma/2; }\n"
            "presentation P over S { vars x,y; mode Q; depth 3; rel x =[1] y; }\n"
            "free P;\nvalidate;\n"
        )
        results, code = run_text(text, {"max_terms": 10})
        assert code == 2
        free = one(results, "free")
        assert free.ok is False
        assert "exceeds 10 terms" in free.error
        assert one(results, "validate").ok

    def test_override_limits_beat_the_file_block(self):
        text = (
            "limits { max_terms = 50000; }\n"
            "signature S { sigma/2; }\n"
            "presentation P over S { vars x,y; mode Q; depth 2; rel x =[1] y; }\n"
            "free P;\n"
        )
        results, code = run_text(text, {"max_terms": 10})
        assert code == 2
        assert one(results, "free").limits["max_terms"] == 10

    def test_entails_commands_report_their_verdict(self):
        text = (
            "signature E0 { }\n"
            "algebra B over E0 { carrier 0,1,2; metric [[0,1,2],[1,0,1],[2,1,0]]; }\n"
            "axioms D over E0 { x =[1] y; y =[1] z; }\n"
            "entails [B] D |- x =[2] z;\n"
            "entails [B] D |- x =[1] z;\n"
        )
        results, code = run_text(text)
        assert code == 0
        wide, tight = [r for r in results if r.kind == "entails"]
        assert wide.ok is True
        assert tight.ok is False
        assert tight.data["verdict"]["value"]["valuation"] == {
            "x": 0, "y": 1, "z": 2
        }

    def test_equicont_commands_return_the_largest_working_delta(self):
        text = (
            "signature S { sigma/2; }\n"
            "algebra B over S {\n"
            "    carrier 0,1;\n"
            "    metric [[0,1],[1,0]];\n"
            "    op sigma = table{ 0,0 -> 0; 0,1 -> 1; 1,0 -> 1; 1,1 -> 1; };\n"
            "}\n"
            "equicont [B] 3/2 grid 1,1/2 : x =[1] y |- sigma(x,x) =[1] sigma(y,y);\n"
        )
        results, _ = run_text(text)
        assert one(results, "equicont").data == {"delta": "1", "ok": True}

    def test_weakcompact_commands_name_the_finite_subset(self):
        text = (
            "signature E0 { }\n"
            "algebra B over E0 {\n"
            "    carrier 0,1,2,3;\n"
            "    metric [[0,1,2,3],[1,0,1,2],[2,1,0,1],[3,2,1,0]];\n"
            "}\n"
            "axioms D over E0 { x =[1] y; y =[1] z; }\n"
            "weakcompact [B] D slack 2 |- x =[2] z;\n"
        )
        results, _ = run_text(text)
        data = one(results, "weakcompact").data
        assert data["ok"] is True
        assert data["subset"] == [0, 1]

    def test_closure_commands_accept_a_quotient_value_grid(self):
        text = (
            "signature E0 { }\n"
            "algebra B over E0 { carrier 0,1; metric [[0,1],[1,0]]; }\n"
            "axioms E over E0 { x =[inf] y; }\n"
            "closure E [B] values 0,1/2,1,inf;\n"
        )
        results, code = run_text(text)
        assert code == 0
        report = one(results, "closure")
        assert report.ok is True
        constructions = {r["construction"] for r in report.data["records"]}
        assert "reflexive-quotient" not in constructions
        assert "quotient" in constructions

    def test_repeated_quotient_values_give_no_repeated_quotient(self):
        """``values 1, 1`` is the grid ``values 1``: one quotient, four checks."""
        text = (
            "signature E0 { }\n"
            "algebra B over E0 { carrier 0,1; metric [[0,1],[1,0]]; }\n"
            "axioms X over E0 { x =[inf] y; }\n"
            "closure X [B] values 1, 1;\n"
            "closure X [B] values 1;\n"
        )
        results, code = run_text(text)
        assert code == 0
        repeated, single = (r.data for r in results if r.kind == "closure")
        assert repeated == single
        assert repeated["summary"].startswith("4 checks")
        sources = [r["source"] for r in repeated["records"] if r["construction"] == "quotient"]
        assert sources == ["A0 / theta0"]

    @pytest.mark.parametrize(
        "command",
        [
            "entails [NOPE] D |- x =[1] y;",
            "equicont [NOPE] 2 grid 1 : x =[1] y;",
            "weakcompact [NOPE] D slack 1 |- x =[1] y;",
        ],
    )
    def test_unknown_algebras_in_formula_commands_are_command_errors(self, command):
        results, code = run_text("axioms D { x =[1] y; }\n" + command + "\n")
        assert code == 0
        assert (results[0].ok, results[0].error) == (False, "unknown algebra 'NOPE'")


class TestReports:
    """Serialization is deterministic and timing never leaks into it."""

    def test_json_reports_are_byte_identical_across_runs(self):
        first = render_json(run_text(GOLDEN)[0])
        second = render_json(run_text(GOLDEN)[0])
        assert first == second

    def test_json_reports_carry_the_schema_version(self):
        payload = json.loads(render_json(run_text(GOLDEN)[0]))
        assert payload["schema"] == 1
        assert len(payload["results"]) == 10

    def test_timing_is_not_serialized(self):
        results, _ = run_text(GOLDEN)
        assert all(r.timing_ms >= 0.0 for r in results)
        assert "timing" not in render_json(results)

    def test_text_reports_echo_commands_and_outcomes(self):
        text = render_text(run_text(GOLDEN)[0])
        assert "### quotient A by T;" in text
        assert "ok: yes" in text

    def test_text_reports_show_captured_errors(self):
        results, _ = run_text(GOLDEN + "\nquotient A by MISSING;\n")
        text = render_text(results)
        assert "error: unknown congruence 'MISSING'" in text
        assert "ok: no" in text


# Text that reports write as is, and single characters they must escape:
# quotes, backslashes, control characters, DEL, non-ASCII and astral text.
PLAIN_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters='"\\'))
ESCAPED_TEXT = st.tuples(
    PLAIN_TEXT,
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600"]),
    PLAIN_TEXT,
).map("".join)
REPORT_TEXT = PLAIN_TEXT | ESCAPED_TEXT | st.text()


@st.composite
def one_escaped_item(draw):
    """A list of strings of which exactly one needs escaping."""
    items = draw(st.lists(PLAIN_TEXT, min_size=1, max_size=4))
    items.insert(draw(st.integers(0, len(items))), draw(ESCAPED_TEXT))
    return items


REPORT_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1, -(10**30)])
    | REPORT_TEXT
    | st.lists(PLAIN_TEXT, max_size=4)
    | one_escaped_item(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(REPORT_TEXT, inner, max_size=4),
    max_leaves=16,
)
REPORTS = st.lists(
    st.builds(
        CommandResult,
        command=REPORT_TEXT,
        kind=REPORT_TEXT,
        ok=st.booleans(),
        data=REPORT_VALUES,
        error=REPORT_TEXT,
        limits=st.dictionaries(REPORT_TEXT, st.integers(), max_size=3),
    ),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(results=REPORTS)
def test_report_writer_matches_json_dumps(results):
    """The report writer lays out any report-shaped payload as ``json.dumps``
    with sorted keys and an indent of 2 does, byte for byte."""
    assert render_json(results) == reference_render_json(results)


@pytest.mark.parametrize(
    "value", [object(), Fraction(1, 2), {"a"}], ids=["object", "fraction", "set"]
)
def test_report_writer_refuses_what_json_refuses(value):
    results = [CommandResult("c;", "c", True, {"value": [value]})]
    for render in (render_json, reference_render_json):
        with pytest.raises(TypeError):
            render(results)


@pytest.mark.parametrize("value", [Fraction(1, 2), {"a"}, Var("x")])
def test_stray_payload_types_reach_the_writer(value):
    """``_plain`` renders only the payload types commands return; any other
    reaches the report writer, whose ``TypeError`` names it."""
    results = [CommandResult("c;", "c", True, {"value": _plain([value])})]
    with pytest.raises(TypeError, match=f"type {type(value).__name__} is not"):
        render_json(results)


# The --text report of TestMain's workspace at a distance of 1/2**70.
TINY_REPORT = """\
### gh O T;
ok: yes
{
  "distance": "1/2361183241434822606848"
}

### meet Z Z;
ok: yes
{
  "congruence": {
    "carrier": [
      "a",
      "b"
    ],
    "entries": [
      [
        "0",
        "0"
      ],
      [
        "0",
        "0"
      ]
    ]
  }
}
"""


class TestMain:
    """The console entry point wires files, flags, and exit codes."""

    def test_runs_a_file_and_prints_json(self, tmp_path, capsys):
        path = tmp_path / "ws.mt"
        path.write_text(GOLDEN)
        code = main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["schema"] == 1

    def test_denominators_past_int64_against_zero_mirrors(self, tmp_path, capsys):
        """A one-point space, a zero congruence and a distance of 1/2**70:
        each all-zero int64 mirror is scaled by 2**70 to meet the distance,
        which the report gives exactly."""
        tiny = "1/1180591620717411303424"
        path = tmp_path / "ws.mt"
        path.write_text(
            "signature E { } algebra O over E { carrier o; metric [[0]]; }"
            f" algebra T over E {{ carrier a, b; metric [[0, {tiny}], [{tiny}, 0]]; }}"
            " gh O T;\ncongruence Z on T { matrix [[0, 0], [0, 0]]; }\nmeet Z Z;\n"
        )
        code = main(["run", str(path), "--text"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out == TINY_REPORT

    def test_text_flag_switches_the_report(self, tmp_path, capsys):
        path = tmp_path / "ws.mt"
        path.write_text(GOLDEN)
        code = main(["run", str(path), "--text"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("### validate;")

    def test_parse_errors_exit_one_with_a_position(self, tmp_path, capsys):
        path = tmp_path / "bad.mt"
        path.write_text("signature S { sigma/2 }\n")
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 1, column 23" in err

    def test_missing_files_exit_one(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.mt")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_limit_flags_override_and_flip_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "ws.mt"
        path.write_text(
            "signature S { sigma/2; }\n"
            "presentation P over S { vars x,y; mode Q; depth 3; rel x =[1] y; }\n"
            "free P;\n"
        )
        code = main(["run", str(path), "--limits", "max_terms=10"])
        out = capsys.readouterr().out
        assert code == 2
        result = json.loads(out)["results"][0]
        assert result["limits"]["max_terms"] == 10
        assert "exceeds 10 terms" in result["error"]

    def test_bad_limit_flags_exit_one(self, tmp_path, capsys):
        """A bad ``--limits`` exits 1 before the workspace runs.  Its items
        are read as a limits block's entries are: ASCII digits, each key once."""
        path = tmp_path / "ws.mt"
        path.write_text("validate;\n")
        for value, message in [
            ("max_wiggle=9", "line 1, column 1: unknown limit 'max_wiggle'; expected one of "
                             "max_cells, max_decreases, max_size, max_terms, max_valuations"),
            ("max_cells=-1", "line 1, column 11: expected 'num', found '-'"),
            ("max_cells=1_0", "line 1, column 12: expected ',', found '_0'"),
            ("max_cells=+6", "line 1, column 11: expected 'num', found '+'"),
            ("max_terms=\u0663", "line 1, column 11: unreadable character '\u0663'"),
            ("max_cells=5,max_cells=6", "line 1, column 13: limit 'max_cells' listed twice"),
        ]:
            code = main(["run", str(path), "--limits", value])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err == f"metra: error: {message}\n"

    def test_includes_merge_into_one_namespace(self, tmp_path, capsys):
        (tmp_path / "sig.mt").write_text("signature S { sigma/2; }\n")
        path = tmp_path / "main.mt"
        path.write_text('include "sig.mt";\nvalidate;\n')
        code = main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        objects = json.loads(out)["results"][0]["data"]["objects"]
        assert {"kind": "signature", "name": "S", "ok": True} in objects

    def test_include_cycles_are_rejected(self, tmp_path, capsys):
        (tmp_path / "a.mt").write_text('include "b.mt";\n')
        (tmp_path / "b.mt").write_text('include "a.mt";\n')
        code = main(["run", str(tmp_path / "a.mt")])
        assert code == 1
        assert "include cycle" in capsys.readouterr().err

    def test_workspaces_load_relative_to_their_own_file(self, tmp_path):
        nested = tmp_path / "sub"
        nested.mkdir()
        (nested / "sig.mt").write_text("signature S { sigma/2; }\n")
        (nested / "main.mt").write_text('include "sig.mt";\n')
        ws = load_workspace(str(nested / "main.mt"))
        assert "S" in ws.signatures


def product_workspace(k, seed=1):
    """A workspace with the full product P of two k-point algebras with
    seeded binary tables, and the kernels T1, T2 of its projections."""
    rng = random.Random(seed)
    sa, sb = (
        {(a, b): rng.randrange(k) for a in range(k) for b in range(k)} for _ in range(2)
    )
    pairs = list(itertools.product(range(k), repeat=2))
    name = {p: f"p{p[0]}_{p[1]}" for p in pairs}

    def matrix(dist):
        return "[" + ", ".join(
            "[" + ", ".join(str(dist(p, q)) for q in pairs) + "]" for p in pairs
        ) + "]"

    cells = " ".join(
        f"{name[p]},{name[q]} -> {name[(sa[p[0], q[0]], sb[p[1], q[1]])]};"
        for p in pairs for q in pairs
    )
    # The factors carry the line metric on 0..k-1; the product takes the max.
    return (
        "signature S { s/2; }\n"
        f"algebra P over S {{ carrier {', '.join(name[p] for p in pairs)};\n"
        f"  metric {matrix(lambda p, q: max(abs(p[0] - q[0]), abs(p[1] - q[1])))};\n"
        f"  op s = table{{ {cells} }}; }}\n"
        f"congruence T1 on P {{ matrix {matrix(lambda p, q: abs(p[0] - q[0]))}; }}\n"
        f"congruence T2 on P {{ matrix {matrix(lambda p, q: abs(p[1] - q[1]))}; }}\n"
        "validate;\njoin T1 T2;\ndecompose P by T1 T2;\n"
    )


def test_join_and_decompose_of_a_36_point_binary_product_within_budget():
    """Joining the projection kernels of a 36-point product with a binary
    operation gives the all-zero pseudometric, whose zero-set check once
    cost |P|**4 lookups.  < 0.5 s per command."""
    results, code = run_text(product_workspace(6))
    assert code == 0
    validated, joined, decomposed = results
    assert validated.ok and joined.ok and decomposed.ok
    entries = joined.data["congruence"]["entries"]
    assert len(entries) == 36 and all(v == "0" for row in entries for v in row)
    assert decomposed.data["reason"] == ""
    for result in results:
        assert result.timing_ms < 500, f"{result.command}: {result.timing_ms:.0f} ms"
