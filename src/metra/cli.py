"""Workspace DSL and the ``metra`` command-line entry point.

A workspace file declares named objects and then runs commands on them:

    signature S { sigma/2; }
    algebra A over S {
        carrier 0,1,2;
        metric [[0,1,2],[1,0,1],[2,1,0]];
        op sigma = table{ 0,0 -> 0; 0,1 -> 1; ... };
    }
    congruence T on A { matrix [[0,1,2],[1,0,1],[2,1,0]]; }
    filter F on {1,2,3} core {1}
    axioms E over S { x =[1] y |- sigma(x,x) =[1] sigma(y,y); }
    presentation P over S { vars x,y; mode Q; depth 2; rel x =[1] y; }
    hom f : A -> B { 0 -> 0; 1 -> 1; 2 -> 1; }
    quotient A by T;

Rationals are ``p/q`` or integers and infinity is the token ``inf``; no
decimal literals, so every reported number is exact.  Names are ASCII
letters, digits, ``_`` and ``'``, and do not start with a digit; numbers
are ASCII digits.  ``#`` starts a comment to the end of the line,
anywhere, inside formulas too.  Any other character, and a zero
denominator, is a parse error at its line and column.  Files can pull in other files with
``include "path";`` and cycles are rejected.  Declarations are
brace-terminated; commands end with ``;``.  Resource caps come from a
``limits { name = value; }`` block, can be overridden per run with
``--limits name=value,...``, whose items are read as the block's entries
are (a known cap, set once, to ASCII digits), and every command result
echoes the caps in force and its command, comments dropped and blank
space collapsed.  Literal runs
(matrices, table and hom cells, id lists, ``limitmetric`` forms) are read
one match at a time; the token reader takes comments and reports every
error.  A matrix literal is read straight into the scaled mirror, each
distinct literal text converted once.  An entry given twice (a cell, an
``op``, a form, a ``limits`` key in any block or included file) is a parse
error at the second one.
``validate`` reports each object's constructor check; it looks again
only at the algebras' index tables.

Output is deterministic: results serialize with stable key order and
canonical rational strings, and running the same file twice produces
byte-identical reports.  Exit status: 0 when the file ran (failed
verdicts are data, not errors), 1 for usage, parse, or workspace
errors, 2 when a resource cap stopped a command.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .algebra import (
    Homomorphism,
    MetricAlgebra,
    generate_subalgebra,
    kernel,
    product,
    quotient,
    validate_algebra,
)
from .congruence import (
    Congruence,
    are_permutable,
    compose,
    decompose_product,
    join,
    meet,
)
from .errors import (
    LIMIT_DEFAULTS,
    MetraError,
    ParseError,
    ResourceLimitError,
    Verdict,
)
from .extmetric import (
    INF,
    ExtRat,
    FiniteMetricSpace,
    SquareMatrix,
    gromov_hausdorff,
    hausdorff_distance,
    render_id,
)
from .filters import FiniteFilter, pointwise_limit_metric, reduced_product
from .logic import (
    FreeAlgebra,
    MetricEquation,
    Presentation,
    closure_suite,
    entails,
    equicontinuity_check,
    free_algebra,
    read_equation,
    read_formula,
    satisfies,
    weak_compactness_search,
)
from .terms import (
    FORM, FORMS_RUN, IDS_RUN, MAP_RUN, MATRIX_RUN, TABLE_RUN, Signature, TokenStream,
)


# ---------------------------------------------------------------------------
# Workspace model


@dataclass
class Workspace:
    """Named objects parsed from workspace files plus the command queue."""

    signatures: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    congruences: dict = field(default_factory=dict)
    filters: dict = field(default_factory=dict)
    axioms: dict = field(default_factory=dict)
    presentations: dict = field(default_factory=dict)
    homs: dict = field(default_factory=dict)
    limits: dict = field(default_factory=dict)
    commands: list = field(default_factory=list)


@dataclass
class CommandResult:
    """One executed command: echo, outcome, payload, caps in force.

    ``timing_ms`` is informational only and never serialized, keeping
    reports byte-identical across runs.
    """

    command: str
    kind: str
    ok: bool
    data: dict
    error: str = ""
    limits: dict = field(default_factory=dict)
    timing_ms: float = 0.0

    def to_obj(self) -> dict:
        return {
            "command": self.command,
            "kind": self.kind,
            "ok": self.ok,
            "data": self.data,
            "error": self.error,
            "limits": self.limits,
        }


def _declare(lx: TokenStream, table: dict, kind: str, name_tok, value):
    if name_tok[1] in table:
        raise lx.error(f"duplicate {kind} name {name_tok[1]!r}", name_tok)
    table[name_tok[1]] = value


def _lookup(lx: TokenStream, table: dict, kind: str):
    token = lx.expect("name")
    if token[1] not in table:
        raise lx.error(f"unknown {kind} {token[1]!r}", token)
    return table[token[1]]


# ---------------------------------------------------------------------------
# Statement parsers


def _read_located(lx: TokenStream, read, sig):
    """Read a formula with ``read_formula`` or ``read_equation``; an error
    other than a syntax error points at the formula's start."""
    start = lx.peek()
    try:
        return read(lx, sig)
    except ParseError:
        raise
    except MetraError as err:
        raise lx.error(str(err), start) from None


def _read_statement_formula(lx: TokenStream, read, sig):
    """Read a formula that a ``;`` ends."""
    start = lx.peek()
    formula = _read_located(lx, read, sig)
    token = lx.peek()
    if token[0] == "end":
        raise lx.error("expected ';' to end the formula", start)
    if token[:2] == ("punct", "}"):
        raise lx.error("expected ';' after the formula", start)
    if token[:2] != ("punct", ";"):
        raise lx.error(f"unexpected {token[1]!r} after the formula", token)
    lx.next()
    return formula


def _formula_span(lx: TokenStream, read):
    """The text and offsets of a formula up to the next ``;``, left unread.

    The formula is read here without a signature, so a syntax error is a
    parse error.  Goals are parsed again when their command runs, against
    the signature of an algebra that may be declared later in the file.
    """
    start, end = lx.pass_over("punct", ";", "expected ';' to end the formula")
    _parse_span((lx.text, start, end), read, None)
    return lx.text, start, end


def _parse_span(span, read, sig):
    """Parse a formula recorded by ``_formula_span``, at its file position."""
    lx = TokenStream(*span)
    formula = _read_located(lx, read, sig)
    lx.finish("formula")
    return formula


def _parse_id(lx: TokenStream):
    token = lx.peek()
    if token[0] == "name":
        lx.next()
        return token[1]
    if token[0] == "num":
        lx.next()
        if "/" in token[1]:
            raise lx.error("carrier ids are names or integers", token)
        return int(token[1])
    raise lx.expected("an id", token)


def _parse_items(lx: TokenStream, read, items=None) -> list:
    """``items``, or one item ``read``, then one more after each ``,``."""
    items = items or [read(lx)]
    while lx.at("punct", ","):
        lx.next()
        items.append(read(lx))
    return items


def _parse_bracketed(lx: TokenStream, read) -> list:
    lx.expect("punct", "[")
    items = _parse_items(lx, read)
    lx.expect("punct", "]")
    return items


def _id(text: str):
    """An id from its matched text: digits read as an int."""
    return int(text) if text.isdigit() else text


def _ids(text: str) -> list:
    """The ids in matched text of ids, commas and blank space."""
    return [_id(s) for s in "".join(text.split()).split(",")]


def _parse_id_list(lx: TokenStream) -> list:
    run = lx.take(IDS_RUN)
    return _parse_items(lx, _parse_id, run and _ids(run.group()))


def _parse_cells(lx: TokenStream, pattern, read_args, what: str) -> dict:
    """The ``ids -> id;`` cells up to and past the closing ``}``, as a dict
    from argument tuples to ids: a run that ``pattern`` matches, then cells
    whose arguments ``read_args`` reads as a tuple.  A cell given twice is
    an error at the second; a run that repeats one goes back to the token
    reader, which reports it there."""
    run = lx.take(pattern)
    cells = {}
    if run:
        texts = "".join(run.group().split()).split(";")[:-1]
        for text in texts:
            args, _, value = text.partition("->")
            cells[tuple(_ids(args))] = _id(value)
        if len(cells) < len(texts):
            lx.give_back(run)
            cells = {}
    while not lx.at("punct", "}"):
        token = lx.peek()
        args = read_args(lx)
        if args in cells:
            raise lx.error(f"cell {','.join(map(render_id, args))} of {what} listed twice", token)
        lx.expect("arrow")
        cells[args] = _parse_id(lx)
        lx.expect("punct", ";")
    lx.next()
    return cells


def _parse_id_set(lx: TokenStream) -> list:
    lx.expect("punct", "{")
    run = lx.take(IDS_RUN)
    if run is None and lx.at("punct", "}"):
        ids = []
    else:
        ids = _parse_items(lx, _parse_id, run and _ids(run.group()))
    lx.expect("punct", "}")
    return ids


class _WorkspaceStream(TokenStream):
    """The tokens of a workspace, with ``scalars`` holding the ``ExtRat`` of
    each distinct distance literal read so far, keyed by its text, so that
    each text is converted once."""

    __slots__ = ("scalars",)

    def __init__(self, text: str):
        super().__init__(text)
        self.scalars = {"inf": INF}


def _parse_literal(lx: _WorkspaceStream) -> str:
    """The text of the next distance literal, its value in ``lx.scalars``."""
    token = lx.peek()
    if token[0] == "num" or token[0] == "name" and token[1] == "inf":
        lx.next()
        if token[1] not in lx.scalars:
            lx.scalars[token[1]] = ExtRat(lx.fraction(token))
        return token[1]
    raise lx.expected("a rational or inf", token)


def _parse_scalar(lx: _WorkspaceStream) -> ExtRat:
    return lx.scalars[_parse_literal(lx)]


def _parse_number(lx: TokenStream) -> Fraction:
    return lx.fraction(lx.expect("num"))


def _parse_matrix(lx: _WorkspaceStream) -> list:
    """The rows of a ``[[q, ...], ...]`` literal as texts, each text's
    value in ``lx.scalars``; ``SquareMatrix._from_keys`` builds the mirror."""
    run = lx.take(MATRIX_RUN)
    if run is None:
        return _parse_bracketed(lx, lambda lx: _parse_bracketed(lx, _parse_literal))
    scalars = lx.scalars
    rows = [row.split(",") for row in "".join(run.group().split())[2:-2].split("],[")]
    for text in {text for row in rows for text in row}.difference(scalars):
        scalars[text] = ExtRat(Fraction(text))
    return rows


def _parse_name_list(lx: TokenStream) -> list:
    return _parse_bracketed(lx, lambda lx: lx.expect("name")[1])


def _skip_semicolon(lx: TokenStream):
    if lx.at("punct", ";"):
        lx.next()


def _parse_signature(lx: TokenStream, ws: Workspace):
    name_tok = lx.expect("name")
    lx.expect("punct", "{")
    arities = {}
    while not lx.at("punct", "}"):
        symbol = lx.expect("name")[1]
        lx.expect("punct", "/")
        arity_tok = lx.expect("num")
        if "/" in arity_tok[1]:
            raise lx.error("arity must be an integer", arity_tok)
        if symbol in arities:
            raise lx.error(f"symbol {symbol!r} listed twice", arity_tok)
        arities[symbol] = int(arity_tok[1])
        lx.expect("punct", ";")
    lx.next()
    _declare(lx, ws.signatures, "signature", name_tok, Signature(arities))


def _parse_algebra(lx: TokenStream, ws: Workspace):
    name_tok = lx.expect("name")
    lx.expect("name", "over")
    sig = _lookup(lx, ws.signatures, "signature")
    lx.expect("punct", "{")
    lx.expect("name", "carrier")
    carrier = _parse_id_list(lx)
    lx.expect("punct", ";")
    lx.expect("name", "metric")
    rows = _parse_matrix(lx)
    lx.expect("punct", ";")
    ops = {}
    while lx.at("name", "op"):
        lx.next()
        symbol_tok = lx.expect("name")
        symbol = symbol_tok[1]
        if symbol in ops:
            raise lx.error(f"op {symbol!r} listed twice", symbol_tok)
        lx.expect("punct", "=")
        if lx.at("name", "table"):
            lx.next()
            lx.expect("punct", "{")
            ops[symbol] = _parse_cells(
                lx, TABLE_RUN, lambda lx: tuple(_parse_id_list(lx)), f"op {symbol!r}"
            )
        else:
            ops[symbol] = {(): _parse_id(lx)}
        lx.expect("punct", ";")
    lx.expect("punct", "}")
    space = FiniteMetricSpace._from_keys(carrier, rows, lx.scalars)
    algebra = MetricAlgebra(sig, space, ops)
    _declare(lx, ws.algebras, "algebra", name_tok, algebra)


def _parse_congruence(lx: TokenStream, ws: Workspace):
    name_tok = lx.expect("name")
    lx.expect("name", "on")
    base = _lookup(lx, ws.algebras, "algebra")
    lx.expect("punct", "{")
    lx.expect("name", "matrix")
    rows = _parse_matrix(lx)
    _skip_semicolon(lx)
    lx.expect("punct", "}")
    theta = Congruence(base, SquareMatrix._from_keys(base.carrier, rows, lx.scalars))
    _declare(lx, ws.congruences, "congruence", name_tok, theta)


def _parse_filter(lx: TokenStream, ws: Workspace):
    name_tok = lx.expect("name")
    lx.expect("name", "on")
    index_set = _parse_id_set(lx)
    lx.expect("name", "core")
    core = _parse_id_set(lx)
    _declare(lx, ws.filters, "filter", name_tok, FiniteFilter(index_set, core))


def _parse_axioms(lx: TokenStream, ws: Workspace):
    name_tok = lx.expect("name")
    sig = None
    if lx.at("name", "over"):
        lx.next()
        sig = _lookup(lx, ws.signatures, "signature")
    lx.expect("punct", "{")
    formulas = []
    while not lx.at("punct", "}"):
        formulas.append(_read_statement_formula(lx, read_formula, sig))
    lx.next()
    _declare(lx, ws.axioms, "axioms", name_tok, formulas)


def _parse_presentation(lx: TokenStream, ws: Workspace):
    name_tok = lx.expect("name")
    sig = Signature()
    if lx.at("name", "over"):
        lx.next()
        sig = _lookup(lx, ws.signatures, "signature")
    lx.expect("punct", "{")
    lx.expect("name", "vars")
    variables = [str(v) for v in _parse_id_list(lx)]
    lx.expect("punct", ";")
    lx.expect("name", "mode")
    mode_tok = lx.expect("name")
    mode, lipschitz = mode_tok[1], None
    if mode == "LIP":
        lx.expect("punct", "(")
        lipschitz = _parse_number(lx)
        lx.expect("punct", ")")
    lx.expect("punct", ";")
    lx.expect("name", "depth")
    depth_tok = lx.expect("num")
    if "/" in depth_tok[1]:
        raise lx.error("depth must be an integer", depth_tok)
    lx.expect("punct", ";")
    relations = []
    while lx.at("name", "rel"):
        lx.next()
        relations.append(_read_statement_formula(lx, read_equation, sig))
    lx.expect("punct", "}")
    try:
        presentation = Presentation(
            sig, variables, relations, mode=mode, depth=int(depth_tok[1]),
            lipschitz=lipschitz,
        )
    except MetraError as err:
        raise lx.error(str(err), mode_tok) from None
    _declare(lx, ws.presentations, "presentation", name_tok, presentation)


def _parse_hom(lx: TokenStream, ws: Workspace):
    name_tok = lx.expect("name")
    lx.expect("punct", ":")
    source = _lookup(lx, ws.algebras, "algebra")
    lx.expect("arrow")
    target = _lookup(lx, ws.algebras, "algebra")
    lx.expect("punct", "{")
    cells = _parse_cells(lx, MAP_RUN, lambda lx: (_parse_id(lx),), f"hom {name_tok[1]!r}")
    mapping = {args[0]: value for args, value in cells.items()}
    _declare(lx, ws.homs, "hom", name_tok, Homomorphism(source, target, mapping))


def _read_limit(lx: TokenStream, limits: dict) -> None:
    """Read one ``name = value`` into ``limits``, for a ``limits`` block and
    for ``--limits`` alike: the name a known cap not in ``limits`` yet, the
    value a whole number."""
    key_tok = lx.expect("name")
    if key_tok[1] not in LIMIT_DEFAULTS:
        raise lx.error(
            f"unknown limit {key_tok[1]!r}; expected one of "
            f"{', '.join(sorted(LIMIT_DEFAULTS))}",
            key_tok,
        )
    if key_tok[1] in limits:
        raise lx.error(f"limit {key_tok[1]!r} listed twice", key_tok)
    lx.expect("punct", "=")
    value_tok = lx.expect("num")
    if "/" in value_tok[1]:
        raise lx.error("limits are integers", value_tok)
    limits[key_tok[1]] = int(value_tok[1])


def _parse_limits(lx: TokenStream, ws: Workspace):
    lx.expect("punct", "{")
    while not lx.at("punct", "}"):
        _read_limit(lx, ws.limits)
        lx.expect("punct", ";")
    lx.next()


_COMMAND_WORDS = (
    "validate", "quotient", "product", "subalgebra", "kernel", "meet", "join",
    "compose", "permutable", "decompose", "free", "sat", "entails", "hausdorff",
    "gh", "redprod", "limitmetric", "equicont", "closure", "weakcompact",
)


def _parse_command(lx: TokenStream, word: str) -> dict:
    args: dict = {}
    if word == "validate":
        pass
    elif word == "quotient":
        args["algebra"] = lx.expect("name")[1]
        lx.expect("name", "by")
        args["congruence"] = lx.expect("name")[1]
    elif word == "product":
        names = [lx.expect("name")[1]]
        while lx.at("name"):
            names.append(lx.next()[1])
        args["algebras"] = names
    elif word == "subalgebra":
        args["algebra"] = lx.expect("name")[1]
        lx.expect("name", "from")
        args["seed"] = _parse_id_set(lx)
    elif word == "kernel":
        args["hom"] = lx.expect("name")[1]
    elif word in ("meet", "join", "compose", "permutable"):
        args["left"] = lx.expect("name")[1]
        args["right"] = lx.expect("name")[1]
    elif word == "decompose":
        args["algebra"] = lx.expect("name")[1]
        lx.expect("name", "by")
        args["left"] = lx.expect("name")[1]
        args["right"] = lx.expect("name")[1]
    elif word == "free":
        args["presentation"] = lx.expect("name")[1]
    elif word == "sat":
        args["algebra"] = lx.expect("name")[1]
        args["axioms"] = lx.expect("name")[1]
    elif word == "entails":
        args["algebras"] = _parse_name_list(lx)
        args["axioms"] = lx.expect("name")[1]
        lx.expect("turnstile")
        args["goal"] = _formula_span(lx, read_equation)
    elif word == "hausdorff":
        args["algebra"] = lx.expect("name")[1]
        args["left"] = _parse_id_set(lx)
        args["right"] = _parse_id_set(lx)
    elif word == "gh":
        args["left"] = lx.expect("name")[1]
        args["right"] = lx.expect("name")[1]
    elif word == "redprod":
        args["algebras"] = _parse_name_list(lx)
        lx.expect("name", "by")
        args["filter"] = lx.expect("name")[1]
    elif word == "limitmetric":
        args["carrier"] = _parse_id_set(lx)
        lx.expect("punct", "{")
        run = lx.take(FORMS_RUN)
        found = FORM.findall(run.group()) if run else []
        forms = {(_id(x), _id(y)): text for x, y, text in found}
        if len(forms) < len(found):  # a repeated form, reported by the token reader
            lx.give_back(run)
            forms = {}
        while not lx.at("punct", "}"):
            token = lx.peek()
            x = _parse_id(lx)
            lx.expect("punct", ",")
            y = _parse_id(lx)
            if (x, y) in forms:
                raise lx.error(f"form {render_id(x)},{render_id(y)} listed twice", token)
            lx.expect("arrow")
            forms[(x, y)] = lx.expect("string")[1]
            lx.expect("punct", ";")
        lx.next()
        args["forms"] = forms
    elif word == "equicont":
        args["algebras"] = _parse_name_list(lx)
        args["eps_prime"] = _parse_scalar(lx)
        lx.expect("name", "grid")
        args["grid"] = _parse_items(lx, _parse_number)
        lx.expect("punct", ":")
        args["formula"] = _formula_span(lx, read_formula)
    elif word == "closure":
        args["axioms"] = lx.expect("name")[1]
        args["instances"] = _parse_name_list(lx)
        if lx.at("name", "values"):
            lx.next()
            args["values"] = _parse_items(lx, _parse_scalar)
    elif word == "weakcompact":
        args["algebras"] = _parse_name_list(lx)
        args["axioms"] = lx.expect("name")[1]
        lx.expect("name", "slack")
        args["slack"] = _parse_scalar(lx)
        lx.expect("turnstile")
        args["goal"] = _formula_span(lx, read_equation)
    return args


_DECLARATIONS = {
    "limits": _parse_limits,
    "signature": _parse_signature,
    "algebra": _parse_algebra,
    "congruence": _parse_congruence,
    "filter": _parse_filter,
    "axioms": _parse_axioms,
    "presentation": _parse_presentation,
    "hom": _parse_hom,
}


def parse_workspace(
    text: str, base_dir: str = ".", ws: Workspace | None = None, _seen=None
) -> Workspace:
    """Parse workspace text, following includes, into a Workspace."""
    if ws is None:
        ws = Workspace()
    if _seen is None:
        _seen = set()
    lx = _WorkspaceStream(text)
    while True:
        token = lx.next()
        if token[0] == "end":
            return ws
        if token[0] != "name":
            raise lx.expected("a statement", token)
        word = token[1]
        if word == "include":
            path_tok = lx.expect("string")
            lx.expect("punct", ";")
            path = os.path.normpath(os.path.join(base_dir, path_tok[1]))
            real = os.path.realpath(path)
            if real in _seen:
                raise lx.error(f"include cycle through {path_tok[1]!r}", path_tok)
            _seen.add(real)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    included = handle.read()
            except OSError as err:
                raise lx.error(
                    f"cannot read include {path_tok[1]!r}: {err}", path_tok
                ) from None
            parse_workspace(included, os.path.dirname(path) or ".", ws, _seen)
        elif word in _DECLARATIONS:
            _DECLARATIONS[word](lx, ws)
            _skip_semicolon(lx)
        elif word in _COMMAND_WORDS:
            args = _parse_command(lx, word)
            end = lx.expect("punct", ";")[2] + 1
            ws.commands.append((word, args, lx.source(token[2], end)))
        else:
            raise lx.error(f"unknown statement {word!r}", token)


def load_workspace(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    _seen = {os.path.realpath(path)}
    return parse_workspace(text, os.path.dirname(path) or ".", _seen=_seen)


# ---------------------------------------------------------------------------
# Rendering


def _plain(obj):
    """Deterministic JSON-ready view of a payload ``_run_one`` returns; any
    other type is returned as it is, for the report writer to refuse."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, ExtRat):
        return str(obj)
    if isinstance(obj, Verdict):
        return {
            "ok": obj.ok,
            "reason": obj.reason,
            "witness": _plain(obj.witness),
            "value": _plain(obj.value),
        }
    if isinstance(obj, MetricAlgebra):
        return _render_algebra(obj)
    if isinstance(obj, Congruence):
        return _render_matrix(obj.matrix)
    if isinstance(obj, SquareMatrix):
        return _render_matrix(obj)
    if isinstance(obj, Homomorphism):
        return {"map": {render_id(k): render_id(v) for k, v in obj.mapping.items()}}
    if isinstance(obj, dict):
        return {render_id(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    return obj


def _render_matrix(m: SquareMatrix) -> dict:
    return {
        "carrier": [render_id(x) for x in m.carrier],
        "entries": m.text_rows(),
    }


def _render_algebra(a: MetricAlgebra) -> dict:
    """Each carrier id rendered once and each table read off its position
    array.  Where argument tuples render alike, which only ids made through
    the library can, the last one in ``str`` order of the tuples wins."""
    names = [render_id(x) for x in a.carrier]
    ops = {}
    for symbol, table in a.tables.items():
        keys = [",".join(k) or "()" for k in itertools.product(names, repeat=table.ndim)]
        values = list(map(names.__getitem__, table.ravel().tolist()))
        ops[symbol] = dict(zip(keys, values))
        if len(ops[symbol]) < len(keys):
            args = list(itertools.product(a.carrier, repeat=table.ndim))
            order = sorted(range(len(keys)), key=lambda k: str(args[k]))
            ops[symbol] = {keys[k]: values[k] for k in order}
    return {"carrier": names, "metric": a.space.text_rows(), "ops": ops}


def _render_free(free: FreeAlgebra) -> dict:
    p = free.presentation
    data = {
        "size": free.size,
        "mode": p.mode,
        "depth": p.depth,
        "eta": {name: str(free.eta(name)) for name in p.variables},
        "generator_distances": {
            f"{a},{b}": str(free.distance(free.eta(a), free.eta(b)))
            for a in p.variables
            for b in p.variables
            if a < b
        },
    }
    if free.size <= 60:
        data["universe"] = [str(t) for t in free.universe]
    return data


# ---------------------------------------------------------------------------
# Command execution


def _equations_only(formulas, name):
    for f in formulas:
        if not isinstance(f, MetricEquation):
            raise MetraError(
                f"axioms set {name!r} must contain equations only for this command"
            )
    return list(formulas)


def _named(table: dict, kind: str, name: str):
    if name not in table:
        raise MetraError(f"unknown {kind} {name!r}")
    return table[name]


def _run_one(ws: Workspace, word: str, args: dict, limits: dict):
    def alg(name):
        return _named(ws.algebras, "algebra", name)

    def cong(name):
        return _named(ws.congruences, "congruence", name)

    if word == "validate":
        # Every object passed its constructor's check, and congruences and
        # algebras are read-only; only the tables are looked at again.
        objects = [
            {"kind": "algebra", "name": name, "ok": validate_algebra(ws.algebras[name]).ok}
            for name in sorted(ws.algebras)
        ]
        for kind, table in (
            ("congruence", ws.congruences),
            ("axioms", ws.axioms),
            ("filter", ws.filters),
            ("hom", ws.homs),
            ("presentation", ws.presentations),
            ("signature", ws.signatures),
        ):
            for name in sorted(table):
                objects.append({"kind": kind, "name": name, "ok": True})
        return all(o["ok"] for o in objects), {"objects": objects}
    if word == "quotient":
        quot, projection = quotient(alg(args["algebra"]), cong(args["congruence"]))
        return True, {"algebra": _plain(quot), "projection": _plain(projection)}
    if word == "product":
        prod, _ = product(
            [alg(n) for n in args["algebras"]], max_size=limits["max_size"]
        )
        return True, {"algebra": _plain(prod)}
    if word == "subalgebra":
        sub, _ = generate_subalgebra(alg(args["algebra"]), args["seed"])
        return True, {"algebra": _plain(sub)}
    if word == "kernel":
        return True, {"congruence": _plain(kernel(_named(ws.homs, "hom", args["hom"])))}
    if word == "meet":
        return True, {"congruence": _plain(meet([cong(args["left"]), cong(args["right"])]))}
    if word == "join":
        joined = join(
            [cong(args["left"]), cong(args["right"])],
            max_decreases=limits["max_decreases"],
        )
        return True, {"congruence": _plain(joined)}
    if word == "compose":
        return True, {"matrix": _plain(compose(cong(args["left"]), cong(args["right"])))}
    if word == "permutable":
        flag = are_permutable(cong(args["left"]), cong(args["right"]))
        return flag, {"permutable": flag}
    if word == "decompose":
        d = decompose_product(alg(args["algebra"]), cong(args["left"]), cong(args["right"]))
        data = {"ok": d.ok, "reason": d.reason, "witness": _plain(d.witness)}
        if d.ok:
            data["factors"] = [_plain(f) for f in d.factors]
            data["iso"] = _plain(d.iso)
        return d.ok, data
    if word == "free":
        free = free_algebra(
            _named(ws.presentations, "presentation", args["presentation"]),
            max_terms=limits["max_terms"],
            max_decreases=limits["max_decreases"],
        )
        return True, {"free": _render_free(free)}
    if word == "sat":
        formulas = _named(ws.axioms, "axioms", args["axioms"])
        algebra = alg(args["algebra"])
        rows = []
        for formula in formulas:
            verdict = satisfies(algebra, formula, limits["max_valuations"])
            rows.append(
                {"formula": str(formula), "ok": verdict.ok, "witness": _plain(verdict.value)}
            )
        return all(r["ok"] for r in rows), {"formulas": rows}
    if word == "entails":
        delta = _equations_only(_named(ws.axioms, "axioms", args["axioms"]), args["axioms"])
        goal = _parse_span(args["goal"], read_equation, alg(args["algebras"][0]).sig)
        verdict = entails(
            [alg(n) for n in args["algebras"]], delta, goal, limits["max_valuations"]
        )
        return verdict.ok, {"verdict": _plain(verdict)}
    if word == "hausdorff":
        space = alg(args["algebra"]).space
        value = hausdorff_distance(space, args["left"], args["right"])
        return True, {"distance": str(value)}
    if word == "gh":
        value = gromov_hausdorff(
            alg(args["left"]).space, alg(args["right"]).space,
            max_cells=limits["max_cells"],
        )
        return True, {"distance": str(value)}
    if word == "redprod":
        chosen = _named(ws.filters, "filter", args["filter"])
        rp = reduced_product(
            [alg(n) for n in args["algebras"]], chosen, max_size=limits["max_size"]
        )
        return True, {"exists": True, "verdict": _plain(rp.verdict), "algebra": _plain(rp.algebra)}
    if word == "limitmetric":
        matrix = pointwise_limit_metric(args["carrier"], args["forms"])
        return True, {"matrix": _plain(matrix)}
    if word == "equicont":
        sig = alg(args["algebras"][0]).sig
        formula = _parse_span(args["formula"], read_formula, sig)
        verdict = equicontinuity_check(
            [alg(n) for n in args["algebras"]],
            formula,
            args["eps_prime"],
            args["grid"],
            limits["max_valuations"],
        )
        data = {"ok": verdict.ok}
        if verdict.ok:
            data["delta"] = str(verdict.value)
        else:
            data["witness"] = _plain(verdict.witness)
        return verdict.ok, data
    if word == "closure":
        report = closure_suite(
            _named(ws.axioms, "axioms", args["axioms"]),
            [alg(n) for n in args["instances"]],
            quotient_values=args.get("values"),
            max_valuations=limits["max_valuations"],
        )
        records = [
            {
                "construction": r.construction,
                "source": r.source,
                "ok": r.ok,
                "expected": r.expected,
                "witness": _plain(r.witness),
            }
            for r in report.records
        ]
        return not report.unexpected_failures, {
            "summary": report.summary(),
            "records": records,
        }
    if word == "weakcompact":
        delta = _equations_only(_named(ws.axioms, "axioms", args["axioms"]), args["axioms"])
        goal = _parse_span(args["goal"], read_equation, alg(args["algebras"][0]).sig)
        verdict = weak_compactness_search(
            [alg(n) for n in args["algebras"]],
            delta,
            goal,
            args["slack"],
            limits["max_valuations"],
        )
        data = {"ok": verdict.ok}
        if verdict.ok:
            data["subset"] = list(verdict.value)
        else:
            data["countermodel"] = _plain(verdict.value)
        return verdict.ok, data
    raise MetraError(f"unknown command {word!r}")


def run_workspace(ws: Workspace, overrides: dict | None = None):
    """Execute every queued command; returns (results, exit_code)."""
    limits = dict(LIMIT_DEFAULTS)
    limits.update(ws.limits)
    if overrides:
        limits.update(overrides)
    results = []
    capped = False
    for word, args, echo in ws.commands:
        started = time.perf_counter()
        try:
            ok, data = _run_one(ws, word, args, limits)
            result = CommandResult(echo, word, ok, data, limits=dict(limits))
        except ResourceLimitError as err:
            capped = True
            result = CommandResult(
                echo, word, False, {}, error=str(err), limits=dict(limits)
            )
        except MetraError as err:
            result = CommandResult(
                echo, word, False, {}, error=str(err), limits=dict(limits)
            )
        result.timing_ms = (time.perf_counter() - started) * 1000.0
        results.append(result)
    return results, (2 if capped else 0)


# ---------------------------------------------------------------------------
# Reports and entry point


# Printable ASCII but '"' and the backslash: text that JSON writes unescaped.
_VERBATIM = re.compile(r'[ !#-\[\]-~]*')


def _write_json(obj, nl: str, out: list) -> None:
    """Append ``obj`` to ``out`` as ``json.dumps(obj, sort_keys=True,
    indent=2)`` lays it out, ``nl`` being the newline and indent it sits at.

    Reports hold dicts with string keys, lists, strings, ints, booleans and
    None; anything else raises ``TypeError``.  A list of strings that need
    no escaping, such as a matrix row or a carrier, is written in one join.
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner, sep = nl + "  ", "{"
        for key in sorted(obj):
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _write_json(obj[key], inner, out)
            sep = ","
        out.append(nl + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner, sep = nl + "  ", "["
        try:
            verbatim = _VERBATIM.fullmatch("".join(obj))
        except TypeError:  # an item is not a string
            verbatim = None
        if verbatim:
            out.append("[" + inner + '"' + ('",' + inner + '"').join(obj) + '"' + nl + "]")
            return
        for item in obj:
            out.append(sep + inner)
            _write_json(item, inner, out)
            sep = ","
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    out: list = []
    _write_json(obj, "\n", out)
    return "".join(out)


def render_json(results) -> str:
    payload = {"schema": 1, "results": [r.to_obj() for r in results]}
    return _json_text(payload) + "\n"


def render_text(results) -> str:
    lines = []
    for r in results:
        lines.append(f"### {r.command}")
        lines.append(f"ok: {'yes' if r.ok else 'no'}")
        if r.error:
            lines.append(f"error: {r.error}")
        if r.data:
            lines.append(_json_text(r.data))
        lines.append("")
    return "\n".join(lines)


def _parse_limit_overrides(text: str) -> dict:
    """The caps of ``--limits``: ``name=value`` items, each read as an entry
    of a ``limits`` block is, separated by commas."""
    lx, overrides = TokenStream(text), {}
    while not lx.at("end"):
        _read_limit(lx, overrides)
        if not lx.at("end"):
            lx.expect("punct", ",")
    return overrides


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="metra", description="Workbench for finite metric algebras."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a workspace file")
    run.add_argument("file", help="workspace file")
    mode = run.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="JSON report (default)")
    mode.add_argument("--text", action="store_true", help="plain-text report")
    run.add_argument(
        "--limits", default="", metavar="k=v,...",
        help="override resource caps; each k=v is read as a limits block entry is",
    )
    ns = parser.parse_args(argv)
    try:
        overrides = _parse_limit_overrides(ns.limits)
    except ParseError as err:
        print(f"metra: error: {err}", file=sys.stderr)
        return 1
    try:
        ws = load_workspace(ns.file)
    except OSError as err:
        print(f"metra: error: cannot read {ns.file!r}: {err}", file=sys.stderr)
        return 1
    except ResourceLimitError as err:
        print(f"metra: error: {err}", file=sys.stderr)
        return 2
    except MetraError as err:
        print(f"metra: error: {err}", file=sys.stderr)
        return 1
    results, code = run_workspace(ws, overrides)
    report = render_text(results) if ns.text else render_json(results)
    sys.stdout.write(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
