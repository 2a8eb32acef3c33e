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
``--limits``, and every command result echoes the caps in force and its
command, comments dropped and blank space collapsed.

Output is deterministic: results serialize with stable key order and
canonical rational strings, and running the same file twice produces
byte-identical reports.  Exit status: 0 when the file ran (failed
verdicts are data, not errors), 1 for usage, parse, or workspace
errors, 2 when a resource cap stopped a command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

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
    is_congruential,
    join,
    meet,
)
from .errors import (
    MetraError,
    ParseError,
    ResourceLimitError,
    Verdict,
)
from .extmetric import (
    INF,
    ExtRat,
    FiniteMetricSpace,
    QuotientMap,
    SquareMatrix,
    gromov_hausdorff,
    hausdorff_distance,
    render_id,
)
from .filters import FiniteFilter, SeqForm, pointwise_limit_metric, reduced_product
from .logic import (
    FreeAlgebra,
    MetricEquation,
    MetricImplication,
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
from .terms import Signature, Term, TokenStream

LIMIT_DEFAULTS = {
    "max_cells": 20,
    "max_decreases": 1_000_000,
    "max_size": 4096,
    "max_terms": 20000,
    "max_valuations": 1_000_000,
}


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


def _formula_span(lx: TokenStream):
    """The text and offsets of a formula up to the next ``;``, left unread.

    Goals are parsed when their command runs, against the signature of
    an algebra that may be declared later in the file.
    """
    start, end = lx.pass_over("punct", ";", "expected ';' to end the formula")
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


def _parse_id_list(lx: TokenStream) -> list:
    ids = [_parse_id(lx)]
    while lx.at("punct", ","):
        lx.next()
        ids.append(_parse_id(lx))
    return ids


def _parse_id_set(lx: TokenStream) -> list:
    lx.expect("punct", "{")
    ids = [] if lx.at("punct", "}") else _parse_id_list(lx)
    lx.expect("punct", "}")
    return ids


class _WorkspaceStream(TokenStream):
    """The tokens of a workspace, reading each distinct distance literal to
    one shared ``ExtRat``, so matrices mirror each value once."""

    __slots__ = ("scalars",)

    def __init__(self, text: str):
        super().__init__(text)
        self.scalars = {"inf": INF}


def _parse_scalar(lx: _WorkspaceStream) -> ExtRat:
    token = lx.peek()
    if token[0] == "num" or token[0] == "name" and token[1] == "inf":
        lx.next()
        value = lx.scalars.get(token[1])
        if value is None:
            value = lx.scalars[token[1]] = ExtRat(lx.fraction(token))
        return value
    raise lx.expected("a rational or inf", token)


def _parse_number(lx: TokenStream) -> Fraction:
    return lx.fraction(lx.expect("num"))


def _parse_row(lx: TokenStream) -> list:
    lx.expect("punct", "[")
    row = [_parse_scalar(lx)]
    while lx.at("punct", ","):
        lx.next()
        row.append(_parse_scalar(lx))
    lx.expect("punct", "]")
    return row


def _parse_matrix(lx: TokenStream) -> list:
    lx.expect("punct", "[")
    rows = [_parse_row(lx)]
    while lx.at("punct", ","):
        lx.next()
        rows.append(_parse_row(lx))
    lx.expect("punct", "]")
    return rows


def _parse_name_list(lx: TokenStream) -> list:
    lx.expect("punct", "[")
    names = [lx.expect("name")[1]]
    while lx.at("punct", ","):
        lx.next()
        names.append(lx.expect("name")[1])
    lx.expect("punct", "]")
    return names


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
        symbol = lx.expect("name")[1]
        lx.expect("punct", "=")
        if lx.at("name", "table"):
            lx.next()
            lx.expect("punct", "{")
            table = {}
            while not lx.at("punct", "}"):
                args = tuple(_parse_id_list(lx))
                lx.expect("arrow")
                table[args] = _parse_id(lx)
                lx.expect("punct", ";")
            lx.next()
            ops[symbol] = table
        else:
            ops[symbol] = {(): _parse_id(lx)}
        lx.expect("punct", ";")
    lx.expect("punct", "}")
    space = FiniteMetricSpace(carrier, rows)
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
    theta = Congruence(base, SquareMatrix(base.carrier, rows))
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
    mapping = {}
    while not lx.at("punct", "}"):
        key = _parse_id(lx)
        lx.expect("arrow")
        mapping[key] = _parse_id(lx)
        lx.expect("punct", ";")
    lx.next()
    _declare(lx, ws.homs, "hom", name_tok, Homomorphism(source, target, mapping))


def _parse_limits(lx: TokenStream, ws: Workspace):
    lx.expect("punct", "{")
    while not lx.at("punct", "}"):
        key_tok = lx.expect("name")
        if key_tok[1] not in LIMIT_DEFAULTS:
            raise lx.error(
                f"unknown limit {key_tok[1]!r}; expected one of "
                f"{', '.join(sorted(LIMIT_DEFAULTS))}",
                key_tok,
            )
        lx.expect("punct", "=")
        value_tok = lx.expect("num")
        if "/" in value_tok[1]:
            raise lx.error("limits are integers", value_tok)
        ws.limits[key_tok[1]] = int(value_tok[1])
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
        args["goal"] = _formula_span(lx)
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
        forms = {}
        while not lx.at("punct", "}"):
            x = _parse_id(lx)
            lx.expect("punct", ",")
            y = _parse_id(lx)
            lx.expect("arrow")
            forms[(x, y)] = lx.expect("string")[1]
            lx.expect("punct", ";")
        lx.next()
        args["forms"] = forms
    elif word == "equicont":
        args["algebras"] = _parse_name_list(lx)
        args["eps_prime"] = _parse_scalar(lx)
        lx.expect("name", "grid")
        grid = [_parse_number(lx)]
        while lx.at("punct", ","):
            lx.next()
            grid.append(_parse_number(lx))
        args["grid"] = grid
        lx.expect("punct", ":")
        args["formula"] = _formula_span(lx)
    elif word == "closure":
        args["axioms"] = lx.expect("name")[1]
        args["instances"] = _parse_name_list(lx)
        if lx.at("name", "values"):
            lx.next()
            values = [_parse_scalar(lx)]
            while lx.at("punct", ","):
                lx.next()
                values.append(_parse_scalar(lx))
            args["values"] = values
    elif word == "weakcompact":
        args["algebras"] = _parse_name_list(lx)
        args["axioms"] = lx.expect("name")[1]
        lx.expect("name", "slack")
        args["slack"] = _parse_scalar(lx)
        lx.expect("turnstile")
        args["goal"] = _formula_span(lx)
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
    """Deterministic JSON-ready view of any result payload."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (ExtRat, Fraction, Term, SeqForm)):
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
    if isinstance(obj, (Homomorphism, QuotientMap)):
        return _render_map(obj)
    if isinstance(obj, FreeAlgebra):
        return _render_free(obj)
    if isinstance(obj, (MetricEquation, MetricImplication)):
        return str(obj)
    if isinstance(obj, dict):
        return {render_id(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(render_id(v) for v in obj)
    return str(obj)


def _render_matrix(m: SquareMatrix) -> dict:
    return {
        "carrier": [render_id(x) for x in m.carrier],
        "entries": m.text_rows(),
    }


def _render_algebra(a: MetricAlgebra) -> dict:
    ops, tables = {}, a.ops
    for symbol in a.sig.symbols:
        table = tables[symbol]
        ops[symbol] = {
            ",".join(render_id(x) for x in args) or "()": render_id(value)
            for args, value in sorted(table.items(), key=lambda kv: str(kv[0]))
        }
    return {
        "carrier": [render_id(x) for x in a.carrier],
        "metric": a.space.text_rows(),
        "ops": ops,
    }


def _render_map(f) -> dict:
    if isinstance(f, Homomorphism):
        mapping = f.mapping
    else:
        mapping = {x: f.class_of(x) for x in f.source_carrier}
    return {"map": {render_id(k): render_id(v) for k, v in mapping.items()}}


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


def _run_one(ws: Workspace, word: str, args: dict, limits: dict):
    def alg(name):
        if name not in ws.algebras:
            raise MetraError(f"unknown algebra {name!r}")
        return ws.algebras[name]

    def cong(name):
        if name not in ws.congruences:
            raise MetraError(f"unknown congruence {name!r}")
        return ws.congruences[name]

    if word == "validate":
        objects = []
        for name in sorted(ws.algebras):
            verdict = validate_algebra(ws.algebras[name])
            objects.append({"kind": "algebra", "name": name, "ok": verdict.ok})
        for name in sorted(ws.congruences):
            theta = ws.congruences[name]
            verdict = is_congruential(theta.base, theta.matrix)
            objects.append({"kind": "congruence", "name": name, "ok": verdict.ok})
        for kind, table in (
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
        if args["hom"] not in ws.homs:
            raise MetraError(f"unknown hom {args['hom']!r}")
        return True, {"congruence": _plain(kernel(ws.homs[args["hom"]]))}
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
        if args["presentation"] not in ws.presentations:
            raise MetraError(f"unknown presentation {args['presentation']!r}")
        free = free_algebra(
            ws.presentations[args["presentation"]],
            max_terms=limits["max_terms"],
            max_decreases=limits["max_decreases"],
        )
        return True, {"free": _render_free(free)}
    if word == "sat":
        if args["axioms"] not in ws.axioms:
            raise MetraError(f"unknown axioms {args['axioms']!r}")
        algebra = alg(args["algebra"])
        rows = []
        for formula in ws.axioms[args["axioms"]]:
            verdict = satisfies(algebra, formula, limits["max_valuations"])
            rows.append(
                {"formula": str(formula), "ok": verdict.ok, "witness": _plain(verdict.value)}
            )
        return all(r["ok"] for r in rows), {"formulas": rows}
    if word == "entails":
        if args["axioms"] not in ws.axioms:
            raise MetraError(f"unknown axioms {args['axioms']!r}")
        delta = _equations_only(ws.axioms[args["axioms"]], args["axioms"])
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
        if args["filter"] not in ws.filters:
            raise MetraError(f"unknown filter {args['filter']!r}")
        rp = reduced_product(
            [alg(n) for n in args["algebras"]],
            ws.filters[args["filter"]],
            max_size=limits["max_size"],
        )
        data = {"exists": rp.exists, "verdict": _plain(rp.verdict)}
        if rp.exists:
            data["algebra"] = _plain(rp.algebra)
        return rp.exists, data
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
        if args["axioms"] not in ws.axioms:
            raise MetraError(f"unknown axioms {args['axioms']!r}")
        report = closure_suite(
            ws.axioms[args["axioms"]],
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
        if args["axioms"] not in ws.axioms:
            raise MetraError(f"unknown axioms {args['axioms']!r}")
        delta = _equations_only(ws.axioms[args["axioms"]], args["axioms"])
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


def render_json(results) -> str:
    payload = {"schema": 1, "results": [r.to_obj() for r in results]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_text(results) -> str:
    lines = []
    for r in results:
        lines.append(f"### {r.command}")
        lines.append(f"ok: {'yes' if r.ok else 'no'}")
        if r.error:
            lines.append(f"error: {r.error}")
        if r.data:
            lines.append(json.dumps(r.data, sort_keys=True, indent=2))
        lines.append("")
    return "\n".join(lines)


def _parse_limit_overrides(text: str) -> dict:
    overrides = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad limit override {part!r}; use name=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in LIMIT_DEFAULTS:
            raise ValueError(
                f"unknown limit {key!r}; expected one of {', '.join(sorted(LIMIT_DEFAULTS))}"
            )
        overrides[key] = int(value)
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
        "--limits", default="", metavar="k=v,...", help="override resource caps"
    )
    ns = parser.parse_args(argv)
    try:
        overrides = _parse_limit_overrides(ns.limits)
    except ValueError as err:
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
