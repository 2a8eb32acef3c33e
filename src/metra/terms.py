"""Signatures, finite term universes (built on integer term ids, each
``App`` built and hashed once, and each universe once per process while it
is among the last few asked for), evaluation, substitution, and the one
lexer and term parser behind every text format of the package."""

from __future__ import annotations

import itertools
import re
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    LIMIT_DEFAULTS,
    ParseError,
    SignatureError,
    ValuationError,
    checked_count,
    over_cap,
)

_NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_']*"
_NUM_PATTERN = r"[0-9]+(?:/[0-9]+)?"
_NAME = re.compile(_NAME_PATTERN + "$")


class Signature:
    """A finite map from operation symbols to arities."""

    __slots__ = ("_arities",)

    def __init__(self, arities: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = dict(arities)
        for name, arity in items.items():
            if not isinstance(name, str) or not _NAME.match(name):
                raise SignatureError(f"bad operation symbol {name!r}")
            if not isinstance(arity, int) or arity < 0:
                raise SignatureError(f"arity of {name} must be a nonnegative integer")
        self._arities = items

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted(self._arities))

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise SignatureError(f"unknown operation symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def items(self):
        return tuple((s, self._arities[s]) for s in self.symbols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self._arities == other._arities

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        body = "; ".join(f"{s}/{a}" for s, a in self.items())
        return f"Signature({{{body}}})"


class Term:
    """Base class for terms; instances are ``Var`` or ``App``.

    A term is hashed once, when built, from its fields and its arguments'
    cached hashes.  ``str`` hashes differ between processes, so a term
    pickles as its constructor call and hashes afresh when loaded.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__dataclass_fields__)


@dataclass(frozen=True)
class Var(Term):
    name: str

    __hash__ = Term.__hash__

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((0, self.name)))

    def height(self) -> int:
        return 0

    def variables(self) -> frozenset:
        return frozenset((self.name,))

    def sort_key(self):
        return (0, self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App(Term):
    symbol: str
    args: tuple[Term, ...] = ()

    __hash__ = Term.__hash__

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.symbol, *[a._hash for a in self.args])))

    def height(self) -> int:
        # Constants sit at height 0, like variables.
        if not self.args:
            return 0
        return 1 + max(a.height() for a in self.args)

    def variables(self) -> frozenset:
        out: frozenset = frozenset()
        for a in self.args:
            out |= a.variables()
        return out

    def sort_key(self):
        return (1, self.symbol, tuple(a.sort_key() for a in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.symbol
        return f"{self.symbol}({','.join(str(a) for a in self.args)})"


def check_term(term: Term, sig: Signature) -> None:
    """Raise unless every applied symbol exists in ``sig`` with its arity."""
    if isinstance(term, Var):
        return
    if isinstance(term, App):
        _check_arity(term.symbol, len(term.args), sig)
        for a in term.args:
            check_term(a, sig)
        return
    raise SignatureError(f"not a term: {term!r}")


def _check_arity(symbol: str, count: int, sig: Signature) -> None:
    arity = sig.arity(symbol)
    if arity != count:
        raise SignatureError(f"{symbol} has arity {arity}, got {count} arguments")


def enumerate_terms(
    sig: Signature,
    variables: Iterable[str],
    depth: int,
    max_terms: int = LIMIT_DEFAULTS["max_terms"],
) -> list[Term]:
    """All terms of height at most ``depth``, in canonical order.

    The order lists variables first (by name), then applications by
    symbol name and lexicographically in their subterms.  The order is
    total, so repeated calls agree and deeper universes extend shallower
    ones as sets.  ``ResourceLimitError`` when there are more than
    ``max_terms`` terms, the variables and constants included.
    """
    return list(_term_universe(sig, variables, depth, max_terms)[0])


# The last few term universes built, most recent last (see _term_universe).
_UNIVERSES_KEPT = 8
_kept_universes: OrderedDict = OrderedDict()


def _term_universe(sig: Signature, variables: Iterable[str], depth: int, max_terms: int):
    """``enumerate_terms`` as a tuple, with the position map and the
    closure's ``rule_tables`` of the universe; see ``_built_universe``.

    A universe depends only on the signature, the names and the depth, so
    the last ``_UNIVERSES_KEPT`` of them are kept and shared by every
    caller: the tuple, the read-only tables and the position map are never
    to be written.  Bad names, depths and refusals raise on every call,
    and a refused universe is never kept."""
    depth, max_terms = checked_count(depth, "depth"), checked_count(max_terms, "max_terms")
    names = sorted(set(variables))
    for name in names:
        if not _NAME.match(name):
            raise SignatureError(f"bad variable name {name!r}")
        if name in sig:
            raise SignatureError(f"variable {name!r} collides with an operation symbol")
    key = (sig, tuple(names), depth)
    kept = _kept_universes.get(key)
    if kept is None:
        kept = _kept_universes[key] = _built_universe(sig, names, depth, max_terms)
        if len(_kept_universes) > _UNIVERSES_KEPT:
            _kept_universes.popitem(last=False)
    else:
        _kept_universes.move_to_end(key)
        _check_terms(len(kept[0]), max_terms)
    return kept


def _check_terms(count: int, max_terms: int) -> None:
    over_cap(count, max_terms, "max_terms", "term universe exceeds {cap} terms")


def _built_universe(sig: Signature, names: list, depth: int, max_terms: int):
    """The universe on integer term ids: candidates are deduplicated on
    ``(symbol, *arg ids)``, and each new term's ``App`` and sort key are
    built once, from its arguments'.  Returns the terms in canonical
    order, ``position(term)``, -1 outside the universe, and the
    ``rule_tables`` of each symbol of positive arity's ``(args_idx,
    res_idx)`` in universe positions, sorted by the arguments."""
    constants = [s for s, a in sig.items() if a == 0]
    terms: list[Term] = [Var(name) for name in names] + [App(s) for s in constants]
    keys = [(0, name) for name in names] + [(1, s, ()) for s in constants]
    ids = {key: i for i, key in enumerate([*names, *((s,) for s in constants)])}
    made: dict = {}
    _check_terms(len(terms), max_terms)
    for _ in range(depth):
        layer = range(len(terms))
        for symbol, arity in sig.items():
            if arity == 0:
                continue
            for args in itertools.product(layer, repeat=arity):
                key = (symbol, *args)
                if key in ids:
                    continue
                ids[key] = len(terms)
                made.setdefault(symbol, []).append([*args, len(terms)])
                terms.append(App(symbol, tuple(map(terms.__getitem__, args))))
                keys.append((1, symbol, tuple(map(keys.__getitem__, args))))
                _check_terms(len(terms), max_terms)
        if len(terms) == len(layer):
            break
    # Each id's position, and -1 past the last id for a term outside.
    n = len(terms)
    order = sorted(range(n), key=keys.__getitem__)
    at = np.full(n + 1, -1, dtype=np.intp)
    at[order] = np.arange(n)
    rules = {}
    for symbol, cells in made.items():
        # In canonical order a symbol's terms come sorted by their arguments.
        cells = at[np.array(cells, dtype=np.intp)]
        cells = cells[cells[:, -1].argsort()]
        cells.flags.writeable = False
        rules[symbol] = tuple(cells[:, :-1].T), cells[:, -1]

    def term_id(term: Term) -> int:
        key = term.name if isinstance(term, Var) else (term.symbol, *map(term_id, term.args))
        return ids.get(key, n)

    universe = tuple(terms[i] for i in order)
    return universe, lambda term: int(at[term_id(term)]), rule_tables(n, rules)


def rule_tables(n: int, rules: Mapping[str, tuple]) -> tuple:
    """What the closure fixpoint reads of partial operation tables on
    ``range(n)``, given as ``rules``: symbol to ``(args_idx, res_idx)``, one
    array of argument positions per place and the images, sorted by the
    arguments.  For each symbol, in sorted order, ``(symbol, args_idx,
    res_idx, reads, rows, square, first, injective)``: the mask of the rows
    the rule reads and those rows sorted; the rows again when the argument
    tuples are their power in row-major order (as in term universes and
    full tables), else None; the first image when the images are a run of
    positions, else None; and whether no two tuples share an image.  The
    arrays are read-only, so a kept universe shares its tables."""
    tables = []
    for symbol in sorted(rules):
        args_idx, res_idx = rules[symbol]
        # The rows the rule reads, as a mask and sorted.  (A plain np.unique
        # would import numpy.ma: 1 MB of RSS.)
        reads = np.zeros(n, dtype=bool)
        reads[np.concatenate(args_idx)] = True
        rows, arity = reads.nonzero()[0], len(args_idx)
        square = len(res_idx) == len(rows) ** arity and bool(
            (np.stack(args_idx) == rows[np.indices((len(rows),) * arity).reshape(arity, -1)]).all()
        )
        first = int(res_idx[0])
        if not (res_idx == np.arange(first, first + len(res_idx))).all():
            first = None
        injective = first is not None or int(np.bincount(res_idx).max()) < 2
        reads.flags.writeable = rows.flags.writeable = False
        square = rows if square else None
        tables.append((symbol, args_idx, res_idx, reads, rows, square, first, injective))
    return tuple(tables)


def evaluate(term: Term, algebra, valuation: Mapping) -> object:
    """Evaluate ``term`` in ``algebra`` under ``valuation`` by recursion."""
    if isinstance(term, Var):
        if term.name not in valuation:
            raise ValuationError(f"valuation does not cover variable {term.name!r}")
        value = valuation[term.name]
        algebra.space.index(value)
        return value
    if isinstance(term, App):
        args = tuple(evaluate(a, algebra, valuation) for a in term.args)
        return algebra.apply(term.symbol, args)
    raise SignatureError(f"not a term: {term!r}")


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneously replace variables by terms."""
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, App):
        return App(term.symbol, tuple(substitute(a, mapping) for a in term.args))
    raise SignatureError(f"not a term: {term!r}")


# The one lexer of the package.  Each match is one token, named by its
# group: ``skip`` (blank space and ``#`` comments) is dropped, and ``bad``
# takes any character no other group reads.  Names and numbers are ASCII.
_TOKEN = re.compile(
    r"""(?P<skip>(?:\s|\#[^\n]*)+)
      | (?P<name>""" + _NAME_PATTERN + r""")
      | (?P<num>""" + _NUM_PATTERN + r""")
      | "(?P<string>[^"\n]*)"
      | (?P<arrow>->)
      | (?P<turnstile>\|-)
      | (?P<eqb>=\[)
      | (?P<ge>>=)
      | (?P<le><=)
      | (?P<sq>\^2)
      | (?P<punct>[{}\[\](),;:=/+\-*])
      | (?P<bad>.)""",
    re.VERBOSE,
)

# Literal runs of a workspace, each read in one match by ``TokenStream.take``
# and built from the pieces of ``_TOKEN``: ids, ``[[q,...],...]`` matrices and
# ``ids -> id;`` cells and ``limitmetric``'s ``id, id -> "text";`` forms.
# They pass over blank space but not comments, zero denominators or
# fractional ids, which are left to the token reader.
_ID_TEXT = _NAME_PATTERN + r"|[0-9]+(?![/0-9])"
_ID = r"\s*(?:" + _ID_TEXT + ")"
_IDS = _ID + r"(?:\s*," + _ID + ")*"
_SCALAR = r"\s*(?:inf|(?![0-9]+/0+(?![0-9]))" + _NUM_PATTERN + ")"
_ROW = r"\s*\[" + _SCALAR + r"(?:\s*," + _SCALAR + r")*\s*\]"
IDS_RUN = re.compile(_IDS)
MATRIX_RUN = re.compile(r"\s*\[" + _ROW + r"(?:\s*," + _ROW + r")*\s*\]")
TABLE_RUN = re.compile(r"(?:" + _IDS + r"\s*->" + _ID + r"\s*;)*")
MAP_RUN = re.compile(r"(?:" + _ID + r"\s*->" + _ID + r"\s*;)*")
# One form, its groups the two ids and the text; FORMS_RUN is a run of them.
FORM = re.compile(r"\s*(" + _ID_TEXT + r")\s*,\s*(" + _ID_TEXT + r')\s*->\s*"([^"\n]*)"\s*;')
FORMS_RUN = re.compile("(?:" + FORM.pattern + ")*")


class TokenStream:
    """The tokens of ``text[start:end]``, lexed one at a time on demand.

    A token is ``(kind, text, offset)``: ``kind`` is a group name of the
    token pattern, or ``"end"`` past the last token; a string token's
    text drops the quotes; ``offset`` indexes the whole text, and the line
    and column are worked out only for an error.  An unreadable character
    raises when the parser reaches it, so the first error in text order is
    the one reported.  ``take`` reads a whole literal run in one match
    instead; a run it refuses is read token by token, with the same errors.
    """

    __slots__ = ("text", "_end", "_resume", "_token")

    def __init__(self, text: str, start: int = 0, end: int | None = None):
        self.text = text
        self._end = len(text) if end is None else end
        self._resume = start
        self._token = None

    def _lookahead(self):
        """The next token, read but not raised on when unreadable."""
        if self._token is None:
            m = _TOKEN.match(self.text, self._resume, self._end)
            if m is not None and m.lastgroup == "skip":
                m = _TOKEN.match(self.text, m.end(), self._end)
            if m is None:
                self._token = ("end", "", self._end)
            else:
                self._resume = m.end()
                self._token = (m.lastgroup, m.group(m.lastindex), m.start())
        return self._token

    def take(self, pattern: re.Pattern) -> re.Match | None:
        """Match ``pattern`` at the next unread character and pass over the
        match; ``None``, reading nothing, when it does not match or a token
        has been looked at."""
        if self._token is not None:
            return None
        m = pattern.match(self.text, self._resume, self._end)
        if m is not None:
            self._resume = m.end()
        return m

    def give_back(self, run: re.Match) -> None:
        """Unread a match that ``take`` just made, for the token reader."""
        self._resume = run.start()

    def peek(self):
        token = self._lookahead()
        if token[0] == "bad":
            if token[1] == '"':
                raise self.error("unterminated string", token)
            raise self.error(f"unreadable character {token[1]!r}", token)
        return token

    def next(self):
        token = self.peek()
        self._token = None
        return token

    def pass_over(self, kind: str, value: str, missing: str):
        """Pass over the tokens before the next ``(kind, value)``, raising
        on none of them and leaving that one unread.  Returns the offsets of
        the first token passed and just past the last (both the stop
        token's offset when none is); when the text ends first, raises
        ``missing`` at the first token.
        """
        token = first = self._lookahead()
        start = end = first[2]
        while token[0] != kind or token[1] != value:
            if token[0] == "end":
                raise self.error(missing, first)
            end = self._resume
            self._token = None
            token = self._lookahead()
        return start, end

    def source(self, start: int, end: int) -> str:
        """``text[start:end]`` without its comments, each run of blank space
        read as one space: the form in which a command is echoed.  A span
        with no ``#`` holds no comment, and its tokens are its text."""
        span = self.text[start:end]
        if "#" not in span:
            return " ".join(span.split())
        parts = (
            " " if m.lastgroup == "skip" else m.group()
            for m in _TOKEN.finditer(self.text, start, end)
        )
        return " ".join("".join(parts).split())

    def fraction(self, token) -> Fraction:
        """The rational that a ``num`` token reads."""
        try:
            return Fraction(token[1])
        except ZeroDivisionError:
            raise self.error(f"zero denominator in {token[1]!r}", token) from None

    def at(self, kind: str, value: str | None = None) -> bool:
        token = self.peek()
        return token[0] == kind and (value is None or token[1] == value)

    def expect(self, kind: str, value: str | None = None):
        token = self.peek()
        if token[0] != kind or (value is not None and token[1] != value):
            raise self.expected(repr(value or kind), token)
        return self.next()

    def finish(self, what: str) -> None:
        """Raise unless every token has been read."""
        token = self.peek()
        if token[0] != "end":
            raise self.error(f"unexpected {token[1]!r} after the {what}", token)

    def expected(self, what: str, token) -> ParseError:
        """The error for finding ``token`` where ``what`` belongs."""
        return self.error(f"expected {what}, found {token[1] or 'end of input'!r}", token)

    def error(self, message: str, token) -> ParseError:
        offset = token[2]
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))


def read_term(stream: TokenStream, sig: Signature | None = None) -> Term:
    """Read ``name`` or ``f(t1,...,tn)`` from the stream.

    With a signature, a bare nullary symbol is a constant, a bare symbol
    of positive arity is a syntax error, and every application is
    arity-checked as soon as it closes; without one, every bare name is a
    variable.
    """
    token = stream.peek()
    if token[0] != "name":
        raise stream.expected("a term", token)
    stream.next()
    name = token[1]
    if stream.at("punct", "("):
        stream.next()
        args = [read_term(stream, sig)]
        while stream.at("punct", ","):
            stream.next()
            args.append(read_term(stream, sig))
        stream.expect("punct", ")")
        if sig is not None:
            _check_arity(name, len(args), sig)
        return App(name, tuple(args))
    if sig is not None and name in sig:
        if sig.arity(name):
            message = f"symbol {name!r} takes {sig.arity(name)} arguments"
            raise stream.error(message, token)
        return App(name)
    return Var(name)


def parse_term(text: str, sig: Signature | None = None) -> Term:
    """Parse the concrete syntax ``name`` / ``f(t1,...,tn)``.

    Bare names are read as in ``read_term``.  Syntax errors, a bare
    symbol of positive arity among them, raise ``ParseError`` with the
    line and column; an applied symbol that is unknown or has the wrong
    number of arguments raises ``SignatureError``.
    """
    stream = TokenStream(text)
    term = read_term(stream, sig)
    stream.finish("term")
    return term
