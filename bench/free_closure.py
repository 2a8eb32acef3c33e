"""Workload ``free_closure``: free algebras of seeded presentations.

A job is what the ``free`` command does: ``free_algebra(p)`` and then the
generators' classes, which builds ``FreeAlgebra.space``.  One round holds,
in a fixed make-up whatever the seed:

* 36 presentations over ``{sigma/2}`` with generators x, y at depth 2
  (38 terms) and 36 over ``{sigma/2, u/1}`` with x, y at depth 2 (74 terms);
* 20 over ``{sigma/2}`` with x, y, z at depth 2 (147 terms) and 20 over
  ``{sigma/2, u/1}`` with x at depth 3 (183 terms);
* 2 presentations whose bounds have denominators 65537 and 65539, whose
  least common denominator exceeds the int64 path's 2**32, so the closure
  runs on exact Fractions (26 and 38 terms);
* the presentation of acceptance criterion 08 at depth 3 (1,446 terms);
* the LIP k = 1/2 closure of ROADMAP direction 4 under ``max_decreases``
  2,000.  It fails on every run until that fault is mended.

Within a class the mode (M, Q, or LIP with k in 1, 3/2, 2, 3), the number
of relations (1 to 3) and the related terms (height at most 1) cycle in a
fixed pattern, and every fourth presentation has a relation of bound 0.  The
seed picks the positive bounds (denominators 1 to 4 and 6) and the bounds
of the two exact-path presentations.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

import oracle
from metra import (
    Presentation,
    ResourceLimitError,
    Signature,
    free_algebra,
    generate_congruence,
    parse_equation,
)

SIG_S = {"sigma": 2}
SIG_SU = {"sigma": 2, "u": 1}
BOUNDS = sorted({Fraction(p, q) for q in (1, 2, 3, 4, 6) for p in range(1, 2 * q + 1)})
MODES = ("M", "Q", "LIP")
LIP_KS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
ORACLE_MAX_TERMS = 40
CRITERION_08 = "criterion08"
LIP_HALF = "lip_half"
LIP_HALF_CAP = 2000


def var(name):
    return ("var", name)


def app(symbol, *args):
    return ("app", symbol, tuple(args))


def render(term) -> str:
    if term[0] == "var":
        return term[1]
    return f"{term[1]}({','.join(render(a) for a in term[2])})"


def universe(sig, gens, depth):
    """Every term of height at most ``depth`` (as a set), built level by level."""
    terms = {var(g) for g in gens}
    for _ in range(depth):
        level = list(terms)
        for symbol, arity in sig.items():
            for args in itertools.product(range(len(level)), repeat=arity):
                terms.add(app(symbol, *(level[i] for i in args)))
    return terms


def small_terms(sig, gens):
    out = [var(g) for g in gens]
    for symbol, arity in sig.items():
        for args in itertools.product(range(len(gens)), repeat=arity):
            out.append(app(symbol, *(var(gens[i]) for i in args)))
    return out


def seeded_spec(rng, label, sig, gens, depth, i):
    """The i-th presentation of a class.

    The mode, the number of relations and the related pairs of terms cycle
    with i, and every fourth presentation has a first relation of bound 0,
    which merges terms into zero classes: the amount of work is the same
    for every seed.  The seed picks the positive bounds.
    """
    mode = MODES[i % len(MODES)]
    pairs = list(itertools.combinations(small_terms(sig, gens), 2))
    relations = []
    for r in range(1 + i // len(MODES) % 3):
        lhs, rhs = pairs[(3 * i + r) % len(pairs)]
        bound = Fraction(0) if r == 0 and i % 4 == 3 else rng.choice(BOUNDS)
        relations.append((lhs, rhs, bound))
    return {
        "label": label, "sig": sig, "gens": gens, "depth": depth, "mode": mode,
        "k": LIP_KS[i // len(MODES) % len(LIP_KS)] if mode == "LIP" else None,
        "relations": relations,
    }


def exact_spec(rng, label, gens, depth):
    x = var(gens[0])
    far = app("sigma", x, x) if len(gens) == 1 else var(gens[1])
    relations = [
        (x, far, Fraction(rng.randint(1, 65536), 65537)),
        (x, app("sigma", x, far), Fraction(rng.randint(1, 65538), 65539)),
    ]
    return {
        "label": label, "sig": SIG_S, "gens": gens, "depth": depth, "mode": "Q",
        "k": None, "relations": relations,
    }


def generate(seed, workdir):
    rng = random.Random(seed)
    specs = []
    for i in range(36):
        specs.append(seeded_spec(rng, f"s38_{i}", SIG_S, ["x", "y"], 2, i))
        specs.append(seeded_spec(rng, f"su74_{i}", SIG_SU, ["x", "y"], 2, i))
    for i in range(20):
        specs.append(seeded_spec(rng, f"s147_{i}", SIG_S, ["x", "y", "z"], 2, i))
        specs.append(seeded_spec(rng, f"su183_{i}", SIG_SU, ["x"], 3, i))
    specs.append(exact_spec(rng, "exact26", ["x"], 3))
    specs.append(exact_spec(rng, "exact38", ["x", "y"], 2))
    rng.shuffle(specs)
    specs.append({
        "label": CRITERION_08, "sig": SIG_S, "gens": ["x", "y"], "depth": 3, "mode": "Q",
        "k": None, "relations": [(var("x"), var("y"), Fraction(1))],
    })
    specs.append({"label": LIP_HALF})
    return specs


def build(specs):
    """Presentations through the library (signature, relation parsing, validation)."""
    built = []
    for spec in specs:
        if spec["label"] == LIP_HALF:
            built.append((LIP_HALF, None))
            continue
        sig = Signature(spec["sig"])
        relations = [
            parse_equation(f"{render(l)} =[{b}] {render(r)}", sig)
            for l, r, b in spec["relations"]
        ]
        p = Presentation(
            sig, spec["gens"], relations, mode=spec["mode"], depth=spec["depth"],
            lipschitz=spec["k"],
        )
        built.append((spec["label"], p))
    return built


def _free_job(p):
    def job():
        free = free_algebra(p)
        return free, [free.eta(g) for g in p.variables]
    return job


def _lip_half_job():
    return generate_congruence(
        (0, 1, 2), {"f": {(0,): 1, (1,): 0, (2,): 2}}, [(0, 1, 1)],
        mode="LIP", lipschitz={"f": Fraction(1, 2)}, max_decreases=LIP_HALF_CAP,
    )


def jobs(built):
    return [
        (label, _lip_half_job if p is None else _free_job(p)) for label, p in built
    ]


def as_tuple(term):
    """The benchmark's own form of a metra term, read from its public fields."""
    if hasattr(term, "name"):
        return var(term.name)
    return ("app", term.symbol, tuple(as_tuple(a) for a in term.args))


def matrix_codes(m):
    """(values, codes) for a metra matrix: one value per distinct entry object."""
    n = m.size
    flat = [v for row in m.entries for v in row]
    ids = np.fromiter(map(id, flat), dtype=np.uint64, count=n * n)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    values = [None if flat[f].is_infinite else flat[f].finite for f in first.tolist()]
    return values, inverse.reshape(n, n).astype(np.int32)


def capture(label, out):
    if label == LIP_HALF:
        return {"d01": oracle.parse_value(str(out.get(0, 1)))}
    free, etas = out
    terms = [as_tuple(t) for t in free.universe]
    index = {t: i for i, t in enumerate(terms)}
    values, codes = matrix_codes(free.theta)
    return {
        "terms": terms,
        "values": values,
        "codes": codes,
        "space": [index[as_tuple(t)] for t in free.space.carrier],
        "eta": [index[as_tuple(t)] for t in etas],
    }


def digest(rec):
    if "d01" in rec:
        return rec["d01"]
    arr, denom, _ = oracle.scaled(rec["values"], rec["codes"])
    return (len(rec["terms"]), denom, hash(arr.tobytes()) if arr.dtype != object
            else hash(tuple(arr.reshape(-1).tolist())), tuple(rec["space"]), tuple(rec["eta"]))


def _mode_rule_problem(spec, terms, arr, inf):
    index = {t: i for i, t in enumerate(terms)}
    for symbol, arity in spec["sig"].items():
        entries = [(t, i) for i, t in enumerate(terms) if t[0] == "app" and t[1] == symbol]
        args = np.array([[index[a] for a in t[2]] for t, _ in entries], dtype=np.intp)
        res = np.array([i for _, i in entries], dtype=np.intp)
        spread = arr[np.ix_(args[:, 0], args[:, 0])]
        for pos in range(1, arity):
            spread = np.maximum(spread, arr[np.ix_(args[:, pos], args[:, pos])])
        out = arr[np.ix_(res, res)]
        if spec["mode"] == "M":
            bad = (spread == 0) & (out != 0)
        elif spec["mode"] == "Q":
            bad = (spread < inf) & (out > spread)
        else:
            k = spec["k"]
            bad = (spread < inf) & (out * k.denominator > spread * k.numerator)
        if bad.any():
            return f"mode {spec['mode']} rule fails for {symbol}"
    return None


def _model_problem(spec, terms, arr, denom, inf):
    """theta must dominate the pull-back of the two-point max algebra.

    The model has points 0 < 1 at distance delta, the least positive
    relation bound (or 1), sigma = max and u = identity: it is
    nonexpansive, so it lies in every mode class with k >= 1.  A valuation
    of the generators satisfies the relations when it gives both sides of
    every bound-0 relation the same value.
    """
    positive = [b for _, _, b in spec["relations"] if b > 0]
    threshold = math.ceil(min(positive, default=Fraction(1)) * denom)

    def value(term, val):
        if term[0] == "var":
            return val[term[1]]
        return max(value(a, val) for a in term[2])

    gens = spec["gens"]
    for bits in itertools.product((0, 1), repeat=len(gens)):
        val = dict(zip(gens, bits))
        if any(value(l, val) != value(r, val) for l, r, b in spec["relations"] if b == 0):
            continue
        v = np.array([value(t, val) for t in terms])
        differ = v[:, None] != v[None, :]
        if (differ & (arr < threshold) & (arr < inf)).any():
            return f"theta falls below the two-point model under {val}"
    return None


def _check_free(spec, rec):
    terms = rec["terms"]
    if set(terms) != universe(spec["sig"], spec["gens"], spec["depth"]):
        return "the term universe differs from the benchmark's enumeration"
    arr, denom, inf = oracle.scaled(rec["values"], rec["codes"])
    problem = oracle.pseudometric_problem(arr, inf)
    if problem:
        return f"theta is not a pseudometric: {problem}"
    index = {t: i for i, t in enumerate(terms)}
    for l, r, b in spec["relations"]:
        v = arr[index[l], index[r]]
        if v >= inf or Fraction(int(v), denom) > b:
            return f"relation {render(l)} =[{b}] {render(r)} is not met"
    problem = _mode_rule_problem(spec, terms, arr, inf) or _model_problem(spec, terms, arr, denom, inf)
    if problem:
        return problem
    n = len(terms)
    reps = [i for i in range(n) if not (arr[i, :i] == 0).any()]
    if rec["space"] != reps:
        return "the space carrier is not the earliest members of the zero classes"
    for g, got in zip(spec["gens"], rec["eta"]):
        want = int(np.nonzero(arr[:, index[var(g)]] == 0)[0][0])
        if got != want:
            return f"eta({g}) is not its class representative"
    if n <= ORACLE_MAX_TERMS:
        tables = [
            [([index[a] for a in t[2]], i) for i, t in enumerate(terms)
             if t[0] == "app" and t[1] == symbol]
            for symbol in spec["sig"]
        ]
        constraints = [(index[l], index[r], b) for l, r, b in spec["relations"]]
        want = oracle.greatest_fixpoint(n, constraints, tables, spec["mode"], spec["k"])
        values, codes = rec["values"], rec["codes"]
        for i in range(n):
            for j in range(n):
                if values[codes[i, j]] != want[i][j]:
                    return (f"theta({render(terms[i])}, {render(terms[j])}) is "
                            f"{oracle.show(values[codes[i, j]])}, the fixpoint gives "
                            f"{oracle.show(want[i][j])}")
    if spec["label"] == CRITERION_08:
        sxx = index[app("sigma", var("x"), var("x"))]
        syy = index[app("sigma", var("y"), var("y"))]
        if Fraction(int(arr[sxx, syy]), denom) != 1:
            return "d(sigma(x,x), sigma(y,y)) is not 1"
    return None


def check(specs, records):
    problems = []
    for spec, (label, rec, error) in zip(specs, records):
        if label == LIP_HALF:
            if error is None and rec["d01"] != 0:
                problems.append(f"{label}: d(0,1) is {oracle.show(rec['d01'])}, not 0")
            elif error is not None and error[0] != ResourceLimitError.__name__:
                problems.append(f"{label}: failed with {error[0]}, not the known cap")
            continue
        if error is not None:
            continue
        problem = _check_free(spec, rec)
        if problem:
            problems.append(f"{label}: {problem}")
    return problems
