"""Workload ``valuation_search``: satisfaction searches over finite algebras.

A job is one library call.  The algebras have 6 to 12 points on a line (the
seed picks the gaps, halves to twos) with one binary operation: the max or
the min by position, which satisfy the lattice laws and are nonexpansive,
or a seeded random table, which breaks most laws early.  One round holds 36
calls in a fixed make-up whatever the seed:

* 16 ``satisfies`` calls: 10 with laws that hold, which scan all of
  1,728 to 100,000 valuations, 4 with laws that fail at once and 2 with a
  law that fails about half way;
* 6 ``entails`` calls over a max and a min algebra;
* 4 ``equicontinuity_check`` and 4 ``weak_compactness_search`` calls;
* 6 ``closure_suite`` calls in the style of acceptance criterion 09: seeded
  line algebras with the congruence, idempotence, trivial and implication
  laws, and the fixed non-reflexive quotient counterexample.

The seed picks the algebras, the laws' variable patterns and the bounds.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import oracle
from metra import (
    ExtRat,
    FiniteMetricSpace,
    MetricAlgebra,
    Signature,
    closure_suite,
    entails,
    equicontinuity_check,
    parse_equation,
    parse_formula,
    satisfies,
    weak_compactness_search,
)

GAPS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
NAMES = ["v", "w", "x", "y", "z"]
# (points, operation) of the four instances of every closure suite
SUITE_INSTANCES = [(2, "max"), (3, "min"), (3, "max"), (2, "min")]
SIG = {"sigma": 2}


def var(name):
    return ("var", name)


def s(a, b):
    return ("app", "sigma", (a, b))


def render_term(t):
    return t[1] if t[0] == "var" else f"sigma({render_term(t[2][0])},{render_term(t[2][1])})"


def render_eq(eq):
    lhs, rhs, b = eq
    return f"{render_term(lhs)} =[{oracle.show(b)}] {render_term(rhs)}"


def render_formula(premises, conclusion):
    if not premises:
        return render_eq(conclusion)
    return ", ".join(render_eq(p) for p in premises) + " |- " + render_eq(conclusion)


def line_algebra(rng, n, kind):
    """n points on a line; a 3-point line gets two different gaps, so its
    distances, and with them the closure suites' congruence grid, have a
    fixed size."""
    gaps = rng.sample(GAPS, 2) if n == 3 else [rng.choice(GAPS) for _ in range(n - 1)]
    pos = [Fraction(0)]
    for gap in gaps:
        pos.append(pos[-1] + gap)
    dist = [[abs(p - q) for q in pos] for p in pos]
    if kind == "max":
        table = [[max(i, j) for j in range(n)] for i in range(n)]
    elif kind == "min":
        table = [[min(i, j) for j in range(n)] for i in range(n)]
    else:
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    return {"n": n, "dist": dist, "table": table, "kind": kind}


def tree(rng, names):
    """A random sigma-term using every name once, in a seeded order."""
    leaves = [var(x) for x in rng.sample(names, len(names))]
    while len(leaves) > 1:
        i = rng.randrange(len(leaves) - 1)
        leaves[i:i + 2] = [s(leaves[i], leaves[i + 1])]
    return leaves[0]


def lattice_law(rng, k):
    """Two sigma-terms over k variables: equal in every semilattice."""
    names = NAMES[:k]
    return (tree(rng, names), tree(rng, names), Fraction(0))


def nonexpansive_law(rng, k):
    """x =[b] y (, z =[c] w) |- sigma(..) =[max] sigma(..): holds for max and min on a line."""
    b = rng.choice(GAPS)
    if k == 3:
        x, y, z = (var(n) for n in rng.sample(NAMES[:3], 3))
        return [(x, y, b)], (s(x, z), s(y, z), b)
    x, y, z, w = (var(n) for n in NAMES[:4])
    c = rng.choice(GAPS)
    return [(x, y, b), (z, w, c)], (s(x, z), s(y, w), max(b, c))


def generate(seed, workdir):
    rng = random.Random(seed)
    jobs = []

    def add(kind, **spec):
        jobs.append(dict(kind=kind, label=f"{kind}{len(jobs):02d}", **spec))

    # satisfies: laws that hold need a full scan.
    for n, k in ((12, 3), (10, 4), (12, 4), (9, 4), (11, 4), (8, 5), (9, 5), (10, 5)):
        add("satisfies", algebras=[line_algebra(rng, n, rng.choice(("max", "min")))],
            premises=[], conclusion=lattice_law(rng, k))
    for n in (10, 12):
        premises, conclusion = nonexpansive_law(rng, 3 if n == 12 else 4)
        add("satisfies", algebras=[line_algebra(rng, n, "max")],
            premises=premises, conclusion=conclusion)
    # satisfies: laws that fail, some at once and some after a while.
    for n, k in ((10, 3), (12, 3), (8, 4), (10, 4)):
        add("satisfies", algebras=[line_algebra(rng, n, "random")],
            premises=[], conclusion=lattice_law(rng, k))
    for n in (10, 12):
        # fails only once x lies more than the bound above y and z: a partial scan
        alg = line_algebra(rng, n, "max")
        y, z = var("y"), var("z")
        add("satisfies", algebras=[alg], premises=[],
            conclusion=(s(var("x"), s(y, z)), s(y, z), alg["dist"][0][n // 2]))
    # entails over a max and a min algebra.
    for n, k in ((10, 4), (12, 3), (8, 4), (9, 4), (11, 4), (10, 3)):
        premises, conclusion = nonexpansive_law(rng, k)
        add("entails", algebras=[line_algebra(rng, n, "max"), line_algebra(rng, n, "min")],
            premises=premises, conclusion=conclusion)
    # equicontinuity: loosen x =[b] y |- sigma(x,z) =[b] sigma(y,z).
    for n, kind in ((8, "max"), (10, "random"), (12, "max"), (9, "random")):
        premises, conclusion = nonexpansive_law(rng, 3)
        eps = conclusion[2] + rng.choice(GAPS)
        add("equicont", algebras=[line_algebra(rng, n, kind)],
            premises=premises, conclusion=conclusion, eps=eps,
            grid=sorted(rng.sample([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)], 3)))
    # weak compactness: which premises entail the slack-relaxed goal.
    for n in (8, 9, 10, 7):
        premises, conclusion = nonexpansive_law(rng, 4)
        extra = (var("x"), var("z"), rng.choice(GAPS))
        add("weakcompact", algebras=[line_algebra(rng, n, "max"), line_algebra(rng, n, "min")],
            premises=[extra] + premises, conclusion=conclusion,
            slack=conclusion[2] + rng.choice([Fraction(0), Fraction(1, 2)]))
    # closure suites in the style of criterion 09.
    suite_laws = [
        ([], (s(var("x"), var("y")), s(var("y"), var("x")), Fraction(0))),
        ([], (s(var("x"), var("x")), var("x"), Fraction(0))),
        ([], (var("x"), var("y"), None)),
        ([(var("x"), var("y"), Fraction(1))],
         (s(var("x"), var("x")), s(var("y"), var("y")), Fraction(1))),
    ]
    for premises, conclusion in suite_laws + [suite_laws[rng.randrange(4)]]:
        instances = [line_algebra(rng, n, kind) for n, kind in SUITE_INSTANCES]
        add("closure", algebras=instances, premises=premises, conclusion=conclusion)
    add("closure", algebras=[], premises=[(var("x"), var("y"), Fraction(1, 2))],
        conclusion=(var("x"), var("y"), Fraction(0)), counterexample=True)
    rng.shuffle(jobs)
    return jobs


COUNTER_GRID = ["0", "1/2", "1", "3/2", "2", "inf"]


def _library_algebra(alg, sig):
    n = alg["n"]
    carrier = list(range(n))
    ops = {}
    if "sigma" in sig:
        ops["sigma"] = {(i, j): alg["table"][i][j] for i in range(n) for j in range(n)}
    return MetricAlgebra(sig, FiniteMetricSpace(carrier, alg["dist"]), ops)


def build(specs):
    """Algebras and formulas through the library, which validates them."""
    sig2, sig0 = Signature(SIG), Signature({})
    built = []
    for spec in specs:
        if spec.get("counterexample"):
            line3 = {"n": 3, "dist": [[Fraction(abs(p - q)) for q in range(3)] for p in range(3)]}
            algebras = [_library_algebra(line3, sig0)]
            sig = sig0
        else:
            algebras = [_library_algebra(a, sig2) for a in spec["algebras"]]
            sig = sig2
        formula = parse_formula(render_formula(spec["premises"], spec["conclusion"]), sig)
        premises = [parse_equation(render_eq(p), sig) for p in spec["premises"]]
        goal = parse_equation(render_eq(spec["conclusion"]), sig)
        built.append((spec, algebras, formula, premises, goal))
    return built


def _job(spec, algebras, formula, premises, goal):
    kind = spec["kind"]
    if kind == "satisfies":
        return lambda: satisfies(algebras[0], formula)
    if kind == "entails":
        return lambda: entails(algebras, premises, goal)
    if kind == "equicont":
        return lambda: equicontinuity_check(algebras, formula, spec["eps"], spec["grid"])
    if kind == "weakcompact":
        return lambda: weak_compactness_search(algebras, premises, goal, spec["slack"])
    values = [ExtRat(v) for v in COUNTER_GRID] if spec.get("counterexample") else None
    return lambda: closure_suite([formula], algebras, quotient_values=values)


def jobs(built):
    return [(b[0]["label"], _job(*b)) for b in built]


def capture(label, out):
    if hasattr(out, "records"):
        return {
            "records": [(r.construction, r.ok, r.expected) for r in out.records],
            "unexpected": len(out.unexpected_failures),
        }
    return {"ok": out.ok, "reason": out.reason, "witness": _plain(out.witness),
            "value": _plain(out.value)}


def _plain(value):
    if isinstance(value, ExtRat):
        return oracle.parse_value(str(value))
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    return value


def digest(rec):
    return repr(sorted(rec.items()))


# ---------------------------------------------------------------------------
# Checks: every verdict again, by brute force over the tables


def _tables(spec):
    return [oracle.TableAlgebra(a["n"], a["dist"], {"sigma": a["table"]})
            for a in spec["algebras"]]


def _valuation(names, where):
    return tuple(zip(names, where))


def _entails(algs, premises, conclusion, names):
    for pos, alg in enumerate(algs):
        where = oracle.first_failure(alg, premises, conclusion, names)
        if where is not None:
            return pos, where
    return None


def _expected(spec):
    """The verdict (ok, reason, witness, value) the call must return."""
    kind = spec["kind"]
    premises, conclusion = spec["premises"], spec["conclusion"]
    names = oracle.implication_vars(premises, conclusion)
    algs = _tables(spec)
    if kind == "satisfies":
        where = oracle.first_failure(algs[0], premises, conclusion, names)
        if where is None:
            return True, "", (), None
        val = _valuation(names, where)
        return False, "countermodel", val, dict(val)
    if kind == "entails":
        found = _entails(algs, premises, conclusion, names)
        if found is None:
            return True, "", (), len(algs)
        pos, where = found
        val = _valuation(names, where)
        return False, "countermodel", (pos, val), {"algebra": pos, "valuation": dict(val)}
    if kind == "equicont":
        last = None
        for delta in sorted(spec["grid"], reverse=True):
            where = None
            for alg in algs:
                where = oracle.first_failure(alg, premises, conclusion, names,
                                             slack=delta, eps=spec["eps"])
                if where is not None:
                    break
            if where is None:
                return True, "", (), delta
            last = (delta, _valuation(names, where))
        return False, "no-grid-delta-works", last, None
    # weak compactness: smallest premise subset, then positional order
    goal = (conclusion[0], conclusion[1], spec["slack"])
    for size in range(len(premises) + 1):
        for combo in itertools.combinations(range(len(premises)), size):
            subset = [premises[i] for i in combo]
            sub_names = oracle.implication_vars(subset, goal)
            if _entails(algs, subset, goal, sub_names) is None:
                return True, "", (), combo
    pos, where = _entails(algs, premises, goal, names)
    return False, "not-entailed-by-full-set", (), {
        "algebra": pos, "valuation": dict(_valuation(names, where))}


def _check_closure(spec, rec):
    if rec["unexpected"]:
        return f"{rec['unexpected']} unexpected failures"
    records = rec["records"]
    if spec.get("counterexample"):
        if not any(c == "non-reflexive-quotient" and not ok for c, ok, _ in records):
            return "the documented non-reflexive quotient counterexample did not fire"
        reflexive = [ok for c, ok, _ in records if c == "reflexive-quotient"]
        if not reflexive or not all(reflexive):
            return "a reflexive quotient broke the implication"
        return None
    names = oracle.implication_vars(spec["premises"], spec["conclusion"])
    sat = [a for a, t in zip(spec["algebras"], _tables(spec))
           if oracle.first_failure(t, spec["premises"], spec["conclusion"], names) is None]
    products = sum(1 for i in range(len(sat)) for j in range(i, len(sat))
                   if sat[i]["n"] * sat[j]["n"] <= 256)
    count = {}
    for c, _, _ in records:
        count[c] = count.get(c, 0) + 1
    if count.get("product", 0) != products:
        return f"{count.get('product', 0)} product records, the satisfying instances give {products}"
    if count.get("subalgebra", 0) != sum(a["n"] for a in sat):
        return "the subalgebra records do not cover every point of the satisfying instances"
    return None


def check(specs, records):
    problems = []
    for spec, (label, rec, error) in zip(specs, records):
        if error is not None:
            continue
        if spec["kind"] == "closure":
            problem = _check_closure(spec, rec)
        else:
            want = _plain(_expected(spec))
            got = (rec["ok"], rec["reason"], rec["witness"], rec["value"])
            problem = None if got == want else f"verdict {got} is not {want}"
        if problem:
            problems.append(f"{label}: {problem}")
    return problems

