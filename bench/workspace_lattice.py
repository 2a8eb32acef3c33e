"""Workload ``workspace_lattice``: in-process ``metra run`` of generated workspaces.

A job is one workspace: ``load_workspace``, ``run_workspace`` and
``render_json``.  Each workspace declares two factor algebras A and B, their
product P written out in full, the kernels T1 and T2 of its projections, two
metrics T3 = min(d, r) and T4 = d/2 below P's metric, the projection hom p1,
small spaces for Gromov-Hausdorff, and a filter; then it runs validate,
meet, join, compose, permutable, decompose, kernel, quotient, product,
subalgebra, hausdorff, gh, redprod and limitmetric.

One round is 24 workspaces with a fixed list of factor sizes (P has 4 to 36
points); P has a binary operation up to 16 points and at 36, where the mode-M
join skips its self-check, and a unary one otherwise.  The seed picks the
metrics, the operation tables, the subsets and the sequence forms.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import oracle
from metra import (
    Congruence,
    FiniteFilter,
    FiniteMetricSpace,
    Homomorphism,
    MetricAlgebra,
    Signature,
    SquareMatrix,
)
from metra.cli import load_workspace, render_json, run_workspace

# (|A|, |B|, binary operation?) for the 36 workspaces of a round: 12 small,
# 16 middle, 6 of 15 points and the two binary ones at 16 and 36 points.
SHAPES = [
    (2, 2, True), (2, 3, True), (2, 2, False), (2, 2, False), (2, 2, False),
    (2, 3, False), (2, 3, False), (2, 3, False), (2, 4, False), (2, 4, False),
    (3, 3, False), (3, 3, False),
    (2, 4, True), (2, 4, True), (3, 3, True), (3, 3, True), (3, 4, False), (3, 4, False),
    (3, 4, False), (4, 3, False), (2, 5, False), (2, 5, False), (2, 6, False),
    (2, 6, False), (4, 4, False), (4, 4, False), (2, 7, False), (2, 7, False),
    (3, 5, False), (3, 5, False), (3, 5, False), (3, 5, False), (5, 3, False), (5, 3, False),
    (4, 4, True), (6, 6, True),
]
# On a binary operation, joining the two kernels gives the all-zero
# pseudometric, whose zero-set check costs |P|**4 lookups: the explicit
# join T1 T2 runs up to 12 points and decompose (which joins them too)
# up to 32.
JOIN_KERNELS_MAX = 12
DECOMPOSE_MAX = 32
WEIGHTS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]


def random_metric(rng, n):
    """Shortest-path metric of a complete graph with seeded positive weights."""
    d = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.choice(WEIGHTS)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def factor(rng, prefix, n, binary):
    ids = [f"{prefix}{i}" for i in range(n)]
    if binary:
        ops = {"s": {(a, b): rng.randrange(n) for a in range(n) for b in range(n)}}
    else:
        ops = {"u": {(a,): rng.randrange(n) for a in range(n)}}
    return {"ids": ids, "dist": random_metric(rng, n), "ops": ops}


def product_of(fa, fb):
    na, nb = len(fa["ids"]), len(fb["ids"])
    pairs = [(i, j) for i in range(na) for j in range(nb)]
    ids = [f"p{i}_{j}" for i, j in pairs]
    pos = {p: k for k, p in enumerate(pairs)}
    dist = [
        [max(fa["dist"][i][i2], fb["dist"][j][j2]) for i2, j2 in pairs] for i, j in pairs
    ]
    ops = {}
    for symbol, table in fa["ops"].items():
        arity = len(next(iter(table)))
        ops[symbol] = {
            args: pos[(table[tuple(pairs[a][0] for a in args)],
                       fb["ops"][symbol][tuple(pairs[a][1] for a in args)])]
            for args in itertools.product(range(len(pairs)), repeat=arity)
        }
    return {"ids": ids, "dist": dist, "ops": ops, "pairs": pairs}


def space(rng, prefix, n):
    return {"ids": [f"{prefix}{i}" for i in range(n)], "dist": random_metric(rng, n), "ops": {}}


def workspace(rng, a, b, binary):
    A, B = factor(rng, "a", a, binary), factor(rng, "b", b, binary)
    P = product_of(A, B)
    pairs = P["pairs"]
    r = rng.choice(WEIGHTS[1:])
    t1 = [[A["dist"][i][i2] for i2, _ in pairs] for i, _ in pairs]
    t2 = [[B["dist"][j][j2] for _, j2 in pairs] for _, j in pairs]
    t3 = [[min(v, r) for v in row] for row in P["dist"]]
    t4 = [[v / 2 for v in row] for row in P["dist"]]
    n = len(pairs)
    left = sorted(rng.sample(range(n), rng.randint(1, n)))
    right = sorted(rng.sample(range(n), rng.randint(1, n)))
    X, Y = space(rng, "x", 3), space(rng, "y", 3)
    Z, W = space(rng, "z", rng.choice((3, 4, 5))), space(rng, "w", 4)
    point = {"ids": ["o"], "dist": [[Fraction(0)]], "ops": {}}
    line = sorted(rng.sample(range(1, 12), 4))
    step = rng.choice(WEIGHTS)
    return {
        "sig": {"s": 2} if binary else {"u": 1},
        "algebras": {"A": A, "B": B, "P": P},
        "spaces": {"X": X, "Y": Y, "Z": Z, "W": W, "O": point},
        "congruences": {"T1": t1, "T2": t2, "T3": t3, "T4": t4},
        "hausdorff": (left, right),
        "sub_seed": rng.randrange(n),
        "limit": [Fraction(p, 2) for p in line],
        "limit_step": step,
        "join_kernels": not binary or len(pairs) <= JOIN_KERNELS_MAX,
        "decompose": not binary or len(pairs) <= DECOMPOSE_MAX,
    }


def render_matrix(rows):
    return "[" + ", ".join("[" + ", ".join(str(v) for v in row) + "]" for row in rows) + "]"


def render_algebra(name, sig_name, alg):
    ids = alg["ids"]
    lines = [f"algebra {name} over {sig_name} {{", f"  carrier {', '.join(ids)};",
             f"  metric {render_matrix(alg['dist'])};"]
    for symbol, table in alg["ops"].items():
        cells = " ".join(
            f"{','.join(ids[a] for a in args)} -> {ids[v]};" for args, v in table.items()
        )
        lines.append(f"  op {symbol} = table{{ {cells} }};")
    lines.append("}")
    return "\n".join(lines)


def render(ws):
    P = ws["algebras"]["P"]
    ids = P["ids"]
    sig = "; ".join(f"{s}/{k}" for s, k in ws["sig"].items())
    parts = [f"signature S {{ {sig}; }}", "signature E { }"]
    for name, alg in ws["algebras"].items():
        parts.append(render_algebra(name, "S", alg))
    for name, sp in ws["spaces"].items():
        parts.append(render_algebra(name, "E", sp))
    for name, rows in ws["congruences"].items():
        parts.append(f"congruence {name} on P {{ matrix {render_matrix(rows)}; }}")
    cells = " ".join(f"{ids[k]} -> a{i};" for k, (i, _) in enumerate(P["pairs"]))
    parts.append(f"hom p1 : P -> A {{ {cells} }}")
    parts.append("filter F on {1, 2} core {1}")
    left, right = ws["hausdorff"]
    pts = [f"c{i}" for i in range(len(ws["limit"]))]
    forms = " ".join(
        f'{pts[i]},{pts[j]} -> "{abs(ws["limit"][i] - ws["limit"][j])} + {ws["limit_step"]}/n";'
        for i in range(len(pts)) for j in range(i + 1, len(pts))
    )
    parts += ["validate;", "meet T1 T2;"]
    parts += ["join T1 T2;"] if ws["join_kernels"] else []
    parts += [
        "join T3 T4;",
        "compose T1 T2;", "compose T2 T1;", "compose T3 T4;", "compose T4 T3;",
        "permutable T1 T2;", "permutable T3 T4;",
    ]
    parts += ["decompose P by T1 T2;"] if ws["decompose"] else []
    parts += [
        "kernel p1;", "quotient P by T1;", "product A B;",
        f"subalgebra P from {{{ids[ws['sub_seed']]}}};",
        f"hausdorff P {{{', '.join(ids[i] for i in left)}}} {{{', '.join(ids[i] for i in right)}}};",
        "gh X Y;", "gh X X;", "gh O Z;", "gh Z W;", "gh W Z;",
        "redprod [A, B] by F;",
        f"limitmetric {{{', '.join(pts)}}} {{ {forms} }};",
    ]
    return "\n".join(parts) + "\n"


def generate(seed, workdir):
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for i, (a, b, binary) in enumerate(SHAPES):
        ws = workspace(rng, a, b, binary)
        ws["path"] = workdir / f"ws{i:02d}.mt"
        ws["path"].write_text(render(ws), encoding="utf-8")
        out.append(ws)
    return out


def _library_algebra(sig, alg):
    ids = alg["ids"]
    ops = {
        s: {tuple(ids[a] for a in args): ids[v] for args, v in t.items()}
        for s, t in alg["ops"].items()
    }
    return MetricAlgebra(sig, FiniteMetricSpace(ids, alg["dist"]), ops)


def build(workspaces):
    """Every declared object once through the library, which validates it."""
    paths = []
    empty = Signature({})
    for ws in workspaces:
        sig = Signature(ws["sig"])
        algebras = {n: _library_algebra(sig, a) for n, a in ws["algebras"].items()}
        for sp in ws["spaces"].values():
            _library_algebra(empty, sp)
        P = algebras["P"]
        for rows in ws["congruences"].values():
            Congruence(P, SquareMatrix(P.carrier, rows))
        pairs = ws["algebras"]["P"]["pairs"]
        Homomorphism(P, algebras["A"], {p: f"a{i}" for p, (i, _) in zip(P.carrier, pairs)})
        FiniteFilter((1, 2), (1,))
        paths.append((f"ws{len(paths):02d}", str(ws["path"])))
    return paths


def _job(path):
    def job():
        results, code = run_workspace(load_workspace(path))
        return render_json(results), code
    return job


def jobs(paths):
    return [(label, _job(path)) for label, path in paths]


def capture(label, out):
    report, code = out
    return {"report": report, "code": code}


def digest(rec):
    return rec["report"], rec["code"]


# ---------------------------------------------------------------------------
# Checks


def _values(rows):
    return [[oracle.parse_value(v) for v in row] for row in rows]


def _check_workspace(ws, results):
    problems = []
    P = ws["algebras"]["P"]
    A = ws["algebras"]["A"]
    n = len(P["ids"])
    cong = ws["congruences"]
    by_command = {r["command"].rstrip(";"): r for r in results}

    def data(command):
        r = by_command[command]
        if not r["ok"] and r["kind"] != "permutable":
            problems.append(f"{command}: not ok ({r['error']})")
        return r["data"]

    objects = data("validate")["objects"]
    if not all(o["ok"] for o in objects):
        problems.append("validate: an object failed")
    if _values(data("meet T1 T2")["congruence"]["entries"]) != oracle.pointwise(max, cong["T1"], cong["T2"]):
        problems.append("meet T1 T2 is not the pointwise max")
    compositions = {}
    for l, r in (("T1", "T2"), ("T2", "T1"), ("T3", "T4"), ("T4", "T3")):
        got = _values(data(f"compose {l} {r}")["matrix"]["entries"])
        want = oracle.min_plus(cong[l], cong[r])
        compositions[(l, r)] = want
        if got != want:
            problems.append(f"compose {l} {r} is not the min-plus product")
    ops = P["ops"]
    for l, r in (("T1", "T2"), ("T3", "T4")):
        agree = compositions[(l, r)] == compositions[(r, l)]
        if by_command[f"permutable {l} {r}"]["data"]["permutable"] != agree:
            problems.append(f"permutable {l} {r} disagrees with c12 = c21")
        if f"join {l} {r}" not in by_command:
            continue
        joined = _values(data(f"join {l} {r}")["congruence"]["entries"])
        below = all(oracle.leq(joined[i][j], cong[l][i][j]) and oracle.leq(joined[i][j], cong[r][i][j])
                    for i in range(n) for j in range(n))
        if not below:
            problems.append(f"join {l} {r} is not below both inputs")
        if not oracle.is_pseudometric(joined) or not oracle.zero_set_closed(joined, ops):
            problems.append(f"join {l} {r} is not congruential")
        if agree and joined != compositions[(l, r)]:
            problems.append(f"join {l} {r} differs from the agreeing composition")
    if ws["decompose"] and not data("decompose P by T1 T2")["ok"]:
        problems.append("decompose fails on a product")
    if _values(data("kernel p1")["congruence"]["entries"]) != cong["T1"]:
        problems.append("kernel p1 differs from the first projection's kernel")
    quot = data("quotient P by T1")["algebra"]
    reps = [P["ids"][k] for k, (i, j) in enumerate(P["pairs"]) if j == 0]
    if quot["carrier"] != reps or _values(quot["metric"]) != A["dist"]:
        problems.append("quotient P by T1 is not A on the earliest representatives")
    prod = data("product A B")["algebra"]
    B = ws["algebras"]["B"]
    want_carrier = [f"({a},{b})" for a in A["ids"] for b in B["ids"]]
    if prod["carrier"] != want_carrier or _values(prod["metric"]) != P["dist"]:
        problems.append("product A B is not the sup-metric product")
    reach, frontier = {ws["sub_seed"]}, [ws["sub_seed"]]
    while frontier:
        frontier = [v for table in ops.values() for args, v in table.items()
                    if all(a in reach for a in args) and v not in reach]
        reach.update(frontier)
    if data(f"subalgebra P from {{{P['ids'][ws['sub_seed']]}}}")["algebra"]["carrier"] != [
        P["ids"][k] for k in sorted(reach)
    ]:
        problems.append("subalgebra carrier is not the closure of its seed")
    left, right = ws["hausdorff"]
    command = (f"hausdorff P {{{', '.join(P['ids'][i] for i in left)}}} "
               f"{{{', '.join(P['ids'][i] for i in right)}}}")
    if oracle.parse_value(data(command)["distance"]) != oracle.hausdorff(P["dist"], left, right):
        problems.append("hausdorff distance differs from the Fraction computation")
    sp = ws["spaces"]
    gh = {c: oracle.parse_value(data(f"gh {c}")["distance"]) for c in ("X Y", "X X", "O Z", "Z W", "W Z")}
    dz = max(max(row) for row in sp["Z"]["dist"])
    dw = max(max(row) for row in sp["W"]["dist"])
    if gh["X X"] != 0:
        problems.append("GH(X, X) is not 0")
    if gh["O Z"] != dz / 2:
        problems.append("GH(point, Z) is not diam(Z)/2")
    if gh["X Y"] != oracle.gh_brute(sp["X"]["dist"], sp["Y"]["dist"]):
        problems.append("GH(X, Y) differs from the search over all correspondences")
    if gh["Z W"] != gh["W Z"] or not abs(dz - dw) / 2 <= gh["Z W"] <= max(dz, dw) / 2:
        problems.append("GH(Z, W) is not symmetric or leaves [|diam Z - diam W|/2, max diam/2]")
    red = data("redprod [A, B] by F")
    if not red["exists"] or _values(red["algebra"]["metric"]) != A["dist"]:
        problems.append("the reduced product over core {1} is not A")
    pts = ws["limit"]
    limit = _values(next(r for c, r in by_command.items() if c.startswith("limitmetric"))["data"]["matrix"]["entries"])
    if limit != [[abs(p - q) for q in pts] for p in pts]:
        problems.append("limitmetric differs from the constant parts")
    return problems


def check(workspaces, records):
    problems = []
    for ws, (label, rec, error) in zip(workspaces, records):
        if error is not None:
            continue
        results = json.loads(rec["report"])["results"]
        if rec["code"] != 0:
            problems.append(f"{label}: exit code {rec['code']}")
        problems += [f"{label}: {p}" for p in _check_workspace(ws, results)]
    return problems
