"""Reference computations written apart from metra, used to check its outputs.

Distances are ``Fraction`` values with ``None`` for infinity.  Nothing here
imports metra: every value the benchmark compares against is recomputed
from the generated inputs with this module's own code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

def add(a, b):
    return None if a is None or b is None else a + b


def leq(a, b):
    """a <= b with None as infinity."""
    if b is None:
        return True
    return a is not None and a <= b


def dmax(values):
    out = Fraction(0)
    for v in values:
        if v is None:
            return None
        if v > out:
            out = v
    return out


def parse_value(text: str):
    return None if text == "inf" else Fraction(text)


def show(v) -> str:
    return "inf" if v is None else str(v)


# ---------------------------------------------------------------------------
# Matrices in scaled integers


def scaled(values, codes):
    """An exact integer matrix for ``values[codes]``: (array, denominator, inf).

    Finite entries become numerators over one shared denominator and
    infinity becomes ``inf``, a value above twice every finite entry.  The
    array is int64 when the numbers fit and Python ints otherwise.
    """
    denom = 1
    for v in values:
        if v is not None:
            denom = math.lcm(denom, v.denominator)
    nums = [None if v is None else v.numerator * (denom // v.denominator) for v in values]
    top = max((x for x in nums if x is not None), default=0)
    inf = 2 * top + 1
    table = [inf if x is None else x for x in nums]
    dtype = np.int64 if inf < 1 << 61 else object
    return np.array(table, dtype=dtype)[codes], denom, inf


def components(arr, inf):
    """Index groups connected through finite entries (breadth-first)."""
    n = arr.shape[0]
    finite = arr < inf
    seen = np.zeros(n, dtype=bool)
    out = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        group, frontier = [s], [s]
        while frontier:
            nxt = np.nonzero(finite[frontier].any(axis=0) & ~seen)[0]
            seen[nxt] = True
            frontier = nxt.tolist()
            group += frontier
        out.append(np.array(sorted(group), dtype=np.intp))
    return out


def pseudometric_problem(arr, inf):
    """A description of the first pseudometric axiom ``arr`` breaks, or None."""
    n = arr.shape[0]
    if any(arr[i, i] != 0 for i in range(n)):
        return "nonzero diagonal"
    if not (arr == arr.T).all():
        return "not symmetric"
    for idx in components(arr, inf):
        sub = arr[np.ix_(idx, idx)]
        for x in range(len(idx)):
            through = sub[x][:, None] + sub
            through = np.where(sub[x][:, None] >= inf, inf, through)
            if (through.min(axis=0) < sub[x]).any():
                return f"triangle fails from index {int(idx[x])}"
    return None


# ---------------------------------------------------------------------------
# Greatest fixpoint of a presentation, in Fractions


def greatest_fixpoint(n, constraints, tables, mode, k=None):
    """The largest pseudometric on range(n) meeting the constraints and the mode rule.

    ``constraints`` are (i, j, bound) triples, ``tables`` lists per symbol
    the (argument indices, result index) entries.  Iterates Floyd-Warshall
    and the mode rule from the discrete pseudometric until nothing drops.
    """
    d = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for i, j, b in constraints:
        if leq(b, d[i][j]) and b != d[i][j]:
            d[i][j] = d[j][i] = b
    while True:
        changed = False
        for m in range(n):
            dm = d[m]
            for i in range(n):
                dim = d[i][m]
                if dim is None:
                    continue
                di = d[i]
                for j in range(n):
                    if dm[j] is None:
                        continue
                    via = dim + dm[j]
                    if di[j] is None or via < di[j]:
                        di[j] = via
                        d[j][i] = via
                        changed = True
        for table in tables:
            for args_a, ra in table:
                for args_b, rb in table:
                    spread = dmax(d[a][b] for a, b in zip(args_a, args_b))
                    if mode == "M":
                        bound = Fraction(0) if spread == 0 else None
                    elif mode == "Q":
                        bound = spread
                    else:
                        bound = None if spread is None else spread * k
                    if bound is not None and (d[ra][rb] is None or bound < d[ra][rb]):
                        d[ra][rb] = d[rb][ra] = bound
                        changed = True
        if not changed:
            return d


# ---------------------------------------------------------------------------
# Brute-force satisfaction over operation tables


class TableAlgebra:
    """An algebra as index arrays: ``ops[symbol]`` maps argument indices to a result index."""

    def __init__(self, n, dist, ops):
        self.n = n
        self.ops = {s: np.asarray(t, dtype=np.intp) for s, t in ops.items()}
        values = sorted({v for row in dist for v in row if v is not None}) + [None]
        code = {v: i for i, v in enumerate(values)}
        codes = np.array([[code[v] for v in row] for row in dist], dtype=np.intp)
        self.arr, self.denom, self.inf = scaled(values, codes)

    def term_values(self, term, names):
        """Value index of ``term`` under every valuation of ``names``, in product order."""
        k = len(names)
        if term[0] == "var":
            shape = [1] * k
            shape[names.index(term[1])] = self.n
            return np.broadcast_to(np.arange(self.n).reshape(shape), (self.n,) * k)
        args = [self.term_values(a, names) for a in term[2]]
        return self.ops[term[1]][tuple(args)]

    def holds(self, eq, names, slack=0):
        """Boolean array: ``eq`` holds under each valuation, its bound loosened by ``slack``."""
        lhs, rhs, bound = eq
        dist = self.arr[self.term_values(lhs, names), self.term_values(rhs, names)]
        if bound is None:
            return np.ones(dist.shape, dtype=bool)
        limit = math.floor((bound + slack) * self.denom)
        return (dist < self.inf) & (dist <= limit)


def term_vars(term, out=None):
    out = set() if out is None else out
    if term[0] == "var":
        out.add(term[1])
    else:
        for a in term[2]:
            term_vars(a, out)
    return out


def implication_vars(premises, conclusion):
    names = set()
    for lhs, rhs, _ in list(premises) + [conclusion]:
        term_vars(lhs, names)
        term_vars(rhs, names)
    return sorted(names)


def first_failure(alg: TableAlgebra, premises, conclusion, names, slack=0, eps=None):
    """Carrier indices of the first valuation (product order) where the implication fails.

    Premise bounds are loosened by ``slack``; the conclusion bound is
    replaced by ``eps`` when given.  None when it holds everywhere.
    """
    shape = (alg.n,) * len(names)
    fires = np.ones(shape, dtype=bool)
    for p in premises:
        fires &= alg.holds(p, names, slack)
    lhs, rhs, bound = conclusion
    bad = fires & ~alg.holds((lhs, rhs, bound if eps is None else eps), names)
    flat = np.flatnonzero(bad)
    if len(flat) == 0:
        return None
    return tuple(int(i) for i in np.unravel_index(int(flat[0]), shape))


# ---------------------------------------------------------------------------
# Gromov-Hausdorff distance by brute force over correspondences


def gh_brute(dx, dy):
    """Half the least distortion over every correspondence between two small spaces."""
    nx, ny = len(dx), len(dy)
    cells = [(i, j) for i in range(nx) for j in range(ny)]
    best = None
    for mask in range(1, 1 << len(cells)):
        pairs = [c for b, c in enumerate(cells) if mask >> b & 1]
        if {i for i, _ in pairs} != set(range(nx)) or {j for _, j in pairs} != set(range(ny)):
            continue
        dis = max(abs(dx[i][i2] - dy[j][j2]) for i, j in pairs for i2, j2 in pairs)
        if best is None or dis < best:
            best = dis
    return best / 2


def hausdorff(dist, a, b):
    forward = dmax(min_value(dist[x][y] for y in b) for x in a)
    backward = dmax(min_value(dist[y][x] for x in a) for y in b)
    return dmax([forward, backward])


def min_value(values):
    best = None
    for v in values:
        if v is not None and (best is None or v < best):
            best = v
    return best


def min_plus(m1, m2):
    n = len(m1)
    return [
        [min_value(add(m1[i][k], m2[k][j]) for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def pointwise(f, m1, m2):
    return [[f(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)]


def is_pseudometric(m):
    n = len(m)
    for i in range(n):
        if m[i][i] != 0:
            return False
        for j in range(n):
            if m[i][j] != m[j][i]:
                return False
            for k in range(n):
                if not leq(m[i][k], add(m[i][j], m[j][k])):
                    return False
    return True


def zero_set_closed(m, ops):
    """The zero pairs of the pseudometric ``m`` are closed under every table.

    ``ops`` maps a symbol to a dict from argument index tuples to a result
    index.  Zero distance is an equivalence, so argument tuples with equal
    classes must give results of equal class.
    """
    n = len(m)
    cls = [next(j for j in range(n) if m[i][j] == 0) for i in range(n)]
    for table in ops.values():
        seen = {}
        for args, r in table.items():
            key = tuple(cls[a] for a in args)
            if seen.setdefault(key, cls[r]) != cls[r]:
                return False
    return True

