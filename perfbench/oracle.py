"""Reference arithmetic the benchmark checks the program against.

Nothing here imports mplverify, so a change to the package cannot change
how its answers are judged.  Matrices are lists of rows of ints or
Fractions in real units, with ``None`` for -inf.
"""

from __future__ import annotations

from fractions import Fraction


def strongly_connected(rows) -> bool:
    """True iff the precedence graph (edge j -> i when rows[i][j] is
    finite) is strongly connected."""
    n = len(rows)

    def reaches_all(adj) -> bool:
        seen, stack = {0}, [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n

    succ = [[i for i in range(n) if rows[i][j] is not None] for j in range(n)]
    pred = [[j for j in range(n) if rows[i][j] is not None] for i in range(n)]
    return reaches_all(succ) and reaches_all(pred)


def random_rows(rng, n: int, m: int, lo: int = 1, hi: int = 10) -> list:
    """n rows, each with m finite integer entries at distinct columns."""
    rows = []
    for _ in range(n):
        row = [None] * n
        for j in rng.sample(range(n), m):
            row[j] = rng.randint(lo, hi)
        rows.append(row)
    return rows


def random_irreducible_rows(rng, n: int, m: int) -> list:
    while True:
        rows = random_rows(rng, n, m)
        if strongly_connected(rows):
            return rows


def step(rows, x) -> list:
    """One exact max-plus step x -> A (x) x."""
    out = []
    for row in rows:
        best = None
        for a, xj in zip(row, x):
            if a is not None and (best is None or a + xj > best):
                best = a + xj
        out.append(best)
    return out


# ---------------------------------------------------------------------------
# Time-difference LTL on concrete lassos.  Formulas are tuples:
# ("atom", i, op, alpha) with i 1-based, ("not", f), ("or", f, g),
# ("X", f), ("U", f, g), ("F", f), ("G", f).

_CMP = {
    "<": lambda t, a: t < a,
    "<=": lambda t, a: t <= a,
    ">": lambda t, a: t > a,
    ">=": lambda t, a: t >= a,
}


def concrete_lasso(rows, x0, max_steps: int = 10_000):
    """Gap vectors t(k) = x(k+1) - x(k) along the trajectory from x0, cut
    where the normalised state x(k) - x_1(k) repeats.  Returns
    (gaps, loop_start): position len(gaps) - 1 is followed by loop_start."""
    x = [Fraction(v) for v in x0]
    seen = {}
    gaps = []
    for k in range(max_steps):
        key = tuple(v - x[0] for v in x)
        if key in seen:
            return gaps, seen[key]
        seen[key] = k
        nxt = step(rows, x)
        gaps.append([b - a for a, b in zip(x, nxt)])
        x = nxt
    raise RuntimeError("trajectory did not become periodic")


def evaluate(formula, gaps, loop_start: int) -> bool:
    """Truth at position 0 of the lasso given by concrete_lasso."""
    m = len(gaps)
    succ = [i + 1 for i in range(m - 1)] + [loop_start]

    def fixpoint(step_fn, init):
        res = [init] * m
        for _ in range(m + 1):
            changed = False
            for i in range(m - 1, -1, -1):
                v = step_fn(i, res[succ[i]])
                if v != res[i]:
                    res[i], changed = v, True
            if not changed:
                return res
        raise RuntimeError("fixpoint did not converge")

    def go(f) -> list:
        kind = f[0]
        if kind == "atom":
            _, i, op, alpha = f
            return [_CMP[op](g[i - 1], alpha) for g in gaps]
        if kind == "not":
            return [not v for v in go(f[1])]
        if kind == "or":
            l, r = go(f[1]), go(f[2])
            return [a or b for a, b in zip(l, r)]
        if kind == "X":
            s = go(f[1])
            return [s[succ[i]] for i in range(m)]
        if kind == "U":
            l, r = go(f[1]), go(f[2])
            return fixpoint(lambda i, nxt: r[i] or (l[i] and nxt), False)
        if kind == "F":
            s = go(f[1])
            return fixpoint(lambda i, nxt: s[i] or nxt, False)
        if kind == "G":
            s = go(f[1])
            return fixpoint(lambda i, nxt: s[i] and nxt, True)
        raise ValueError(f"unknown formula node {kind!r}")

    return go(formula)[0]


def satisfies(rows, x0, formula) -> bool:
    gaps, loop_start = concrete_lasso(rows, x0)
    return evaluate(formula, gaps, loop_start)


def _fold(f, rows):
    """The formula with atoms that the diagonal decides replaced by
    constants (t_i >= A_ii always), and constants folded upward."""
    kind = f[0]
    if kind == "atom":
        _, i, op, alpha = f
        beta = rows[i - 1][i - 1]
        if beta is not None and op == ">=" and beta >= alpha:
            return True
        if beta is not None and op == "<=" and alpha < beta:
            return False
        return f
    subs = [_fold(g, rows) for g in f[1:]]
    if kind == "not":
        return not subs[0] if isinstance(subs[0], bool) else ("not", subs[0])
    if kind == "or":
        if True in subs:
            return True
        rest = [s for s in subs if s is not False]
        return rest[0] if len(rest) == 1 else (False if not rest else ("or", *rest))
    if kind == "U":
        l, r = subs
        if isinstance(r, bool) or l is False:
            return r
        return ("U", l, r)
    return subs[0] if isinstance(subs[0], bool) else (kind, subs[0])


def decided_directly(rows, formula, lam) -> bool:
    """True when the diagonal alone, or the eigenvalue alone for
    F G (t_i <= alpha), settles the spec: no abstraction is needed."""
    folded = _fold(formula, rows)
    if isinstance(folded, bool):
        return True
    if folded[0] == "F" and folded[1][0] == "G" and folded[1][1][0] == "atom":
        _, _, op, alpha = folded[1][1]
        return op == "<=" and lam > alpha
    return False


# ---------------------------------------------------------------------------
# Probes: fixed computations whose time tracks how fast the machine runs
# right now.  Each resembles the work of the workloads that use it.

_LASSO_ROWS = [[3, None, 7], [None, 2, 5], [4, 6, None]]
_LASSO_FORMULA = ("G", ("or", ("not", ("atom", 1, ">=", 5)), ("X", ("atom", 2, "<=", 6))))
_LASSO_POINTS = [[Fraction(1, 3), 0, Fraction(7, 2)], [0, 5, 1], [2, Fraction(1, 4), -3]]


def probe_lasso() -> None:
    """Exact lasso evaluation: Fractions, small lists and dicts (~1 ms)."""
    for x in _LASSO_POINTS * 2:
        satisfies(_LASSO_ROWS, x, _LASSO_FORMULA)


_PRODUCT_ROWS = tuple(
    tuple(None if (3 * i + 5 * j) % 4 == 0 else (7 * i + 11 * j) % 10 * 10**6 for j in range(16))
    for i in range(16)
)


def probe_product() -> None:
    """Max-plus matrix products on scaled integers, nested loops over
    tuples as in a dense product (~1 ms)."""
    for _ in range(4):
        _product(_PRODUCT_ROWS, _PRODUCT_ROWS)


def _product(a, b) -> list:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            best = None
            for k in range(n):
                x, y = a[i][k], b[k][j]
                if x is None or y is None:
                    continue
                s = x + y
                if best is None or s > best:
                    best = s
            row.append(best)
        out.append(tuple(row))
    return out
