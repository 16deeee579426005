"""Max-plus (tropical) matrix arithmetic and spectral analysis.

The semiring is (R u {-inf}, max, +).  Finite entries are kept as exact
integers after scaling by a fixed decimal factor, so that matrix powers,
eigenvalues and the eventual-periodicity search can all use exact
comparisons.  The additive identity -inf is represented by ``None``
rather than a float sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

DEFAULT_SCALE = 10**6

Entry = Optional[int]  # scaled finite value, or None for -inf


def to_scaled(value, scale: int) -> int:
    """Convert a real number (int/float/Fraction) to an exact scaled integer."""
    if isinstance(value, Fraction):
        scaled = value * scale
        if scaled.denominator != 1:
            raise ValueError(f"value {value} is not representable at scale {scale}")
        return int(scaled)
    if isinstance(value, int):
        return value * scale
    return int(round(value * scale))


def from_scaled(value: int, scale: int) -> Fraction:
    return Fraction(value, scale)


class DimensionError(ValueError):
    """Incompatible matrix/vector dimensions."""


class RegularityError(ValueError):
    """A row with no finite entry where a regular matrix is required."""


class IrreducibilityError(ValueError):
    """Operation requires a strongly connected precedence graph."""


@dataclass(frozen=True)
class MaxPlusMatrix:
    """Square matrix over the max-plus semiring, entries scaled integers."""

    n: int
    entries: tuple  # tuple of tuples of Entry
    scale: int = DEFAULT_SCALE

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], scale: int = DEFAULT_SCALE) -> "MaxPlusMatrix":
        """Build from real-valued rows; ``None`` marks -inf."""
        n = len(rows)
        ent = []
        for row in rows:
            if len(row) != n:
                raise DimensionError("matrix must be square")
            ent.append(tuple(None if v is None else to_scaled(v, scale) for v in row))
        return cls(n, tuple(ent), scale)

    def entry(self, i: int, j: int) -> Entry:
        """Scaled entry at 0-based (i, j)."""
        return self.entries[i][j]

    def real_entry(self, i: int, j: int):
        e = self.entries[i][j]
        return None if e is None else from_scaled(e, self.scale)

    def row_finite_columns(self, i: int) -> list:
        """0-based indices of finite entries of row i, ascending."""
        return [j for j in range(self.n) if self.entries[i][j] is not None]

    def is_regular(self) -> bool:
        return all(self.row_finite_columns(i) for i in range(self.n))

    def check_regular(self) -> None:
        for i in range(self.n):
            if not self.row_finite_columns(i):
                raise RegularityError(f"row {i + 1} has no finite entry")

    def multiply(self, other: "MaxPlusMatrix") -> "MaxPlusMatrix":
        """Max-plus matrix product."""
        if self.n != other.n or self.scale != other.scale:
            raise DimensionError("dimension or scale mismatch")
        n = self.n
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                best: Entry = None
                for k in range(n):
                    x, y = a[i][k], b[k][j]
                    if x is None or y is None:
                        continue
                    s = x + y
                    if best is None or s > best:
                        best = s
                row.append(best)
            out.append(tuple(row))
        return MaxPlusMatrix(n, tuple(out), self.scale)

    def __matmul__(self, other: "MaxPlusMatrix") -> "MaxPlusMatrix":
        return self.multiply(other)

    def power(self, r: int) -> "MaxPlusMatrix":
        if r < 1:
            raise ValueError("power must be >= 1")
        acc = self
        for _ in range(r - 1):
            acc = acc.multiply(self)
        return acc

    def apply(self, x: Sequence) -> tuple:
        """Map a finite real vector through the dynamics; exact Fractions out."""
        if len(x) != self.n:
            raise DimensionError("vector length mismatch")
        xs = [Fraction(v) * self.scale for v in x]
        out = []
        for i in range(self.n):
            best = None
            for j in range(self.n):
                e = self.entries[i][j]
                if e is None:
                    continue
                s = e + xs[j]
                if best is None or s > best:
                    best = s
            if best is None:
                raise RegularityError(f"row {i + 1} has no finite entry")
            out.append(best / self.scale)
        return tuple(out)

    def shifted(self, delta: int) -> "MaxPlusMatrix":
        """Add a scaled constant to every finite entry."""
        out = tuple(
            tuple(None if e is None else e + delta for e in row) for row in self.entries
        )
        return MaxPlusMatrix(self.n, out, self.scale)

    def to_rows(self) -> list:
        """Real-valued rows (ints/Fractions), None for -inf."""
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                v = self.real_entry(i, j)
                if v is not None and v.denominator == 1:
                    v = int(v)
                row.append(v)
            rows.append(row)
        return rows


def identity(n: int, scale: int = DEFAULT_SCALE) -> MaxPlusMatrix:
    """Max-plus identity: 0 on the diagonal, -inf elsewhere."""
    return MaxPlusMatrix(
        n, tuple(tuple(0 if i == j else None for j in range(n)) for i in range(n)), scale
    )


def mat_multiply(a: MaxPlusMatrix, b: MaxPlusMatrix) -> MaxPlusMatrix:
    return a.multiply(b)


def mat_vec(a: MaxPlusMatrix, x: Sequence) -> tuple:
    return a.apply(x)


def _successors(a: MaxPlusMatrix) -> list:
    """Adjacency of the precedence graph: edge j -> i when A(i, j) finite."""
    succ = [[] for _ in range(a.n)]
    for i in range(a.n):
        for j in range(a.n):
            if a.entries[i][j] is not None:
                succ[j].append(i)
    return succ


def _reaches_all(adj: list, start: int) -> bool:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def is_irreducible(a: MaxPlusMatrix) -> bool:
    """True iff the precedence graph is strongly connected."""
    succ = _successors(a)
    pred = [[] for _ in range(a.n)]
    for u in range(a.n):
        for v in succ[u]:
            pred[v].append(u)
    return _reaches_all(succ, 0) and _reaches_all(pred, 0)


def eigenvalue(a: MaxPlusMatrix) -> Fraction:
    """Unique max-plus eigenvalue: the maximum cycle mean of the precedence
    graph, computed exactly by Karp's algorithm over scaled integers."""
    if not is_irreducible(a):
        raise IrreducibilityError("matrix is not irreducible")
    return eigenvalue_scaled(a) / a.scale


def eigenvalue_scaled(a: MaxPlusMatrix) -> Fraction:
    n = a.n
    # d[k][v] = max weight of a walk of length k from node 0 to v (None = none)
    d = [[None] * n for _ in range(n + 1)]
    d[0][0] = 0
    for k in range(1, n + 1):
        for v in range(n):
            best = None
            for u in range(n):
                w = a.entries[v][u]  # edge u -> v
                if w is None or d[k - 1][u] is None:
                    continue
                s = d[k - 1][u] + w
                if best is None or s > best:
                    best = s
            d[k][v] = best
    lam = None
    for v in range(n):
        if d[n][v] is None:
            continue
        inner = None
        for k in range(n):
            if d[k][v] is None:
                continue
            mean = Fraction(d[n][v] - d[k][v], n - k)
            if inner is None or mean < inner:
                inner = mean
        if inner is not None and (lam is None or inner > lam):
            lam = inner
    if lam is None:
        raise IrreducibilityError("no cycle is reachable from node 1")
    return lam


@dataclass(frozen=True)
class SpectralProfile:
    """Eigenvalue plus the onset and period of eventual matrix periodicity."""

    eigenvalue: Fraction  # real units
    transient: int
    cyclicity: int

    @property
    def completeness_bound(self) -> int:
        return self.transient + self.cyclicity


class SearchCapExceeded(RuntimeError):
    pass


def transient_cyclicity(
    a: MaxPlusMatrix, max_transient: int = 5000, max_cyclicity: int = 64
) -> SpectralProfile:
    """Smallest (k0, c) with A^(k+c) = lambda*c + A^(k) entrywise for all
    k >= k0; minimal k0 first, then minimal c at that k0.

    Once the identity holds at a single k it propagates to all larger k
    (multiply both sides by A), so testing one k suffices.

    With the scaled eigenvalue lambda = p/q, the identity holds at (k, c)
    exactly when the keys q*A^r - p*r of r = k and r = k + c are equal
    (-inf kept as None): equal keys put every finite entry of A^(k+c)
    p*c/q above that of A^k, an integer shift.  One pass computes A^r with
    one product per step, stores the keys of r <= max_transient, and stops
    at the first r whose key is stored, as that of s: then k0 = s and
    c = r - s.

    Any earlier match would have repeated first.  By propagation the keys
    from s on repeat with period c.  Take a match (k', c') within the caps
    with k' < s, or with k' = s and c' < c.  Its stored key(k') equals
    key(k' + c') if k' + c' < r, and otherwise the key of the index in
    s..r-1 congruent to k' + c' mod c: a repeat before r either way.  The keys of s..r-1 are
    distinct: key(i) = key(j) for s <= i < j < r, carried forward to
    i + t = s mod c, would make key(s) repeat at s + j - i < r.  So every
    match at k' > s has c' a multiple of c, and a c above max_cyclicity
    leaves no match within the caps.  A match within the caps repeats by
    r = max_transient + max_cyclicity, where the pass ends.
    """
    if not is_irreducible(a):
        raise IrreducibilityError("matrix is not irreducible")
    lam = eigenvalue_scaled(a)
    p, q = lam.numerator, lam.denominator
    first = {}  # key of A^r -> r, for r <= max_transient
    power = a
    for r in range(1, max_transient + max_cyclicity + 1):
        if r > 1:
            power = power.multiply(a)
        key = tuple(
            tuple(None if e is None else q * e - p * r for e in row) for row in power.entries
        )
        s = first.get(key)
        if s is not None:
            if r - s > max_cyclicity:
                break
            return SpectralProfile(lam / a.scale, s, r - s)
        if r <= max_transient:
            first[key] = r
    raise SearchCapExceeded(
        f"no (transient, cyclicity) pair within caps ({max_transient}, {max_cyclicity})"
    )
