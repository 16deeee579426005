"""Spectral reference for the checks: exact max-plus powers in float64.

Scaled entries are integers and every power used here stays below 2**53,
so float64 sums and maxima are exact; -inf is numpy's own.  Nothing here
imports mplverify.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def to_array(rows, scale: int) -> np.ndarray:
    """Scaled float64 matrix; scaled entries must be integers."""
    out = np.full((len(rows), len(rows)), -np.inf)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v is not None:
                s = Fraction(v) * scale
                if s.denominator != 1:
                    raise ValueError(f"entry {v} is not exact at scale {scale}")
                out[i, j] = float(s)
    return out


def mp_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, :, None] + b[None, :, :]).max(axis=1)


def mp_pow(a: np.ndarray, r: int) -> np.ndarray:
    result, base = None, a
    while r:
        if r & 1:
            result = base if result is None else mp_mul(result, base)
        r >>= 1
        if r:
            base = mp_mul(base, base)
    return result


def shift_of(later: np.ndarray, earlier: np.ndarray):
    """The constant d with later == d + earlier entrywise, or None."""
    fin = np.isfinite(earlier)
    if not np.array_equal(fin, np.isfinite(later)) or not fin.any():
        return None
    diff = later[fin] - earlier[fin]
    d = diff[0]
    return d if np.all(diff == d) else None


def powers_from(a: np.ndarray, start: int, count: int) -> list:
    """[A^start, A^(start+1), ..., A^(start+count-1)]."""
    out = [mp_pow(a, start)]
    for _ in range(count - 1):
        out.append(mp_mul(out[-1], a))
    return out


def check_spectral(rows, scale: int, lam: Fraction, k0: int, c: int, max_c: int = 64):
    """None if (lam, k0, c) is the minimal pair, else what is wrong."""
    a = to_array(rows, scale)
    window = powers_from(a, max(k0 - 1, 1), max_c + 2)
    at = (lambda k, r: window[k + r - max(k0 - 1, 1)])
    d = shift_of(at(k0, c), at(k0, 0))
    if d is None:
        return f"A^{k0 + c} is not a shift of A^{k0}"
    if Fraction(int(d), scale * c) != lam:
        return f"shift {int(d)}/{c} does not give eigenvalue {lam}"
    for cc in range(1, c):
        if shift_of(at(k0, cc), at(k0, 0)) is not None:
            return f"cyclicity {cc} < {c} already holds at k0={k0}"
    if k0 > 1:
        for cc in range(1, max_c + 1):
            if shift_of(at(k0 - 1, cc), at(k0 - 1, 0)) is not None:
                return f"identity already holds at k={k0 - 1}, c={cc}"
    return None


def check_cap(rows, scale: int, max_k: int, max_c: int = 64):
    """None if no (k, c) with k <= max_k, c <= max_c satisfies the identity.
    Testing k = max_k is enough: the identity persists for larger k."""
    window = powers_from(to_array(rows, scale), max_k, max_c + 1)
    for cc in range(1, max_c + 1):
        if shift_of(window[cc], window[0]) is not None:
            return f"identity holds at k={max_k}, c={cc} within the cap"
    return None


def profile(rows, max_k: int = 10_000):
    """(lam, k0, c) of an irreducible matrix with integer entries, or None
    past max_k: the first k0 whose power, shifted to a maximum of 0, recurs
    c steps later.  That recurrence is the identity A^(k0+c) = lam c + A^k0,
    and the first one gives minimal k0, then minimal c."""
    a = to_array(rows, 1)
    first = {}  # shifted power -> (k, its maximum)
    power = a
    for k in range(1, max_k + 1):
        top = power.max()
        key = (power - top).tobytes()
        if key in first:
            k0, top0 = first[key]
            return Fraction(int(top - top0), k - k0), k0, k - k0
        first[key] = (k, top)
        power = mp_mul(power, a)
    return None
