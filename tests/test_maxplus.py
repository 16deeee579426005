"""Max-plus algebra: products, spectra, transient/cyclicity."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_regular
from mplverify import (
    DimensionError,
    IrreducibilityError,
    MaxPlusMatrix,
    RegularityError,
    SearchCapExceeded,
    eigenvalue,
    identity,
    is_irreducible,
    mat_vec,
    transient_cyclicity,
)


def test_golden_powers(railway):
    assert (railway @ railway).to_rows() == [[8, 8], [6, 8]]
    assert railway.power(3).to_rows() == [[11, 13], [11, 11]]
    assert railway.power(4).to_rows() == [[16, 16], [14, 16]]


def test_golden_spectrum(railway):
    assert eigenvalue(railway) == 4
    profile = transient_cyclicity(railway)
    assert (profile.transient, profile.cyclicity) == (2, 2)
    assert profile.completeness_bound == 4


def test_epsilon_and_regularity():
    a = MaxPlusMatrix.from_rows([[1, None], [None, 1]])
    assert a.entry(0, 1) is None
    assert a.is_regular()
    assert not is_irreducible(a)
    bad = MaxPlusMatrix.from_rows([[None, None], [1, 2]])
    assert not bad.is_regular()
    with pytest.raises(RegularityError):
        bad.check_regular()
    with pytest.raises(IrreducibilityError):
        eigenvalue(bad)


def test_identity_is_neutral(rng):
    for _ in range(20):
        a = random_regular(rng, rng.randint(2, 4))
        e = identity(a.n)
        assert (a @ e).entries == a.entries
        assert (e @ a).entries == a.entries


def test_dimension_mismatch(railway):
    with pytest.raises(DimensionError):
        railway @ MaxPlusMatrix.from_rows([[0, 0, 0]] * 3)
    with pytest.raises(DimensionError):
        railway.apply((1, 2, 3))
    with pytest.raises(DimensionError):
        MaxPlusMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


def test_associativity_random(rng):
    for _ in range(100):
        n = rng.randint(3, 5)
        a, b, c = (random_regular(rng, n) for _ in range(3))
        assert ((a @ b) @ c).entries == (a @ (b @ c)).entries


def test_mat_vec_homogeneity(rng):
    for _ in range(100):
        n = rng.randint(2, 5)
        a = random_regular(rng, n)
        x = [Fraction(rng.randint(-40, 40), rng.choice([1, 2, 4])) for _ in range(n)]
        alpha = Fraction(rng.randint(-20, 20), rng.choice([1, 2]))
        lhs = mat_vec(a, [v + alpha for v in x])
        rhs = tuple(v + alpha for v in mat_vec(a, x))
        assert lhs == rhs


def test_mat_vec_matches_matrix_action(railway):
    assert mat_vec(railway, (0, 0)) == (5, 3)
    assert mat_vec(railway, (5, 3)) == (8, 8)


def _brute_force_max_cycle_mean(a: MaxPlusMatrix) -> Fraction:
    """Maximum mean over all simple cycles of the precedence graph."""
    best = None
    nodes = range(a.n)
    for length in range(1, a.n + 1):
        for cyc in itertools.permutations(nodes, length):
            if cyc[0] != min(cyc):
                continue  # one rotation per cycle is enough
            total = 0
            ok = True
            for idx in range(length):
                j, i = cyc[idx], cyc[(idx + 1) % length]
                w = a.entries[i][j]  # edge j -> i
                if w is None:
                    ok = False
                    break
                total += w
            if ok:
                mean = Fraction(total, length)
                if best is None or mean > best:
                    best = mean
    assert best is not None
    return best


def test_eigenvalue_against_cycle_mean_oracle(rng):
    from mplverify.modelio import random_irreducible_mpl

    for trial in range(50):
        n = rng.randint(2, 4)
        a = random_irreducible_mpl(n, m=2, value_range=(1, 10), rng=rng)
        lam = eigenvalue(a)
        assert lam == _brute_force_max_cycle_mean(a) / a.scale


def _identity_holds(powers, lam_scaled, k, c) -> bool:
    """A^(k+c) = lambda*c + A^k entrywise; powers[r] = A^r."""
    shift = lam_scaled * c
    return shift.denominator == 1 and (
        powers[k + c].entries == powers[k].shifted(int(shift)).entries
    )


def _reference_transient_cyclicity(a, max_transient=5000, max_cyclicity=64):
    """The k x c double loop that the one-pass search replaced: the first
    k, then the first c, where the identity holds; None past the caps."""
    lam = eigenvalue(a) * a.scale
    powers = [None, a]
    for k in range(1, max_transient + 1):
        for c in range(1, max_cyclicity + 1):
            while len(powers) <= k + c:
                powers.append(powers[-1].multiply(a))
            if _identity_holds(powers, lam, k, c):
                return k, c
    return None


def _assert_minimal_pair(a, profile, max_cyclicity=64):
    """The identity holds at (k0, c) and k0 + 1, k0 + 2; fails at k0 for
    every c' < c and at k0 - 1 for every c' <= max_cyclicity."""
    k0, c = profile.transient, profile.cyclicity
    lam = profile.eigenvalue * a.scale
    powers = [None, a]
    while len(powers) <= k0 + 2 + max(c, max_cyclicity):
        powers.append(powers[-1].multiply(a))
    for k in (k0, k0 + 1, k0 + 2):
        assert _identity_holds(powers, lam, k, c)
    assert not any(_identity_holds(powers, lam, k0, cc) for cc in range(1, c))
    if k0 > 1:
        assert not any(
            _identity_holds(powers, lam, k0 - 1, cc) for cc in range(1, max_cyclicity + 1)
        )


def test_transient_identity_window(rng):
    """A^(k+c) = lambda*c + A^k exactly at k in {k0, k0+1, k0+2}, and the
    pair is minimal: no smaller c at k0, no c at all at k0 - 1."""
    from mplverify.modelio import random_irreducible_mpl

    mats = [MaxPlusMatrix.from_rows([[2, 5], [3, 3]])]
    while len(mats) < 8:
        mats.append(random_irreducible_mpl(3, m=2, value_range=(1, 10), rng=rng))
    for a in mats:
        _assert_minimal_pair(a, transient_cyclicity(a))


def _random_fractional(rng, n):
    """Irreducible n x n matrix with some -inf and halves/fifths entries."""
    while True:
        rows = [
            [
                Fraction(rng.randint(-6, 12), rng.choice([1, 2, 5]))
                if rng.random() < 0.6
                else None
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        a = MaxPlusMatrix.from_rows(rows)
        if is_irreducible(a) and any(any(e is not None for e in row) for row in rows):
            return a


def test_transient_cyclicity_matches_double_loop(rng):
    """The one-pass search gives the double loop's answer, or raises
    exactly where the double loop finds nothing within the caps."""
    fractional = capped = 0
    for trial in range(300):
        a = _random_fractional(rng, rng.randint(1, 4))
        caps = (5000, 64) if trial % 2 else (rng.randint(1, 4), rng.randint(1, 3))
        fractional += (eigenvalue(a) * a.scale).denominator != 1
        expected = _reference_transient_cyclicity(a, *caps)
        if expected is None:
            capped += 1
            with pytest.raises(SearchCapExceeded):
                transient_cyclicity(a, *caps)
            continue
        profile = transient_cyclicity(a, *caps)
        assert (profile.transient, profile.cyclicity) == expected
        assert profile.eigenvalue == eigenvalue(a)
        if caps == (5000, 64):
            _assert_minimal_pair(a, profile)
    assert capped >= 20
    assert fractional >= 10  # lambda*c is an integer only for some c


def test_transient_near_critical():
    """A second cycle mean 1/10 below lambda: transient 200, and the caps
    around it."""
    a = MaxPlusMatrix.from_rows([[10, 0], [0, Fraction(99, 10)]])
    profile = transient_cyclicity(a)
    assert (profile.eigenvalue, profile.transient, profile.cyclicity) == (10, 200, 1)
    assert _reference_transient_cyclicity(a) == (200, 1)
    _assert_minimal_pair(a, profile)
    assert transient_cyclicity(a, max_transient=200).transient == 200
    with pytest.raises(SearchCapExceeded):
        transient_cyclicity(a, max_transient=199)


def test_cyclicity_cap():
    """A 3-cycle has c = 3; a 2-cycle of odd weight has lambda = 1/2, so c
    must be even."""
    cycle3 = MaxPlusMatrix.from_rows([[None, 0, None], [None, None, 0], [0, None, None]])
    assert transient_cyclicity(cycle3).cyclicity == 3
    assert transient_cyclicity(cycle3, max_cyclicity=3).cyclicity == 3
    with pytest.raises(SearchCapExceeded):
        transient_cyclicity(cycle3, max_cyclicity=2)
    half = MaxPlusMatrix.from_rows([[None, 1], [0, None]])
    profile = transient_cyclicity(half)
    assert (profile.eigenvalue, profile.transient, profile.cyclicity) == (Fraction(1, 2), 1, 2)
    with pytest.raises(SearchCapExceeded):
        transient_cyclicity(half, max_cyclicity=1)


def test_no_cycle_raises():
    """A 1x1 -inf matrix is strongly connected but has no cycle, so no
    eigenvalue; this is an explicit error, kept under python -O."""
    a = MaxPlusMatrix.from_rows([[None]])
    with pytest.raises(IrreducibilityError, match="no cycle"):
        eigenvalue(a)
    with pytest.raises(IrreducibilityError, match="no cycle"):
        transient_cyclicity(a)


def test_fractional_entries_exact():
    a = MaxPlusMatrix.from_rows([[Fraction(1, 2), 2], [3, Fraction(5, 4)]])
    assert a.real_entry(0, 0) == Fraction(1, 2)
    lam = eigenvalue(a)
    assert lam == Fraction(5, 2)  # cycle 1->2->1 with weight 2 + 3
    assert mat_vec(a, (0, 0)) == (2, 3)


def test_shifted_and_scaled_roundtrip(railway):
    shifted = railway.shifted(railway.scale)  # +1 in real units
    assert shifted.to_rows() == [[3, 6], [4, 4]]
