"""The three workloads: seeded inputs, the timed call, and output checks.

Every input is made here from the run's seed with the benchmark's own
generator (``oracle``), never with ``mplverify.modelio`` or
``mplverify.bench``, so a change to the package cannot change the inputs.
The program receives only matrices, regions and spec strings.

A workload yields inputs one by one from ``inputs(seed)``; ``block`` inputs
form one unit of its mix, and a run ends on a whole block.  ``prepare``
builds the program's objects from an input and returns the timed call.
After the call, outside the timed region, ``label`` names the result's
kind, ``check`` judges it with the benchmark's own arithmetic, and
``record`` reduces it to what the recorded expectations and the
traced/untraced comparison use.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import oracle
import spectral_ref

SCALE = 10**6


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


# ---------------------------------------------------------------------------
# verify_n3: verdicts for time-difference specs on 3x3 systems.
#
# Six spec templates, round-robin, each kept both as the string the
# program parses and as the oracle's formula tuple.

def _templates(i, j, a, b):
    def at(k, op, c):
        return ("atom", k, op, c)

    return [
        (f"F G (t{i} <= {a})", ("F", ("G", at(i, "<=", a)))),
        (f"G (t{i} <= {a})", ("G", at(i, "<=", a))),
        (f"F (t{i} >= {a})", ("F", at(i, ">=", a))),
        (f"G F (t{i} >= {a})", ("G", ("F", at(i, ">=", a)))),
        (f"(t{i} <= {a}) U (t{j} >= {b})", ("U", at(i, "<=", a), at(j, ">=", b))),
        (
            f"G ((t{i} >= {a}) -> X (t{j} <= {b}))",
            ("G", ("or", ("not", at(i, ">=", a)), ("X", at(j, "<=", b)))),
        ),
    ]


# Each block of 85 verify_n3 ops holds the same number of instances of
# each kind, in proportion to their frequency among 10,000 unfiltered draws
# (seeds 1000-1003): decided by the diagonal or eigenvalue alone (D);
# violated by some sample, with k0 + c of at most 11 (N); satisfied by
# every sample, with k0 + c of at most 5 (A5).  Search cost depends on
# these far more than on anything else drawn, so fixing the counts keeps
# seeds from differing by how many deep searches they drew.  Two kinds are
# not drawn.  Satisfied instances with k0 + c of 6 or more: the exhaustive
# search makes some of those verdicts take seconds at 6 and minutes at 7,
# so they would fail any op limit.  Violated ones with k0 + c of 12 or
# more: 4% of violated draws, they held two thirds of the violated ops'
# time variance and alone moved `ops_per_s` by several percent per seed.
_VERIFY_BLOCK = {"N": 38, "D": 33, "A5": 14}


class VerifyN3:
    name = "verify_n3"
    op_name = "verify"
    limit_s = 30.0  # a guard only; the slowest verdicts seen took about 4 s
    tail_p = 90
    probe = staticmethod(oracle.probe_lasso)
    probe_reference_s = 0.0012
    block = sum(_VERIFY_BLOCK.values())
    locates = False
    checked_errors = ()
    samples = 6

    def __init__(self, api):
        self.api = api

    def inputs(self, seed: int):
        rng = _rng(seed, self.name)
        k = 0
        while True:
            left = dict(_VERIFY_BLOCK)
            while any(left.values()):
                inp = self._draw(rng, k % 6)
                k += 1
                if left.get(inp["kind"]):
                    left[inp["kind"]] -= 1
                    yield inp

    def _draw(self, rng, template: int) -> dict:
        rows = oracle.random_irreducible_rows(rng, 3, 2)
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        a, b = rng.randint(1, 10), rng.randint(1, 10)
        spec, formula = _templates(i, j, a, b)[template]
        c = rng.randint(-5, 5) if rng.random() < 0.25 else None
        points = []
        for s in range(self.samples):
            x = [Fraction(rng.randint(-40, 40), 4) for _ in range(3)]
            if c is not None and (s == 0 or x[0] - x[1] > c):
                # the first sample sits on the region's boundary
                x[0] = x[1] + c - (0 if s == 0 else Fraction(rng.randint(0, 8), 4))
            points.append(x)
        truths = [oracle.satisfies(rows, x, formula) for x in points]
        lam, k0, cyc = spectral_ref.profile(rows)
        if oracle.decided_directly(rows, formula, lam):
            kind = "D"
        elif not all(truths):
            kind = "N" if k0 + cyc <= 11 else "N12"
        else:
            kind = "A5" if k0 + cyc <= 5 else "A6"
        return {"rows": rows, "spec": spec, "formula": formula, "region_c": c,
                "truths": truths, "kind": kind, "k0+c": k0 + cyc}

    def prepare(self, inp):
        api = self.api
        a = api.MaxPlusMatrix.from_rows(inp["rows"])
        region = None
        if inp["region_c"] is not None:
            region = api.DBM.from_constraints(3, [(0, 1, inp["region_c"] * SCALE, False)])
        return lambda: api.verify(a, region, inp["spec"])

    @staticmethod
    def label(result) -> str:
        return "direct_check" if result.stats.get("direct") else result.outcome

    @staticmethod
    def is_failure(result) -> bool:
        return result.outcome == "undecided"

    @staticmethod
    def record(result):
        s = result.stats
        return [result.outcome, result.reason, s["refinements"], s["bounds_explored"], s["ct"]]

    @staticmethod
    def check(inp, result, op):
        """A holds must agree with every sample (its truths were found when
        the input was made); a direct violated must be violated by every
        sample; a counterexample must start in the region and violate the
        spec."""
        rows, formula, spec = inp["rows"], inp["formula"], inp["spec"]
        if result.outcome == "holds" or (result.outcome == "violated" and result.counterexample is None):
            want = result.outcome == "holds"
            if not all(t == want for t in inp["truths"]):
                n = [t == want for t in inp["truths"]].index(False)
                return f"{result.outcome} ({result.reason}), but sample {n} disagrees on {spec}"
        elif result.outcome == "violated":
            x0 = [Fraction(v) for v in result.counterexample.concrete_initial]
            c = inp["region_c"]
            if c is not None and x0[0] - x0[1] > c:
                return f"counterexample start {x0} is outside x1 - x2 <= {c}"
            if oracle.satisfies(rows, x0, formula):
                return f"counterexample start {x0} satisfies {spec}"
        return None

    def report_lines(self, ops) -> list:
        hist, kinds = {}, {}
        for op in ops:
            hist[op.inp["k0+c"]] = hist.get(op.inp["k0+c"], 0) + 1
            kinds[op.inp["kind"]] = kinds.get(op.inp["kind"], 0) + 1
        near = sum(1 for op in ops if not op.failed and op.seconds >= 0.75 * self.limit_s)
        return [
            f"input kinds: {dict(sorted(kinds.items()))}",
            f"k0+c histogram: {dict(sorted(hist.items()))}",
            f"ops within 25% of the limit: {near}",
        ]


# ---------------------------------------------------------------------------
# abstract_locate: abstraction builds, then point location on exact
# trajectories of the same system.
#
# A build's cost follows the number of distinct column pairs that the rows'
# two finite entries sit on (each pair is one predicate direction): at 3, 4
# and 5 pairs builds took about 0.065, 0.11 and 0.18 s and made about 16, 22
# and 28 states.  Each block of 16 builds holds 3, 8 and 5 of them, their
# shares among unfiltered draws; matrices on 2 pairs (1.5% of draws) are not
# drawn.  Without the quotas, the build p90 spread by 8-9% across seeds.

_LOCATE_BLOCK = {3: 3, 4: 8, 5: 5}


def _column_pairs(rows) -> int:
    return len({tuple(j for j, v in enumerate(row) if v is not None) for row in rows})


class AbstractLocate:
    name = "abstract_locate"
    op_name = "build_transition_system"
    limit_s = 60.0  # a guard only; builds take about 0.1 s
    tail_p = 90
    probe = staticmethod(oracle.probe_lasso)
    probe_reference_s = 0.0012
    block = sum(_LOCATE_BLOCK.values())
    locates = True
    checked_errors = ()
    n = 5
    trajectories = 4
    steps = 40

    def __init__(self, api):
        self.api = api

    def inputs(self, seed: int):
        rng = _rng(seed, self.name)
        while True:
            left = dict(_LOCATE_BLOCK)
            while any(left.values()):
                rows = oracle.random_rows(rng, self.n, 2)
                starts = [[Fraction(rng.randint(-40, 40), 4) for _ in range(self.n)]
                          for _ in range(self.trajectories)]
                pairs = _column_pairs(rows)
                if left.get(pairs):
                    left[pairs] -= 1
                    yield {"rows": rows, "starts": starts}

    def points(self, inp):
        """The exact trajectories from each start, None between them."""
        for x in inp["starts"]:
            for _ in range(self.steps + 1):
                yield x
                x = oracle.step(inp["rows"], x)
            yield None

    def prepare(self, inp):
        api = self.api
        a = api.MaxPlusMatrix.from_rows(inp["rows"])
        return lambda: api.build_transition_system(a)

    @staticmethod
    def label(result) -> str:
        return "built"

    @staticmethod
    def is_failure(result) -> bool:
        return False

    @staticmethod
    def record(ts):
        """States, edges and a digest of the transitions by state name."""
        names = {s.index: s.name for s in ts.states}
        text = repr(sorted((names[k], tuple(names[t] for t in v)) for k, v in ts.transitions.items()))
        edges = sum(len(v) for v in ts.transitions.values())
        return [len(ts.states), edges, hashlib.sha256(text.encode()).hexdigest()[:16]]

    @staticmethod
    def check(inp, ts, op):
        """Every located step must be an edge."""
        prev = None
        for idx in op.located:
            if idx is not None and prev is not None and idx not in ts.transitions[prev]:
                return f"located step s{prev} -> s{idx} is not an edge"
            prev = idx
        return None

    def report_lines(self, ops) -> list:
        built = [op for op in ops if not op.failed]
        builds = sorted(op.seconds for op in built)
        located = sum(len(op.locate_wall) for op in ops)
        return [
            "states/edges per build: " + " ".join(f"{op.answer[0]}/{op.answer[1]}" for op in built),
            f"build_p50_s {builds[len(builds) // 2]:.4f} s (n={len(builds)})",
            f"locate_per_s {located / sum(op.locate_seconds for op in ops):.2f} 1/s ({located} points)",
        ]


# ---------------------------------------------------------------------------
# spectral_ct: transient and cyclicity.
#
# Every block of 11 ops has the same mix.  Eight random irreducible
# matrices of a fixed shape and transient band: n = 20 (m = 2 and 3) near
# the median transient of unfiltered draws of that shape, and n = 30 (m = 2
# and 3) in three bands around it (cost follows the transient closely, so
# a fixed number per band keeps seeds comparable).  Three near-critical
# 2x2 matrices [[d, u], [v, d - eps]], whose transient is
# (2d - u - v) / eps to within one: near 200, near 2000 and near 3700, below
# the program's cap of 5000 (past it the program raises SearchCapExceeded,
# a failed op).  The median op is an n = 30 one: a
# mix whose median fell between two groups of ops of different cost spread
# by 30% across seeds.  The block starts with an input that needs no
# rejection sampling, so set-up time does not depend on the seed.

_SPECTRAL_BLOCK = [
    ("critical", 150, 250), ("random", 20, 2, 19, 23), ("random", 20, 3, 15, 19),
    ("random", 30, 2, 20, 23), ("random", 30, 3, 16, 18),
    ("random", 30, 2, 26, 30), ("random", 30, 3, 20, 22),
    ("random", 30, 2, 33, 38), ("random", 30, 3, 24, 28),
    ("critical", 1800, 2200), ("critical", 3500, 3900),
]
MAX_TRANSIENT = 5000


class SpectralCT:
    name = "spectral_ct"
    op_name = "transient_cyclicity"
    limit_s = 20.0  # a guard only; the longest transients take about 2 s
    tail_p = 75
    # Its ops are dense products; against the lasso probe, spectral ops
    # slowed only about as the 0.6th power of the probe's slowdown.
    probe = staticmethod(oracle.probe_product)
    probe_reference_s = 0.0011
    block = len(_SPECTRAL_BLOCK)
    locates = False
    checked_errors = ("SearchCapExceeded",)

    def __init__(self, api):
        self.api = api

    def inputs(self, seed: int):
        rng = _rng(seed, self.name)
        while True:
            for kind, *args in _SPECTRAL_BLOCK:
                if kind == "random":
                    n, m, lo, hi = args
                    while True:
                        rows = oracle.random_irreducible_rows(rng, n, m)
                        if lo <= spectral_ref.profile(rows)[1] <= hi:
                            break
                else:
                    lo, hi = args
                    d, u, v = rng.randint(5, 10), rng.randint(0, 2), rng.randint(0, 2)
                    eps = Fraction(round((2 * d - u - v) * SCALE / rng.randint(lo, hi)), SCALE)
                    rows = [[d, u], [v, d - eps]]
                yield {"rows": rows}

    def prepare(self, inp):
        api = self.api
        a = api.MaxPlusMatrix.from_rows(inp["rows"])
        return lambda: api.transient_cyclicity(a)

    @staticmethod
    def label(result) -> str:
        return "profile"

    @staticmethod
    def is_failure(result) -> bool:
        return False

    @staticmethod
    def record(p):
        return [str(p.eigenvalue), p.transient, p.cyclicity]

    @staticmethod
    def check(inp, p, op):
        """The profile must be the minimal pair at its eigenvalue."""
        return spectral_ref.check_spectral(
            inp["rows"], SCALE, Fraction(p.eigenvalue), p.transient, p.cyclicity
        )

    @staticmethod
    def check_error(inp, error: str):
        """A raised cap must be a real one: no pair within it."""
        return spectral_ref.check_cap(inp["rows"], SCALE, MAX_TRANSIENT)

    def report_lines(self, ops) -> list:
        triples = [
            f"({len(op.inp['rows'])},{op.answer[1]},{op.answer[2]})" if not op.failed
            else f"({len(op.inp['rows'])},{op.error})"
            for op in ops
        ]
        return ["(n, k0, c) per op: " + " ".join(triples)]


WORKLOADS = {w.name: w for w in (VerifyN3, AbstractLocate, SpectralCT)}
