"""Benchmark campaigns: abstraction generation timing and completeness
threshold comparison on random systems.

Timings are informative only; nothing here asserts wall-clock numbers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .abstraction import (
    affine_dynamics_for_state,
    generate_abstract_states,
    predicates_from_matrix,
)
from .bmc import empirical_threshold
from .modelio import random_irreducible_mpl, random_mpl

ABSTRACTION_CSV_HEADER = "n,trial,seed,phase,micros"
CT_CSV_HEADER = "n,trial,seed,ct_empirical,ct_lemma,verdict"


@dataclass
class BenchmarkConfig:
    dims: tuple = (3, 4, 5)
    m: int = 2
    value_range: tuple = (1, 10)
    trials: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.m > min(self.dims, default=self.m):
            raise ValueError("finite entries per row cannot exceed the smallest n")
        lo, hi = self.value_range
        if lo > hi:
            raise ValueError("empty value range")


def _trial_seed(config: BenchmarkConfig, n: int, trial: int) -> int:
    return config.seed * 1_000_003 + n * 1_009 + trial


def bench_abstraction(config: BenchmarkConfig) -> dict:
    """Time the specification-free abstraction phases per trial.

    Returns {"rows": [...], "summary": {n: {...}}, "csv": str}; each row
    carries per-phase microseconds for predicates, abstract-state
    enumeration, and dynamics assignment.
    """
    rows = []
    for n in config.dims:
        for trial in range(config.trials):
            seed = _trial_seed(config, n, trial)
            a = random_mpl(n, config.m, config.value_range, seed=seed)

            t0 = time.perf_counter_ns()
            per_row, preds = predicates_from_matrix(a)
            t1 = time.perf_counter_ns()
            valuations, regions = generate_abstract_states(preds, n)
            t2 = time.perf_counter_ns()
            pred_index = {p: i for i, p in enumerate(preds)}
            for val in valuations:
                affine_dynamics_for_state(a, val, per_row, pred_index)
            t3 = time.perf_counter_ns()

            rows.append(
                {
                    "n": n,
                    "trial": trial,
                    "seed": seed,
                    "states": len(valuations),
                    "phases": {
                        "predicates": (t1 - t0) // 1000,
                        "states": (t2 - t1) // 1000,
                        "dynamics": (t3 - t2) // 1000,
                    },
                }
            )

    summary = {}
    for n in config.dims:
        totals = [sum(r["phases"].values()) for r in rows if r["n"] == n]
        if totals:
            summary[n] = {
                "avg_micros": sum(totals) // len(totals),
                "max_micros": max(totals),
                "trials": len(totals),
            }

    lines = [ABSTRACTION_CSV_HEADER]
    for r in rows:
        for phase, micros in r["phases"].items():
            lines.append(f"{r['n']},{r['trial']},{r['seed']},{phase},{micros}")
    return {"rows": rows, "summary": summary, "csv": "\n".join(lines) + "\n"}


def bench_ct(config: BenchmarkConfig, spec: str, max_iter: int = 1000) -> dict:
    """Compare empirical thresholds with the analytic k0 + c bound on
    irreducible samples (reducible draws are resampled away).

    The analytic bound being smaller raises ``RuntimeError``: it would mean
    the bound is unsound.
    """
    rows = []
    for n in config.dims:
        for trial in range(config.trials):
            seed = _trial_seed(config, n, trial)
            rng = random.Random(seed)
            a = random_irreducible_mpl(n, config.m, config.value_range, rng=rng)
            res = empirical_threshold(a, None, spec, max_iter=max_iter)
            ct1, ct2 = res["ct_empirical"], res["ct_lemma"]
            if ct1 is not None and ct1 > ct2:
                raise RuntimeError(
                    f"analytic threshold {ct2} below empirical {ct1} (seed {seed})"
                )
            rows.append(
                {
                    "n": n,
                    "trial": trial,
                    "seed": seed,
                    "ct_empirical": ct1,
                    "ct_lemma": ct2,
                    "verdict": res["outcome"],
                }
            )

    counts = {"lt": 0, "eq": 0, "gt": 0, "undecided": 0}
    for r in rows:
        if r["ct_empirical"] is None:
            counts["undecided"] += 1
        elif r["ct_empirical"] < r["ct_lemma"]:
            counts["lt"] += 1
        elif r["ct_empirical"] == r["ct_lemma"]:
            counts["eq"] += 1
        else:
            counts["gt"] += 1

    lines = [CT_CSV_HEADER]
    for r in rows:
        ct1 = "" if r["ct_empirical"] is None else r["ct_empirical"]
        lines.append(
            f"{r['n']},{r['trial']},{r['seed']},{ct1},{r['ct_lemma']},{r['verdict']}"
        )
    return {"rows": rows, "counts": counts, "csv": "\n".join(lines) + "\n"}
