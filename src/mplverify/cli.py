"""Command-line interface.

Subcommands: verify, abstract, ct, direct, random, bench.  Exit codes for
verify/direct: 0 holds, 1 violated, 2 undecided, 3 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from fractions import Fraction

from . import __version__
from .abstraction import build_transition_system
from .bench import BenchmarkConfig, bench_abstraction, bench_ct
from .bmc import completeness_threshold, simulate, verify
from .ltl import ParseError, atoms_of, direct_check, parse
from .maxplus import (
    IrreducibilityError,
    RegularityError,
    SearchCapExceeded,
    is_irreducible,
    to_scaled,
    transient_cyclicity,
)
from .modelio import Model, ModelError, load_model, model_to_dict, random_mpl

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_UNDECIDED = 2
EXIT_ERROR = 3

_OUTCOME_CODE = {"holds": EXIT_HOLDS, "violated": EXIT_VIOLATED, "undecided": EXIT_UNDECIDED}
_VERDICT_CODE = {"true": EXIT_HOLDS, "false": EXIT_VIOLATED, "unknown": EXIT_UNDECIDED}


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(int(value)) if value.denominator == 1 else str(float(value))
    return str(value)


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MPLVERIFY_SEED")
    return int(env) if env else 0


def _load(args) -> Model:
    if not args.model:
        raise ModelError("a model file is required (-m/--model)")
    return load_model(args.model)


def _spec_text(args, model: Model) -> str:
    spec = args.spec or model.spec
    if not spec:
        raise ModelError("no specification: pass --spec or add 'spec' to the model")
    return spec


def _emit(args, payload: dict, human_lines) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, default=_fmt))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_verify(args) -> int:
    model = _load(args)
    spec = _spec_text(args, model)
    verdict = verify(
        model.matrix,
        model.initial,
        spec,
        max_iter=args.max_iter,
        use_direct=not args.no_direct,
    )
    payload = {
        "spec": spec,
        "outcome": verdict.outcome,
        "reason": verdict.reason,
        "stats": verdict.stats,
    }
    lines = [f"spec: {spec}", f"outcome: {verdict.outcome}", f"reason: {verdict.reason}"]
    ce = verdict.counterexample
    if ce is not None:
        payload["counterexample"] = {
            "kind": ce.path.kind,
            "states": list(ce.path.states),
            "loop_start": ce.path.loop_start,
            "initial_point": [_fmt(v) for v in ce.concrete_initial],
        }
        if args.explain:
            lines.append(f"abstract path: states {list(ce.path.states)}"
                         + (f" (loop from position {ce.path.loop_start})"
                            if ce.path.kind == "lasso" else ""))
            lines.append("witness DBMs along the unrolled path:")
            scale = model.matrix.scale
            for pos, (state, dbm) in enumerate(zip(ce.positions, ce.witnesses)):
                cons = dbm.constraint_lines(scale) or ["(full space)"]
                lines.append(f"  step {pos} in state {state}: " + "; ".join(cons))
            lines.append("concrete trajectory:")
            traj = simulate(model.matrix, ce.concrete_initial, len(ce.positions) - 1)
            for pos, x in enumerate(traj):
                lines.append(f"  x({pos}) = (" + ", ".join(_fmt(v) for v in x) + ")")
        else:
            lines.append(
                "counterexample start: ("
                + ", ".join(_fmt(v) for v in ce.concrete_initial)
                + ")"
            )
    _emit(args, payload, lines)
    return _OUTCOME_CODE[verdict.outcome]


def _cmd_abstract(args) -> int:
    model = _load(args)
    a = model.matrix
    atom_specs = []
    spec = args.spec or model.spec
    if spec:
        atom_specs = [
            (p.i, p.op, to_scaled(p.alpha, a.scale)) for p in atoms_of(parse(spec))
        ]
    ts = build_transition_system(a, atom_specs, model.initial)
    payload = {
        "predicates": [p.as_tuple(a.scale) for p in ts.predicates],
        "states": [
            {
                "index": s.index,
                "name": s.name,
                "labels": sorted(s.labels),
                "coefficients": list(s.dynamics.coefficients),
                "region": s.region.constraint_lines(a.scale),
            }
            for s in ts.states
        ],
        "edges": [[i, j] for i in sorted(ts.transitions) for j in ts.transitions[i]],
        "initial": list(ts.initial),
    }
    lines = [f"{len(ts.states)} abstract states, "
             f"{sum(len(v) for v in ts.transitions.values())} edges"]
    lines.append("predicates: " + ", ".join(
        f"p{k}=(x{p.i} - x{p.j} {'>=' if p.s else '>'} {_fmt(Fraction(p.c, a.scale))})"
        for k, p in enumerate(ts.predicates)
    ))
    for s in ts.states:
        label = "{" + ", ".join(f"p{k}" for k in sorted(s.labels)) + "}"
        lines.append(
            f"{s.name}: labels {label}, g = {s.dynamics.coefficients}, "
            f"successors {list(ts.transitions[s.index])}"
        )
        if args.dump:
            for con in s.region.constraint_lines(a.scale) or ["(full space)"]:
                lines.append(f"    {con}")
    lines.append(f"initial states: {list(ts.initial)}")
    _emit(args, payload, lines)
    return EXIT_HOLDS


def _cmd_ct(args) -> int:
    model = _load(args)
    a = model.matrix
    if not is_irreducible(a):
        ts = build_transition_system(a, (), model.initial)
        ct = completeness_threshold(a, ts)
        payload = {"irreducible": False, "ct": ct, "states": len(ts.states)}
        _emit(args, payload, [
            "matrix is reducible; fallback threshold from abstraction size",
            f"CT={ct}",
        ])
        return EXIT_HOLDS
    profile = transient_cyclicity(a)
    payload = {
        "irreducible": True,
        "eigenvalue": _fmt(profile.eigenvalue),
        "transient": profile.transient,
        "cyclicity": profile.cyclicity,
        "ct": profile.completeness_bound,
    }
    _emit(args, payload, [
        f"lambda={_fmt(profile.eigenvalue)}, k0={profile.transient}, "
        f"c={profile.cyclicity}, CT={profile.completeness_bound}"
    ])
    return EXIT_HOLDS


def _cmd_direct(args) -> int:
    model = _load(args)
    spec = _spec_text(args, model)
    res = direct_check(model.matrix, parse(spec))
    payload = {
        "spec": spec,
        "verdict": res.verdict,
        "reason": res.reason,
        "residual": str(res.residual),
    }
    _emit(args, payload, [
        f"spec: {spec}",
        f"verdict: {res.verdict} ({res.reason})",
        f"residual: {res.residual}",
    ])
    return _VERDICT_CODE[res.verdict]


def _cmd_random(args) -> int:
    seed = _default_seed(args)
    a = random_mpl(args.n, args.finite_per_row, tuple(args.value_range), seed=seed)
    model = Model(a)
    doc = model_to_dict(model)
    doc["seed"] = seed
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_HOLDS


def _cmd_bench(args) -> int:
    config = BenchmarkConfig(
        dims=tuple(args.dims),
        m=args.finite_per_row,
        value_range=tuple(args.value_range),
        trials=args.trials,
        seed=_default_seed(args),
    )
    if args.kind == "abstraction":
        report = bench_abstraction(config)
        lines = ["n  trials  avg_micros  max_micros"]
        for n, row in sorted(report["summary"].items()):
            lines.append(
                f"{n:<3}{row['trials']:<8}{row['avg_micros']:<12}{row['max_micros']}"
            )
    else:
        if not args.spec:
            raise ModelError("bench ct needs --spec")
        report = bench_ct(config, args.spec, max_iter=args.max_iter)
        c = report["counts"]
        lines = [
            f"trials: {len(report['rows'])}",
            f"ct_empirical < ct_lemma: {c['lt']}",
            f"ct_empirical = ct_lemma: {c['eq']}",
            f"ct_empirical > ct_lemma: {c['gt']}",
            f"undecided: {c['undecided']}",
        ]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report["csv"])
        lines.append(f"CSV written to {args.csv}")
    payload = {k: v for k, v in report.items() if k != "csv"}
    _emit(args, payload, lines)
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# Argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ModelError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="mplverify", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mplverify {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        p.add_argument("-m", "--model", help="model JSON file")
        if spec:
            p.add_argument("--spec", help="specification string")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="verify a specification against a model")
    common(p)
    p.add_argument("--explain", action="store_true",
                   help="show abstract path, witness DBMs, concrete trajectory")
    p.add_argument("--max-iter", type=int, default=1000,
                   help="loop-unrolling cap for spuriousness checks")
    p.add_argument("--no-direct", action="store_true",
                   help="skip the direct (abstraction-free) checks")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("abstract", help="print the predicate abstraction")
    common(p)
    p.add_argument("--dump", action="store_true", help="dump region DBM constraints")
    p.set_defaults(func=_cmd_abstract)

    p = sub.add_parser("ct", help="eigenvalue, transient, cyclicity, threshold")
    common(p, spec=False)
    p.set_defaults(func=_cmd_ct)

    p = sub.add_parser("direct", help="abstraction-free verification only")
    common(p)
    p.set_defaults(func=_cmd_direct)

    p = sub.add_parser("random", help="generate a random regular model")
    p.add_argument("-n", type=int, required=True, help="dimension")
    p.add_argument("--finite-per-row", type=int, default=2, metavar="M")
    p.add_argument("--value-range", type=int, nargs=2, default=[1, 10],
                   metavar=("LO", "HI"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", help="write the model here instead of stdout")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("bench", help="benchmark campaigns")
    p.add_argument("kind", choices=("abstraction", "ct"))
    p.add_argument("--dims", type=int, nargs="+", default=[3, 4, 5])
    p.add_argument("--finite-per-row", type=int, default=2, metavar="M")
    p.add_argument("--value-range", type=int, nargs=2, default=[1, 10],
                   metavar=("LO", "HI"))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--spec", help="specification for the ct campaign")
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--csv", help="write the CSV report to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (
        ModelError, ParseError, RegularityError, IrreducibilityError, ValueError,
        SearchCapExceeded,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # any other crash must not exit 1, which means "violated"
        traceback.print_exc()
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
