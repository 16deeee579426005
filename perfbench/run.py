"""mplverify benchmark: one workload at one seed, end-to-end or traced.

    python3 perfbench/run.py --workload verify_n3 --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: the package is imported from ./src.
Ops run in a closed loop with one caller and no threads until --seconds of
op wall time have passed.  Each output is checked with the benchmark's own
arithmetic as soon as its call returns, outside the timed region, and at
the default seed compared with the recorded expectations in
perfbench/expected/.  The last line of standard
output is one JSON object with the metrics that BENCHMARK.json names: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1.  A wrong
answer exits with code 1 and reports no number.

Times are reported at reference machine speed: the workload's fixed probe
computation runs before and after every op, and each op's wall time is
divided by the probe's mean time there over its time on an unloaded core.
The op limit is scaled by the slowdown measured before the op.  On a shared machine this removes most of the drift that other
tenants cause; the raw wall-time figures are printed beside them.

    python3 perfbench/run.py --workload verify_n3 --record 3000

rewrites the default seed's expectations from its first 3000 ops.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
OUT = Path(".perfbench")  # span files, relative to the checkout root

sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 15
TRACE_LIMIT_FACTOR = 2  # traced ops get this many times the op limit
SELF_TEST_OPS = 3


class Overrun(BaseException):
    """Raised by the interval timer; a BaseException, so no handler in the
    program can swallow it."""


def _on_alarm(signum, frame):
    raise Overrun()


# ---------------------------------------------------------------------------
# Machine speed


class Speed:
    """How much slower than on an unloaded core this machine runs right
    now, from the workload's probe (see oracle.probe_*)."""

    def __init__(self, probe, reference_s: float):
        self.probe = probe
        self.reference_s = reference_s
        self.samples = []

    def factor(self) -> float:
        t0 = time.perf_counter()
        self.probe()
        t = time.perf_counter() - t0
        self.samples.append(t)
        return t / self.reference_s


@dataclass
class Op:
    """One timed call.  The program's result is judged and reduced to its
    record as soon as the call returns, so memory does not grow with the
    number of ops."""

    index: int
    inp: dict
    factor: float  # machine slowdown around the op
    limit: float  # reference seconds
    error: str | None = None  # "overrun", an exception name, or a failure kind
    kind: str = ""  # the result's kind, or the error
    answer: object = None  # the workload's record of the result, or the error
    problem: str | None = None  # what the checks found wrong
    wall: float = 0.0
    cpu: float = 0.0
    located: list = field(default_factory=list)
    locate_wall: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def seconds(self) -> float:
        """Reference seconds; an overrun costs its limit."""
        return self.limit if self.error == "overrun" else self.wall / self.factor

    @property
    def locate_seconds(self) -> float:
        return sum(self.locate_wall) / self.factor


def fresh_import():
    """Import mplverify from ./src, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "mplverify" or m.startswith("mplverify.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    api = importlib.import_module("mplverify")
    if Path(api.__file__).resolve().parent != SRC / "mplverify":
        raise ImportError(f"mplverify imported from {api.__file__}, not from {SRC}")
    return api


def timed_call(fn, limit: float):
    """(result, error, wall, cpu).  The interval timer stops the call after
    `limit` wall seconds; it is disarmed before this returns."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Overrun:
        return None, "overrun", time.perf_counter() - w0, time.process_time() - c0
    except Exception as exc:  # a raised error is a failed op, not a crash
        return None, type(exc).__name__, time.perf_counter() - w0, time.process_time() - c0
    return result, None, time.perf_counter() - w0, time.process_time() - c0


def run_op(w, index, inp, limit, speed):
    call = w.prepare(inp)
    before = speed.factor()
    op = Op(index, inp, before, limit)
    result, op.error, op.wall, op.cpu = timed_call(call, limit * before)
    if op.error is None and w.locates:
        locate(op, result, w.points(inp))
    op.factor = (before + speed.factor()) / 2
    if op.error is not None:
        op.kind = op.answer = op.error
        if op.error in w.checked_errors:
            op.problem = w.check_error(inp, op.error)
        return op
    op.kind = w.label(result)
    if w.is_failure(result):
        op.error = op.kind
    op.answer = json.loads(json.dumps(w.record(result)))
    op.problem = op.problem or w.check(inp, result, op)
    return op


def locate(op, ts, points) -> None:
    """Point location on every point, each call timed."""
    for x in points:
        if x is None:
            op.located.append(None)
            continue
        t0 = time.perf_counter()
        try:
            state = ts.abstract(x)
        except RuntimeError as exc:  # partition violated
            op.problem = f"abstract({x}): {exc}"
            return
        op.locate_wall.append(time.perf_counter() - t0)
        op.located.append(state.index)


def measure(w, inputs, seconds: float, limit: float, speed):
    """Closed loop until `seconds` of op wall time (builds plus locates on
    abstract_locate) have passed, ending on a whole block of inputs."""
    ops, spent = [], 0.0
    while spent < seconds or len(ops) % w.block:
        op = run_op(w, len(ops), next(inputs), limit, speed)
        spent += op.wall + sum(op.locate_wall)
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    vals = sorted(values)
    return vals[max(1, math.ceil(p / 100 * len(vals))) - 1]


def op_times(ops, raw=False):
    """Per-op seconds; a failed op counts as infinitely slow."""
    return [math.inf if op.failed else (op.wall if raw else op.seconds) for op in ops]


def end_to_end(w, ops, setup_s: float, peak_rss_mb: float, raw=False) -> dict:
    times = op_times(ops, raw)
    if w.locates:
        spent = sum(sum(op.locate_wall) if raw else op.locate_seconds for op in ops)
        ops_per_s = sum(len(op.locate_wall) for op in ops) / spent
    else:
        spent = sum(op.wall if raw else op.seconds for op in ops)
        ops_per_s = sum(not op.failed for op in ops) / spent
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": percentile(times, 50) * 1000,
        "ops_per_s": ops_per_s,
        "op_tail_ms": percentile(times, w.tail_p) * 1000,
    }


# ---------------------------------------------------------------------------
# Checks


def problems_of(ops) -> list:
    return [f"op {op.index}: {op.problem}" for op in ops if op.problem]


def expected_path(w) -> Path:
    return EXPECTED / f"{w.name}.json"


def write_expected(w, answers) -> None:
    """One op per line, so a change to answers shows as a readable diff."""
    head = json.dumps({"workload": w.name, "seed": DEFAULT_SEED, "limit_s": w.limit_s})
    lines = ",\n".join(json.dumps(a) for a in answers)
    expected_path(w).write_text(head[:-1] + ', "ops": [\n' + lines + "\n]}\n")


def compare_expected(w, ops) -> tuple:
    """(mismatches, compared).  An overrun on either side gave no answer
    and is not compared."""
    recorded = json.loads(expected_path(w).read_text())["ops"]
    mismatches, compared = [], 0
    for op in ops[: len(recorded)]:
        got, want = op.answer, recorded[op.index]
        if "overrun" in (got, want):
            continue
        compared += 1
        if got != want:
            mismatches.append(f"op {op.index}: got {got}, recorded {want}")
    return mismatches, compared


def same_answers(ops_a, ops_b, what: str) -> list:
    return [
        f"op {a.index}: {what} result differs"
        for a, b in zip(ops_a, ops_b)
        if "overrun" not in (a.error, b.error) and a.answer != b.answer
    ]


def self_test(w, ops, speed) -> list:
    """Traced calls give the untraced results; an overrun leaves no timer
    armed, and the op after it gives its result."""
    from tracing import Tracer

    done = [op for op in ops if not op.failed][:SELF_TEST_OPS]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_op(w, op.index, op.inp, op.limit * TRACE_LIMIT_FACTOR, speed) for op in done]
    finally:
        tracer.uninstall()
    problems = same_answers(done, traced, "traced")
    slow = max((op for op in ops if not op.failed), key=lambda op: op.seconds, default=None)
    if slow is not None:
        cut = run_op(w, slow.index, slow.inp, slow.seconds / 20, speed)
        if cut.error != "overrun":
            problems.append(f"op {slow.index}: no overrun at 1/20 of its time")
        if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
            problems.append("interval timer still armed after an overrun")
        again = run_op(w, slow.index, slow.inp, slow.limit, speed)
        problems += same_answers([slow], [again], "after-overrun")
    return problems


# ---------------------------------------------------------------------------
# Report


def print_report(w, args, ops, metrics, raw, setup_runs, env, speed) -> None:
    failed = sum(op.failed for op in ops)
    wall = sum(op.wall + sum(op.locate_wall) for op in ops)
    cpu = sum(op.cpu for op in ops)
    kinds = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    n_beyond = len(ops) - math.ceil(w.tail_p / 100 * len(ops))
    highest = max((p for p in (50, 75, 90, 95, 99, 99.9)
                   if len(ops) - math.ceil(p / 100 * len(ops)) >= 10), default=None)
    slowdown = statistics.median(speed.samples) / speed.reference_s
    print(f"workload {w.name}  seed {args.seed}  op {w.op_name}  limit {w.limit_s} s (reference)")
    print(f"python {env['python']}  nproc {env['nproc']}  "
          f"load1 {env['load_start']:.2f} -> {os.getloadavg()[0]:.2f}")
    print(f"op time: wall {wall:.3f} s, process cpu {cpu:.3f} s (calls only, no locates)")
    print(f"machine slowdown vs probe reference: median {slowdown:.3f} over {len(speed.samples)} probes")
    print(f"setup runs (s, raw): {' '.join(f'{s:.4f}' for s in setup_runs)}")
    print(f"result kinds: {dict(sorted(kinds.items()))}")
    for line in w.report_lines(ops):
        print(line)
    print(f"failed_share {failed / len(ops):.4f} ({failed} of {len(ops)} ops)")
    units = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "ops_per_s": "1/s", "op_tail_ms": "ms"}
    for name, unit in units.items():
        note = f" (p{w.tail_p} of n={len(ops)}, {n_beyond} beyond)" if name == "op_tail_ms" else ""
        print(f"{name} {metrics[name]:.4f} {unit}{note}   raw wall {raw[name]:.4f}")
    if highest is not None:
        print(f"highest percentile with >= 10 samples beyond: p{highest} = "
              f"{percentile(op_times(ops), highest) * 1000:.4f} ms")


def emit(correct: bool, ops, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


# ---------------------------------------------------------------------------


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def setup(w_cls, seed: int, speed):
    """Import plus the first op's input, SETUP_REPEATS times.  Later inputs
    are made between ops, outside the timed calls.  Returns the workload,
    its input stream and the raw time of each repeat; the first repeat is
    timed from process start."""
    runs = []
    for r in range(SETUP_REPEATS):
        speed.factor()
        t0 = PROCESS_START if r == 0 else time.perf_counter()
        w = w_cls(fresh_import())
        inputs = w.inputs(seed)
        first = next(inputs)
        runs.append(time.perf_counter() - t0)

    def stream():
        yield first
        yield from inputs

    return w, stream(), runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=int, default=0, metavar="OPS",
                    help="rewrite the default seed's expectations from this many ops")
    args = ap.parse_args(argv)

    units = load_units()
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "load_start": os.getloadavg()[0]}
    signal.signal(signal.SIGALRM, _on_alarm)
    w_cls = workloads.WORKLOADS[args.workload]
    speed = Speed(w_cls.probe, w_cls.probe_reference_s)
    try:
        w, inputs, setup_runs = setup(w_cls, args.seed, speed)
    except ImportError as exc:
        print(f"cannot import mplverify from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_raw = statistics.median(setup_runs)
    setup_s = setup_raw / (statistics.median(speed.samples) / speed.reference_s)

    if args.record:
        return record(w, inputs, args.record, speed)
    if args.trace:
        return traced_run(w, inputs, args, units, env, speed)

    ops = measure(w, inputs, args.seconds, w.limit_s, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(w, ops, setup_s, peak_rss_mb)
    raw = end_to_end(w, ops, setup_raw, peak_rss_mb, raw=True)
    problems = judge(w, ops, args.seed, speed)
    print_report(w, args, ops, metrics, raw, setup_runs, env, speed)
    if problems:
        print("WRONG ANSWERS:\n  " + "\n  ".join(problems[:20]))
        emit(False, ops, {}, {})
        return 1
    emit(True, ops, {k: metrics[k] for k in units["end_to_end"]}, units["end_to_end"])
    return 0


def judge(w, ops, seed: int, speed) -> list:
    """Check problems, mismatches with the recorded expectations at the
    default seed, and self-test failures."""
    problems = problems_of(ops)
    if seed == DEFAULT_SEED:
        mismatches, compared = compare_expected(w, ops)
        problems += mismatches
        print(f"recorded expectations: {compared} ops compared, {len(mismatches)} mismatches")
    return problems + self_test(w, ops, speed)


def record(w, inputs, count: int, speed) -> int:
    ops = [run_op(w, i, next(inputs), w.limit_s, speed) for i in range(count)]
    errors = problems_of(ops)
    if errors:
        print("\n".join(errors))
        return 1
    EXPECTED.mkdir(exist_ok=True)
    write_expected(w, [op.answer for op in ops])
    print(f"recorded {len(ops)} ops, {sum(op.error == 'overrun' for op in ops)} overruns")
    return 0


def traced_run(w, inputs, args, units, env, speed) -> int:
    """Untraced ops for half the time, then the same ops traced."""
    import layers
    from tracing import Tracer

    plain = measure(w, inputs, args.seconds / 2, w.limit_s, speed)
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for op in plain:
            tracer.begin_op(op.index)
            again = run_op(w, op.index, op.inp, w.limit_s * TRACE_LIMIT_FACTOR, speed)
            label = "decided" if not again.failed else "overrun" if again.error == "overrun" else "failed"
            tracer.end_op(label, again.factor)
            traced.append(again)
    finally:
        tracer.uninstall()
    problems = judge(w, plain, args.seed, speed) + problems_of(traced)
    problems += same_answers(plain, traced, "traced")
    OUT.mkdir(exist_ok=True)
    spans = tracer.write(OUT / f"spans-{w.name}-seed{args.seed}.tsv.gz")
    metrics, lines = layers.per_layer(tracer, plain, traced)
    print(f"workload {w.name}  seed {args.seed}  traced ops {len(traced)}  spans {spans}"
          f"  load1 {env['load_start']:.2f} -> {os.getloadavg()[0]:.2f}")
    for line in lines:
        print(line)
    if problems:
        print("WRONG ANSWERS:\n  " + "\n  ".join(problems[:20]))
        emit(False, traced, {}, {})
        return 1
    emit(True, traced, {k: metrics[k] for k in units["per_layer"]}, units["per_layer"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
