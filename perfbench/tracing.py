"""Spans and counters recorded from outside the package.

``Tracer.install`` rebinds each traced public name to a timing wrapper in
every mplverify module that holds it (and wraps the traced methods on
their classes); ``Tracer.uninstall`` puts the originals back.  Spans are
kept in memory as (name, start, end, parent, op) and written out by
``Tracer.write``; per-name calls, inclusive time and self time (duration
minus the time covered by child spans) are summed as spans close, and per
op outcome label at reference machine speed.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# metric prefix -> (module, attribute or "Class.method")
TARGETS = {
    "maxplus.multiply": ("mplverify.maxplus", "MaxPlusMatrix.multiply"),
    "maxplus.transient_cyclicity": ("mplverify.maxplus", "transient_cyclicity"),
    "maxplus.eigenvalue_scaled": ("mplverify.maxplus", "eigenvalue_scaled"),
    "dbm.intersect": ("mplverify.dbm", "intersect"),
    "dbm.canonicalize": ("mplverify.dbm", "DBM.canonicalize"),
    "dbm.image": ("mplverify.dbm", "image"),
    "dbm.preimage": ("mplverify.dbm", "preimage"),
    "dbm.contains": ("mplverify.dbm", "DBM.contains"),
    "abstraction.build_transition_system": ("mplverify.abstraction", "build_transition_system"),
    "abstraction.generate_abstract_states": ("mplverify.abstraction", "generate_abstract_states"),
    "abstraction.generate_transitions": ("mplverify.abstraction", "generate_transitions"),
    "abstraction.abstract": ("mplverify.abstraction", "AbstractTransitionSystem.abstract"),
    "abstraction.state_by_index": ("mplverify.abstraction", "AbstractTransitionSystem.state_by_index"),
    "ltl.direct_check": ("mplverify.ltl", "direct_check"),
    "ltl.eval_lasso": ("mplverify.ltl", "eval_lasso"),
    "ltl.eval_noloop": ("mplverify.ltl", "eval_noloop"),
    "bmc.find_counterexample": ("mplverify.bmc", "find_counterexample"),
    "bmc.is_spurious_lasso": ("mplverify.bmc", "is_spurious_lasso"),
    "bmc.is_spurious_noloop": ("mplverify.bmc", "is_spurious_noloop"),
    "bmc.refine": ("mplverify.bmc", "refine"),
    "bmc.build_counterexample": ("mplverify.bmc", "build_counterexample"),
    "bmc.verify": ("mplverify.bmc", "verify"),
}

_SPURIOUS = ("bmc.is_spurious_lasso", "bmc.is_spurious_noloop")


def _count_result(tracer, name, args, result):
    """Counters for the ratios, taken where the work happens."""
    c = tracer.counts
    if name == "dbm.intersect":
        c["dbm.intersect.nonempty"] += not result.is_empty()
    elif name == "abstraction.generate_transitions":
        states = len(args[1])
        c["abstraction.states"] += states
        c["abstraction.state_pairs"] += states * states
        c["abstraction.edges"] += sum(len(v) for v in result.values())
    elif name == "ltl.eval_lasso":
        c["ltl.eval_lasso.hits"] += bool(result[0])
    elif name == "ltl.direct_check":
        c["ltl.direct_decided"] += result.verdict != "unknown"
    elif name in _SPURIOUS and tracer.parent_name() not in _SPURIOUS:
        c["bmc.spurious_checks"] += 1
        c["bmc.spurious"] += result.status == "spurious"


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.stack = []  # [name id, span index, child ns]
        self.op = -1
        self.counts = defaultdict(int)
        self.agg = defaultdict(lambda: [0, 0, 0])  # name -> calls, ns, self ns
        self.by_label = {}  # op label -> (agg, counts, ops)
        self._patched = []

    # -- spans ------------------------------------------------------------

    def parent_name(self):
        return self.names[self.stack[-1][0]] if self.stack else None

    def wrap(self, name, fn):
        nid = self.name_id[name]
        stack = self.stack
        agg = self.agg
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][1] if stack else -1)
            self.span_op.append(self.op)
            frame = [nid, idx, 0]
            stack.append(frame)
            self.span_end.append(0)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[idx] = end
                dur = end - start
                entry = agg[name]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            _count_result(self, name, args, result)
            return result

        return traced

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.agg.clear()
        self.counts.clear()

    def end_op(self, label: str, factor: float) -> None:
        """Fold the current op's sums into the totals for its label, with
        times divided by the machine slowdown `factor`."""
        agg, counts, ops = self.by_label.setdefault(
            label, (defaultdict(lambda: [0, 0, 0]), defaultdict(int), [0])
        )
        for name, (calls, ns, self_ns) in self.agg.items():
            entry = agg[name]
            entry[0] += calls
            entry[1] += ns / factor
            entry[2] += self_ns / factor
        for key, value in self.counts.items():
            counts[key] += value
        ops[0] += 1
        self.stack.clear()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        packages = [m for k, m in sys.modules.items() if k == "mplverify" or k.startswith("mplverify.")]
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names " + " ".join(self.names) + "\n")
            fh.write("# name_id\tstart_ns\tend_ns\tparent\top\n")
            for row in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
            ):
                fh.write("%d\t%d\t%d\t%d\t%d\n" % row)
        return len(self.span_start)
