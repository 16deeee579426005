"""Per-layer metrics from a traced pass.

Per-op figures divide by the number of traced ops, so runs that complete
different numbers of ops compare.  ``.s`` metrics are self time: a span's
duration minus the time its child spans cover, so the self times of all
layers add up to the root spans' time.
"""

from __future__ import annotations

from tracing import TARGETS

TARGETS_BY_ID = list(TARGETS)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _merge(tracer):
    agg, counts, ops = {}, {}, 0
    for label_agg, label_counts, label_ops in tracer.by_label.values():
        for name, (calls, ns, self_ns) in label_agg.items():
            entry = agg.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += ns
            entry[2] += self_ns
        for key, value in label_counts.items():
            counts[key] = counts.get(key, 0) + value
        ops += label_ops[0]
    return agg, counts, ops


def per_layer(tracer, plain, traced):
    agg, counts, ops = _merge(tracer)
    metrics = {}
    for name in TARGETS:
        calls, _, self_ns = agg.get(name, (0, 0, 0))
        metrics[f"{name}.calls"] = calls / ops
        metrics[f"{name}.s"] = self_ns / 1e9 / ops
    passes = agg.get("abstraction.generate_transitions", (0,))[0]
    metrics["abstraction.states"] = _ratio(counts.get("abstraction.states", 0), passes)
    metrics["abstraction.edges"] = _ratio(counts.get("abstraction.edges", 0), passes)
    metrics["abstraction.edge_ratio"] = _ratio(
        counts.get("abstraction.edges", 0), counts.get("abstraction.state_pairs", 0)
    )
    metrics["dbm.intersect.nonempty_ratio"] = _ratio(
        counts.get("dbm.intersect.nonempty", 0), agg.get("dbm.intersect", (0,))[0]
    )
    metrics["ltl.direct_decided"] = counts.get("ltl.direct_decided", 0) / ops
    metrics["ltl.eval_lasso.hit_ratio"] = _ratio(
        counts.get("ltl.eval_lasso.hits", 0), agg.get("ltl.eval_lasso", (0,))[0]
    )
    metrics["bmc.spurious_ratio"] = _ratio(
        counts.get("bmc.spurious", 0), counts.get("bmc.spurious_checks", 0)
    )
    both = [(a, b) for a, b in zip(plain, traced) if not a.failed and not b.failed]
    plain_s = sum(a.seconds + a.locate_seconds for a, _ in both)
    traced_s = sum(b.seconds + b.locate_seconds for _, b in both)
    metrics["trace.overhead"] = _ratio(traced_s, plain_s)

    lines = [
        f"tracing overhead: {metrics['trace.overhead']:.3f}x op time on the {len(both)} ops "
        f"that completed in both passes ({plain_s:.3f} s untraced, {traced_s:.3f} s traced)"
    ]
    roots = {TARGETS_BY_ID[nid] for nid, parent in zip(tracer.span_name, tracer.span_parent) if parent == -1}
    root_ns = sum(agg[name][1] for name in roots)
    self_total = sum(entry[2] for entry in agg.values())
    lines.append(
        f"root spans ({', '.join(sorted(roots))}) {root_ns / 1e9:.4f} s; "
        f"sum of layer self times {self_total / 1e9:.4f} s (reference seconds)"
    )
    for label, (label_agg, label_counts, label_ops) in sorted(tracer.by_label.items()):
        lines.append(f"-- {label} ops: {label_ops[0]}   (name: calls, inclusive s, self s)")
        for name in TARGETS:
            if name in label_agg:
                calls, ns, self_ns = label_agg[name]
                lines.append(f"   {name}: {calls}, {ns / 1e9:.4f}, {self_ns / 1e9:.4f}")
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g}")
    return metrics, lines
