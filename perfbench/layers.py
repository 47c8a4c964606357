"""Per-layer metrics from the spans of traced CLI runs.

Every traced run reports the same fixed list, :data:`PER_LAYER`; a layer
a workload does not exercise reads 0.  Time metrics that depend on the
state space carry its label, ``reduced`` or ``<tier>-<cutoff>``.
"""

from __future__ import annotations

import statistics

from tracer import LABEL, MV_CALLS, MV_NS, NAME, NNZ, PARENT, T0, T1, TARGETS

BUILD_SPACES = ("effective-2", "effective-3", "effective-4", "full-1")
DYNAMICS_SPACES = ("effective-4", "full-1")
NULLSPACE_SPACES = ("effective-2", "effective-3")
LONGTIME_SPACES = ("effective-4",)
LAYERS = tuple(TARGETS)
PROBE_SPACES = ("effective-1", "effective-2", "effective-3", "effective-4", "full-1", "full-2")

BUILDERS = ("cavity.build_effective_liouvillian", "cavity.build_full_liouvillian")


def _names():
    out = [("config.load_ms", "ms")]
    out += [(f"cavity.build_ms.{s}", "ms") for s in BUILD_SPACES]
    out += [(f"cavity.superop_nnz.{s}", "count") for s in BUILD_SPACES]
    out += [("cavity.build_calls", "count"), ("cavity.marginal_us", "us"),
            ("cavity.marginal_calls", "count"),
            ("reduced.analytic_us", "us"), ("reduced.analytic_calls", "count")]
    out += [(f"dynamics.matvec_us.{s}", "us") for s in DYNAMICS_SPACES]
    out += [("dynamics.rhs_calls", "count")]
    out += [(f"dynamics.integrate_s.{s}", "s") for s in DYNAMICS_SPACES]
    out += [(f"dynamics.steps.{s}", "count") for s in DYNAMICS_SPACES]
    out += [(f"dynamics.step_overhead_us.{s}", "us") for s in DYNAMICS_SPACES]
    out += [(f"dynamics.nullspace_s.{s}", "s") for s in NULLSPACE_SPACES]
    out += [(f"dynamics.longtime_s.{s}", "s") for s in LONGTIME_SPACES]
    out += [("dynamics.longtime_rhs_calls", "count"),
            ("experiments.steady_point_s.p50", "s"), ("experiments.steady_point_s.max", "s"),
            ("experiments.cutoff_tries", "count"), ("experiments.escalation_waste", "1"),
            ("experiments.metric_row_us", "us"), ("experiments.manifest_write_s", "s"),
            ("experiments.manifest_bytes", "bytes"), ("svgplot.line_plot_ms", "ms")]
    out += [(f"metrics.{m}_us", "us") for m in ("fef_fidelity", "concurrence", "vn_entropy", "purity")]
    out += [("metrics.fef_fidelity_calls", "count"), ("linalg.hermitian_eigen_us", "us"),
            ("linalg.hermitian_eigen_calls", "count"), ("linalg.partial_trace_us", "us")]
    out += [(f"layer.{m}.self_share", "1") for m in LAYERS]
    out += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
            ("trace.overhead_frac", "1"), ("trace.spans", "count")]
    out += [(f"probe.build_ms.{s}", "ms") for s in PROBE_SPACES]
    out += [(f"probe.matvec_us.{s}", "us") for s in PROBE_SPACES]
    out += [(f"probe.nullspace_s.effective-{c}", "s") for c in (1, 2, 3)]
    out += [(f"probe.{m}_us", "us") for m in ("fef_fidelity", "concurrence", "vn_entropy", "purity")]
    out += [(f"probe.{k}_us.n{n}", "us") for n in (4, 16) for k in ("hermitian_eigen", "eigh")]
    return out


#: (name, unit) of every per-layer metric, in report order
PER_LAYER = _names()


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def run_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced process (see :func:`tracer.load`)."""
    spans = doc["spans"]
    n = len(spans)
    dur = [1e-9 * (s[T1] - s[T0]) for s in spans]
    child_time = [0.0] * n
    subtree_mv = [s[MV_CALLS] for s in spans]
    children = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):      # children start after their parent
        p = spans[i][PARENT]
        if p >= 0:
            child_time[p] += dur[i]
            subtree_mv[p] += subtree_mv[i]
            children[p].append(i)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def durs(name, label=None):
        return [dur[i] for i in by_name.get(name, ()) if label is None or spans[i][LABEL] == label]

    m = {"config.load_ms": 1e3 * _median(durs("config.load_config"))}
    builds = [i for b in BUILDERS for i in by_name.get(b, ())]
    for s in BUILD_SPACES:
        mine = [i for i in builds if spans[i][LABEL] == s]
        m[f"cavity.build_ms.{s}"] = 1e3 * _median([dur[i] for i in mine])
        m[f"cavity.superop_nnz.{s}"] = max((spans[i][NNZ] for i in mine), default=0)
    m["cavity.build_calls"] = len(builds)
    m["cavity.marginal_us"] = 1e6 * _median(durs("cavity.qubit_marginal"))
    m["cavity.marginal_calls"] = len(durs("cavity.qubit_marginal"))
    m["reduced.analytic_us"] = 1e6 * _median(durs("reduced.analytic_steady_state"))
    m["reduced.analytic_calls"] = len(durs("reduced.analytic_steady_state"))

    matvec = doc["matvec"]
    m["dynamics.rhs_calls"] = sum(c for c, _ in matvec.values())
    for s in DYNAMICS_SPACES:
        calls, ns = matvec.get(s, (0, 0))
        m[f"dynamics.matvec_us.{s}"] = 1e-3 * ns / calls if calls else 0.0
        ints = [i for i in by_name.get("dynamics.integrate", ()) if spans[i][LABEL] == s]
        total = sum(dur[i] for i in ints)
        # DP5 evaluates six new stages per attempted step plus one initial stage
        steps = sum(max(spans[i][MV_CALLS] - 1, 0) / 6.0 for i in ints)
        mv_time = 1e-9 * sum(spans[i][MV_NS] for i in ints)
        m[f"dynamics.integrate_s.{s}"] = total
        m[f"dynamics.steps.{s}"] = steps
        m[f"dynamics.step_overhead_us.{s}"] = 1e6 * (total - mv_time) / steps if steps else 0.0
    for s in NULLSPACE_SPACES:
        m[f"dynamics.nullspace_s.{s}"] = _median(durs("dynamics.steady_state_nullspace", s))
    longtime = by_name.get("dynamics.steady_state_longtime", ())
    for s in LONGTIME_SPACES:
        m[f"dynamics.longtime_s.{s}"] = sum(durs("dynamics.steady_state_longtime", s))
    m["dynamics.longtime_rhs_calls"] = sum(subtree_mv[i] for i in longtime)

    points = by_name.get("experiments.converged_steady_state", ())
    point_durs = [dur[i] for i in points]
    m["experiments.steady_point_s.p50"] = _median(point_durs)
    m["experiments.steady_point_s.max"] = max(point_durs, default=0.0)
    tries, waste = [], 0.0
    for i in points:
        kids = children[i]
        built = [k for k in kids if spans[k][NAME] in BUILDERS]
        tries.append(len(built))
        final = spans[max(built)][LABEL] if built else ""   # the cutoff kept
        waste += sum(dur[k] for k in kids if spans[k][LABEL] not in ("", final))
    m["experiments.cutoff_tries"] = statistics.fmean(tries) if tries else 0.0
    m["experiments.escalation_waste"] = waste / sum(point_durs) if point_durs else 0.0
    m["experiments.metric_row_us"] = 1e6 * _median(durs("experiments.metric_row"))
    m["experiments.manifest_write_s"] = sum(durs("experiments.RunManifest.write"))
    m["svgplot.line_plot_ms"] = 1e3 * sum(durs("svgplot.line_plot"))
    for name in ("fef_fidelity", "concurrence", "vn_entropy", "purity"):
        m[f"metrics.{name}_us"] = 1e6 * _median(durs(f"metrics.{name}"))
    m["metrics.fef_fidelity_calls"] = len(durs("metrics.fef_fidelity"))
    m["linalg.hermitian_eigen_us"] = 1e6 * _median(durs("linalg.hermitian_eigen"))
    m["linalg.hermitian_eigen_calls"] = len(durs("linalg.hermitian_eigen"))
    m["linalg.partial_trace_us"] = 1e6 * _median(durs("linalg.partial_trace"))

    root = by_name.get("cli.main", ())
    root_time = sum(dur[i] for i in root)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = s[NAME].split(".", 1)[0]
        if layer in self_by_layer:
            self_by_layer[layer] += dur[i] - child_time[i]
    for layer, t in self_by_layer.items():
        m[f"layer.{layer}.self_share"] = t / root_time if root_time else 0.0
    m["trace.spans"] = n
    return m


def combine(per_run: list) -> dict:
    """Median of each metric over the traced processes of one run."""
    return {k: _median([r[k] for r in per_run]) for k in per_run[0]}
