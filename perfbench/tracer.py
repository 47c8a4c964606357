"""In-process span tracer for one ``casqed`` CLI run.

Wraps public functions of the package's layers, records one span per
call (name, start, end, parent, space label, matvec calls and time, all
times in integer nanoseconds) and keeps the spans in memory until
:meth:`Tracer.dump` writes them as columns to one ``.npz`` file.  Generator
applications are far too frequent and too cheap (tens of microseconds)
for a span each, so the generators returned by the model builders get a
counting ``matvec`` instead; its calls and time are charged to the
innermost open span and to a per-space total.

Functions are patched in every loaded ``casqed`` module that binds them,
so names pulled in with ``from .x import y`` are traced too.  A target
the package no longer has fails the traced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

#: (module, function) pairs traced as spans, grouped by layer module.
TARGETS = {
    "cli": ("main",),
    "config": ("load_config",),
    "cavity": (
        "build_effective_liouvillian", "build_full_liouvillian", "qubit_marginal",
        "top_fock_population", "output_flux_operator", "vacuum_ground_state",
        "lift_qubit_state", "stark_balance",
    ),
    "reduced": ("analytic_steady_state", "liouvillian_action"),
    "dynamics": ("integrate", "steady_state_nullspace", "steady_state_longtime"),
    "metrics": ("fef_fidelity", "concurrence", "vn_entropy", "purity", "output_flux"),
    "linalg": ("hermitian_eigen", "eigvalsh_min", "partial_trace"),
    "experiments": (
        "run_timeseries", "run_sweep_eps", "run_sweep_coop", "build_tier",
        "metric_row", "converged_steady_state",
    ),
    "svgplot": ("line_plot",),
}

#: (module, class, method) triples traced as spans.
METHODS = (("experiments", "RunManifest", "write"),)

#: builders whose result is a generator; they label it and count its matvecs
BUILDERS = {
    "cavity.build_effective_liouvillian",
    "cavity.build_full_liouvillian",
    "reduced.liouvillian_action",
}

# span record fields
FIELDS = ("name", "t0", "t1", "parent", "label", "mv_calls", "mv_ns", "nnz")
NAME, T0, T1, PARENT, LABEL, MV_CALLS, MV_NS, NNZ = range(len(FIELDS))

#: layers whose functions take a generator or a ModelSpace worth labelling
LABELLED_LAYERS = ("cavity", "dynamics")


def space_label(space) -> str:
    """``effective-<cutoff>`` / ``full-<cutoff>`` for a cavity ModelSpace."""
    tier = "effective" if space.atom_levels == 2 else "full"
    return f"{tier}-{space.fock_cutoff}"


def loaded_casqed_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "casqed" or name.startswith("casqed."))]


def patch_everywhere(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded casqed module."""
    count = 0
    for module in loaded_casqed_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.matvec: dict = {}

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        is_builder = name in BUILDERS
        label_of = _label_of if name.split(".", 1)[0] in LABELLED_LAYERS else _no_label

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, label_of(args), 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                stack.pop()
            if is_builder:
                self._instrument(rec, result, args)
            return result

        return functools.update_wrapper(traced, fn)

    def _instrument(self, rec, action, args) -> None:
        if rec[NAME].startswith("reduced."):
            label = "reduced"
        else:
            label = space_label(args[1])
            rec[NNZ] = action.meta["sparse_superop"].nnz
        rec[LABEL] = label
        action._bench_label = label
        inner = action.rhs_flat()
        totals = self.matvec.setdefault(label, [0, 0])
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def counted(v):
            t0 = clock()
            out = inner(v)
            dt = clock() - t0
            totals[0] += 1
            totals[1] += dt
            if stack:
                top = spans[stack[-1]]
                top[MV_CALLS] += 1
                top[MV_NS] += dt
            return out

        action.matvec = counted

    def install(self):
        """Patch every target; return the traced ``casqed.cli.main``."""
        import importlib

        import casqed.cli  # noqa: F401  (loads every layer the CLI uses)

        for mod_name, names in TARGETS.items():
            module = importlib.import_module(f"casqed.{mod_name}")
            for fn_name in names:
                original = getattr(module, fn_name)
                patch_everywhere(original, self.wrap(f"{mod_name}.{fn_name}", original))
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"casqed.{mod_name}"), cls_name)
            setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth)))
        return casqed.cli.main

    def dump(self, path) -> None:
        columns = {f: [rec[i] for rec in self.spans] for i, f in enumerate(FIELDS)}
        for key in ("name", "label"):
            table = sorted(set(columns[key]))
            index = {v: i for i, v in enumerate(table)}
            columns[key] = [index[v] for v in columns[key]]
            columns[f"{key}_table"] = table
        info = {"run_id": self.run_id, "matvec": self.matvec}
        np.savez(path, info=json.dumps(info),
                 **{k: np.asarray(v, dtype=str if k.endswith("_table") else np.int64)
                    for k, v in columns.items()})


def load(path) -> dict:
    """Spans written by :meth:`Tracer.dump`, as records plus the run info."""
    with np.load(path) as z:
        doc = json.loads(str(z["info"]))
        cols = {f: z[f].tolist() for f in FIELDS}
        for key in ("name", "label"):
            table = z[f"{key}_table"].tolist()
            cols[key] = [table[i] for i in cols[key]]
    doc["spans"] = [list(r) for r in zip(*(cols[f] for f in FIELDS))]
    return doc


def _label_of(args) -> str:
    """Space label of a call: from a labelled generator or a ModelSpace arg."""
    for a in args[:2]:
        label = getattr(a, "_bench_label", None)
        if label is not None:
            return label
        if hasattr(a, "atom_levels") and hasattr(a, "fock_cutoff"):
            return space_label(a)
    return ""


def _no_label(args) -> str:
    return ""
