"""The names the benchmark in ``perfbench/`` reads from ``casqed`` exist.

A deletion that the benchmark depends on fails here, in tier-1, and not
first in a benchmark run.  ``perfbench/`` is only read: the tracer's
source is executed into a fresh namespace and the checks and probes are
parsed, so nothing there is imported or written.
"""

import ast
import dataclasses
import importlib
import inspect
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from casqed import cavity, config, dynamics, experiments, reduced

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _resolve(dotted: str):
    """The object behind ``layer.name[.attr...]`` in the casqed package."""
    layer, *attrs = dotted.split(".")
    obj = importlib.import_module(f"casqed.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _read_names(path: Path) -> set:
    """Every ``layer.name[.attr...]`` chain a file reads from the layers it
    imports with ``from casqed import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    layers = {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "casqed"
              for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in layers:
            names.add(".".join([node.id] + chain[::-1]))
    return names


def test_tracer_targets_resolve():
    tracer = _tracer()
    for layer, functions in tracer.TARGETS.items():
        for name in functions:
            assert callable(_resolve(f"{layer}.{name}")), f"{layer}.{name}"
    for layer, cls, method in tracer.METHODS:
        assert callable(_resolve(f"{layer}.{cls}.{method}"))
    for name in tracer.BUILDERS:
        layer, fn = name.split(".")
        assert fn in tracer.TARGETS[layer] and callable(_resolve(name))


@pytest.mark.parametrize("script", ["checks.py", "probes.py"])
def test_names_the_checks_and_probes_read_exist(script):
    names = _read_names(PERFBENCH / script)
    assert names, f"no casqed names found in {script}"
    for name in sorted(names):
        _resolve(name)


def test_checks_contract():
    """What ``checks.py`` relies on beyond the names: config fields, the
    escalation defaults, generator meta keys, a reassignable matvec, and
    one module-level ``unvec`` call per integrate sample."""
    assert isinstance(dynamics.NULLSPACE_DIM_LIMIT, int)
    assert "ss_tol" in {f.name for f in dataclasses.fields(config.ExperimentConfig)}
    params = inspect.signature(experiments.converged_steady_state).parameters
    assert (params["max_cutoff"].default, params["top_tol"].default) == (4, 1e-6)
    params = inspect.signature(dynamics.integrate).parameters
    assert {"rel_tol", "abs_tol"} <= set(params)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        p = cavity.stark_balance(cavity.PhysicalParams.symmetric(
            g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=200.0, Omega_s=100.0,
            epsilon=0.98))
    space = cavity.ModelSpace(2, 1)
    action = cavity.build_effective_liouvillian(p, space)
    assert action.meta["space"] == space
    assert action.meta["sparse_superop"].shape == (space.dim ** 2,) * 2

    reduced_action = reduced.liouvillian_action(reduced.MatchedDrive(2.0, 1.0, 0.98).params())
    calls = {"matvec": 0, "unvec": 0}
    inner, unvec = reduced_action.rhs_flat(), dynamics.unvec

    def counted(v):
        calls["matvec"] += 1
        return inner(v)

    def sample(v):
        calls["unvec"] += 1
        return unvec(v)

    reduced_action.matvec = counted
    dynamics.unvec = sample
    try:
        times = np.linspace(0.0, 0.5, 4)
        dynamics.integrate(reduced_action, reduced.initial_ground_state(), times,
                           rel_tol=1e-8, abs_tol=1e-12)
    finally:
        dynamics.unvec = unvec
    assert calls["unvec"] == len(times)
    assert calls["matvec"] > 0
    calls["matvec"] = 0
    dynamics.steady_state_nullspace(reduced_action)
    assert calls["matvec"] > 0
