"""casqed: steady-state entanglement of two atoms in cascaded optical cavities.

Three model tiers of the same physical system:

* ``reduced``   -- two qubits under the cascaded master equation, with a
  closed-form steady state (:mod:`casqed.reduced`);
* ``effective`` -- two-level atoms still coupled to their cavity modes
  (:mod:`casqed.cavity`);
* ``full``      -- five-level atoms with cavity dynamics and spontaneous
  emission (:mod:`casqed.cavity`).

Supporting layers: the physical parameters and their reduction
(:mod:`casqed.params`), complex tensor algebra (:mod:`casqed.linalg`),
adaptive integration and steady-state solvers (:mod:`casqed.dynamics`),
two-qubit entanglement metrics (:mod:`casqed.metrics`) and a
configuration-driven experiment CLI (:mod:`casqed.cli`).

Layering: ``params``, ``reduced``, ``linalg``, ``metrics``, ``config``,
``svgplot`` and ``experiments`` need only numpy, so the reduced tier's
closed form, a reduced ``sweep-eps`` or ``sweep-coop``, ``casqed metrics``
and ``casqed --help`` never import scipy.  scipy loads with
:mod:`casqed.dynamics` and :mod:`casqed.cavity`, which the cavity tiers,
``evolve`` and ``steady`` import before a run's clock starts (see
:mod:`casqed.experiments`).  The names of ``__all__`` resolve on first
access (PEP 562), each from its home module, so ``import casqed`` loads
none of the layers.
"""

import importlib

__version__ = "0.1.0"

#: the home module of each exported name
_HOMES = {
    **dict.fromkeys(("TensorSpace", "dagger", "embed_at", "hermitian_eigen", "partial_trace"), "linalg"),
    **dict.fromkeys(("MatchedDrive", "ReducedParams", "analytic_steady_state", "bell_states",
                     "dark_state"), "reduced"),
    "ModelSpace": "cavity",
    **dict.fromkeys(("PhysicalParams", "derive_params", "stark_balance"), "params"),
    **dict.fromkeys(("LiouvillianAction", "Trajectory", "integrate", "steady_state_nullspace"),
                    "dynamics"),
    **dict.fromkeys(("concurrence", "fef_fidelity", "purity", "vn_entropy"), "metrics"),
}

#: the package's modules, which ``casqed.<name>`` also loads on first access
_MODULES = ("cavity", "cli", "config", "dynamics", "errors", "experiments", "linalg", "metrics",
            "params", "reduced", "svgplot")

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
