"""casqed: steady-state entanglement of two atoms in cascaded optical cavities.

Three model tiers of the same physical system:

* ``reduced``   -- two qubits under the cascaded master equation, with a
  closed-form steady state (:mod:`casqed.reduced`);
* ``effective`` -- two-level atoms still coupled to their cavity modes
  (:mod:`casqed.cavity`);
* ``full``      -- five-level atoms with cavity dynamics and spontaneous
  emission (:mod:`casqed.cavity`).

Supporting layers: complex tensor algebra (:mod:`casqed.linalg`),
adaptive integration and steady-state solvers (:mod:`casqed.dynamics`),
two-qubit entanglement metrics (:mod:`casqed.metrics`) and a
configuration-driven experiment CLI (:mod:`casqed.cli`).
"""

__version__ = "0.1.0"

from .linalg import TensorSpace, dagger, embed_at, hermitian_eigen, partial_trace
from .reduced import (
    MatchedDrive,
    ReducedParams,
    analytic_steady_state,
    bell_states,
    dark_state,
)
from .cavity import ModelSpace, PhysicalParams, derive_params, stark_balance
from .dynamics import (
    LiouvillianAction,
    Trajectory,
    integrate,
    steady_state_nullspace,
)
from .metrics import concurrence, fef_fidelity, purity, vn_entropy

__all__ = [
    "TensorSpace", "dagger", "embed_at", "hermitian_eigen", "partial_trace",
    "MatchedDrive", "ReducedParams", "analytic_steady_state", "bell_states", "dark_state",
    "ModelSpace", "PhysicalParams", "derive_params", "stark_balance",
    "LiouvillianAction", "Trajectory", "integrate",
    "steady_state_nullspace",
    "concurrence", "fef_fidelity", "purity", "vn_entropy",
    "__version__",
]
