"""Fixed-input layer probes, printed as one JSON object of per-layer metrics.

    python3 perfbench/probes.py

Times single layers on inputs that do not depend on any workload or seed:
generator build and one matvec per space, the null-space steady state,
the four two-qubit metrics, and the Jacobi eigensolver against LAPACK.
"""

import json
import statistics
import sys
import time
import warnings

import numpy as np

from casqed import cavity, dynamics, linalg, metrics, reduced


def median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fig3_params(scaled: bool = False):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if scaled:
            p = cavity.PhysicalParams.symmetric(g=30, kappa=10, gamma=3, Delta=500,
                                                Omega_r=66.66, Omega_s=33.33, epsilon=0.98)
        else:
            p = cavity.PhysicalParams.symmetric(g=110, kappa=14.2, gamma=5.2, Delta=8000,
                                                Omega_r=200.0, Omega_s=100.0, epsilon=0.98)
        return cavity.stark_balance(p)


def main() -> int:
    out = {}
    rng = np.random.default_rng(0)
    spaces = [("effective", c, cavity.build_effective_liouvillian, fig3_params())
              for c in (1, 2, 3, 4)]
    spaces += [("full", c, cavity.build_full_liouvillian, fig3_params(scaled=True))
               for c in (1, 2)]
    actions = {}
    for tier, cutoff, build, p in spaces:
        label = f"{tier}-{cutoff}"
        space = cavity.ModelSpace(2 if tier == "effective" else 5, cutoff)
        reps = 5 if tier == "effective" else 3
        out[f"probe.build_ms.{label}"] = 1e3 * median_time(lambda: build(p, space), reps)
        action = actions[label] = build(p, space)
        rhs = action.rhs_flat()
        v = rng.normal(size=space.dim ** 2) + 1j * rng.normal(size=space.dim ** 2)
        out[f"probe.matvec_us.{label}"] = 1e6 * median_time(lambda: rhs(v), 200)
    for cutoff in (1, 2, 3):
        action = actions[f"effective-{cutoff}"]
        out[f"probe.nullspace_s.effective-{cutoff}"] = median_time(
            lambda: dynamics.steady_state_nullspace(action), 3 if cutoff < 3 else 1)

    rho = reduced.analytic_steady_state(reduced.MatchedDrive(2.0, 1.0, 0.98))
    for name in ("fef_fidelity", "concurrence", "vn_entropy", "purity"):
        fn = getattr(metrics, name)
        out[f"probe.{name}_us"] = 1e6 * median_time(lambda: fn(rho), 200)
    for n, reps in ((4, 200), (16, 20)):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a + a.conj().T
        out[f"probe.hermitian_eigen_us.n{n}"] = 1e6 * median_time(
            lambda: linalg.hermitian_eigen(a), reps)
        out[f"probe.eigh_us.n{n}"] = 1e6 * median_time(lambda: np.linalg.eigh(a), reps)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
