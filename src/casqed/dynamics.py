"""Time evolution, steady-state solvers and spectral analysis.

Every tier states its generator as operators: a Hamiltonian, factor-2
dissipator channels and one cascade term (see
:func:`liouvillian_from_operators`).  They are assembled once into a
sparse column-stacking superoperator, which is the generator's only
matrix view.

The integrator is an adaptive embedded Dormand-Prince 5(4) pair acting
on the column-stacked state.  Hermiticity is restored after every
accepted step (rho <- (rho + rho+)/2); the trace is conserved exactly
by linearity of a trace-preserving generator, and drift beyond 1e-9 is
treated as an integrator failure.  Positivity is never projected:
violations surface in the returned states and are the caller's signal
that tolerances were too loose.

Strongly detuned models carry fast coherences whose frequencies exceed
any step an explicit method can take for accuracy.  For a linear
generator this is benign: capping the step just below the stability
bound keeps those modes bounded while the slow (observable) dynamics
and the steady state remain accurate, because every eigenmode of the
generator is propagated independently.  Builders advertise their fast
scale via ``stiff_rate`` and the integrator caps the step accordingly.

Steady states of every tier are solved directly: GMRES on the
trace-bordered generator, right-preconditioned by the inverse of the
shifted no-jump part, which is a Sylvester equation solved by
Bartels-Stewart on one Schur form.  Long-time relaxation remains as an
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConvergenceError,
    DegenerateSteadyState,
    DimensionMismatch,
    IntegrationError,
)
from .linalg import dagger, unvec

#: dense superoperators are only materialized up to this state dimension
NULLSPACE_DIM_LIMIT = 64

#: fraction of the explicit stability bound used when a stiff scale is known
_STAB_MARGIN = 2.5


@dataclass
class LiouvillianAction:
    """A master-equation generator as a deterministic map rho -> drho/dt.

    ``matvec`` applies the generator to a column-stacked state; every
    other view derives from it.  ``rate_scale`` is the characteristic
    damping rate used to scale residual tolerances; ``stiff_rate``
    bounds the fastest frequency in the generator (0 for non-stiff
    models).  Generators built by :func:`liouvillian_from_operators`
    keep their operators in ``meta["operators"]`` and their sparse
    superoperator in ``meta["sparse_superop"]``.
    """

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
    rate_scale: float = 1.0
    stiff_rate: float = 0.0
    meta: dict = field(default_factory=dict)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """drho/dt for a (dim, dim) state."""
        rho = np.asarray(rho, dtype=complex)
        d = self.dim
        if rho.shape != (d, d):
            raise DimensionMismatch(f"state shape {rho.shape}, expected ({d}, {d})")
        return self.matvec(rho.reshape(-1, order="F")).reshape((d, d), order="F")

    def rhs_flat(self) -> Callable[[np.ndarray], np.ndarray]:
        return self.matvec


def _superoperator(h, d2_channels, cascade) -> sp.csr_matrix:
    """Column-stacking superoperator for -i[H, .] + factor-2 dissipators.

    ``d2_channels`` is a list of (rate, c) entering as rate * D[c];
    ``cascade`` is (q, a1, a2) entering as
    -q (a2+ a1 rho + rho a1+ a2 - a1 rho a2+ - a2 rho a1+).
    """
    dim = h.shape[0]
    eye = sp.identity(dim, format="csr", dtype=complex)
    h = sp.csr_matrix(h)
    out = -1j * (sp.kron(eye, h, format="csr") - sp.kron(h.T, eye, format="csr"))
    for rate, c in d2_channels:
        c = sp.csr_matrix(c)
        cd = c.conj().T
        cdc = (cd @ c).tocsr()
        out = out + rate * (
            2.0 * sp.kron(c.conj(), c, format="csr")
            - sp.kron(eye, cdc, format="csr")
            - sp.kron(cdc.T, eye, format="csr")
        )
    q, a1, a2 = cascade
    a1 = sp.csr_matrix(a1)
    a2 = sp.csr_matrix(a2)
    out = out - q * (
        sp.kron(eye, (a2.conj().T @ a1).tocsr(), format="csr")
        + sp.kron((a1.conj().T @ a2).T.tocsr(), eye, format="csr")
        - sp.kron(a2.conj(), a1, format="csr")
        - sp.kron(a1.conj(), a2, format="csr")
    )
    out = out.tocsr()
    out.sum_duplicates()
    return out


def no_jump_generator(h, d2_channels, cascade) -> np.ndarray:
    """K with L(rho) = K rho + rho K+ + (jump terms), as a dense matrix.

    The operators are those of :func:`_superoperator`, so
    K = -iH - sum rate c+ c - q a2+ a1.
    """
    k = -1j * sp.csr_matrix(h)
    for rate, c in d2_channels:
        c = sp.csr_matrix(c)
        k = k - rate * (c.conj().T @ c)
    q, a1, a2 = cascade
    k = k - q * (sp.csr_matrix(a2).conj().T @ sp.csr_matrix(a1))
    return k.toarray()


def liouvillian_from_operators(h, d2_channels, cascade, rate_scale: float,
                               stiff_rate: float = 0.0, meta=None) -> LiouvillianAction:
    """The generator of a cascaded master equation, from its operators.

    ``h`` is the (dim, dim) Hamiltonian, ``d2_channels`` the (rate, c)
    dissipators and ``cascade`` the (q, a1, a2) coupling, as in
    :func:`_superoperator`; dense or sparse operators both work.  The
    operators are kept in ``meta["operators"]`` for the steady-state
    solver and the superoperator in ``meta["sparse_superop"]``.
    """
    lsp = _superoperator(h, d2_channels, cascade)

    def matvec(v):
        return lsp @ v

    meta = dict(meta or {})
    meta["sparse_superop"] = lsp
    meta["operators"] = (h, d2_channels, cascade)
    return LiouvillianAction(
        dim=h.shape[0],
        matvec=matvec,
        rate_scale=rate_scale,
        stiff_rate=stiff_rate,
        meta=meta,
    )


@dataclass
class Trajectory:
    """Density matrices sampled on an ascending time grid (us)."""

    times: np.ndarray
    states: list
    metrics: dict = field(default_factory=dict)

    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class SteadyStateResult:
    rho: np.ndarray
    elapsed: float        # model time integrated to reach the residual
    residual: float       # ||drho/dt||_F at the returned state


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4


def _check_rho0(rho0: np.ndarray, dim: int) -> np.ndarray:
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise IntegrationError(f"initial state shape {rho0.shape}, expected ({dim}, {dim})")
    if abs(np.trace(rho0) - 1.0) > 1e-8 or np.abs(rho0 - dagger(rho0)).max() > 1e-8:
        raise IntegrationError("initial state is not a unit-trace hermitian matrix")
    return (rho0 + dagger(rho0)) / 2.0


def _resym(v: np.ndarray, dim: int) -> np.ndarray:
    r = v.reshape((dim, dim), order="F")
    return ((r + dagger(r)) / 2.0).reshape(-1, order="F")


def integrate(
    liouvillian: LiouvillianAction,
    rho0: np.ndarray,
    times,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-12,
    max_step: float | None = None,
    max_steps: int = 50_000_000,
) -> Trajectory:
    """Propagate a density matrix and sample it at the requested times.

    Adaptive Dormand-Prince 5(4) with an elementwise error weight
    ``abs_tol + rel_tol * |entry|``.  Entries smaller than ``abs_tol``
    are kept bounded rather than relatively accurate, which is what
    makes stiff detuned models affordable (see module docstring).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) < 0):
        raise IntegrationError("times must be a non-empty ascending 1-d grid")
    dim = liouvillian.dim
    rho0 = _check_rho0(rho0, dim)
    rhs = liouvillian.rhs_flat()

    if max_step is None:
        max_step = _STAB_MARGIN / liouvillian.stiff_rate if liouvillian.stiff_rate > 0 else np.inf

    t = float(times[0])
    y = rho0.reshape(-1, order="F").copy()
    out = [unvec(y.copy())]
    trace0 = np.real(np.trace(rho0))

    span = max(times[-1] - times[0], 0.0)
    if span == 0.0:
        return Trajectory(times=times, states=[unvec(y.copy()) for _ in times])

    scale = max(liouvillian.rate_scale, 1e-300)
    h = min(span / 100.0, 0.1 / scale, max_step)
    h_min = max(span, 1.0 / scale) * 1e-14

    k = np.empty((7, y.size), dtype=complex)
    k[0] = rhs(y)
    states_iter = iter(range(1, times.size))
    next_i = next(states_iter, None)

    steps = 0
    just_rejected = False
    while next_i is not None:
        t_target = float(times[next_i])
        clipped = False
        if t + h >= t_target:
            h_use = t_target - t
            clipped = True
        else:
            h_use = h
        if h_use <= 0.0:
            # duplicate time point
            out.append(unvec(y.copy()))
            next_i = next(states_iter, None)
            continue

        for i in range(1, 7):
            k[i] = rhs(y + (h_use * _DP_A[i]) @ k[:i])
        y5 = y + (h_use * _DP_B5) @ k
        err_vec = (h_use * _DP_E) @ k

        sc = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((np.abs(err_vec) / sc) ** 2)))

        if err <= 1.0:
            t = t + h_use
            y = _resym(y5, dim)
            # FSAL: stage 7 was evaluated at y5; the symmetrization shift
            # is pure rounding noise, so k7 serves as the next step's k1
            k[0] = k[6]
            if clipped and abs(t - t_target) <= 1e-12 * max(1.0, abs(t_target)):
                out.append(unvec(y.copy()))
                next_i = next(states_iter, None)
            # no growth right after a rejection: prevents limit cycling
            # when the step is pinned by stability rather than accuracy
            growth = 1.0 if just_rejected else 2.0
            factor = min(growth, 0.9 * err ** -0.2) if err > 0.0 else growth
            just_rejected = False
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
            just_rejected = True
        h = min(max(h * max(0.2, factor), h_min), max_step)
        if h <= h_min and err > 1.0:
            raise IntegrationError(
                f"step-size underflow at t={t:g} (err={err:g}); generator too stiff "
                "for the requested tolerances"
            )
        steps += 1
        if steps > max_steps:
            raise IntegrationError(f"exceeded {max_steps} steps before t={times[-1]:g}")

    drift = abs(np.real(np.trace(out[-1])) - trace0)
    if drift > 1e-9:
        raise IntegrationError(f"trace drifted by {drift:g} over the run")
    return Trajectory(times=times, states=out)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def _dense_superop(liouvillian: LiouvillianAction) -> np.ndarray:
    """The superoperator as a dense matrix, for dim <= NULLSPACE_DIM_LIMIT."""
    if liouvillian.dim > NULLSPACE_DIM_LIMIT:
        raise DimensionMismatch(
            f"dim {liouvillian.dim} > {NULLSPACE_DIM_LIMIT}: superoperator not materializable"
        )
    return liouvillian.meta["sparse_superop"].toarray()


_SEP_TOL = 1e-10

#: shift s of the Sylvester preconditioner (A - s)^-1, in units of rate_scale.
#: Smaller shifts resolve the slow Raman dynamics better: at 0.1 GMRES
#: stalls for weakly driven full-tier points; at 1e-3 it takes 15-30
#: iterations on the fig. 3 grid.
_SYLVESTER_SHIFT = 1e-3
#: GMRES stops at ||b - B x|| <= rtol ||b||: _GMRES_RTOL for the state,
#: _PROBE_RTOL for the probe, which only needs the size of its solution
_GMRES_RTOL = 1e-13
_PROBE_RTOL = 1e-6
#: GMRES restart length and number of restart cycles
_GMRES_RESTART = 100
_GMRES_CYCLES = 2
#: seed of the traceless right-hand side of the degeneracy probe
_PROBE_SEED = 1972
#: the probe's ||x|| / ||r|| beyond _PROBE_LIMIT / rate_scale means a second
#: (near-)zero eigenvalue, as the 1e-10 separation rule of spectral_gap
_PROBE_LIMIT = 1.0 / _SEP_TOL


def _sylvester_inverse(k: np.ndarray, s: float) -> Callable[[np.ndarray], np.ndarray]:
    """v -> vec(X) with (K - s/2) X + X (K - s/2)+ = unvec(v), i.e. (A - s)^-1.

    Bartels-Stewart: one complex Schur form K - s/2 = U T U+, then a
    triangular Sylvester solve (LAPACK ?trsyl) per application.  Every
    eigenvalue of K has Re <= 0, so T and -T+ share none and the solve is
    well posed for s > 0.
    """
    d = k.shape[0]
    t, u = scipy.linalg.schur(k - 0.5 * s * np.eye(d), output="complex")
    uh = u.conj().T
    (trsyl,) = scipy.linalg.get_lapack_funcs(("trsyl",), (t,))

    def solve(v):
        y = uh @ v.reshape((d, d), order="F") @ u
        x, scale, _ = trsyl(t, t, y, trana="N", tranb="C")
        return (u @ (x / scale) @ uh).reshape(-1, order="F")

    return solve


def steady_state_nullspace(liouvillian: LiouvillianAction) -> np.ndarray:
    """Unique trace-one state in the generator's null space.

    Solves (L + w tr) rho = w, w = (rate_scale / d) I, from the operators
    in ``meta["operators"]`` (see :func:`liouvillian_from_operators`).
    Tracing the system gives tr rho = 1 and then L rho = 0, so the bordered
    operator B is regular exactly when the null space is one-dimensional.
    GMRES solves it with the shifted Sylvester inverse of the no-jump part
    as right preconditioner.  A singular B can still be consistent for w,
    so a second solve against a fixed traceless right-hand side probes
    the separation: its solution is L^-1 r on traceless matrices, and it
    fails or grows past _PROBE_LIMIT / rate_scale when another eigenvalue
    of L is (close to) zero; that raises :class:`DegenerateSteadyState`.
    The state is returned hermitised and normalised.
    """
    d = liouvillian.dim
    n = d * d
    scale = liouvillian.rate_scale
    diag = np.arange(d) * (d + 1)
    weight = scale / d
    rhs = liouvillian.rhs_flat()
    precond = _sylvester_inverse(
        no_jump_generator(*liouvillian.meta["operators"]), _SYLVESTER_SHIFT * scale
    )

    def bordered(y):
        x = precond(y)
        out = rhs(x)
        out[diag] += weight * x[diag].sum()
        return out

    op = spla.LinearOperator((n, n), matvec=bordered, dtype=complex)

    def solve(b, rtol):
        y, info = spla.gmres(op, b, rtol=rtol, atol=0.0,
                             restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES)
        return precond(y), info

    w = np.zeros(n, dtype=complex)
    w[diag] = weight
    rho, info = solve(w, _GMRES_RTOL)
    if info != 0:
        raise ConvergenceError(
            f"GMRES did not reach the steady state in {_GMRES_RESTART * _GMRES_CYCLES} iterations"
        )

    rng = np.random.default_rng(_PROBE_SEED)
    r = rng.normal(size=n) + 1j * rng.normal(size=n)
    r[diag] -= r[diag].mean()
    r /= np.linalg.norm(r)
    x, info = solve(r, _PROBE_RTOL)
    growth = float(np.linalg.norm(x)) * scale
    if info != 0 or growth > _PROBE_LIMIT:
        raise DegenerateSteadyState(
            "zero eigenvalue is degenerate or not separated from the spectrum "
            f"(probe ||L^-1 r|| rate_scale / ||r|| = {growth:.1e}"
            + (", no convergence)" if info else ")")
        )
    rho = unvec(rho)
    rho = (rho + dagger(rho)) / 2.0
    return rho / np.real(np.trace(rho))


def steady_state_longtime(
    liouvillian: LiouvillianAction,
    rho0: np.ndarray,
    tol: float = 1e-8,
    max_time: float | None = None,
    rel_tol: float | None = None,
    abs_tol: float | None = None,
) -> SteadyStateResult:
    """Relax toward the steady state until ||drho/dt||_F <= tol * rate_scale.

    The per-chunk horizon grows geometrically, so critically slow
    points (a/b -> 1) fail fast with a :class:`ConvergenceError` once
    ``max_time`` (default 1e5 / rate_scale) is exhausted.  Integration
    tolerances default to a decade below the residual target; they are
    the accuracy floor the residual can reach.
    """
    scale = max(liouvillian.rate_scale, 1e-300)
    if max_time is None:
        max_time = 1e5 / scale
    if rel_tol is None:
        rel_tol = max(1e-12, tol / 10.0)
    if abs_tol is None:
        abs_tol = max(1e-14, tol / 100.0)
    rho = _check_rho0(rho0, liouvillian.dim)
    rhs = liouvillian.rhs_flat()
    elapsed = 0.0
    chunk = 2.0 / scale
    while True:
        res = float(np.linalg.norm(rhs(rho.reshape(-1, order="F"))))
        if res <= tol * scale:
            return SteadyStateResult(rho=rho, elapsed=elapsed, residual=res)
        if elapsed >= max_time:
            raise ConvergenceError(
                f"no steady state after t={elapsed:g} (residual {res:g} > {tol * scale:g}); "
                "expect relaxation to slow as (a/b - 1)^-2 near matched drive"
            )
        chunk = min(chunk * 1.5, max_time - elapsed, 64.0 / scale)
        traj = integrate(
            liouvillian,
            rho,
            np.array([0.0, chunk]),
            rel_tol=rel_tol,
            abs_tol=abs_tol,
        )
        rho = traj.final()
        elapsed += chunk


def spectral_gap(liouvillian: LiouvillianAction) -> float:
    """Smallest |Re lambda| over the nonzero eigenvalues of the generator.

    Its inverse is the slowest relaxation time.  Requires a
    materializable superoperator; raises on a degenerate zero mode.
    """
    w = np.linalg.eigvals(_dense_superop(liouvillian))
    scale = float(np.abs(w).max())
    zero = np.abs(w) <= _SEP_TOL * scale
    if int(zero.sum()) != 1:
        raise DegenerateSteadyState(
            f"expected exactly one zero eigenvalue, found {int(zero.sum())}"
        )
    return float(np.min(np.abs(w[~zero].real)))
