"""Reference statements of the package's models and metrics, for tests.

The package states each model and metric once.  The tests compare it
with what is here:

* :func:`fef_oracle` -- a sampling lower bound on the fully entangled
  fraction, against the closed form :func:`casqed.metrics.fef_fidelity`;
* :func:`liouvillian_apply` -- the cascaded two-qubit master equation
  written out by hand, against the operator-form generator
  :func:`casqed.reduced.liouvillian_action`;
* :func:`liouvillian_matrix` -- that generator as a dense 16 x 16 matrix
  on column-stacked states (:func:`vec_stack`), for eigenvalues and
  ``expm`` references;
* :func:`analytic_reference` -- the closed-form steady state taken drive
  by drive in Python floats, the bit reference of the array pass
  :func:`casqed.reduced.analytic_steady_state`.

If an oracle and the package ever disagree beyond tolerance, trust the
oracle and investigate; do not patch either one.
"""

from __future__ import annotations

import math

import numpy as np

from casqed.errors import DegenerateParams, DimensionMismatch
from casqed.linalg import asmatrix, dagger, hermitian_eigen
from casqed.metrics import _validated
from casqed.reduced import ReducedParams, jump_operators, liouvillian_action

# ---------------------------------------------------------------------------
# fully entangled fraction by sampling
# ---------------------------------------------------------------------------


def _haar_su2(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def _phi_plus() -> np.ndarray:
    # (|0 0> + |1 1>) / sqrt(2) in the joint basis {|1 1>, |1 0>, |0 1>, |0 0>}
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _overlap(rho, u) -> float:
    phi = np.kron(u, np.eye(2)) @ _phi_plus()
    return float(np.real(np.conj(phi) @ rho @ phi))


def fef_oracle(rho, samples: int = 10_000, seed: int = 0) -> float:
    """Lower-bound estimate of the fully entangled fraction by sampling.

    Maximizes <phi_U|rho|phi_U> over |phi_U> = (U x I)|phi+> for
    ``samples`` Haar-random single-qubit unitaries, then refines the
    best candidate with a shrinking random local search.  Every
    candidate is a valid maximally entangled state, so the result never
    exceeds the true maximum.  Deterministic for a given seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rho = _validated(rho, dim=4)
    rng = np.random.default_rng(seed)
    best_u = np.eye(2, dtype=complex)
    best = _overlap(rho, best_u)
    for _ in range(samples):
        u = _haar_su2(rng)
        val = _overlap(rho, u)
        if val > best:
            best, best_u = val, u
    # local refinement: random small rotations with decaying step size
    step = 0.3
    for _ in range(400):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + dagger(h)) / 2.0
        w, v = hermitian_eigen(h)
        g = v @ np.diag(np.exp(1j * step * w)) @ dagger(v)
        cand = g @ best_u
        val = _overlap(rho, cand)
        if val > best:
            best, best_u = val, cand
        else:
            step *= 0.97
    return best


# ---------------------------------------------------------------------------
# the reduced generator by hand
# ---------------------------------------------------------------------------


def _dissipator(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    cd = dagger(c)
    cdc = cd @ c
    return 2.0 * (c @ rho @ cd) - cdc @ rho - rho @ cdc


def liouvillian_apply(p: ReducedParams, rho: np.ndarray) -> np.ndarray:
    """Right-hand side rho -> drho/dt of the cascaded master equation."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 state, got {rho.shape}")
    r1, r2 = jump_operators(p)
    out = _dissipator(r1, rho) + _dissipator(r2, rho)
    r1d, r2d = dagger(r1), dagger(r2)
    # cascaded coupling: -2 sqrt(eps) ([R1 rho, R2+] + [R2, rho R1+])
    t1 = r1 @ rho @ r2d - r2d @ r1 @ rho
    t2 = r2 @ rho @ r1d - rho @ r1d @ r2
    out -= 2.0 * np.sqrt(p.epsilon) * (t1 + t2)
    return out


def vec_stack(rho: np.ndarray) -> np.ndarray:
    """Column-stack a square matrix into a vector (inverse of
    :func:`casqed.linalg.unvec`)."""
    rho = asmatrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch("vec_stack needs a square matrix")
    return rho.reshape(-1, order="F")


def liouvillian_matrix(p: ReducedParams) -> np.ndarray:
    """The 16x16 superoperator L with unvec(L @ vec(rho)) == liouvillian_apply."""
    return liouvillian_action(p).meta["sparse_superop"].toarray()


# ---------------------------------------------------------------------------
# the closed form, drive by drive
# ---------------------------------------------------------------------------


def _scaled(a: complex, b: complex):
    """(a, b), or, when max(|a|, |b|) lies outside [2^-128, 2^128],
    (a, b) times the power of two that brings it into [1/2, 1)."""
    m = max(abs(a), abs(b))
    if 2.0**-128 <= m <= 2.0**128:
        return a, b
    s = 2.0 ** -math.frexp(m)[1]
    return a * s, b * s


def analytic_reference(drives) -> np.ndarray:
    """(n, 4, 4) closed-form steady states of a sequence of matched drives.

    |a|^2, |b|^2, their cubes and sqrt(eps) a* b are taken per drive in
    Python floats (``abs`` of a complex is the C library's hypot; powers
    are products), the rest elementwise on float arrays, where every
    operation is one IEEE rounding.  Raises :class:`DegenerateParams`
    naming the first drive at which the denominator vanishes.
    """
    drives = list(drives)
    eps = np.array([d.epsilon for d in drives], dtype=float)
    scaled = [_scaled(complex(d.a), complex(d.b)) for d in drives]
    xs = [abs(a) * abs(a) for a, _ in scaled]
    ys = [abs(b) * abs(b) for _, b in scaled]
    x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
    x3 = np.array([v * v * v for v in xs], dtype=float)
    y3 = np.array([v * v * v for v in ys], dtype=float)
    ab = np.array([math.sqrt(d.epsilon) * a.conjugate() * b for d, (a, b) in zip(drives, scaled)],
                  dtype=complex)
    denom = (x * x + y * y + 2.0 * (1.0 + 2.0 * eps - 4.0 * eps * eps) * x * y) * (x + y)
    degenerate = np.flatnonzero(np.abs(denom) <= 1e-12 * (x + y) ** 3)
    if degenerate.size:
        d = drives[degenerate[0]]
        raise DegenerateParams(
            f"steady state is degenerate at |a|={abs(d.a):g}, |b|={abs(d.b):g}, eps={d.epsilon:g}"
        )
    rho = np.zeros((len(drives), 4, 4), dtype=complex)
    rho[:, 0, 0] = (y3 + (1 + eps - 4 * eps * eps) * x * y * y + eps * y * x * x) / denom
    rho[:, 1, 1] = x * y * (1 - eps) * (x + (1 + 4 * eps) * y) / denom
    rho[:, 2, 2] = x * y * (1 - eps) * (y + (1 + 4 * eps) * x) / denom
    rho[:, 3, 3] = (x3 + eps * x * y * y + (1 + eps - 4 * eps * eps) * y * x * x) / denom
    r14 = ab * (x * x + (2 - 4 * eps) * x * y + y * y) / denom
    r23 = 2.0 * np.sqrt(eps) * (1 - eps) * x * y * (x + y) / denom
    rho[:, 0, 3] = r14
    rho[:, 3, 0] = np.conj(r14)
    rho[:, 1, 2] = r23
    rho[:, 2, 1] = np.conj(r23)
    cross = np.array([d.cross for d in drives], dtype=bool)
    if cross.any():
        flip = [1, 0, 3, 2]   # X on qubit 2: |1 1> <-> |1 0>, |0 1> <-> |0 0>
        rho[cross] = rho[cross][:, flip][:, :, flip]
    return rho
