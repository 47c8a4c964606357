"""Cascaded two-qubit master equation and its analytic steady state.

Two atoms, each reduced to a qubit, sit in separate cavities coupled
unidirectionally (atom 1's output drives atom 2).  After eliminating
the cavity fields each atom is left with a single effective jump
operator

    R_i = (beta_r_i |0_i><1_i| + beta_s_i |1_i><0_i|) / sqrt(kappa_i),

and the density matrix evolves as

    drho/dt = sum_i D[R_i] rho
              - 2 sqrt(eps) ( [R_1 rho, R_2^+] + [R_2, rho R_1^+] ),

with the factor-2 dissipator convention

    D[c] rho = 2 c rho c+ - c+c rho - rho c+c.

``eps`` in [0, 1] is the intensity transmission between the cavities.

Basis convention (used everywhere downstream): each qubit is ordered
(|1>, |0>) and the joint basis is {|1 1>, |1 0>, |0 1>, |0 0>}.

Units: rates are used exactly as given, so the time unit is the
inverse of the rate unit.  The cavity-model bridge feeds angular rates
in rad/us here, making trajectory times microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import LiouvillianAction, liouvillian_from_operators
from .errors import DegenerateParams, DimensionMismatch, InvalidParams
from .linalg import TensorSpace, dagger, embed_at

#: Two-qubit space, each factor ordered (|1>, |0>).
TWO_QUBITS = TensorSpace((2, 2))

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |0><1|
SIGMA_PLUS = SIGMA_MINUS.conj().T                                # |1><0|

_IDX_11, _IDX_10, _IDX_01, _IDX_00 = 0, 1, 2, 3


@dataclass(frozen=True)
class ReducedParams:
    """Raman rates and cavity decays of the two-qubit model.

    beta_* are complex Raman coupling rates, kappa_* the cavity field
    decay rates (same rate unit), epsilon the coupling efficiency.
    """

    beta_r1: complex
    beta_s1: complex
    beta_r2: complex
    beta_s2: complex
    kappa1: float = 1.0
    kappa2: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        if not (self.kappa1 > 0 and self.kappa2 > 0):
            raise InvalidParams("cavity decay rates must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidParams(f"epsilon must lie in [0, 1], got {self.epsilon}")

    @property
    def rate_scale(self) -> float:
        """Total effective pump rate sum_i |R_i|^2, used for tolerances."""
        return float(
            (abs(self.beta_r1) ** 2 + abs(self.beta_s1) ** 2) / self.kappa1
            + (abs(self.beta_r2) ** 2 + abs(self.beta_s2) ** 2) / self.kappa2
        )


@dataclass(frozen=True)
class MatchedDrive:
    """Matched driving: beta_r_i = a sqrt(kappa_i), beta_s_i = b sqrt(kappa_i).

    With ``cross=True`` the roles of a and b are swapped on atom 2,
    which steers the steady state toward the psi Bell sector instead of
    the phi sector.
    """

    a: complex
    b: complex
    epsilon: float = 1.0
    cross: bool = False

    def __post_init__(self):
        if abs(self.a) ** 2 + abs(self.b) ** 2 <= 0.0:
            raise InvalidParams("need |a|^2 + |b|^2 > 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidParams(f"epsilon must lie in [0, 1], got {self.epsilon}")

    def params(self, kappa1: float = 1.0, kappa2: float = 1.0) -> ReducedParams:
        r2, s2 = (self.b, self.a) if self.cross else (self.a, self.b)
        return ReducedParams(
            beta_r1=self.a * np.sqrt(kappa1),
            beta_s1=self.b * np.sqrt(kappa1),
            beta_r2=r2 * np.sqrt(kappa2),
            beta_s2=s2 * np.sqrt(kappa2),
            kappa1=kappa1,
            kappa2=kappa2,
            epsilon=self.epsilon,
        )

    @classmethod
    def from_params(cls, p: ReducedParams) -> "MatchedDrive":
        """The standard matched drive behind ``p`` (inverse of :meth:`params`);
        raises :class:`InvalidParams` if atom 2's beta/sqrt(kappa) differ."""
        a, b = p.beta_r1 / np.sqrt(p.kappa1), p.beta_s1 / np.sqrt(p.kappa1)
        a2, b2 = p.beta_r2 / np.sqrt(p.kappa2), p.beta_s2 / np.sqrt(p.kappa2)
        if abs(a2 - a) + abs(b2 - b) > 1e-12 * (abs(a) + abs(b)):
            raise InvalidParams("the closed form needs a matched drive, beta_i proportional to sqrt(kappa_i); "
                                f"got beta/sqrt(kappa) = {a:.6g}, {b:.6g} and {a2:.6g}, {b2:.6g}")
        return cls(a, b, p.epsilon)


def jump_operators(p: ReducedParams):
    """The two effective jump operators R_1, R_2 on the joint space."""
    r1 = (p.beta_r1 * SIGMA_MINUS + p.beta_s1 * SIGMA_PLUS) / np.sqrt(p.kappa1)
    r2 = (p.beta_r2 * SIGMA_MINUS + p.beta_s2 * SIGMA_PLUS) / np.sqrt(p.kappa2)
    return embed_at(r1, 0, TWO_QUBITS).toarray(), embed_at(r2, 1, TWO_QUBITS).toarray()


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


def liouvillian_matrix(p: ReducedParams) -> np.ndarray:
    """The 16x16 superoperator L with unvec(L @ vec(rho)) == liouvillian_apply."""
    return liouvillian_action(p).meta["sparse_superop"].toarray()


def analytic_steady_state(m: MatchedDrive) -> np.ndarray:
    """Closed-form steady state of the matched-drive cascaded model.

    Returned in the basis {|1 1>, |1 0>, |0 1>, |0 0>}; only the
    populations and the (|1 1>,|0 0>) and (|1 0>,|0 1>) coherences are
    nonzero.  Raises :class:`DegenerateParams` at the critical point
    |a| = |b|, eps = 1 where the denominator vanishes and relaxation
    becomes arbitrarily slow.

    With ``cross=True`` atom 2's jump operator is X R_2 X (X swaps |0>
    and |1>), so the generator and its steady state are those of the
    standard drive conjugated by X on qubit 2.
    """
    if m.cross:
        flip = [_IDX_10, _IDX_11, _IDX_00, _IDX_01]
        return analytic_steady_state(replace(m, cross=False))[np.ix_(flip, flip)]
    a, b, eps = complex(m.a), complex(m.b), float(m.epsilon)
    x = abs(a) ** 2
    y = abs(b) ** 2
    denom = (x * x + y * y + 2.0 * (1.0 + 2.0 * eps - 4.0 * eps * eps) * x * y) * (x + y)
    if abs(denom) <= 1e-12 * (x + y) ** 3:
        raise DegenerateParams(
            f"steady state is degenerate at |a|={abs(a):g}, |b|={abs(b):g}, eps={eps:g}"
        )
    rho = np.zeros((4, 4), dtype=complex)
    rho[_IDX_11, _IDX_11] = (y**3 + (1 + eps - 4 * eps * eps) * x * y * y + eps * y * x * x) / denom
    rho[_IDX_10, _IDX_10] = x * y * (1 - eps) * (x + (1 + 4 * eps) * y) / denom
    rho[_IDX_01, _IDX_01] = x * y * (1 - eps) * (y + (1 + 4 * eps) * x) / denom
    rho[_IDX_00, _IDX_00] = (x**3 + eps * x * y * y + (1 + eps - 4 * eps * eps) * y * x * x) / denom
    r14 = np.sqrt(eps) * np.conj(a) * b * (x * x + (2 - 4 * eps) * x * y + y * y) / denom
    r23 = 2.0 * np.sqrt(eps) * (1 - eps) * x * y * (x + y) / denom
    rho[_IDX_11, _IDX_00] = r14
    rho[_IDX_00, _IDX_11] = np.conj(r14)
    rho[_IDX_10, _IDX_01] = r23
    rho[_IDX_01, _IDX_10] = np.conj(r23)
    return rho


def dark_state(a: complex, b: complex) -> np.ndarray:
    """The pure state (a|0 0> + b|1 1>) / sqrt(|a|^2 + |b|^2).

    In the matched configuration at eps = 1 it is annihilated by the
    collective jump sqrt(eps) R_1 - R_2 and is the unique steady state.
    """
    norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    if norm == 0.0:
        raise ValueError("need |a|^2 + |b|^2 > 0")
    psi = np.zeros(4, dtype=complex)
    psi[_IDX_00] = a / norm
    psi[_IDX_11] = b / norm
    return psi


def bell_states():
    """The four Bell states (phi+, phi-, psi+, psi-) as vectors."""
    s = 1.0 / np.sqrt(2.0)
    phi_p = np.zeros(4, dtype=complex); phi_p[[_IDX_00, _IDX_11]] = s
    phi_m = np.zeros(4, dtype=complex); phi_m[_IDX_00] = s; phi_m[_IDX_11] = -s
    psi_p = np.zeros(4, dtype=complex); psi_p[[_IDX_01, _IDX_10]] = s
    psi_m = np.zeros(4, dtype=complex); psi_m[_IDX_01] = s; psi_m[_IDX_10] = -s
    return phi_p, phi_m, psi_p, psi_m


def cascade_decomposition(p: ReducedParams):
    """Rewrite the generator as one collective channel plus a residual.

    Returns ``(J, J_res, H_c)`` with J = sqrt(eps) R_1 - R_2, residual
    jump J_res = sqrt(1 - eps) R_1 and cascade Hamiltonian
    H_c = i sqrt(eps) (R_2+ R_1 - R_1+ R_2), such that

        -i[H_c, rho] + D[J] rho + D[J_res] rho

    reproduces :func:`liouvillian_apply` identically.
    """
    r1, r2 = jump_operators(p)
    se = np.sqrt(p.epsilon)
    j = se * r1 - r2
    j_res = np.sqrt(max(0.0, 1.0 - p.epsilon)) * r1
    h_c = 1j * se * (dagger(r2) @ r1 - dagger(r1) @ r2)
    return j, j_res, h_c


def output_flux_operator(p: ReducedParams) -> np.ndarray:
    """Photon-flux operator of the cascaded output, 2 J+ J.

    Expectation values are the mean escaping photon rate in the
    inverse-time unit of the rates (photons/us for angular rad/us).
    """
    j, _, _ = cascade_decomposition(p)
    return 2.0 * dagger(j) @ j


def initial_ground_state() -> np.ndarray:
    """|0 0><0 0|, the experiment's initial atomic state."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[_IDX_00, _IDX_00] = 1.0
    return rho


def liouvillian_action(p: ReducedParams) -> LiouvillianAction:
    """The reduced generator in the operator form shared by every tier.

    No Hamiltonian, the dissipators D[R_1] and D[R_2], and the cascade
    with q = -2 sqrt(eps): the terms of :func:`liouvillian_apply`.  Both
    jumps flip one qubit, so the parity pi_1 pi_2 (- on |1>) is a weak
    symmetry.
    """
    r1, r2 = jump_operators(p)
    qubit_parity = np.array([-1.0, 1.0])
    return liouvillian_from_operators(
        np.zeros((4, 4), dtype=complex),
        [(1.0, r1), (1.0, r2)],
        (-2.0 * np.sqrt(p.epsilon), r1, r2),
        rate_scale=p.rate_scale,
        meta={"tier": "reduced", "parity": np.kron(qubit_parity, qubit_parity)},
    )
