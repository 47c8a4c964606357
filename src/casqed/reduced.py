"""Cascaded two-qubit master equation and its analytic steady state.

Two atoms, each reduced to a qubit, sit in separate cavities coupled
unidirectionally (atom 1's output drives atom 2).  After eliminating
the cavity fields each atom is left with a single effective jump
operator

    R_i = r_i |0_i><1_i| + s_i |1_i><0_i| = r_i sigma- + s_i sigma+,

with complex amplitudes r_i, s_i (:class:`ReducedParams`), and the
density matrix evolves as

    drho/dt = sum_i D[R_i] rho
              - 2 sqrt(eps) ( [R_1 rho, R_2^+] + [R_2, rho R_1^+] ),

with the factor-2 dissipator convention

    D[c] rho = 2 c rho c+ - c+c rho - rho c+c.

``eps`` in [0, 1] is the intensity transmission between the cavities.
The master equation holds the amplitudes alone: the cavity decay rates
enter only through them (:func:`casqed.cavity.reduced_params`).

Basis convention (used everywhere downstream): each qubit is ordered
(|1>, |0>) and the joint basis is {|1 1>, |1 0>, |0 1>, |0 0>}.

Units: |r_i|^2 and |s_i|^2 are rates, used exactly as given, so the
time unit is the inverse of the rate unit.  The cavity-model bridge
feeds amplitudes in sqrt(rad/us) here, making trajectory times
microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import LiouvillianAction, liouvillian_from_operators
from .errors import DegenerateParams, InvalidParams
from .linalg import TensorSpace, dagger, embed_at

#: Two-qubit space, each factor ordered (|1>, |0>).
TWO_QUBITS = TensorSpace((2, 2))

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |0><1|
SIGMA_PLUS = SIGMA_MINUS.conj().T                                # |1><0|

_IDX_11, _IDX_10, _IDX_01, _IDX_00 = 0, 1, 2, 3


def finite_abs2(name: str, z) -> float:
    """|z|^2 of the amplitude ``name``; :class:`InvalidParams` when it is
    not a finite float.  Squared by ``*``, which overflows to inf where
    Python's float ``**`` raises OverflowError.  ``abs`` of a complex is
    the C library's hypot, as in :func:`_abs2`."""
    r = abs(complex(z))
    if not math.isfinite(r * r):
        raise InvalidParams(f"{name} = {z:g}: its squared modulus is not a finite float")
    return r * r


@dataclass(frozen=True)
class ReducedParams:
    """Jump amplitudes of the two-qubit model: R_i = r_i sigma- + s_i sigma+.

    r_i and s_i are complex, in the square root of the rate unit;
    epsilon is the coupling efficiency.
    """

    r1: complex
    s1: complex
    r2: complex
    s2: complex
    epsilon: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidParams(f"epsilon must lie in [0, 1], got {self.epsilon}")
        for name in ("r1", "s1", "r2", "s2"):
            finite_abs2(name, getattr(self, name))

    @property
    def rate_scale(self) -> float:
        """Total effective pump rate |r_1|^2 + |s_1|^2 + |r_2|^2 + |s_2|^2,
        used for tolerances."""
        return float(abs(self.r1) ** 2 + abs(self.s1) ** 2 + abs(self.r2) ** 2 + abs(self.s2) ** 2)


def _check_drives(a, b, epsilon) -> None:
    """Raise :class:`InvalidParams` unless every drive (a[i], b[i],
    epsilon[i]) of the 1-d arrays is valid: |a|^2 and |b|^2 finite floats
    (squared by ``*``, which overflows to inf), |a|^2 + |b|^2 > 0 and
    epsilon in [0, 1].  The message names the first drive that fails, and
    in it the first check that fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = _abs2(a.real, a.imag), _abs2(b.real, b.imag)
    # "not": a NaN fails every check
    bad = ~(np.isfinite(x) & np.isfinite(y) & (x + y > 0.0) & (0.0 <= epsilon) & (epsilon <= 1.0))
    if not bad.any():
        return
    i = int(np.argmax(bad))
    finite_abs2("a", a[i])
    finite_abs2("b", b[i])
    if not x[i] + y[i] > 0.0:
        raise InvalidParams("need |a|^2 + |b|^2 > 0")
    raise InvalidParams(f"epsilon must lie in [0, 1], got {epsilon[i]}")


def _abs2(re, im) -> np.ndarray:
    """|re + i im|^2 with the bits of Python's ``abs(z) * abs(z)``:
    ``np.hypot`` is the C library's hypot, which ``abs`` of a complex calls,
    while ``np.abs`` on a complex array may round the last bit differently."""
    r = np.hypot(re, im)
    return r * r


@dataclass(frozen=True)
class MatchedDrive:
    """Matched driving: both atoms have the jump amplitudes r_i = a, s_i = b.

    With ``cross=True`` the roles of a and b are swapped on atom 2,
    which steers the steady state toward the psi Bell sector instead of
    the phi sector.

    Scalar fields hold one drive.  Where any argument is an array the
    fields hold n drives, broadcast to one 1-d length: drive i is
    (a[i], b[i], epsilon[i], cross[i]).  Construction checks every drive,
    and the first invalid one raises the error it raises alone.  ``len``
    is n.
    """

    a: complex
    b: complex
    epsilon: float = 1.0
    cross: bool = False

    def __post_init__(self):
        fields = np.broadcast_arrays(*_arrays(self))
        _check_drives(*fields[:3])
        if any(np.ndim(v) for v in (self.a, self.b, self.epsilon, self.cross)):
            for name, value in zip(("a", "b", "epsilon", "cross"), fields):
                object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return np.size(self.epsilon)

    def params(self) -> ReducedParams:
        """The jump amplitudes of one drive."""
        r2, s2 = (self.b, self.a) if self.cross else (self.a, self.b)
        return ReducedParams(self.a, self.b, r2, s2, epsilon=self.epsilon)


def _arrays(m: MatchedDrive) -> list:
    """The fields of ``m`` as 1-d arrays: epsilon float, cross bool."""
    return np.atleast_1d(m.a, m.b, np.asarray(m.epsilon, dtype=float), np.asarray(m.cross, dtype=bool))


def matched_amplitudes(p: ReducedParams):
    """(a, b) = (r_1, s_1) of the standard matched drive behind ``p``;
    raises :class:`InvalidParams` if atom 2's amplitudes differ."""
    a, b = p.r1, p.s1
    if abs(p.r2 - a) + abs(p.s2 - b) > 1e-12 * (abs(a) + abs(b)):
        raise InvalidParams("the closed form needs a matched drive, r_2 = r_1 and s_2 = s_1; "
                            f"got r_1, s_1 = {a:.6g}, {b:.6g} and r_2, s_2 = {p.r2:.6g}, {p.s2:.6g}")
    return a, b


def jump_operators(p: ReducedParams):
    """The two effective jump operators R_1, R_2 on the joint space."""
    r1 = p.r1 * SIGMA_MINUS + p.s1 * SIGMA_PLUS
    r2 = p.r2 * SIGMA_MINUS + p.s2 * SIGMA_PLUS
    return embed_at(r1, 0, TWO_QUBITS).toarray(), embed_at(r2, 1, TWO_QUBITS).toarray()


def _scaled(re_a, im_a, re_b, im_b):
    """The parts of (a, b), times the power of two that brings
    m = max(|a|, |b|) into [1/2, 1) where m lies outside [2^-128, 2^128]
    and |a|^6 could leave the float range.  Drives inside are multiplied
    by 1.0, which changes no bit; a power of two is exact in the products
    the closed form takes, so the rescale changes no bit inside either.
    """
    m = np.maximum(np.hypot(re_a, im_a), np.hypot(re_b, im_b))
    outside = (m < 2.0**-128) | (m > 2.0**128)
    s = np.where(outside, np.ldexp(1.0, -np.frexp(m)[1]), 1.0)
    return re_a * s, im_a * s, re_b * s, im_b * s


def analytic_steady_state(m: MatchedDrive) -> np.ndarray:
    """Closed-form steady state of the matched-drive cascaded model.

    A (4, 4) state for one drive in ``m``; for n drives an (n, 4, 4) stack
    with the state of drive i at index i.  One numpy pass over the drive
    arrays evaluates the formula for every drive; one drive is the case
    n = 1.

    Returned in the basis {|1 1>, |1 0>, |0 1>, |0 0>}; only the
    populations and the (|1 1>,|0 0>) and (|1 0>,|0 1>) coherences are
    nonzero.  Raises :class:`DegenerateParams`, naming the first such
    drive, at the critical point |a| = |b|, eps = 1 where the denominator
    vanishes and relaxation becomes arbitrarily slow.

    With ``cross=True`` atom 2's jump operator is X R_2 X (X swaps |0>
    and |1>), so the generator and its steady state are those of the
    standard drive conjugated by X on qubit 2.

    Bits: each state is, bit for bit, that of Python-float arithmetic on
    its drive alone (``analytic_reference`` in ``tests/oracles.py``), so
    it depends neither on the block a drive is in nor on the CPU's SIMD
    width.  |a|^2 is ``np.hypot`` of the parts, squared: hypot is the C
    library's, which Python's ``abs(complex)`` calls, while ``np.abs`` on
    complex arrays rounds the last bit differently in over a third of
    random cases.  sqrt(eps) conj(a) b is written as real products in the
    order Python evaluates it, (sqrt(eps) conj(a)) b, for numpy's complex
    product (SIMD, fused multiply-adds) rounds differently in over a third
    of cases too.  Powers are products: ``**`` calls the C library's pow,
    which is not correctly rounded.  The power-of-two rescale of drives
    far from 1 is taken with ``np.frexp``, as the reference takes it.
    """
    a, b, eps, cross = _arrays(m)
    # the formula is homogeneous in (a, b): it depends on a/b only
    ar, ai, br, bi = _scaled(a.real, a.imag, b.real, b.imag)
    x, y = _abs2(ar, ai), _abs2(br, bi)
    x3, y3 = x * x * x, y * y * y
    se = np.sqrt(eps)
    tr, ti = se * ar, se * -ai          # sqrt(eps) conj(a)
    ab = np.empty(len(eps), dtype=complex)
    ab.real = tr * br - ti * bi         # ... times b
    ab.imag = tr * bi + ti * br
    denom = (x * x + y * y + 2.0 * (1.0 + 2.0 * eps - 4.0 * eps * eps) * x * y) * (x + y)
    degenerate = np.flatnonzero(np.abs(denom) <= 1e-12 * (x + y) ** 3)
    if degenerate.size:
        i = degenerate[0]
        raise DegenerateParams(
            f"steady state is degenerate at |a|={np.hypot(a.real[i], a.imag[i]):g}, "
            f"|b|={np.hypot(b.real[i], b.imag[i]):g}, eps={eps[i]:g}"
        )
    rho = np.zeros((len(eps), 4, 4), dtype=complex)
    rho[:, _IDX_11, _IDX_11] = (y3 + (1 + eps - 4 * eps * eps) * x * y * y + eps * y * x * x) / denom
    rho[:, _IDX_10, _IDX_10] = x * y * (1 - eps) * (x + (1 + 4 * eps) * y) / denom
    rho[:, _IDX_01, _IDX_01] = x * y * (1 - eps) * (y + (1 + 4 * eps) * x) / denom
    rho[:, _IDX_00, _IDX_00] = (x3 + eps * x * y * y + (1 + eps - 4 * eps * eps) * y * x * x) / denom
    r14 = ab * (x * x + (2 - 4 * eps) * x * y + y * y) / denom
    r23 = 2.0 * se * (1 - eps) * x * y * (x + y) / denom
    rho[:, _IDX_11, _IDX_00] = r14
    rho[:, _IDX_00, _IDX_11] = np.conj(r14)
    rho[:, _IDX_10, _IDX_01] = r23
    rho[:, _IDX_01, _IDX_10] = np.conj(r23)
    if cross.any():
        flip = [_IDX_10, _IDX_11, _IDX_00, _IDX_01]
        rho[cross] = rho[cross][:, flip][:, :, flip]
    return rho if np.ndim(m.epsilon) else rho[0]


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

    reproduces the master equation in the module docstring identically.
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
    with q = -2 sqrt(eps): the terms of the module docstring.  Both
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
        meta={"parity": np.kron(qubit_parity, qubit_parity)},
    )
