"""Cavity-level models: effective two-level atoms and full five-level atoms.

Physical picture
----------------
Each atom has qubit ground states |0>, |1> (splitting omega_1) and
excited states |r>, |s>, |t>.  Lasers drive |1>-|r>, |0>-|s> and
|0>-|t| with Rabi frequencies Omega_r, Omega_s, Omega_t; the cavity
mode couples |0>-|r> and |1>-|s> with strengths g_r, g_s.  Two such
cavities are chained unidirectionally (cavity 1's output drives cavity
2 with intensity efficiency epsilon).

Detuning convention: Delta_j > 0 means the driving field lies above
its transition, i.e. Delta_r = omega_Lr - (omega_r - omega_1),
Delta_s = omega_Ls - omega_s, Delta_t = omega_Lt - omega_t.  Under
this sign choice the second-order light shift of a ground level is
+|Omega|^2 / (4 Delta) and the photon-number shift is +g^2/Delta, so
the compensation prescription below cancels them exactly.

Rotating frame
--------------
All builders work in the frame generated by

    W = sum_i [ w_1 |1_i><1_i| + w_r |r_i><r_i| + w_s |s_i><s_i|
                + w_t |t_i><t_i| ] + w_cav sum_i a_i+ a_i,

    w_1 = (omega_Ls - omega_Lr) / 2,   w_cav = (omega_Ls + omega_Lr) / 2,
    w_r = w_cav,  w_s = omega_Ls,  w_t = omega_Lt.

This is the unique level-diagonal frame that removes every drive
phase, and it does so for *any* laser frequencies, leaving the static
offsets

    delta_1 = omega_1 - w_1          (on |1>),
    delta_c = omega_cav - w_cav      (per photon),

and excited levels at delta_1 - Delta_r, -Delta_s, -Delta_t.

Balance modes
-------------
``raman_resonant``: lasers are retuned to two-photon resonance
(omega_cav - omega_Lr = omega_Ls - omega_cav = omega_1) and Omega_t is
set so the differential light shift vanishes:
alpha_r - alpha_s - alpha_t = 0.  Photon-dependent shifts eta remain.

``compensated``: laser frequencies are kept, the cavity is retuned to
omega_cav = (omega_Ls + omega_Lr)/2 - eta (requires eta_r == eta_s),
and Omega_t is set so alpha_r - alpha_s - alpha_t equals
(omega_Ls - omega_Lr)/2 - omega_1.  Both the differential light shift
and the photon-dependent shift then cancel in the rotating frame.

Units: parameter fields hold ordinary frequencies in MHz (the numbers
quoted as "2 pi x MHz"); generators multiply by 2 pi, so rates are
rad/us and times are us.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, InfeasibleBalance, InvalidParams, UnbalancedShifts
from .dynamics import LiouvillianAction, liouvillian_from_operators
from .linalg import TensorSpace, dagger, embed_at, partial_trace
from .reduced import ReducedParams

TWO_PI = 2.0 * np.pi

# five-level ordering (matches the qubit ordering (|1>, |0>) downstream)
LVL_1, LVL_0, LVL_R, LVL_S, LVL_T = 0, 1, 2, 3, 4

#: atomic parity of each level in that ordering: - on |1> and |r>
_ATOM_PARITY = np.array([-1.0, 1.0, -1.0, 1.0, 1.0])

_DETUNING_RATIO_WARN = 20.0
_DETUNINGS = ("Delta_r", "Delta_s", "Delta_t")
_COUPLINGS = ("Omega_r1", "Omega_s1", "Omega_t1", "Omega_r2", "Omega_s2", "Omega_t2",
              "g_r", "g_s", "kappa1", "kappa2", "gamma_r", "gamma_s", "gamma_t")


@dataclass(frozen=True)
class PhysicalParams:
    """Raw cavity-QED parameters; frequencies in MHz (2 pi x MHz rates).

    Laser and cavity frequencies are offsets from an arbitrary common
    reference; only their differences enter the dynamics.
    """

    g_r: float
    g_s: float
    kappa1: float
    kappa2: float
    gamma_r: float
    gamma_s: float
    gamma_t: float
    Delta_r: float
    Delta_s: float
    Delta_t: float
    Omega_r1: complex
    Omega_s1: complex
    Omega_t1: complex
    Omega_r2: complex
    Omega_s2: complex
    Omega_t2: complex
    omega_1: float
    omega_cav: float
    omega_Lr: float
    omega_Ls: float
    omega_Lt: float
    epsilon: float

    def __post_init__(self):
        if not (self.kappa1 > 0 and self.kappa2 > 0):
            raise InvalidParams("cavity decay rates must be positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidParams(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.Delta_r == 0 or self.Delta_s == 0 or self.Delta_t == 0:
            raise InvalidParams("detunings must be nonzero")
        if min(self.gamma_r, self.gamma_s, self.gamma_t) < 0:
            raise InvalidParams("linewidths must be non-negative")

    @classmethod
    def symmetric(
        cls,
        g: float,
        kappa: float,
        gamma: float,
        Delta: float,
        Omega_r: complex,
        Omega_s: complex,
        epsilon: float,
        omega_1: float = 100.0,
    ) -> "PhysicalParams":
        """Single (g, kappa, gamma, Delta) set, equal for both atoms.

        Lasers start on two-photon resonance around omega_cav = 0 and
        Omega_t is 0; run :func:`stark_balance` afterwards to fix Omega_t
        (and, in compensated mode, the cavity frequency).
        """
        return cls(
            g_r=g, g_s=g, kappa1=kappa, kappa2=kappa,
            gamma_r=gamma, gamma_s=gamma, gamma_t=gamma,
            Delta_r=Delta, Delta_s=Delta, Delta_t=Delta,
            Omega_r1=Omega_r, Omega_s1=Omega_s, Omega_t1=0.0,
            Omega_r2=Omega_r, Omega_s2=Omega_s, Omega_t2=0.0,
            omega_1=omega_1, omega_cav=0.0,
            omega_Lr=-omega_1, omega_Ls=+omega_1, omega_Lt=0.0,
            epsilon=epsilon,
        )


@dataclass(frozen=True)
class DerivedParams:
    """Second-order parameters of the two-level reduction (MHz).

    beta: Raman rates g_k Omega_ki / (2 Delta_k); alpha: laser light
    shifts |Omega|^2/(4 Delta); eta: photon shifts g^2/Delta.
    """

    beta_r: tuple
    beta_s: tuple
    alpha_r: tuple
    alpha_s: tuple
    alpha_t: tuple
    eta_r: float
    eta_s: float


def derive_params(p: PhysicalParams) -> DerivedParams:
    om_r = (p.Omega_r1, p.Omega_r2)
    om_s = (p.Omega_s1, p.Omega_s2)
    om_t = (p.Omega_t1, p.Omega_t2)
    return DerivedParams(
        beta_r=tuple(p.g_r * o / (2.0 * p.Delta_r) for o in om_r),
        beta_s=tuple(p.g_s * o / (2.0 * p.Delta_s) for o in om_s),
        alpha_r=tuple(abs(o) ** 2 / (4.0 * p.Delta_r) for o in om_r),
        alpha_s=tuple(abs(o) ** 2 / (4.0 * p.Delta_s) for o in om_s),
        alpha_t=tuple(abs(o) ** 2 / (4.0 * p.Delta_t) for o in om_t),
        eta_r=p.g_r ** 2 / p.Delta_r,
        eta_s=p.g_s ** 2 / p.Delta_s,
    )


def reduced_params(p: PhysicalParams) -> ReducedParams:
    """Bridge to the two-qubit model, in angular units (rad/us)."""
    d = derive_params(p)
    return ReducedParams(
        beta_r1=TWO_PI * d.beta_r[0],
        beta_s1=TWO_PI * d.beta_s[0],
        beta_r2=TWO_PI * d.beta_r[1],
        beta_s2=TWO_PI * d.beta_s[1],
        kappa1=TWO_PI * p.kappa1,
        kappa2=TWO_PI * p.kappa2,
        epsilon=p.epsilon,
    )


def _frame_offsets(p: PhysicalParams):
    w1 = 0.5 * (p.omega_Ls - p.omega_Lr)
    wcav = 0.5 * (p.omega_Ls + p.omega_Lr)
    delta_1 = p.omega_1 - w1
    delta_c = p.omega_cav - wcav
    return delta_1, delta_c


def stark_balance(p: PhysicalParams, mode: str = "compensated") -> PhysicalParams:
    """Retune Omega_t (and frequencies) so residual level shifts cancel.

    ``raman_resonant``: lasers are placed on two-photon resonance
    around the given cavity frequency and Omega_t_i solves
    alpha_r_i - alpha_s_i - alpha_t_i = 0.

    ``compensated``: laser frequencies stay, the cavity is retuned by
    -eta, and Omega_t_i solves alpha_r_i - alpha_s_i - alpha_t_i =
    (omega_Ls - omega_Lr)/2 - omega_1.

    Raises :class:`InfeasibleBalance` when the required alpha_t has the
    wrong sign for Delta_t, or when eta_r != eta_s in compensated mode.
    Warns, naming the caller, when the balanced point lies outside the
    large-detuning regime: its smallest detuning is less than 20 times its
    largest coupling or rate.
    """
    d = derive_params(p)   # frequencies do not enter it
    if mode == "raman_resonant":
        frame = {"omega_Lr": p.omega_cav - p.omega_1, "omega_Ls": p.omega_cav + p.omega_1}
        target = 0.0
    elif mode == "compensated":
        if abs(d.eta_r - d.eta_s) > 1e-9 * max(abs(d.eta_r), abs(d.eta_s), 1.0):
            raise InfeasibleBalance(
                f"compensated mode needs eta_r == eta_s, got {d.eta_r:g} vs {d.eta_s:g}"
            )
        frame = {"omega_cav": 0.5 * (p.omega_Ls + p.omega_Lr) - d.eta_r}
        target = 0.5 * (p.omega_Ls - p.omega_Lr) - p.omega_1
    else:
        raise ValueError(f"unknown balance mode {mode!r}")

    omegas_t = []
    for i in range(2):
        alpha_t_needed = d.alpha_r[i] - d.alpha_s[i] - target
        if alpha_t_needed == 0.0:
            omegas_t.append(0.0)
            continue
        if alpha_t_needed * p.Delta_t < 0:
            raise InfeasibleBalance(
                f"atom {i + 1}: required alpha_t = {alpha_t_needed:g} MHz is unreachable "
                f"with Delta_t = {p.Delta_t:g} MHz (sign mismatch)"
            )
        omegas_t.append(float(np.sqrt(4.0 * p.Delta_t * alpha_t_needed)))
    p = replace(p, **frame, Omega_t1=omegas_t[0], Omega_t2=omegas_t[1])
    name_d, delta = min(((n, abs(getattr(p, n))) for n in _DETUNINGS), key=lambda x: x[1])
    name_c, coupling = max(((n, abs(getattr(p, n))) for n in _COUPLINGS), key=lambda x: x[1])
    if delta < _DETUNING_RATIO_WARN * coupling:
        warnings.warn(
            f"smallest detuning |{name_d}| = {delta:g} MHz is only {delta / coupling:.1f} "
            f"times the largest coupling |{name_c}| = {coupling:g} MHz "
            f"(< {_DETUNING_RATIO_WARN:g}): "
            "outside the large-detuning regime the two-level reduction assumes",
            stacklevel=2,
        )
    return p


def balance_residuals(p: PhysicalParams):
    """Per-atom differential ground shift in the rotating frame (MHz)."""
    d = derive_params(p)
    delta_1, _ = _frame_offsets(p)
    return tuple(
        delta_1 + d.alpha_r[i] - d.alpha_s[i] - d.alpha_t[i] for i in range(2)
    )


@dataclass(frozen=True)
class ModelSpace:
    """Truncated simulation space: two atoms and two field modes.

    ``fock_cutoff`` is the largest retained photon number (states
    0..fock_cutoff per mode).
    """

    atom_levels: int
    fock_cutoff: int

    def __post_init__(self):
        if self.atom_levels not in (2, 5):
            raise DimensionMismatch("atom_levels must be 2 or 5")
        if self.fock_cutoff < 1:
            raise DimensionMismatch("fock_cutoff must be >= 1")

    @property
    def nph(self) -> int:
        return self.fock_cutoff + 1

    @property
    def tensor_space(self) -> TensorSpace:
        n = self.nph
        return TensorSpace((self.atom_levels, self.atom_levels, n, n))

    @property
    def dim(self) -> int:
        return self.atom_levels ** 2 * self.nph ** 2

    @property
    def parity(self) -> np.ndarray:
        """P = (-1)^(n1 + n2) pi1 pi2 on each basis state (+-1 vector).

        Every coupling of both tiers flips the atomic parity and the photon
        number together, and every jump flips or keeps P, so P is a weak
        symmetry of the generators (checked when they are built).
        """
        atom = _ATOM_PARITY[: self.atom_levels]
        photon = (-1.0) ** np.arange(self.nph)
        return np.kron(np.kron(atom, atom), np.kron(photon, photon))


# ---------------------------------------------------------------------------
# sparse operator helpers
# ---------------------------------------------------------------------------

def _sp_destroy(n: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, n)), 1, format="csr", dtype=complex)


def _sp_unit(n: int, i: int, j: int) -> sp.csr_matrix:
    return sp.csr_matrix(([1.0 + 0j], ([i], [j])), shape=(n, n))


def _cavity_channels(p: PhysicalParams, a1, a2):
    d2 = [(TWO_PI * p.kappa1, a1), (TWO_PI * p.kappa2, a2)]
    cascade = (2.0 * TWO_PI * np.sqrt(p.epsilon * p.kappa1 * p.kappa2), a1, a2)
    return d2, cascade


_BALANCE_TOL = 1e-9


def build_effective_liouvillian(p: PhysicalParams, space: ModelSpace) -> LiouvillianAction:
    """Two-level atoms exchanging excitation with their cavity modes.

    Per atom: Raman couplings beta_r (a+ |0><1| + h.c.) and
    beta_s (a+ |1><0| + h.c.), the residual frame and light shifts, and
    cascaded cavity damping.  Requires stark-balanced parameters: the
    differential qubit shift must vanish to 1e-9 (relative).
    """
    if space.atom_levels != 2:
        raise DimensionMismatch("effective model runs on 2-level atoms")
    d = derive_params(p)
    delta_1, delta_c = _frame_offsets(p)

    res = balance_residuals(p)
    scale = max(1.0, *(abs(x) for x in (d.alpha_r + d.alpha_s + d.alpha_t)), abs(p.omega_1))
    for i, r in enumerate(res):
        if abs(r) > _BALANCE_TOL * scale:
            raise UnbalancedShifts(
                f"atom {i + 1}: differential ground shift {r:g} MHz; run stark_balance first"
            )

    ts = space.tensor_space
    n = space.nph
    sm = _sp_unit(2, LVL_0, LVL_1)   # |0><1| on the (|1>, |0>) basis
    a_ops = [embed_at(_sp_destroy(n), 2 + i, ts) for i in range(2)]

    h = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for i in range(2):
        sm_i = embed_at(sm, i, ts)
        sp_i = sm_i.conj().T
        p1_i = embed_at(_sp_unit(2, LVL_1, LVL_1), i, ts)
        p0_i = embed_at(_sp_unit(2, LVL_0, LVL_0), i, ts)
        a_i = a_ops[i]
        n_i = (a_i.conj().T @ a_i).tocsr()
        coupling = d.beta_r[i] * (a_i.conj().T @ sm_i) + d.beta_s[i] * (a_i.conj().T @ sp_i)
        h = h + TWO_PI * (
            coupling + coupling.conj().T
            + (delta_1 + d.alpha_r[i]) * p1_i
            + (d.alpha_s[i] + d.alpha_t[i]) * p0_i
            + (delta_c + d.eta_r) * (n_i @ p0_i)
            + (delta_c + d.eta_s) * (n_i @ p1_i)
        )

    d2, cascade = _cavity_channels(p, a_ops[0], a_ops[1])
    rate_scale = TWO_PI * 2.0 * max(p.kappa1, p.kappa2)
    stiff_rate = TWO_PI * (
        2.0 * max(p.kappa1, p.kappa2)
        + abs(delta_c) + abs(d.eta_r) + abs(d.eta_s)
        + 4.0 * max(abs(b) for b in d.beta_r + d.beta_s) * np.sqrt(n)
    )
    return liouvillian_from_operators(
        h, d2, cascade, rate_scale, stiff_rate,
        {"tier": "effective", "space": space, "parity": space.parity},
    )


def build_full_liouvillian(p: PhysicalParams, space: ModelSpace) -> LiouvillianAction:
    """Five-level atoms with cavity dynamics and spontaneous emission.

    The rotating frame removes all drive phases (see module docstring),
    so the generator is time independent for any laser frequencies.
    Each excited state decays to both ground states with equal
    branching; gamma_j is the total population decay rate of level j,
    so each branch enters as (gamma_j / 4) D[|g><j|] in the factor-2
    convention.
    """
    if space.atom_levels != 5:
        raise DimensionMismatch("full model runs on 5-level atoms")
    for name in ("omega_1", "omega_cav", "omega_Lr", "omega_Ls", "omega_Lt"):
        if not np.isfinite(getattr(p, name)):
            raise ValueError(f"{name} must be finite to define the rotating frame")
    delta_1, delta_c = _frame_offsets(p)

    ts = space.tensor_space
    n = space.nph
    a_ops = [embed_at(_sp_destroy(n), 2 + i, ts) for i in range(2)]
    omegas = {
        LVL_R: (p.Omega_r1, p.Omega_r2),
        LVL_S: (p.Omega_s1, p.Omega_s2),
        LVL_T: (p.Omega_t1, p.Omega_t2),
    }
    drive_to = {LVL_R: LVL_1, LVL_S: LVL_0, LVL_T: LVL_0}
    level_energy = {
        LVL_1: delta_1,
        LVL_0: 0.0,
        LVL_R: delta_1 - p.Delta_r,
        LVL_S: -p.Delta_s,
        LVL_T: -p.Delta_t,
    }
    gammas = {LVL_R: p.gamma_r, LVL_S: p.gamma_s, LVL_T: p.gamma_t}

    h = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    d2 = []
    for i in range(2):
        a_i = a_ops[i]
        for lvl, e in level_energy.items():
            if e != 0.0:
                h = h + TWO_PI * e * embed_at(_sp_unit(5, lvl, lvl), i, ts)
        for lvl, oms in omegas.items():
            v = 0.5 * oms[i] * embed_at(_sp_unit(5, lvl, drive_to[lvl]), i, ts)
            h = h + TWO_PI * (v + v.conj().T)
        gr = p.g_r * embed_at(_sp_unit(5, LVL_R, LVL_0), i, ts) @ a_i
        gs = p.g_s * embed_at(_sp_unit(5, LVL_S, LVL_1), i, ts) @ a_i
        h = h + TWO_PI * (gr + gr.conj().T + gs + gs.conj().T)
        for lvl, gam in gammas.items():
            if gam > 0:
                for gnd in (LVL_0, LVL_1):
                    d2.append(
                        (TWO_PI * gam / 4.0, embed_at(_sp_unit(5, gnd, lvl), i, ts))
                    )
    if delta_c != 0.0:
        for a in a_ops:
            h = h + TWO_PI * delta_c * (a.conj().T @ a).tocsr()

    d2_cav, cascade = _cavity_channels(p, a_ops[0], a_ops[1])
    rate_scale = TWO_PI * (
        2.0 * max(p.kappa1, p.kappa2) + max(p.gamma_r, p.gamma_s, p.gamma_t)
    )
    om_max = max(abs(o) for pair in omegas.values() for o in pair)
    stiff_rate = TWO_PI * (
        2.0 * max(abs(p.Delta_r), abs(p.Delta_s), abs(p.Delta_t))
        + 2.0 * abs(delta_1) + om_max + 2.0 * max(p.g_r, p.g_s) * np.sqrt(n)
    )
    return liouvillian_from_operators(
        h, d2_cav + d2, cascade, rate_scale, stiff_rate,
        {"tier": "full", "space": space, "parity": space.parity},
    )


def output_flux_operator(p: PhysicalParams, space: ModelSpace) -> np.ndarray:
    """c+ c for the cascaded output field c = sqrt(2 eps k1) a1 + sqrt(2 k2) a2.

    Expectation values are photons per microsecond.  With ideal
    coupling the dark steady state gives zero flux; at epsilon = 0 the
    operator reduces to the bare cavity-2 output 2 kappa2 a2+ a2.
    """
    ts = space.tensor_space
    n = space.nph
    a1 = embed_at(_sp_destroy(n), 2, ts)
    a2 = embed_at(_sp_destroy(n), 3, ts)
    c = np.sqrt(2.0 * TWO_PI * p.epsilon * p.kappa1) * a1 + np.sqrt(2.0 * TWO_PI * p.kappa2) * a2
    return np.asarray((c.conj().T @ c).todense())


def vacuum_ground_state(space: ModelSpace) -> np.ndarray:
    """|0_1 0_2> x vacuum as a density matrix on the model space."""
    dims = space.tensor_space.factor_dims
    idx = np.ravel_multi_index((LVL_0, LVL_0, 0, 0), dims)
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[idx, idx] = 1.0
    return rho


def lift_qubit_state(rho4: np.ndarray, space: ModelSpace) -> np.ndarray:
    """Embed a two-qubit state as (atoms in rho4) x vacuum."""
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.shape != (4, 4):
        raise DimensionMismatch("expected a 4x4 two-qubit state")
    la = space.atom_levels
    atoms = np.zeros((la * la, la * la), dtype=complex)
    qubit_idx = [i * la + j for i in (LVL_1, LVL_0) for j in (LVL_1, LVL_0)]
    atoms[np.ix_(qubit_idx, qubit_idx)] = rho4
    n = space.nph
    vac = np.zeros((n * n, n * n), dtype=complex)
    vac[0, 0] = 1.0
    return np.kron(atoms, vac)


def qubit_marginal(rho: np.ndarray, space: ModelSpace) -> np.ndarray:
    """Two-qubit marginal of a cavity-model state.

    Traces out the field modes and, for five-level atoms, restricts to
    the ground manifold and renormalizes (excited population in the
    large-detuning regime is O((Omega/2 Delta)^2) and is discarded).
    """
    atoms = partial_trace(rho, space.tensor_space, keep=(0, 1))
    la = space.atom_levels
    if la == 2:
        block = atoms
    else:
        qubit_idx = [i * la + j for i in (LVL_1, LVL_0) for j in (LVL_1, LVL_0)]
        block = atoms[np.ix_(qubit_idx, qubit_idx)]
    block = (block + dagger(block)) / 2.0
    return block / np.real(np.trace(block))


def top_fock_population(rho: np.ndarray, space: ModelSpace) -> float:
    """Population of the highest retained photon number (either mode)."""
    nmax = space.fock_cutoff
    mode1 = partial_trace(rho, space.tensor_space, keep=(2,))
    mode2 = partial_trace(rho, space.tensor_space, keep=(3,))
    return float(np.real(mode1[nmax, nmax] + mode2[nmax, nmax]))
