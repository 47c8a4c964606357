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
the compensation prescription of :func:`~casqed.params.stark_balance`
cancels them exactly.

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

and excited levels at delta_1 - Delta_r, -Delta_s, -Delta_t.  As w_t =
omega_Lt, the t-laser frequency drops out; only Delta_t enters.

Parameters
----------
The parameters, their second-order reduction, the light-shift balance and
the bridge to the two-qubit model live in :mod:`casqed.params`, which
needs only numpy; this module imports them back.  The builders here, like
:mod:`casqed.dynamics` under them, load scipy.

Units: parameter fields hold ordinary frequencies in MHz (the numbers
quoted as "2 pi x MHz"); generators multiply by 2 pi, so rates are
rad/us and times are us.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, UnbalancedShifts
from .dynamics import LiouvillianAction, liouvillian_from_operators
from .linalg import TensorSpace, dagger, embed_at, partial_trace
from .params import (  # noqa: F401  (the parameter layer, imported back)
    TWO_PI,
    DerivedParams,
    PhysicalParams,
    derive_params,
    reduced_params,
    stark_balance,
)
from .reduced import initial_ground_state

# five-level ordering (matches the qubit ordering (|1>, |0>) downstream)
LVL_1, LVL_0, LVL_R, LVL_S, LVL_T = 0, 1, 2, 3, 4

#: atomic parity of each level in that ordering: - on |1> and |r>
_ATOM_PARITY = np.array([-1.0, 1.0, -1.0, 1.0, 1.0])


class _FixedCSR(sp.csr_matrix):
    """A CSR matrix that, once fixed, keeps its arrays.

    Writing into a read-only array raises, but item assignment or
    ``setdiag`` at a new position, or ``resize``, would rebind the
    matrix's arrays instead; on a fixed matrix that raises ``ValueError``
    too.  Matrices derived from it (sums, products, conversions) are not
    fixed.
    """

    _fixed = False

    def __setattr__(self, name, value):
        if self._fixed and name in ("data", "indices", "indptr") \
                and value is not getattr(self, name):
            raise ValueError(f"the {name} of a cached operator is read-only")
        super().__setattr__(name, value)


def _read_only(m):
    """``m`` as canonical CSR (sorted, no duplicates) with read-only arrays
    that it cannot rebind (see :class:`_FixedCSR`)."""
    m = m.tocsr()
    m.sum_duplicates()
    m = _FixedCSR((m.data, m.indices, m.indptr), shape=m.shape)
    for a in (m.data, m.indices, m.indptr):
        a.flags.writeable = False
    m._fixed = True
    return m


@dataclass(frozen=True)
class ModelSpace:
    """Truncated simulation space: two atoms and two field modes.

    ``fock_cutoff`` is the largest retained photon number (states
    0..fock_cutoff per mode).  Factors: atom 1, atom 2, mode 1, mode 2.

    The lifted operators of :meth:`atom` and :meth:`mode`, and their
    products that the builders weight, depend on no parameter: each is made
    once per process, keyed by the (frozen, hashable) space, and shared by
    every later call, so a builder only forms weighted sums of them.  They
    are canonical, and their arrays are read-only and bound to them: a write
    into them, an in-place operation such as ``*=`` or ``eliminate_zeros``,
    item assignment, ``setdiag`` and ``resize`` all raise ``ValueError``.
    Derive new matrices from them.
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

    @property
    def qubit_index(self) -> list:
        """Positions of the qubit states |11>, |10>, |01>, |00> (each atom
        ordered (|1>, |0>)) in the two-atom factor atom 1 (x) atom 2."""
        la = self.atom_levels
        return [i * la + j for i in (LVL_1, LVL_0) for j in (LVL_1, LVL_0)]

    @functools.cache
    def atom(self, i: int, k: int, l: int) -> sp.csr_matrix:
        """|k><l| on atom i (0 or 1), lifted to the model space (cached, read-only)."""
        unit = sp.csr_matrix(([1.0 + 0j], ([k], [l])), shape=(self.atom_levels,) * 2)
        return _read_only(embed_at(unit, i, self.tensor_space))

    @functools.cache
    def mode(self, i: int) -> sp.csr_matrix:
        """The annihilation operator of atom i's cavity mode, lifted (cached, read-only)."""
        destroy = sp.diags(np.sqrt(np.arange(1, self.nph)), 1, format="csr", dtype=complex)
        return _read_only(embed_at(destroy, 2 + i, self.tensor_space))


def _cavity_channels(p: PhysicalParams, space: ModelSpace):
    a1, a2 = space.mode(0), space.mode(1)
    d2 = [(TWO_PI * p.kappa1, a1), (TWO_PI * p.kappa2, a2)]
    cascade = (2.0 * TWO_PI * np.sqrt(p.epsilon * p.kappa1 * p.kappa2), a1, a2)
    return d2, cascade


_BALANCE_TOL = 1e-9


@functools.cache
def _raman_operators(space: ModelSpace) -> tuple:
    """Per atom, the fixed operators the effective Hamiltonian weights:
    a+ s-, a+ s+, |1><1|, |0><0|, n |0><0| and n |1><1| (s- = |0><1|,
    n = a+ a).  Cached per space and read-only, like :meth:`ModelSpace.atom`."""
    out = []
    for i in range(2):
        a = space.mode(i)
        sm = space.atom(i, LVL_0, LVL_1)
        p1, p0 = space.atom(i, LVL_1, LVL_1), space.atom(i, LVL_0, LVL_0)
        n = (a.conj().T @ a).tocsr()
        ad_sm, ad_sp = a.conj().T @ sm, a.conj().T @ sm.conj().T
        out.append((_read_only(ad_sm), _read_only(ad_sp), p1, p0,
                    _read_only(n @ p0), _read_only(n @ p1)))
    return tuple(out)


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
    # delta_1 = omega_1 - (omega_Ls - omega_Lr)/2 cancels terms of size omega_1,
    # so the residual carries their rounding
    scale = max(1.0, *(abs(x) for x in (d.alpha_r + d.alpha_s + d.alpha_t)), abs(p.omega_1))
    for i, r in enumerate(d.residuals):
        if abs(r) > _BALANCE_TOL * scale:
            raise UnbalancedShifts(
                f"atom {i + 1}: differential ground shift {r:g} MHz; run stark_balance first"
            )

    operators = _raman_operators(space)   # first: a space too large to hold fails here
    h = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for i, (ad_sm, ad_sp, p1, p0, n_p0, n_p1) in enumerate(operators):
        coupling = d.beta_r[i] * ad_sm + d.beta_s[i] * ad_sp
        h = h + TWO_PI * (
            coupling + coupling.conj().T
            + (d.delta_1 + d.alpha_r[i]) * p1
            + (d.alpha_s[i] + d.alpha_t[i]) * p0
            + (d.delta_c + d.eta_r) * n_p0
            + (d.delta_c + d.eta_s) * n_p1
        )

    d2, cascade = _cavity_channels(p, space)
    rate_scale = TWO_PI * 2.0 * max(p.kappa1, p.kappa2)
    return liouvillian_from_operators(
        h, d2, cascade, rate_scale, {"space": space, "parity": space.parity},
    )


@functools.cache
def _cavity_couplings(space: ModelSpace) -> tuple:
    """Per atom, the fixed products the full Hamiltonian weights: |r><0| a,
    |s><1| a and n = a+ a.  Cached per space and read-only, like
    :meth:`ModelSpace.atom`."""
    out = []
    for i in range(2):
        a = space.mode(i)
        out.append((_read_only(space.atom(i, LVL_R, LVL_0) @ a),
                    _read_only(space.atom(i, LVL_S, LVL_1) @ a),
                    _read_only((a.conj().T @ a).tocsr())))
    return tuple(out)


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
    d = derive_params(p)
    omegas = {
        LVL_R: (p.Omega_r1, p.Omega_r2),
        LVL_S: (p.Omega_s1, p.Omega_s2),
        LVL_T: (p.Omega_t1, p.Omega_t2),
    }
    drive_to = {LVL_R: LVL_1, LVL_S: LVL_0, LVL_T: LVL_0}
    level_energy = {
        LVL_1: d.delta_1,
        LVL_0: 0.0,
        LVL_R: d.delta_1 - p.Delta_r,
        LVL_S: -p.Delta_s,
        LVL_T: -p.Delta_t,
    }
    gammas = {LVL_R: p.gamma_r, LVL_S: p.gamma_s, LVL_T: p.gamma_t}

    couplings = _cavity_couplings(space)   # first: a space too large to hold fails here
    h = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    d2 = []
    for i, (r0_a, s1_a, _) in enumerate(couplings):
        for lvl, e in level_energy.items():
            if e != 0.0:
                h = h + TWO_PI * e * space.atom(i, lvl, lvl)
        for lvl, oms in omegas.items():
            v = 0.5 * oms[i] * space.atom(i, lvl, drive_to[lvl])
            h = h + TWO_PI * (v + v.conj().T)
        gr = p.g_r * r0_a
        gs = p.g_s * s1_a
        h = h + TWO_PI * (gr + gr.conj().T + gs + gs.conj().T)
        for lvl, gam in gammas.items():
            if gam > 0:
                for gnd in (LVL_0, LVL_1):
                    d2.append((TWO_PI * gam / 4.0, space.atom(i, gnd, lvl)))
    if d.delta_c != 0.0:
        for _, _, n in couplings:
            h = h + TWO_PI * d.delta_c * n

    d2_cav, cascade = _cavity_channels(p, space)
    rate_scale = TWO_PI * (
        2.0 * max(p.kappa1, p.kappa2) + max(p.gamma_r, p.gamma_s, p.gamma_t)
    )
    return liouvillian_from_operators(
        h, d2_cav + d2, cascade, rate_scale, {"space": space, "parity": space.parity},
    )


def output_flux_operator(p: PhysicalParams, space: ModelSpace) -> np.ndarray:
    """c+ c for the cascaded output field c = sqrt(2 eps k1) a1 + sqrt(2 k2) a2.

    Expectation values are photons per microsecond.  With ideal
    coupling the dark steady state gives zero flux; at epsilon = 0 the
    operator reduces to the bare cavity-2 output 2 kappa2 a2+ a2.
    """
    c = (np.sqrt(2.0 * TWO_PI * p.epsilon * p.kappa1) * space.mode(0)
         + np.sqrt(2.0 * TWO_PI * p.kappa2) * space.mode(1))
    return np.asarray((c.conj().T @ c).todense())


def vacuum_ground_state(space: ModelSpace) -> np.ndarray:
    """|0_1 0_2> x vacuum as a density matrix on the model space."""
    return lift_qubit_state(initial_ground_state(), space)


def lift_qubit_state(rho4: np.ndarray, space: ModelSpace) -> np.ndarray:
    """Embed a two-qubit state as (atoms in rho4) x vacuum."""
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.shape != (4, 4):
        raise DimensionMismatch("expected a 4x4 two-qubit state")
    qubits = space.qubit_index
    atoms = np.zeros((space.atom_levels ** 2,) * 2, dtype=complex)
    atoms[np.ix_(qubits, qubits)] = rho4
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
    qubits = space.qubit_index
    block = atoms[np.ix_(qubits, qubits)]
    block = (block + dagger(block)) / 2.0
    return block / np.real(np.trace(block))


def top_fock_population(rho: np.ndarray, space: ModelSpace) -> float:
    """Population of the highest retained photon number (either mode)."""
    nmax = space.fock_cutoff
    mode1 = partial_trace(rho, space.tensor_space, keep=(2,))
    mode2 = partial_trace(rho, space.tensor_space, keep=(3,))
    return float(np.real(mode1[nmax, nmax] + mode2[nmax, nmax]))
