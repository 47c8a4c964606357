"""Physical cavity-QED parameters and their two-level reduction.

The parameter layer of the cavity tiers: the raw parameters
(:class:`PhysicalParams`), their second-order reduction
(:class:`DerivedParams`, :func:`derive_params`), the light-shift balance
(:func:`stark_balance`) and the bridge to the two-qubit model
(:func:`reduced_params`).  The sign conventions and the rotating frame
they refer to are stated in :mod:`casqed.cavity`, whose builders turn
these parameters into generators.

This module needs only numpy, as does :mod:`casqed.reduced` beneath it,
so the reduced tier's closed form runs from a physical block without
loading scipy (see :mod:`casqed`); :mod:`casqed.cavity` imports these
names back.

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

:meth:`PhysicalParams.symmetric` places the lasers at -/+ omega_1 about
the cavity, and ``raman_resonant`` places them at omega_cav -/+ omega_1.
Either way w_1 = omega_1, so delta_1 = 0 and the compensated target
(omega_Ls - omega_Lr)/2 - omega_1 = 0 exactly: a balanced symmetric point
gives the same generator at every omega_1, so neither the config nor
:meth:`PhysicalParams.symmetric` takes it as a parameter.

Units: parameter fields hold ordinary frequencies in MHz (the numbers
quoted as "2 pi x MHz"); rates are 2 pi times them, in rad/us.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleBalance, InvalidParams
from .reduced import ReducedParams, finite_abs2

TWO_PI = 2.0 * np.pi

_DETUNING_RATIO_WARN = 20.0
_DETUNINGS = ("Delta_r", "Delta_s", "Delta_t")
_AMPLITUDES = ("Omega_r1", "Omega_s1", "Omega_t1", "Omega_r2", "Omega_s2", "Omega_t2", "g_r", "g_s")
_COUPLINGS = _AMPLITUDES + ("kappa1", "kappa2", "gamma_r", "gamma_s", "gamma_t")


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
        for name in ("omega_1", "omega_cav", "omega_Lr", "omega_Ls"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite to define the rotating frame")
        for name in _AMPLITUDES:   # derive_params squares them
            finite_abs2(name, getattr(self, name))

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
    ) -> "PhysicalParams":
        """Single (g, kappa, gamma, Delta) set, equal for both atoms.

        The qubit splitting omega_1 is 100 MHz, which no generator depends
        on (module docstring).  Lasers start on two-photon resonance around
        omega_cav = 0 and Omega_t is 0; run :func:`stark_balance` afterwards
        to fix Omega_t (and, in compensated mode, the cavity frequency).
        """
        return cls(
            g_r=g, g_s=g, kappa1=kappa, kappa2=kappa,
            gamma_r=gamma, gamma_s=gamma, gamma_t=gamma,
            Delta_r=Delta, Delta_s=Delta, Delta_t=Delta,
            Omega_r1=Omega_r, Omega_s1=Omega_s, Omega_t1=0.0,
            Omega_r2=Omega_r, Omega_s2=Omega_s, Omega_t2=0.0,
            omega_1=100.0, omega_cav=0.0,
            omega_Lr=-100.0, omega_Ls=100.0,
            epsilon=epsilon,
        )


@dataclass(frozen=True)
class DerivedParams:
    """Second-order parameters of the two-level reduction (MHz).

    beta: Raman rates g_k Omega_ki / (2 Delta_k); alpha: laser light
    shifts |Omega|^2/(4 Delta); eta: photon shifts g^2/Delta; delta_1 and
    delta_c: the static offsets of the rotating frame on |1> and per photon
    (:mod:`casqed.cavity`).
    """

    beta_r: tuple
    beta_s: tuple
    alpha_r: tuple
    alpha_s: tuple
    alpha_t: tuple
    eta_r: float
    eta_s: float
    delta_1: float
    delta_c: float

    @property
    def residuals(self) -> tuple:
        """Per-atom differential ground shift in the rotating frame (MHz)."""
        return tuple(
            self.delta_1 + self.alpha_r[i] - self.alpha_s[i] - self.alpha_t[i] for i in range(2)
        )


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
        delta_1=p.omega_1 - 0.5 * (p.omega_Ls - p.omega_Lr),
        delta_c=p.omega_cav - 0.5 * (p.omega_Ls + p.omega_Lr),
    )


def reduced_params(p: PhysicalParams) -> ReducedParams:
    """Bridge to the two-qubit model: the jump amplitudes
    r_i = 2 pi beta_r_i / sqrt(2 pi kappa_i), s_i = 2 pi beta_s_i / sqrt(2 pi kappa_i)
    in sqrt(rad/us), so that |r_i|^2 and |s_i|^2 are rates in rad/us."""
    d = derive_params(p)
    k1, k2 = np.sqrt(TWO_PI * p.kappa1), np.sqrt(TWO_PI * p.kappa2)
    return ReducedParams(
        r1=TWO_PI * d.beta_r[0] / k1,
        s1=TWO_PI * d.beta_s[0] / k1,
        r2=TWO_PI * d.beta_r[1] / k2,
        s2=TWO_PI * d.beta_s[1] / k2,
        epsilon=p.epsilon,
    )


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
    d = derive_params(p)   # its alpha and eta do not depend on the frequencies retuned here
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
