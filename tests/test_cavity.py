import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from casqed.cavity import (
    ModelSpace,
    PhysicalParams,
    balance_residuals,
    build_effective_liouvillian,
    build_full_liouvillian,
    derive_params,
    lift_qubit_state,
    output_flux_operator,
    qubit_marginal,
    reduced_params,
    stark_balance,
    top_fock_population,
    vacuum_ground_state,
)
from casqed.dynamics import (
    _PROBE_LIMIT,
    _SYLVESTER_SHIFT,
    SECTOR_BLOCKS,
    ShiftedNoJumpInverse,
    _BorderedSectors,
    integrate,
    no_jump_generator,
    steady_state_nullspace,
)
from casqed.errors import (
    DegenerateSteadyState,
    DimensionMismatch,
    InfeasibleBalance,
    UnbalancedShifts,
)
from casqed import experiments
from casqed.config import parse_config_text, validate_config
from casqed.linalg import dagger
from casqed.metrics import fef_fidelity
from casqed.reduced import MatchedDrive, analytic_steady_state, liouvillian_action


def fig3_like(a_over_b=2.0, epsilon=0.98, gamma=5.2, g=110.0, kappa=14.2,
              Delta=8000.0, Omega_s=100.0):
    p = PhysicalParams.symmetric(
        g=g, kappa=kappa, gamma=gamma, Delta=Delta,
        Omega_r=a_over_b * Omega_s, Omega_s=Omega_s, epsilon=epsilon,
    )
    return stark_balance(p, "compensated")


def scaled_params(a_over_b=2.0, epsilon=0.98, gamma=0.0, Delta=500.0, g=30.0,
                  kappa=10.0, beta_s=1.0, mode="compensated"):
    # strong drive at moderate detuning: fast unit-test dynamics
    omega_s = 2.0 * Delta * beta_s / g
    p = PhysicalParams.symmetric(
        g=g, kappa=kappa, gamma=gamma, Delta=Delta,
        Omega_r=a_over_b * omega_s, Omega_s=omega_s, epsilon=epsilon,
    )
    with pytest.warns(UserWarning) if Delta / (a_over_b * omega_s) < 20 else _nullcontext():
        return stark_balance(p, mode)


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def rand_herm_state(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _bordered_spsolve(act):
    # independent steady state: sparse LU of the generator with its first
    # row (a diagonal entry, implied by the other diagonal rows since
    # tr L rho = 0) replaced by the trace row
    d = act.dim
    lsp = sp.csr_matrix(act.meta["sparse_superop"])
    trace_row = sp.csr_matrix(
        (np.ones(d, dtype=complex), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))),
        shape=(1, d * d),
    )
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    x = spla.spsolve(sp.vstack([trace_row, lsp[1:]]).tocsc(), rhs)
    rho = x.reshape((d, d), order="F")
    return (rho + dagger(rho)) / 2.0


def _even_sector_spsolve(act):
    # _bordered_spsolve on the even sector (rho++ + rho--) alone: L maps each
    # parity sector into itself (test_parity_is_a_weak_symmetry) and the
    # right-hand side is even, so the odd block of the LU only yields zeros;
    # dropping it halves a full-tier LU (about 8 s at cutoff 1)
    d = act.dim
    even = np.flatnonzero(np.kron(act.meta["parity"], act.meta["parity"]) > 0)
    lsp = sp.csr_matrix(act.meta["sparse_superop"])[even][:, even]
    diag = np.flatnonzero(even % (d + 1) == 0)
    trace_row = sp.csr_matrix(
        (np.ones(d, dtype=complex), (np.zeros(d, dtype=int), diag)), shape=(1, even.size)
    )
    rhs = np.zeros(even.size, dtype=complex)
    rhs[0] = 1.0
    x = np.zeros(d * d, dtype=complex)
    x[even] = spla.spsolve(sp.vstack([trace_row, lsp[1:]]).tocsc(), rhs,
                           permc_spec="MMD_AT_PLUS_A")
    rho = x.reshape((d, d), order="F")
    return (rho + dagger(rho)) / 2.0


def _tier_action(levels, cutoff, **kw):
    if levels is None:
        return liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
    build = build_effective_liouvillian if levels == 2 else build_full_liouvillian
    return build(fig3_like(**kw), ModelSpace(levels, cutoff))


TIER_SPACES = [pytest.param(None, None, id="reduced"), (2, 1), (2, 2), (2, 3), (5, 1), (5, 2)]


def _jump_part(rho, d2_channels, cascade):
    # J(rho) = sum 2 r c rho c+ + q (a1 rho a2+ + a2 rho a1+), the part of
    # the generator that Kr + rK+ leaves out
    out = np.zeros_like(rho)
    for rate, c in d2_channels:
        c = sp.csr_matrix(c).toarray()
        out += 2.0 * rate * c @ rho @ dagger(c)
    q, a1, a2 = cascade
    a1, a2 = sp.csr_matrix(a1).toarray(), sp.csr_matrix(a2).toarray()
    return out + q * (a1 @ rho @ dagger(a2) + a2 @ rho @ dagger(a1))


def _master_equation(rho, h, d2_channels, cascade):
    # -i[H, rho] + sum rate D[c] rho
    #   - q (a2+ a1 rho + rho a1+ a2 - a1 rho a2+ - a2 rho a1+), densely
    h = sp.csr_matrix(h).toarray()
    out = -1j * (h @ rho - rho @ h)
    for rate, c in d2_channels:
        c = sp.csr_matrix(c).toarray()
        cdc = dagger(c) @ c
        out += rate * (2.0 * c @ rho @ dagger(c) - cdc @ rho - rho @ cdc)
    q, a1, a2 = cascade
    a1, a2 = sp.csr_matrix(a1).toarray(), sp.csr_matrix(a2).toarray()
    return out - q * (dagger(a2) @ a1 @ rho + rho @ dagger(a1) @ a2
                      - a1 @ rho @ dagger(a2) - a2 @ rho @ dagger(a1))


class TestDeriveParams:
    def test_reference_values(self):
        p = fig3_like()
        d = derive_params(p)
        assert abs(d.beta_s[0] - 0.6875) < 1e-12          # g Omega_s / (2 Delta)
        assert abs(d.eta_r - 1.5125) < 1e-12              # g^2 / Delta
        # the cooperativity Y = g^2 / (kappa1 gamma) ~163.87 gives back g
        phys = {"kappa1": p.kappa1, "gamma": p.gamma_r}
        assert abs(experiments._coop_g(phys, 110.0**2 / (14.2 * 5.2)) - p.g_r) < 1e-9
        assert abs(d.beta_r[0] - 2 * d.beta_s[0]) < 1e-12

    def test_zero_drive(self):
        p = PhysicalParams.symmetric(
            g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=0.0, Omega_s=0.0, epsilon=1.0
        )
        d = derive_params(p)
        assert d.beta_r[0] == 0.0 and d.alpha_s[0] == 0.0

    def test_drive_scaling(self):
        p1 = fig3_like()
        p2 = stark_balance(
            PhysicalParams.symmetric(
                g=110, kappa=14.2, gamma=5.2, Delta=8000,
                Omega_r=2 * 200.0, Omega_s=100.0, epsilon=0.98,
            ),
            "compensated",
        )
        d1, d2 = derive_params(p1), derive_params(p2)
        assert abs(d2.beta_r[0] - 2 * d1.beta_r[0]) < 1e-12
        assert abs(d2.alpha_r[0] - 4 * d1.alpha_r[0]) < 1e-12

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            PhysicalParams.symmetric(
                g=110, kappa=14.2, gamma=5.2, Delta=0.0, Omega_r=1.0, Omega_s=1.0, epsilon=1.0
            )

    def test_reduced_bridge_is_angular(self):
        p = fig3_like()
        rp = reduced_params(p)
        assert abs(rp.kappa1 - 2 * np.pi * 14.2) < 1e-12
        assert abs(rp.beta_s1 - 2 * np.pi * 0.6875) < 1e-12
        assert rp.epsilon == 0.98


class TestStarkBalance:
    def test_raman_resonant_reference(self):
        p = PhysicalParams.symmetric(
            g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=200.0, Omega_s=100.0, epsilon=1.0
        )
        out = stark_balance(p, "raman_resonant")
        d = derive_params(out)
        # alpha_t = alpha_r - alpha_s = 200^2/(4 8000) - 100^2/(4 8000)
        assert abs(d.alpha_t[0] - 0.9375) < 1e-12
        assert abs(abs(out.Omega_t1) - np.sqrt(4 * 8000 * 0.9375)) < 1e-9
        assert abs(abs(out.Omega_t1) - 173.2050808) < 1e-6
        assert max(abs(r) for r in balance_residuals(out)) < 1e-12

    def test_equal_drives_need_no_t_laser(self):
        p = PhysicalParams.symmetric(
            g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=100.0, Omega_s=100.0, epsilon=1.0
        )
        out = stark_balance(p, "raman_resonant")
        assert out.Omega_t1 == 0.0 and out.Omega_t2 == 0.0

    def test_wrong_sign_detuning_infeasible(self):
        p = PhysicalParams.symmetric(
            g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=200.0, Omega_s=100.0, epsilon=1.0
        )
        p = p.__class__(**{**p.__dict__, "Delta_t": -8000.0})
        with pytest.raises(InfeasibleBalance):
            stark_balance(p, "raman_resonant")

    def test_compensated_retunes_cavity(self):
        p = PhysicalParams.symmetric(
            g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=200.0, Omega_s=100.0, epsilon=1.0
        )
        out = stark_balance(p, "compensated")
        eta = 110.0**2 / 8000.0
        assert abs(out.omega_cav - (0.5 * (out.omega_Ls + out.omega_Lr) - eta)) < 1e-12
        assert max(abs(r) for r in balance_residuals(out)) < 1e-12

    def test_compensated_needs_matched_eta(self):
        p = PhysicalParams.symmetric(
            g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=200.0, Omega_s=100.0, epsilon=1.0
        )
        p = p.__class__(**{**p.__dict__, "g_s": 90.0})
        with pytest.raises(InfeasibleBalance):
            stark_balance(p, "compensated")

    def test_asymmetric_drives_balanced_per_atom(self):
        p = PhysicalParams.symmetric(
            g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=200.0, Omega_s=100.0, epsilon=1.0
        )
        p = p.__class__(**{**p.__dict__, "Omega_r2": 300.0 + 0j})
        out = stark_balance(p, "compensated")
        assert max(abs(r) for r in balance_residuals(out)) < 1e-10
        assert abs(out.Omega_t1) != abs(out.Omega_t2)


class TestModelSpace:
    def test_dimensions(self):
        assert ModelSpace(2, 2).dim == 36
        assert ModelSpace(5, 2).dim == 225
        assert ModelSpace(5, 2).tensor_space.factor_dims == (5, 5, 3, 3)

    def test_invalid(self):
        with pytest.raises(DimensionMismatch):
            ModelSpace(3, 2)
        with pytest.raises(DimensionMismatch):
            ModelSpace(2, 0)


class TestEffectiveModel:
    def test_unbalanced_rejected(self):
        p = PhysicalParams.symmetric(
            g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=200.0, Omega_s=100.0, epsilon=1.0
        )
        with pytest.raises(UnbalancedShifts):
            build_effective_liouvillian(p, ModelSpace(2, 1))

    def test_no_drive_vacuum_stationary(self):
        p = stark_balance(
            PhysicalParams.symmetric(
                g=110, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=0.0, Omega_s=0.0, epsilon=0.9
            ),
            "raman_resonant",
        )
        space = ModelSpace(2, 1)
        act = build_effective_liouvillian(p, space)
        rho = vacuum_ground_state(space)
        assert np.abs(act.apply(rho)).max() < 1e-12

    def test_trace_and_hermiticity_preserving(self):
        rng = np.random.default_rng(61)
        space = ModelSpace(2, 1)
        act = build_effective_liouvillian(fig3_like(), space)
        for _ in range(5):
            rho = rand_herm_state(rng, space.dim)
            out = act.apply(rho)
            assert abs(np.trace(out)) <= 1e-12 * act.rate_scale
            assert np.abs(out - dagger(out)).max() <= 1e-10 * np.abs(out).max()

    def test_bad_cavity_limit_matches_reduced(self):
        # kappa/beta ~ 10-20 at the reference parameters: the atomic
        # marginal of the cavity-model steady state must match the
        # analytic two-qubit steady state to 1e-2 in fidelity
        p = fig3_like(a_over_b=2.0, epsilon=0.98)
        space = ModelSpace(2, 2)
        act = build_effective_liouvillian(p, space)
        rho = steady_state_nullspace(act)
        marg = qubit_marginal(rho, space)
        ref = analytic_steady_state(MatchedDrive(2.0, 1.0, 0.98))
        assert abs(fef_fidelity(marg) - fef_fidelity(ref)) <= 0.01
        assert np.abs(marg - ref).max() <= 0.02

    def test_elimination_error_shrinks_with_kappa(self):
        ref = fef_fidelity(analytic_steady_state(MatchedDrive(2.0, 1.0, 0.98)))
        errs = []
        for kap in (14.2, 28.4, 56.8):
            p = fig3_like(kappa=kap)
            space = ModelSpace(2, 2)
            act = build_effective_liouvillian(p, space)
            marg = qubit_marginal(steady_state_nullspace(act), space)
            errs.append(abs(fef_fidelity(marg) - ref))
        assert errs[0] > errs[1] > errs[2]

    def test_fock_cutoff_converged(self):
        p = fig3_like()
        top_tol = 1e-6  # converged_steady_state's default
        # the top retained Fock state is not empty at cutoff 2, so the
        # escalation goes on; cutoff 3 is the accepted (escalated) space
        space2 = ModelSpace(2, 2)
        rho2 = steady_state_nullspace(build_effective_liouvillian(p, space2))
        assert top_fock_population(rho2, space2) > top_tol
        space3 = ModelSpace(2, 3)
        rho3 = steady_state_nullspace(build_effective_liouvillian(p, space3))
        assert top_fock_population(rho3, space3) <= top_tol

        # raising the cutoff of the accepted space no longer moves the answer
        space4 = ModelSpace(2, 4)
        rho4 = steady_state_nullspace(build_effective_liouvillian(p, space4))
        fid3 = fef_fidelity(qubit_marginal(rho3, space3))
        fid4 = fef_fidelity(qubit_marginal(rho4, space4))
        assert abs(fid4 - fid3) <= 1e-6

    def test_compensation_beats_plain_resonance(self):
        # boost g so the photon shift eta is comparable to kappa
        base = PhysicalParams.symmetric(
            g=300.0, kappa=14.2, gamma=5.2, Delta=8000, Omega_r=73.33, Omega_s=36.67,
            epsilon=0.98,
        )
        space = ModelSpace(2, 2)
        fids = {}
        for mode in ("raman_resonant", "compensated"):
            p = stark_balance(base, mode)
            act = build_effective_liouvillian(p, space)
            fids[mode] = fef_fidelity(qubit_marginal(steady_state_nullspace(act), space))
        eta_over_kappa = (300.0**2 / 8000.0) / 14.2
        assert eta_over_kappa > 0.5
        assert fids["compensated"] > fids["raman_resonant"]


class TestDirectSteadyState:
    @pytest.mark.parametrize("levels,cutoff", [
        (2, 1), (2, 2), (5, 1), pytest.param(None, None, id="reduced"),
    ])
    def test_no_jump_split_reproduces_generator(self, levels, cutoff):
        # the solver's K must be the no-jump part of the generator, with
        # the cascade sign of the superoperator: K r + r K+ + J(r) = L r.
        # The reduced tier (no cavity modes) has its cascade at q < 0.
        rng = np.random.default_rng(64)
        if levels is None:
            act = liouvillian_action(MatchedDrive(2.0, 1.0, 0.98).params())
        else:
            space = ModelSpace(levels, cutoff)
            build = build_effective_liouvillian if levels == 2 else build_full_liouvillian
            act = build(fig3_like() if levels == 2 else scaled_params(gamma=3.0), space)
        ops = act.meta["operators"]
        k = no_jump_generator(*ops)
        for _ in range(3):
            rho = rand_herm_state(rng, act.dim)
            split = k @ rho + rho @ dagger(k) + _jump_part(rho, *ops[1:])
            ref = act.apply(rho)
            assert np.abs(split - ref).max() <= 1e-12 * np.abs(ref).max()
            # the master equation as written, without K
            direct = _master_equation(rho, *ops)
            assert np.abs(direct - ref).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_matches_bordered_sparse_lu(self, cutoff):
        space = ModelSpace(2, cutoff)
        act = build_effective_liouvillian(fig3_like(), space)
        rho = steady_state_nullspace(act)
        residual = np.linalg.norm(act.apply(rho))
        assert residual <= 1e-12 * act.rate_scale
        ref = _bordered_spsolve(act)
        fid = fef_fidelity(qubit_marginal(rho, space))
        assert abs(fid - fef_fidelity(qubit_marginal(ref, space))) <= 1e-10

    @pytest.mark.parametrize("cutoff", [2, 4])
    def test_matched_drive_is_degenerate(self, cutoff):
        # a/b = 1: the steady state is not unique at any cutoff.  Above
        # dim 64 this used to relax to some state without complaint.
        act = build_effective_liouvillian(fig3_like(a_over_b=1.0), ModelSpace(2, cutoff))
        with pytest.raises(DegenerateSteadyState):
            steady_state_nullspace(act)


class TestParitySectors:
    @pytest.mark.parametrize("levels,cutoff", TIER_SPACES)
    def test_parity_is_a_weak_symmetry(self, levels, cutoff):
        act = _tier_action(levels, cutoff)
        par = act.meta["parity"]
        assert set(np.unique(par)) == {-1.0, 1.0}
        h, d2, (q, a1, a2) = act.meta["operators"]
        k = no_jump_generator(h, d2, (q, a1, a2))
        assert np.array_equal(par[:, None] * k * par[None, :], k)   # P K P = K

        def sign(op):
            # +1 (even) or -1 (odd) when P op P = +-op
            op = sp.csr_matrix(op).toarray()
            pop = par[:, None] * op * par[None, :]
            assert np.array_equal(pop, op) or np.array_equal(pop, -op)
            return 1 if np.array_equal(pop, op) else -1

        for _, c in d2:
            sign(c)
        assert sign(a1) == sign(a2)
        # L keeps the even (p_i p_j = 1) and odd entries rho_ij apart
        lsp = sp.coo_matrix(act.meta["sparse_superop"])
        vec_par = np.kron(par, par)   # entry i + d j of vec(rho) has p_i p_j
        nz = lsp.data != 0
        assert np.array_equal(vec_par[lsp.row[nz]], vec_par[lsp.col[nz]])

    @pytest.mark.parametrize("levels,cutoff", [(2, 2), (5, 2)])
    def test_shifted_inverse_solves_each_sector(self, levels, cutoff):
        # scatter (A - s)^-1 y into rho and apply K rho + rho K+ - s rho
        # densely: it must give back y, in both sectors.  Full tier, cutoff
        # 2: parity blocks of 113 and 112 states, past the recursion leaf
        act = _tier_action(levels, cutoff)
        d = act.dim
        k = no_jump_generator(*act.meta["operators"])
        s = _SYLVESTER_SHIFT * act.rate_scale
        inv = ShiftedNoJumpInverse(k, act.meta["parity"], s)
        rng = np.random.default_rng(65)
        for sector in SECTOR_BLOCKS:
            index = inv.index[sector]
            y = rng.normal(size=index.size) + 1j * rng.normal(size=index.size)
            x, yy = np.zeros(d * d, dtype=complex), np.zeros(d * d, dtype=complex)
            x[index], yy[index] = inv.solve(y, sector), y
            x, yy = x.reshape((d, d), order="F"), yy.reshape((d, d), order="F")
            back = k @ x + x @ dagger(k) - s * x
            assert np.linalg.norm(back - yy) <= 1e-12 * np.linalg.norm(k, 2) * np.linalg.norm(x)

    def test_full_tier_matches_sparse_lu(self):
        space = ModelSpace(5, 1)
        act = build_full_liouvillian(fig3_like(), space)
        rho = steady_state_nullspace(act)
        assert np.linalg.norm(act.apply(rho)) <= 1e-12 * act.rate_scale
        ref = _even_sector_spsolve(act)
        fid = fef_fidelity(qubit_marginal(rho, space))
        assert abs(fid - fef_fidelity(qubit_marginal(ref, space))) <= 1e-10

    @pytest.mark.parametrize("levels,cutoff", [pytest.param(None, None, id="reduced"), (2, 2)])
    def test_both_sectors_degenerate_at_matched_drive(self, levels, cutoff):
        # a/b = 1, epsilon = 1: each sector's probe on its own flags it
        if levels is None:
            act = liouvillian_action(MatchedDrive(1.0, 1.0, 1.0).params())
        else:
            act = _tier_action(levels, cutoff, a_over_b=1.0, epsilon=1.0)
        sectors = _BorderedSectors(act)
        for sector in SECTOR_BLOCKS:
            growth, _ = sectors.probe(sector)
            assert growth > _PROBE_LIMIT     # ||L^-1 r|| > _PROBE_LIMIT / rate_scale
        healthy = _BorderedSectors(_tier_action(2, 2))
        for sector in SECTOR_BLOCKS:
            assert healthy.probe(sector)[0] < 1e-3 * _PROBE_LIMIT


class TestDetuningWarning:
    def test_names_the_values_and_the_caller(self):
        p = PhysicalParams.symmetric(g=30, kappa=10, gamma=3, Delta=500,
                                     Omega_r=66.66, Omega_s=33.33, epsilon=0.98)
        with pytest.warns(UserWarning) as rec:
            stark_balance(p, "compensated")
        msg = str(rec[0].message)
        assert "|Delta_r| = 500 MHz" in msg and "|Omega_r1| = 66.66 MHz" in msg
        assert "7.5 times" in msg
        assert rec[0].filename == __file__

    def test_points_at_the_sweep_code(self):
        text = ("model.tier = effective\nphysical.g_2pi_MHz = 30\nphysical.kappa1_2pi_MHz = 10\n"
                "physical.gamma_2pi_MHz = 3\nphysical.Delta_2pi_MHz = 500\n"
                "physical.Omega_s_2pi_MHz = 33.33\nphysical.a_over_b = 2\n"
                "physical.epsilon = 0.98\n")
        cfg = validate_config(parse_config_text(text), text=text)
        with pytest.warns(UserWarning) as rec:
            experiments.physical_params(cfg, a_over_b=1.5)
        assert rec[0].filename == experiments.__file__
        assert "|Omega_r1| = 49.995 MHz" in str(rec[0].message)   # 1.5 x 33.33

    @pytest.mark.parametrize("extra", [
        pytest.param("", id="kappa2-default"),
        pytest.param("physical.kappa2_2pi_MHz = 20\n", id="kappa2-set"),
    ])
    def test_warns_once_per_point(self, extra):
        # the evolve-full benchmark point: symmetric(), the kappa2 rebuild and
        # stark_balance() each build the parameters, but the point warns once
        text = ("model.tier = full\nphysical.g_2pi_MHz = 30\nphysical.kappa1_2pi_MHz = 10\n"
                "physical.gamma_2pi_MHz = 3\nphysical.Delta_2pi_MHz = 500\n"
                "physical.Omega_s_2pi_MHz = 33.33\nphysical.a_over_b = 2\n"
                "physical.epsilon = 0.98\n" + extra)
        cfg = validate_config(parse_config_text(text), text=text)
        for point in ({}, {"a_over_b": 1.5}, {"epsilon": 0.5}):
            with pytest.warns(UserWarning) as rec:
                experiments.physical_params(cfg, **point)
            assert len(rec) == 1
            assert rec[0].filename == experiments.__file__


class TestFullModel:
    def test_no_drive_ground_vacuum_stationary(self):
        p = stark_balance(
            PhysicalParams.symmetric(
                g=0.0, kappa=10.0, gamma=5.0, Delta=1000.0, Omega_r=0.0, Omega_s=0.0,
                epsilon=0.9,
            ),
            "raman_resonant",
        )
        space = ModelSpace(5, 1)
        act = build_full_liouvillian(p, space)
        rho = vacuum_ground_state(space)
        assert np.abs(act.apply(rho)).max() < 1e-12

    def test_trace_preserving(self):
        rng = np.random.default_rng(62)
        space = ModelSpace(5, 1)
        act = build_full_liouvillian(scaled_params(gamma=3.0), space)
        for _ in range(3):
            rho = rand_herm_state(rng, space.dim)
            out = act.apply(rho)
            assert abs(np.trace(out)) <= 1e-10 * act.rate_scale

    def test_matches_effective_model_at_early_times(self):
        # gamma = 0, strong detuning: the five-level model must track the
        # two-level effective model once the excited states are eliminated
        p = scaled_params(gamma=0.0)
        space5 = ModelSpace(5, 1)
        space2 = ModelSpace(2, 1)
        act5 = build_full_liouvillian(p, space5)
        act2 = build_effective_liouvillian(p, space2)
        times = np.linspace(0.0, 0.8, 5)
        t5 = integrate(act5, vacuum_ground_state(space5), times, rel_tol=1e-6, abs_tol=1e-9)
        t2 = integrate(act2, vacuum_ground_state(space2), times, rel_tol=1e-8, abs_tol=1e-11)
        for s5, s2 in zip(t5.states[1:], t2.states[1:]):
            m5 = qubit_marginal(s5, space5)
            m2 = qubit_marginal(s2, space2)
            assert np.abs(m5 - m2).max() <= 0.02
            assert abs(fef_fidelity(m5) - fef_fidelity(m2)) <= 0.02

    def test_spontaneous_emission_lowers_fidelity(self):
        space = ModelSpace(5, 1)
        times = np.linspace(0.0, 1.0, 3)
        fids = {}
        for gam in (0.0, 8.0):
            act = build_full_liouvillian(scaled_params(gamma=gam), space)
            traj = integrate(act, vacuum_ground_state(space), times, rel_tol=1e-6, abs_tol=1e-9)
            fids[gam] = fef_fidelity(qubit_marginal(traj.final(), space))
        assert fids[8.0] < fids[0.0] - 1e-3

    def test_wrong_space_rejected(self):
        p = scaled_params()
        with pytest.raises(DimensionMismatch):
            build_full_liouvillian(p, ModelSpace(2, 1))
        with pytest.raises(DimensionMismatch):
            build_effective_liouvillian(p, ModelSpace(5, 1))


class TestFluxAndMarginals:
    def test_vacuum_flux_zero(self):
        space = ModelSpace(2, 1)
        op = output_flux_operator(fig3_like(), space)
        rho = vacuum_ground_state(space)
        assert abs(np.trace(rho @ op)) < 1e-14

    def test_uncoupled_flux_is_cavity2_output(self):
        p = fig3_like(epsilon=0.0)
        space = ModelSpace(2, 1)
        op = output_flux_operator(p, space)
        from casqed.linalg import TensorSpace, embed_at

        ts = space.tensor_space
        a2 = embed_at(np.diag([np.sqrt(1.0)], 1).astype(complex), 3, ts).toarray()
        n2 = dagger(a2) @ a2
        assert_allclose(op, 2 * 2 * np.pi * p.kappa2 * n2, atol=1e-12)

    def test_lift_and_marginal_round_trip(self):
        rng = np.random.default_rng(63)
        rho4 = rand_herm_state(rng, 4)
        for levels in (2, 5):
            space = ModelSpace(levels, 1)
            lifted = lift_qubit_state(rho4, space)
            assert abs(np.trace(lifted) - 1) < 1e-12
            assert_allclose(qubit_marginal(lifted, space), rho4, atol=1e-12)
