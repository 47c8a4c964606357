import json

import numpy as np
import pytest

from casqed import experiments
from casqed.cavity import (
    ModelSpace,
    PhysicalParams,
    build_full_liouvillian,
    qubit_marginal,
    stark_balance,
    top_fock_population,
)
from casqed.config import parse_config_text, validate_config
from casqed.dynamics import integrate, steady_state_nullspace
from casqed.errors import CasqedError
from casqed.experiments import (
    REDUCED_BLOCK,
    TIER_TOLS,
    build_tier,
    converged_steady_state,
    physical_params,
    run_sweep_coop,
)
from casqed.metrics import fef_fidelity
from casqed.reduced import analytic_steady_state

FIG3 = """\
model.tier = effective
model.fock_cutoff = 2
physical.g_2pi_MHz = 110
physical.kappa1_2pi_MHz = 14.2
physical.gamma_2pi_MHz = 5.2
physical.Delta_2pi_MHz = 8000
physical.Omega_s_2pi_MHz = 100
physical.a_over_b = 2
physical.epsilon = 0.98
"""

# weakly driven full tier (beta / kappa ~ 1e-4): cutoff 1 already holds
# less than 1e-6 in its top photon state, so the point costs one solve
WEAK_FULL = """\
model.tier = full
model.fock_cutoff = 1
physical.g_2pi_MHz = 30
physical.kappa1_2pi_MHz = 50
physical.gamma_2pi_MHz = 3
physical.Delta_2pi_MHz = 2000
physical.Omega_s_2pi_MHz = 1
physical.a_over_b = 2
physical.epsilon = 0.98
sweep.Y = 20
"""


def config(text):
    return validate_config(parse_config_text(text), text=text)


class TestConvergedSteadyState:
    def test_escalates_to_cutoff_4_at_sparse_lu_value(self):
        # the cutoff-4 point of the effective benchmark sweep; the reference
        # is a bordered sparse-LU solve at cutoff 4
        cfg = config(FIG3)
        p = physical_params(cfg, a_over_b=4.0, epsilon=0.7)
        rho, space, cutoff = converged_steady_state(p, "effective", cfg)
        assert cutoff == 4
        assert top_fock_population(rho, space) <= 1e-6
        assert abs(fef_fidelity(qubit_marginal(rho, space)) - 0.6237466624) <= 1e-9


class TestSweepCoop:
    def test_full_tier_point_is_a_direct_steady_state(self, tmp_path):
        cfg = config(WEAK_FULL)
        csv = run_sweep_coop(cfg, tmp_path)
        lines = csv.read_text().splitlines()
        assert lines[0] == "a_over_b,epsilon,Y,g_2pi_MHz,fidelity"
        ratio, eps, Y, g, fid = (float(x) for x in lines[1].split(","))
        assert lines[2].startswith("#")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [pt["converged"] for pt in manifest["points"]] == [True]

        # rebuild the point: g from Y = g^2 / (kappa gamma), drives rescaled
        # so that beta = g Omega / (2 Delta) stays at its configured value
        assert abs(g - np.sqrt(20.0 * 50.0 * 3.0)) <= 1e-12
        omega_s = 1.0 * 30.0 / g
        p = stark_balance(PhysicalParams.symmetric(
            g=g, kappa=50.0, gamma=3.0, Delta=2000.0,
            Omega_r=2.0 * omega_s, Omega_s=omega_s, epsilon=0.98,
        ))
        space = ModelSpace(5, 1)
        act = build_full_liouvillian(p, space)
        rho = steady_state_nullspace(act)
        assert np.linalg.norm(act.apply(rho)) <= 1e-12 * act.rate_scale
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert top_fock_population(rho, space) <= 1e-6
        assert abs(fid - fef_fidelity(qubit_marginal(rho, space))) <= 1e-12


# the evolve-full benchmark point: five-level atoms, cutoff 1 (d = 100)
SCALED_FULL = """\
model.tier = full
model.fock_cutoff = 1
physical.g_2pi_MHz = 30
physical.kappa1_2pi_MHz = 10
physical.gamma_2pi_MHz = 3
physical.Delta_2pi_MHz = 500
physical.Omega_s_2pi_MHz = 33.33
physical.a_over_b = 2
physical.epsilon = 0.98
"""


class TestTierTolerances:
    def test_full_tier_defaults_return_states(self):
        # at the former default abs_tol of 1e-3, DP5 sampled ||rho||_F up to
        # 5.9 and an eigenvalue of -3.7 here
        cfg = config(SCALED_FULL)
        model = build_tier(cfg, "full")
        rel, abs_ = TIER_TOLS["full"]
        traj = integrate(model.action, model.rho0, np.linspace(0.0, 0.1, 7), rel_tol=rel, abs_tol=abs_)
        for rho in traj.states:
            assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -1e-6
            assert np.linalg.norm(rho) <= 1 + 1e-6


# reduced-tier grids with failing points: a/b = 1 at eps = 1 is degenerate;
# with the physical block a/b < 1 needs alpha_t < 0, which Delta > 0 cannot give
BARE_REDUCED = "model.tier = reduced\nsweep.a_over_b = 0.5,1.0,2.0\nsweep.epsilon = 0.8,1.0\n"
PHYSICAL_REDUCED = (FIG3.replace("effective", "reduced")
                    + "sweep.a_over_b = 0.5,1.0,2.0\nsweep.epsilon = 0.9,1.0\n")
INFEASIBLE_COOP = FIG3.replace("effective", "reduced").replace("a_over_b = 2", "a_over_b = 0.5")


def _alone(cfg, point):
    """(fidelity, error) of one reduced point, each function called on it alone."""
    try:
        drive = experiments._point_model(cfg, "reduced", point)
        return fef_fidelity(analytic_steady_state(drive)), None
    except CasqedError as exc:
        return float("nan"), f"{type(exc).__name__}: {exc}"


class TestReducedBlocks:
    @pytest.mark.parametrize("text, points, errors", [
        pytest.param(BARE_REDUCED, "eps", {"DegenerateParams"}, id="bare"),
        pytest.param(BARE_REDUCED + "drive.cross = true\n", "eps", {"DegenerateParams"}, id="cross"),
        pytest.param(PHYSICAL_REDUCED, "eps", {"DegenerateParams", "InfeasibleBalance"}, id="physical"),
        pytest.param(INFEASIBLE_COOP, "coop", {"InfeasibleBalance"}, id="infeasible-coop"),
    ])
    def test_block_equals_each_point_alone(self, text, points, errors):
        cfg = config(text)
        if points == "eps":
            points = [{"a_over_b": r, "epsilon": e} for r in cfg.sweep_a_over_b for e in cfg.sweep_epsilon]
        else:
            points = [{"Y": Y} for Y in (1.0, 10.0, 100.0)]
        block = experiments._reduced_block(cfg, points)
        alone = [_alone(cfg, p) for p in points]
        assert [(repr(f), e) for f, e in block] == [(repr(f), e) for f, e in alone]
        assert {e.split(":")[0] for _, e in block if e} == errors

    def test_failing_point_is_found_by_halving(self, monkeypatch):
        # one degenerate point (a/b = 1, eps = 1) among 1,024: ten halvings,
        # two closed-form passes each, after the block's own pass
        cfg = config(BARE_REDUCED)
        points = [{"a_over_b": 1.5 + 0.001 * i, "epsilon": 0.9} for i in range(REDUCED_BLOCK)]
        points[700] = {"a_over_b": 1.0, "epsilon": 1.0}
        calls = []

        def counted(drives):
            calls.append(len(drives))
            return analytic_steady_state(drives)

        monkeypatch.setattr(experiments, "analytic_steady_state", counted)
        block = experiments._reduced_block(cfg, points)
        assert len(calls) == 21
        assert [i for i, (_, e) in enumerate(block) if e] == [700]
        assert block[700][1].startswith("DegenerateParams")
        assert all(np.isfinite(f) for i, (f, _) in enumerate(block) if i != 700)
