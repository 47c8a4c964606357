import concurrent.futures
import json

import numpy as np
import pytest

from casqed import dynamics, experiments
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
from casqed.errors import CasqedError, ConfigError, DegenerateSteadyState
from casqed.experiments import (
    REDUCED_BLOCK,
    TIER_TOLS,
    build_tier,
    converged_steady_state,
    physical_params,
    run_steady,
    run_sweep_coop,
    run_sweep_eps,
    run_timeseries,
)
from casqed.metrics import fef_fidelity
from casqed.reduced import MatchedDrive, analytic_steady_state
from oracles import analytic_reference

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

    def test_probes_only_the_accepted_cutoff(self, monkeypatch):
        # a/b 4, eps 0.7 solves at cutoffs 2, 3 and 4 (d = 36, 64, 100): one
        # probe per sector, both on the d = 100 generator and on the sectors
        # (Schur forms) of its own solve
        made, probed = [], []
        init, probe = dynamics._BorderedSectors.__init__, dynamics._BorderedSectors.probe

        def counted_init(self, liouvillian):
            made.append(self)
            init(self, liouvillian)

        def counted_probe(self, sector):
            probed.append((self, sector))
            return probe(self, sector)

        monkeypatch.setattr(dynamics._BorderedSectors, "__init__", counted_init)
        monkeypatch.setattr(dynamics._BorderedSectors, "probe", counted_probe)
        cfg = config(FIG3)
        p = physical_params(cfg, a_over_b=4.0, epsilon=0.7)
        assert converged_steady_state(p, "effective", cfg)[2] == 4
        assert [sectors.dim for sectors in made] == [36, 64, 100]
        assert probed == [(made[-1], "even"), (made[-1], "odd")]

    def test_matched_drive_is_degenerate_at_the_accepted_cutoff(self):
        # a/b = 1: no cutoff's state is unique; the escalation probes only
        # the cutoff it accepts, and the probe there still flags it
        cfg = config(FIG3)
        p = physical_params(cfg, a_over_b=1.0, epsilon=0.98)
        with pytest.raises(DegenerateSteadyState):
            converged_steady_state(p, "effective", cfg)

    def test_manifest_records_the_accepted_cutoff(self, tmp_path):
        # each cavity-tier point names the cutoff it kept and that cutoff's
        # top-photon population; the CSV keeps its columns
        cfg = config(FIG3 + "sweep.a_over_b = 1.5,4.0\nsweep.epsilon = 0.7\n")
        run_sweep_eps(cfg, tmp_path)
        points = json.loads((tmp_path / "manifest.json").read_text())["points"]
        for point in points:
            p = physical_params(cfg, a_over_b=point["a_over_b"], epsilon=point["epsilon"])
            rho, space, cutoff = converged_steady_state(p, "effective", cfg)
            assert point["cutoff"] == cutoff
            assert point["top_fock"] == top_fock_population(rho, space)
        assert [pt["cutoff"] for pt in points] == [3, 4]
        assert (tmp_path / "sweep_eps.csv").read_text().splitlines()[0] == "a_over_b,epsilon,fidelity"


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
        # at the former default abs_tol of 1e-3, the Dormand-Prince integrator
        # used before the Krylov steps sampled ||rho||_F up to 5.9 and an
        # eigenvalue of -3.7 here
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
        drive = experiments._point_model(cfg, point)
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


def test_reduced_block_matches_the_drive_by_drive_reference():
    # a bare grid block with a complex drive.b, cross drives and the
    # degenerate a/b = 1, eps = 1 inside: each fidelity is that of the
    # Python-float reference state, bit for bit, and the degenerate point
    # gets the reference's own error
    cfg = config("model.tier = reduced\ndrive.b = 0.6-0.8j\ndrive.cross = true\n"
                 "sweep.a_over_b = 0.25:4:0.25\nsweep.epsilon = 0:1:0.125\n")
    points = [{"a_over_b": r, "epsilon": e} for r in cfg.sweep_a_over_b for e in cfg.sweep_epsilon]
    drives = [MatchedDrive(p["a_over_b"] * cfg.b, cfg.b, p["epsilon"], cross=True) for p in points]
    block = experiments._reduced_block(cfg, points)
    bad = [i for i, (_, e) in enumerate(block) if e]
    assert [(points[i]["a_over_b"], points[i]["epsilon"]) for i in bad] == [(1.0, 1.0)]
    with pytest.raises(CasqedError) as ref:
        analytic_reference([drives[bad[0]]])
    assert block[bad[0]][1] == f"DegenerateParams: {ref.value}"
    rest = [d for i, d in enumerate(drives) if i != bad[0]]
    expected = fef_fidelity(analytic_reference(rest)).tolist()
    assert [repr(f) for i, (f, _) in enumerate(block) if i != bad[0]] == [repr(f) for f in expected]


def test_pool_gets_no_more_workers_than_tasks(monkeypatch):
    # the pool forks all its processes at the first submit; a fake pool
    # records the size it was asked for and starts none
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    assert experiments._run_points(abs, [-1, -2, -3, -4], 64) == [1, 2, 3, 4]
    assert sizes == [4]
    assert experiments._run_points(abs, [-1, -2, -3, -4], 2) == [1, 2, 3, 4]
    assert sizes == [4, 2]


TWO_TIERS = FIG3.replace("effective", "reduced,effective") + "sweep.Y = 5,50\n"
OTHER_EXPERIMENT = FIG3.replace("effective", "reduced") + "sweep.Y = 5,50\nexperiment = metrics\n"


@pytest.mark.parametrize("runner, text, key", [
    pytest.param(run_sweep_eps, TWO_TIERS, "model.tier", id="sweep-eps-two-tiers"),
    pytest.param(run_sweep_coop, TWO_TIERS, "model.tier", id="sweep-coop-two-tiers"),
    pytest.param(run_steady, TWO_TIERS, "model.tier", id="steady-two-tiers"),
    pytest.param(run_sweep_eps, OTHER_EXPERIMENT, "experiment", id="sweep-eps-experiment"),
    pytest.param(run_sweep_coop, OTHER_EXPERIMENT, "experiment", id="sweep-coop-experiment"),
    pytest.param(run_timeseries, OTHER_EXPERIMENT, "experiment", id="evolve-experiment"),
    pytest.param(run_steady, OTHER_EXPERIMENT, "experiment", id="steady-experiment"),
])
def test_runner_checks_its_config_before_any_point(tmp_path, monkeypatch, runner, text, key):
    # the Python API gets the pre-run check the CLI gets: no point runs and
    # no output directory appears
    for name in ("_run_points", "build_tier", "analytic_steady_state"):
        monkeypatch.setattr(experiments, name, lambda *a: pytest.fail("a point ran"))
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as info:
        if runner is run_steady:
            run_steady(config(text), out=lambda line: pytest.fail("steady printed"))
        else:
            runner(config(text), out)
    assert info.value.key == key
    assert not out.exists()
