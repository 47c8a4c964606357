"""Which commands load scipy, and when.

The closed form, the reduced sweeps, ``metrics`` and ``--help`` need only
numpy, so they must leave scipy unloaded.  The cavity tiers and ``evolve``
need the solvers, and must load them before the run's clock starts, so
that the manifest's ``wall_clock_s`` times the experiment and not an
import.  Each case runs in a fresh interpreter, whose ``sys.modules`` this
process cannot have touched.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import casqed
from casqed.linalg import write_dm

SRC = Path(casqed.__file__).resolve().parent.parent

# argv: REPORT ("import" MODULE | CLI ARGS...).  Records the loaded scipy
# modules and, at the first clock reading of each runner, which solver
# layers were loaded.
CHILD = r"""
import json, sys, time

report, what = sys.argv[1], sys.argv[2:]
clock, at_start = time.perf_counter, {}
RUNNERS = ("_run_sweep", "run_timeseries")
LAYERS = ("casqed.cavity", "casqed.dynamics")


def probed():
    caller = sys._getframe(1).f_code.co_name
    if caller in RUNNERS and caller not in at_start:
        at_start[caller] = [m for m in LAYERS if m in sys.modules]
    return clock()


time.perf_counter = probed
rc = 0
if what[0] == "import":
    __import__(what[1])
else:
    from casqed.cli import main

    try:
        rc = main(what)
    except SystemExit as exc:
        rc = exc.code
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
with open(report, "w") as fh:
    json.dump({"rc": rc, "scipy": scipy, "at_start": at_start}, fh)
"""

FIG3 = """\
physical.g_2pi_MHz = 110
physical.kappa1_2pi_MHz = 14.2
physical.gamma_2pi_MHz = 5.2
physical.Delta_2pi_MHz = 8000
physical.Omega_s_2pi_MHz = 100
physical.a_over_b = 2
physical.epsilon = 0.98
"""

# 30 x 51 points: two closed-form blocks
BLOCKS = "model.tier = reduced\nsweep.a_over_b = 1.1:4.0:0.1\nsweep.epsilon = 0.7:1.0:0.006\n"
FIG3_REDUCED = "model.tier = reduced\n" + FIG3 + "sweep.a_over_b = 1.5,2,4\nsweep.epsilon = 0.7,0.98\n"
COOP_REDUCED = "model.tier = reduced\n" + FIG3 + "sweep.Y = 5,50\n"
EFFECTIVE = ("model.tier = effective\nmodel.fock_cutoff = 2\n" + FIG3
             + "sweep.a_over_b = 2\nsweep.epsilon = 0.98\n")
EVOLVE = "time.t_max_us = 1\ntime.n_points = 5\n"
# detuning 7.5 times the largest coupling: the balance warns
SCALED = """\
physical.g_2pi_MHz = 30
physical.kappa1_2pi_MHz = 10
physical.gamma_2pi_MHz = 3
physical.Delta_2pi_MHz = 500
physical.Omega_s_2pi_MHz = 33.33
physical.a_over_b = 2
physical.epsilon = 0.98
"""


def child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def child(tmp_path, *what) -> dict:
    report = tmp_path / "report.json"
    subprocess.run([sys.executable, "-c", CHILD, str(report), *what], cwd=tmp_path, env=child_env(),
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    return json.loads(report.read_text())


def command(tmp_path, name, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return (name, "--config", str(cfg), "--out", str(tmp_path / "out"))


@pytest.mark.parametrize("module", ["casqed", "casqed.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert child(tmp_path, "import", module)["scipy"] == []


def test_cli_import_loads_no_process_pool():
    # only a sweep with --workers > 1 starts a pool
    code = "import casqed.cli, sys; assert 'concurrent.futures' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=120)


def test_a_module_loads_on_first_access():
    # as when the package imported every layer: casqed.<module> after import casqed
    code = "import casqed, sys; assert casqed.dynamics is sys.modules['casqed.dynamics']"
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=120)


@pytest.mark.parametrize("name, text", [
    pytest.param("sweep-eps", BLOCKS, id="sweep-eps-blocks"),
    pytest.param("sweep-eps", FIG3_REDUCED, id="sweep-eps-fig3"),
    pytest.param("sweep-coop", COOP_REDUCED, id="sweep-coop"),
])
def test_reduced_sweep_loads_no_scipy(tmp_path, name, text):
    report = child(tmp_path, *command(tmp_path, name, text))
    assert report["rc"] == 0
    assert report["scipy"] == []
    assert report["at_start"] == {"_run_sweep": []}


def test_help_and_metrics_load_no_scipy(tmp_path):
    report = child(tmp_path, "--help")
    assert (report["rc"], report["scipy"]) == (0, [])
    dm = tmp_path / "state.dm"
    write_dm(dm, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    report = child(tmp_path, "metrics", "--dm", str(dm))
    assert (report["rc"], report["scipy"]) == (0, [])


@pytest.mark.parametrize("name, text, runner, layers", [
    pytest.param("sweep-eps", EFFECTIVE, "_run_sweep", ["casqed.cavity", "casqed.dynamics"],
                 id="sweep-eps-effective"),
    pytest.param("evolve", EVOLVE, "run_timeseries", ["casqed.dynamics"], id="evolve-reduced"),
])
def test_solvers_load_before_the_clock(tmp_path, name, text, runner, layers):
    report = child(tmp_path, *command(tmp_path, name, text))
    assert report["rc"] == 0
    assert report["scipy"] != []
    assert report["at_start"] == {runner: layers}


@pytest.mark.parametrize("name, text", [
    pytest.param("evolve", "model.tier = effective\nmodel.fock_cutoff = 1\n" + SCALED
                 + "time.t_max_us = 0.01\ntime.n_points = 2\n", id="evolve-effective"),
    pytest.param("steady", "model.tier = reduced\n" + SCALED, id="steady-physical"),
])
def test_the_balance_warns_once(tmp_path, name, text):
    # the pre-run check and the run both balance the configured point, and
    # Python shows the second warning only while its record of shown
    # warnings holds; importing scipy adds warning filters, which clears
    # it, so the import must not fall between the two
    args = command(tmp_path, name, text)
    if name == "steady":
        args = args[:3]
    env = child_env()
    env.pop("PYTHONWARNINGS", None)   # Python's default filters
    proc = subprocess.run([sys.executable, "-m", "casqed.cli", *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("UserWarning") == 1, proc.stderr
