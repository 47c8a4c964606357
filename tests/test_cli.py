import hashlib
import json

import numpy as np
import pytest
from test_experiments import WEAK_FULL

from casqed import cli
from casqed.config import load_config
from casqed.errors import ConfigError
from casqed.linalg import write_dm
from casqed.metrics import METRIC_COLUMNS, concurrence, fef_fidelity, purity, vn_entropy
from casqed.reduced import MatchedDrive, analytic_steady_state

FIG3 = """\
model.tier = effective
physical.g_2pi_MHz = 110
physical.kappa1_2pi_MHz = 14.2
physical.gamma_2pi_MHz = 5.2
physical.Delta_2pi_MHz = 8000
physical.Omega_s_2pi_MHz = 100
physical.a_over_b = 2
physical.epsilon = 0.98
sweep.a_over_b = 2
sweep.epsilon = 0.98
"""

REDUCED = """\
model.tier = reduced
sweep.a_over_b = 1.5,2.5
sweep.epsilon = 0.8,0.95
"""

# the closed form at fig. 3 parameters, three cooperativities
REDUCED_COOP = FIG3.replace("effective", "reduced") + "sweep.Y = 1,10,100\n"


def with_key(text, key, value):
    lines = [ln for ln in text.splitlines() if not ln.startswith(key + " ")]
    if value is not None:
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def run(tmp_path, text, command="sweep-eps", *args):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *args])


@pytest.mark.parametrize("text", [
    pytest.param(with_key(FIG3, "physical.Delta_2pi_MHz", 0), id="zero-detuning"),
    pytest.param(with_key(FIG3, "physical.kappa1_2pi_MHz", -1), id="negative-kappa"),
    pytest.param(with_key(FIG3, "physical.g_2pi_MHz", "abc"), id="non-numeric"),
    pytest.param(with_key(FIG3, "physical.gamma_2pi_MHz", None), id="missing-key"),
    pytest.param(with_key(REDUCED, "drive.b", 0), id="zero-drive"),
    pytest.param(with_key(REDUCED, "drive.epsilon", 1.5), id="epsilon-range"),
    pytest.param(with_key(FIG3, "physical.epsilon", -0.1), id="physical-epsilon-range"),
    pytest.param(with_key(REDUCED, "sweep.epsilon", "0.9,1.5"), id="sweep-epsilon-range"),
    pytest.param(REDUCED.replace("reduced", "effective"), id="cavity-tier-without-physical"),
    pytest.param(with_key(REDUCED_COOP, "physical.kappa2_2pi_MHz", 28.4), id="unmatched-closed-form"),
    pytest.param(with_key(FIG3, "solver.max_time_us", 10), id="removed-key"),
])
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, text):
    assert run(tmp_path, text) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize("text", [
    # Y = g^2 / (kappa1 gamma) is undefined without spontaneous emission
    pytest.param(with_key(REDUCED_COOP, "physical.gamma_2pi_MHz", 0), id="zero-gamma"),
    # the closed form holds only for beta_i proportional to sqrt(kappa_i)
    pytest.param(with_key(REDUCED_COOP, "physical.kappa2_2pi_MHz", 28.4), id="unmatched-closed-form"),
    # g = sqrt(Y kappa1 gamma) needs Y > 0
    pytest.param(with_key(REDUCED_COOP, "sweep.Y", "0,1"), id="zero-Y"),
    pytest.param(with_key(REDUCED_COOP, "sweep.Y", "-1,1"), id="negative-Y"),
])
def test_bad_coop_config_exits_2_before_any_point(tmp_path, capsys, text):
    assert run(tmp_path, text, "sweep-coop") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not (tmp_path / "out").exists()


def test_reduced_evolve_runs_an_unmatched_drive(tmp_path):
    # evolve integrates the exact two-qubit generator, matched or not
    text = with_key(REDUCED_COOP, "physical.kappa2_2pi_MHz", 28.4) + "time.t_max_us = 1\ntime.n_points = 3\n"
    assert run(tmp_path, text, "evolve") == 0
    assert len((tmp_path / "out" / "timeseries.csv").read_text().splitlines()) == 5


def test_coop_and_eps_sweeps_agree_when_kappa2_differs(tmp_path):
    # Y = g^2 / (kappa1 gamma) at the configured g is the configured point,
    # so both sweeps solve the same physical parameters, kappa2 included
    text = with_key(FIG3, "physical.kappa2_2pi_MHz", 28.4) + f"sweep.Y = {110**2 / (14.2 * 5.2)!r}\n"
    fids = {}
    for command in ("sweep-eps", "sweep-coop"):
        out = tmp_path / command
        out.mkdir()
        assert run(out, text, command) == 0
        csv = out / "out" / (command.replace("-", "_") + ".csv")
        fids[command] = float(csv.read_text().splitlines()[1].split(",")[-1])
    assert fids["sweep-coop"] == pytest.approx(fids["sweep-eps"], abs=1e-12)
    # kappa2 = kappa1 gives 0.8391419518
    assert fids["sweep-eps"] == pytest.approx(0.6349470576, abs=1e-9)


def test_missing_physical_key_names_the_full_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_key(FIG3, "physical.gamma_2pi_MHz", None))
    with pytest.raises(ConfigError) as info:
        load_config(cfg)
    assert info.value.key == "physical.gamma_2pi_MHz"


def test_cross_drive_sweep(tmp_path, capsys):
    # the cross drive is the standard one up to X on qubit 2, a local
    # unitary, so the fully entangled fraction is the same on every point
    fids = {}
    for cross in ("false", "true"):
        out = tmp_path / cross
        out.mkdir()
        assert run(out, with_key(REDUCED, "drive.cross", cross)) == 0
        rows = (out / "out" / "sweep_eps.csv").read_text().splitlines()[1:-1]
        fids[cross] = [float(r.split(",")[2]) for r in rows]
    assert len(fids["true"]) == 4
    assert fids["true"] == pytest.approx(fids["false"], abs=1e-12)
    assert "Traceback" not in capsys.readouterr().err


# name -> (command, config, CSV header, manifest point keys, number of points)
SWEEPS = {
    "eps-reduced": ("sweep-eps", REDUCED, "a_over_b,epsilon,fidelity",
                    ["a_over_b", "epsilon", "converged"], 4),
    "coop-reduced": ("sweep-coop", REDUCED_COOP, "a_over_b,epsilon,Y,g_2pi_MHz,fidelity",
                     ["Y", "converged"], 3),
    "coop-full": ("sweep-coop", WEAK_FULL, "a_over_b,epsilon,Y,g_2pi_MHz,fidelity",
                  ["Y", "converged"], 1),
}


@pytest.fixture(scope="module", params=list(SWEEPS))
def sweep(request, tmp_path_factory):
    """One --workers 1 run of each sweep, shared by the contract tests."""
    command, text, header, keys, n = SWEEPS[request.param]
    out = tmp_path_factory.mktemp(request.param)
    assert run(out, text, command) == 0
    return command, text, header, keys, n, out / "out" / (command.replace("-", "_") + ".csv")


def test_sweep_writes_csv_and_manifest_schema(sweep):
    _, _, header, keys, n, csv = sweep
    lines = csv.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == n + 2 and lines[-1] == "# manifest: manifest.json"
    assert all(len(row.split(",")) == len(header.split(",")) for row in lines[1:-1])
    manifest = json.loads((csv.parent / "manifest.json").read_text())
    assert [list(pt) for pt in manifest["points"]] == [keys] * n
    assert all(pt["converged"] for pt in manifest["points"])
    assert csv.with_suffix(".svg").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_csv_bytes_repeat_for_any_workers(sweep, tmp_path, workers):
    command, text, *_, csv = sweep
    assert run(tmp_path, text, command, "--workers", workers) == 0
    assert (tmp_path / "out" / csv.name).read_bytes() == csv.read_bytes()


def test_failed_point_reads_nan_and_exits_1(tmp_path, capsys):
    # a = b with ideal coupling: the closed form is degenerate at a/b = 1 only
    text = with_key(with_key(REDUCED, "sweep.a_over_b", "1.0,2.0"), "sweep.epsilon", "1.0")
    assert run(tmp_path, text) == 1
    assert capsys.readouterr().err.splitlines() == ["error: 1 sweep point(s) failed; see manifest"]
    rows = (tmp_path / "out" / "sweep_eps.csv").read_text().splitlines()[1:-1]
    assert rows[0] == "1.0,1.0,nan" and rows[1].startswith("2.0,1.0,0.")
    bad, good = json.loads((tmp_path / "out" / "manifest.json").read_text())["points"]
    assert bad["converged"] is False and bad["error"].startswith("DegenerateParams: ")
    assert good == {"a_over_b": 2.0, "epsilon": 1.0, "converged": True}


@pytest.mark.parametrize("content", [
    pytest.param(None, id="missing-file"),
    pytest.param("dm x\n", id="bad-header"),
    pytest.param("dm 2\n1 0 0 0\n", id="short-row"),
    # a size the file cannot hold is not allocated before its rows are read
    pytest.param("dm 99999999999\n", id="huge-header"),
])
def test_bad_dm_file_exits_2_with_one_line(tmp_path, capsys, content):
    path = tmp_path / "state.dm"
    if content is not None:
        path.write_text(content)
    assert cli.main(["metrics", "--dm", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


REDUCED_EVOLVE = "model.tier = reduced\ntime.t_max_us = 1\ntime.n_points = 5\n"


def test_evolve_writes_csv_manifest_and_svg(tmp_path):
    assert run(tmp_path, REDUCED_EVOLVE, "evolve", "--seed", "7") == 0
    out = tmp_path / "out"
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0] == ",".join(("time_us", "tier") + METRIC_COLUMNS)
    assert lines[-1] == "# manifest: manifest.json"
    rows = [row.split(",") for row in lines[1:-1]]
    assert [row[1] for row in rows] == ["reduced"] * 5
    assert [float(row[0]) for row in rows] == list(np.linspace(0.0, 1.0, 5))
    assert all(len(row) == 2 + len(METRIC_COLUMNS) for row in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["artifact_version", "config_sha256", "points", "seed", "wall_clock_s"]
    assert manifest["config_sha256"] == hashlib.sha256(REDUCED_EVOLVE.encode()).hexdigest()
    assert manifest["seed"] == 7
    assert manifest["points"] == [{"tier": "reduced", "converged": True, "n_times": 5}]
    assert (out / "timeseries.svg").exists()

    again = tmp_path / "again"
    again.mkdir()
    assert run(again, REDUCED_EVOLVE, "evolve", "--seed", "7") == 0
    assert (again / "out" / "timeseries.csv").read_bytes() == (out / "timeseries.csv").read_bytes()


def test_steady_prints_a_small_frobenius_difference(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("drive.epsilon = 0.98\n")
    assert cli.main(["steady", "--config", str(cfg)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("frobenius difference: ")
    assert float(last.split(": ")[1]) <= 1e-12


def test_metrics_prints_the_metrics_of_a_stored_state(tmp_path, capsys):
    rho = analytic_steady_state(MatchedDrive(2.0, 1.0, 0.98))
    path = tmp_path / "state.dm"
    write_dm(path, rho)
    assert cli.main(["metrics", "--dm", str(path)]) == 0
    header, values = capsys.readouterr().out.splitlines()
    assert header == ",".join(METRIC_COLUMNS[:4])
    # write_dm round-trips exactly, so the printed values are those of rho
    assert values == ",".join(repr(f(rho)) for f in (fef_fidelity, concurrence, vn_entropy, purity))


def test_non_finite_dm_entry_exits_1_with_one_line(tmp_path, capsys):
    # a NaN entry fails the density-matrix gate instead of reaching LAPACK
    rho = np.eye(4, dtype=complex) / 4
    rho[1, 2] = rho[2, 1] = np.nan
    path = tmp_path / "state.dm"
    write_dm(path, rho)
    assert cli.main(["metrics", "--dm", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
