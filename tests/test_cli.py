import dataclasses
import hashlib
import json
import re
import warnings

import numpy as np
import pytest
from test_experiments import WEAK_FULL

from casqed import cli, experiments
from casqed.cavity import reduced_params
from casqed.config import KEYS, load_config, parse_config_text, validate_config
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
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text)
    return cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *args])


# an evolve run at these values never finished, so they are tested at load
NEVER_FINISH = [
    pytest.param(REDUCED + "time.t_max_us = inf\n", id="infinite-t_max"),
    pytest.param(REDUCED + "solver.rel_tol = nan\n", id="nan-rel_tol"),
]


@pytest.mark.parametrize("text", NEVER_FINISH)
def test_bad_value_fails_at_load(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError):
        load_config(cfg)


# configs that sweep-eps rejects
BAD_SWEEP_EPS = [
    pytest.param(with_key(FIG3, "physical.Delta_2pi_MHz", 0), id="zero-detuning"),
    pytest.param(with_key(FIG3, "physical.kappa1_2pi_MHz", -1), id="negative-kappa"),
    pytest.param(with_key(FIG3, "physical.g_2pi_MHz", "abc"), id="non-numeric"),
    pytest.param(with_key(FIG3, "physical.gamma_2pi_MHz", None), id="missing-key"),
    pytest.param(with_key(REDUCED, "drive.b", 0), id="zero-drive"),
    pytest.param(with_key(REDUCED, "sweep.epsilon", "0.9,1.5"), id="sweep-epsilon-range"),
    pytest.param(REDUCED.replace("reduced", "effective"), id="cavity-tier-without-physical"),
    pytest.param(with_key(REDUCED_COOP, "physical.kappa2_2pi_MHz", 28.4), id="unmatched-closed-form"),
    pytest.param(with_key(FIG3, "solver.max_time_us", 10), id="removed-key"),
    # keys that changed no output
    pytest.param(REDUCED + "drive.kappa1 = 2\n", id="removed-key-drive.kappa1"),
    pytest.param(REDUCED + "drive.kappa2 = 3\n", id="removed-key-drive.kappa2"),
    pytest.param(FIG3 + "physical.omega_1_2pi_MHz = 250\n", id="removed-key-omega_1"),
    pytest.param(REDUCED + "solver.ss_tol = 1e-9\n", id="removed-key-solver.ss_tol"),
    *NEVER_FINISH,
    pytest.param(with_key(FIG3, "physical.g_2pi_MHz", "nan"), id="nan-coupling"),
    pytest.param(with_key(FIG3, "physical.Omega_s_2pi_MHz", "nan"), id="nan-Omega_s"),
    pytest.param(FIG3 + "physical.omega_1_2pi_MHz = nan\n", id="nan-omega_1"),
    pytest.param(REDUCED + "drive.a = nan\n", id="nan-drive"),
    pytest.param(REDUCED + "drive.kappa1 = inf\n", id="infinite-drive-kappa"),
    pytest.param(REDUCED + "solver.abs_tol = -1\n", id="negative-abs_tol"),
    pytest.param(REDUCED + "drive.cross = maybe\n", id="cross-maybe"),
    pytest.param(REDUCED + "drive.cross = 2\n", id="cross-2"),
    # two keys that set one value
    pytest.param(REDUCED + "drive.a = 3\ndrive.a_over_b = 2\n", id="a-and-a_over_b"),
    pytest.param(FIG3 + "drive.a = 3\n", id="a-and-physical"),
    pytest.param(FIG3 + "drive.b = 3\n", id="b-and-physical"),
    pytest.param(FIG3 + "drive.a_over_b = 3\n", id="a_over_b-and-physical"),
    pytest.param(FIG3 + "drive.epsilon = 0.9\n", id="epsilon-and-physical"),
    pytest.param(FIG3 + "drive.cross = true\n", id="cross-and-physical"),
    # integer values that are not integral
    pytest.param(FIG3 + "model.fock_cutoff = 2.5\n", id="fractional-fock_cutoff"),
    pytest.param(REDUCED + "time.n_points = 7.9\n", id="fractional-n_points"),
    pytest.param(FIG3 + "model.fock_cutoff = true\n", id="boolean-fock_cutoff"),
    pytest.param(with_key(REDUCED_COOP, "sweep.Y", "log:1:300:7.9"), id="fractional-log-count"),
    # a range whose count overflows
    pytest.param(with_key(REDUCED, "sweep.epsilon", "0:1e300:1e-300"), id="uncountable-range"),
    pytest.param(b"drive.b = \xff1\n", id="not-utf8"),
    # finite amplitudes whose squares are not
    pytest.param(with_key(REDUCED, "drive.b", "1e200"), id="huge-drive"),
    pytest.param(with_key(FIG3, "physical.g_2pi_MHz", "1e200"), id="huge-coupling"),
    pytest.param(with_key(FIG3, "physical.Omega_s_2pi_MHz", "1e200"), id="huge-Omega_s"),
]


@pytest.mark.parametrize("command, text", [
    *[pytest.param("sweep-eps", *case.values, id=case.id) for case in BAD_SWEEP_EPS],
    # keys that no sweep-eps point reads, through a command that reads them
    pytest.param("evolve", with_key(REDUCED, "drive.epsilon", 1.5), id="epsilon-range"),
    pytest.param("evolve", with_key(FIG3, "physical.epsilon", -0.1), id="physical-epsilon-range"),
])
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, command, text):
    assert run(tmp_path, text, command) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


# values for the keys without a default; the physical ones come from FIG3
NO_DEFAULT = {"experiment": "evolve", "drive.a": "3", "drive.a_over_b": "2",
              "solver.rel_tol": "1e-9", "solver.abs_tol": "1e-11", "physical.kappa2_2pi_MHz": "20"}


def test_help_shows_every_key_with_its_default(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    shown = dict(re.findall(r"^  ([\w.]+)(?: = (\S+))?  ", capsys.readouterr().out, flags=re.M))
    assert set(shown) == {key.name for key in KEYS}

    def parsed(text):
        return dataclasses.replace(validate_config(parse_config_text(text), text), sha256="")

    for name, default in shown.items():
        base = with_key(FIG3, name, None) if name.startswith("physical.") else ""
        if default:  # the printed default is the value of an absent key
            assert parsed(base + f"{name} = {default}\n") == parsed(base), name
        elif name in NO_DEFAULT:
            parsed(base + f"{name} = {NO_DEFAULT[name]}\n")
        else:  # a required physical.* key
            with pytest.raises(ConfigError):
                parsed(base)
            parsed(FIG3)
    with pytest.raises(ConfigError, match="unknown key"):
        parsed("solver.max_time_us = 10\n")


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


@pytest.mark.parametrize("command, tiers", [
    ("sweep-eps", "reduced,effective"),
    ("sweep-eps", "effective,reduced"),
    ("sweep-coop", "reduced,effective"),
])
def test_sweep_of_two_tiers_exits_2_before_any_point(tmp_path, capsys, monkeypatch, command, tiers):
    # the sweep CSV has no tier column: a second tier was dropped unseen
    monkeypatch.setattr(experiments, "_run_points", lambda *a: pytest.fail("a point ran"))
    text = with_key(FIG3 + "sweep.Y = 5,50\n", "model.tier", tiers)
    text = with_key(with_key(text, "sweep.a_over_b", "1.5,2"), "sweep.epsilon", "0.9")
    assert run(tmp_path, text, command) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "model.tier" in err[0]
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
                  ["Y", "converged", "cutoff", "top_fock"], 1),
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


def test_matched_cavity_point_fails_as_degenerate_and_exits_1(tmp_path, capsys):
    # a/b = 1 in the effective tier: the steady state is not unique, and the
    # probe of the cutoff the escalation accepts says so; a/b = 2 converges
    text = with_key(with_key(FIG3, "sweep.a_over_b", "1,2"), "sweep.epsilon", "0.98")
    assert run(tmp_path, text) == 1
    assert capsys.readouterr().err.splitlines() == ["error: 1 sweep point(s) failed; see manifest"]
    rows = (tmp_path / "out" / "sweep_eps.csv").read_text().splitlines()[1:-1]
    assert rows[0] == "1.0,0.98,nan"
    bad, good = json.loads((tmp_path / "out" / "manifest.json").read_text())["points"]
    assert bad["converged"] is False and bad["error"].startswith("DegenerateSteadyState: ")
    assert good["converged"] is True and good["a_over_b"] == 2


# 61 ratios x 31 epsilons: two blocks of the default size; the degenerate
# point a/b = 1, eps = 1 fails in the first
MANY_BLOCKS = "model.tier = reduced\nsweep.a_over_b = 1.0:4.0:0.05\nsweep.epsilon = 0.7:1.0:0.01\n"


def test_reduced_csv_is_the_same_for_any_blocks_and_workers(tmp_path, monkeypatch):
    runs = {}
    for name, workers, block in (("w1", "1", None), ("w2", "2", None), ("b7", "1", 7), ("b7-w2", "2", 7)):
        if block is not None:
            monkeypatch.setattr(experiments, "REDUCED_BLOCK", block)
        out = tmp_path / name
        out.mkdir()
        assert run(out, MANY_BLOCKS, "sweep-eps", "--workers", workers) == 1
        points = json.loads((out / "out" / "manifest.json").read_text())["points"]
        runs[name] = ((out / "out" / "sweep_eps.csv").read_bytes(), points)
    csv, points = runs["w1"]
    assert all(other == runs["w1"] for other in runs.values())
    assert len(csv.decode().splitlines()) == 61 * 31 + 2
    assert [pt for pt in points if not pt["converged"]] == [
        {"a_over_b": 1.0, "epsilon": 1.0, "converged": False,
         "error": "DegenerateParams: steady state is degenerate at |a|=1, |b|=1, eps=1"}]


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


@pytest.mark.parametrize("t_max", [20, 1000])
def test_default_reduced_evolve_runs_long(tmp_path, t_max):
    # the epsilon = 1 dark state has no photon flux: an integration error
    # of order 1e-12 would make it negative beyond the flux guard
    assert run(tmp_path, f"time.t_max_us = {t_max}\n", "evolve") == 0
    lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
    fidelity = lines[0].split(",").index("fidelity")
    assert abs(float(lines[-2].split(",")[fidelity]) - 0.9) <= 1e-6


def test_steady_prints_a_small_frobenius_difference(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("drive.epsilon = 0.98\n")
    assert cli.main(["steady", "--config", str(cfg)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("frobenius difference: ")
    assert float(last.split(": ")[1]) <= 1e-12


@pytest.mark.parametrize("tiers", ["effective", "full", "reduced,effective"])
def test_steady_of_another_tier_exits_2_with_one_line(tmp_path, capsys, tiers):
    # steady compares the reduced closed form with the reduced null space;
    # a config naming another tier would print a state it did not ask for
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_key(FIG3, "model.tier", tiers))
    assert cli.main(["steady", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "model.tier" in err[0]
    # the physical block itself is fine for the reduced tier
    cfg.write_text(with_key(FIG3, "model.tier", "reduced"))
    assert cli.main(["steady", "--config", str(cfg)]) == 0


def test_steady_solves_the_drive_of_the_physical_block(tmp_path, capsys, monkeypatch):
    # steady takes the bridge's jump amplitudes, the drive reduced sweep-eps
    # solves at the configured a/b 2, epsilon 0.98 (FIG3's one sweep point)
    text = with_key(FIG3, "model.tier", "reduced")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    states = []

    def recorded(drive):
        states.append(analytic_steady_state(drive))
        return states[-1]

    monkeypatch.setattr(experiments, "analytic_steady_state", recorded)
    assert cli.main(["steady", "--config", str(cfg)]) == 0
    monkeypatch.undo()
    rp = reduced_params(experiments.physical_params(load_config(cfg)))
    assert capsys.readouterr().out.splitlines()[0] == f"matched drive: a={rp.r1:g}, b={rp.s1:g}, epsilon=0.98"
    assert run(tmp_path, text) == 0
    fidelity = (tmp_path / "out" / "sweep_eps.csv").read_text().splitlines()[1].split(",")[-1]
    assert len(states) == 1 and fidelity == repr(fef_fidelity(states[0]))


def test_steady_of_an_unmatched_block_exits_2_with_one_line(tmp_path, capsys):
    # kappa2 != kappa1 gives atom 2 other amplitudes than atom 1, and the
    # closed form needs a matched drive: a config error, as in the sweeps
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_key(REDUCED_COOP, "physical.kappa2_2pi_MHz", 28.4))
    assert cli.main(["steady", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def test_metrics_prints_the_metrics_of_a_stored_state(tmp_path, capsys):
    rho = analytic_steady_state(MatchedDrive(2.0, 1.0, 0.98))
    path = tmp_path / "state.dm"
    write_dm(path, rho)
    assert cli.main(["metrics", "--dm", str(path)]) == 0
    header, values = capsys.readouterr().out.splitlines()
    assert header == ",".join(METRIC_COLUMNS[:4])
    # write_dm round-trips exactly, so the printed values are those of rho
    assert values == ",".join(repr(f(rho)) for f in (fef_fidelity, concurrence, vn_entropy, purity))


@pytest.mark.parametrize("entry, value", [
    # a NaN entry fails the density-matrix gate instead of reaching LAPACK
    pytest.param((1, 2), np.nan, id="nan-entry"),
    pytest.param((0, 0), 1.25, id="trace-2"),
    # trace 1, hermitian, eigenvalues 0.75 and -0.25 in the {|1 0>, |0 1>} block
    pytest.param((1, 2), 0.5, id="negative-eigenvalue"),
])
def test_invalid_dm_matrix_exits_2_with_one_line(tmp_path, capsys, entry, value):
    # the matrix is user input, so failing the gate is a config error
    rho = np.eye(4, dtype=complex) / 4
    rho[entry] = rho[entry[::-1]] = value
    path = tmp_path / "state.dm"
    write_dm(path, rho)
    assert cli.main(["metrics", "--dm", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize("text, command", [
    pytest.param(REDUCED + "time.n_points = 1e15\n", "evolve", id="n_points"),
    pytest.param(FIG3 + "model.fock_cutoff = 1e15\n", "evolve", id="fock_cutoff-evolve"),
    pytest.param(FIG3 + "model.fock_cutoff = 1e15\n", "sweep-eps", id="fock_cutoff-sweep"),
])
def test_run_too_large_to_allocate_exits_1_with_one_line(tmp_path, capsys, text, command):
    # sizes the config accepts but no allocator can hold (7 PiB) fail at once
    assert run(tmp_path, text, command) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: ")


def _no_point_runs(monkeypatch):
    for name in ("_run_points", "build_tier", "analytic_steady_state"):
        monkeypatch.setattr(experiments, name, lambda *a: pytest.fail("a point ran"))


# one a/b whose drive overflows, at either end of the axis
OVERFLOW = {
    "bare-reduced": REDUCED,
    "fig3-reduced": FIG3.replace("effective", "reduced"),
    "fig3-effective": FIG3,
}


@pytest.mark.parametrize("name", list(OVERFLOW))
def test_overflowing_point_fails_in_its_row_at_either_end_of_the_axis(tmp_path, capsys, name):
    rows = {}
    for ratios in ("1e200,2", "2,1e200"):
        text = with_key(with_key(OVERFLOW[name], "sweep.a_over_b", ratios), "sweep.epsilon", "0.9")
        out = tmp_path / ratios
        out.mkdir()
        assert run(out, text) == 1
        assert capsys.readouterr().err.splitlines() == ["error: 1 sweep point(s) failed; see manifest"]
        rows[ratios] = sorted((out / "out" / "sweep_eps.csv").read_text().splitlines()[1:-1])
        points = json.loads((out / "out" / "manifest.json").read_text())["points"]
        bad = [pt for pt in points if not pt["converged"]]
        assert [pt["a_over_b"] for pt in bad] == [1e200] and bad[0]["error"].startswith("InvalidParams: ")
    assert rows["1e200,2"] == rows["2,1e200"]
    assert rows["1e200,2"][0] == "1e+200,0.9,nan"


UNMATCHED = with_key(REDUCED_COOP, "physical.kappa2_2pi_MHz", 28.4)


@pytest.mark.parametrize("a_over_b", ["2", "0.5"])
@pytest.mark.parametrize("command, ratios", [
    ("steady", "2"),
    ("sweep-eps", "0.5,2"),
    ("sweep-eps", "2,0.5"),
    ("sweep-coop", "2"),
])
def test_unmatched_block_exits_2_at_any_configured_or_first_ratio(tmp_path, capsys, monkeypatch,
                                                                   command, ratios, a_over_b):
    # kappa2 != kappa1 gives no a/b a matched drive; a/b = 0.5 has no
    # balance, and neither it nor the axis order may hide the unmatched block
    _no_point_runs(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_key(with_key(UNMATCHED, "sweep.a_over_b", ratios), "physical.a_over_b", a_over_b))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg)] + ([] if command == "steady" else ["--out", str(out)])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "matched drive" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("evolve", REDUCED_EVOLVE),
    ("steady", "model.tier = reduced\n"),
    ("sweep-coop", REDUCED_COOP),
], ids=["evolve", "steady", "sweep-coop"])
def test_only_sweep_eps_checks_its_epsilon_axis(tmp_path, capsys, command, text):
    # sweep.epsilon reaches no point of evolve, steady or sweep-coop
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_key(text, "sweep.epsilon", "0.9,1.5"))
    out = ["--out", str(tmp_path / "out")]
    assert cli.main([command, "--config", str(cfg)] + ([] if command == "steady" else out)) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(["sweep-eps", "--config", str(cfg)] + out) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: invalid model parameters: epsilon must lie in [0, 1], got 1.5"]


EPSILON_RANGE = "config error: invalid model parameters: epsilon must lie in [0, 1], got 1.5"


@pytest.mark.parametrize("base, key, value, readers, message", [
    *[pytest.param(FIG3.replace("effective", tier), "physical.a_over_b", a_over_b, (), None,
                   id=f"{a_over_b}-{tier}") for a_over_b in ("1e200", "8") for tier in ("reduced", "effective")],
    pytest.param(REDUCED, "drive.a", "1e200", ("evolve", "steady"),
                 "config error: invalid model parameters: a = 1e+200+0j: its squared modulus is not a finite float",
                 id="drive.a"),
    pytest.param(REDUCED, "drive.epsilon", "1.5", ("evolve", "steady"), EPSILON_RANGE, id="drive.epsilon"),
    pytest.param(FIG3.replace("effective", "reduced"), "physical.epsilon", "1.5",
                 ("evolve", "sweep-coop", "steady"), EPSILON_RANGE, id="physical.epsilon"),
])
def test_sweep_eps_reads_no_configured_ratio(tmp_path, capsys, base, key, value, readers, message):
    # every point replaces a/b and epsilon (without the physical block: the
    # drive's a and epsilon), so a configured value whose drive overflows,
    # whose balance lies outside the large-detuning regime or which lies out
    # of range changes nothing; each command that reads it exits 2 on it
    csv = {}
    for name, text in (("base", base), ("key", with_key(base, key, value))):
        (tmp_path / name).mkdir()
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            assert run(tmp_path / name, text) == 0
        assert [str(w.message) for w in rec] == [] and capsys.readouterr().err == ""
        csv[name] = (tmp_path / name / "out" / "sweep_eps.csv").read_bytes()
    assert csv["key"] == csv["base"]
    for command in readers:
        out = ["--out", str(tmp_path / command)]
        cfg = str(tmp_path / "key" / "run.cfg")
        assert cli.main([command, "--config", cfg] + ([] if command == "steady" else out)) == 2
        assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("command, text", [
    ("evolve", REDUCED_EVOLVE),
    ("sweep-eps", REDUCED),
    ("sweep-coop", REDUCED_COOP),
], ids=["evolve", "sweep-eps", "sweep-coop"])
def test_out_naming_a_file_exits_2_before_any_point(tmp_path, capsys, monkeypatch, command, text):
    _no_point_runs(monkeypatch)
    (tmp_path / "out").write_text("a file\n")
    assert run(tmp_path, text, command) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert (tmp_path / "out").read_text() == "a file\n"


@pytest.mark.parametrize("command, text", [("evolve", REDUCED_EVOLVE), ("sweep-eps", REDUCED)],
                         ids=["evolve", "sweep-eps"])
def test_failed_write_exits_1_with_one_line(tmp_path, capsys, monkeypatch, command, text):
    def disk_full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(experiments, "_write_csv", disk_full)
    assert run(tmp_path, text, command) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: cannot write output: [Errno 28] No space left on device"]
