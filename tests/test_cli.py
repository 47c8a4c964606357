import pytest

from casqed import cli
from casqed.config import load_config
from casqed.errors import ConfigError

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


def with_key(text, key, value):
    lines = [ln for ln in text.splitlines() if not ln.startswith(key + " ")]
    if value is not None:
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def run(tmp_path, text, command="sweep-eps"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])


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
])
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, text):
    assert run(tmp_path, text) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


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
