import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casqed.config import parse_config_text, parse_value, validate_config
from casqed.errors import ConfigError

# pure parsing: many cheap examples, the same ones on every run
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
steps = st.floats(min_value=1e-3, max_value=10.0)
positive = st.floats(min_value=1e-6, max_value=1e6)


@SETTINGS
@given(lo=finite, step=steps, n=st.integers(1, 200), frac=st.floats(0.0, 0.5))
def test_range_counts_both_ends(lo, step, n, frac):
    # hi sits frac of a step past the n-th point, so exactly n points fit
    hi = lo + (n - 1 + frac) * step
    values = parse_value(f"{lo!r}:{hi!r}:{step!r}")
    assert len(values) == n
    assert values[0] == lo
    assert values[-1] <= hi + 1e-9 * step and hi - values[-1] < step
    assert all(b - a == pytest.approx(step, rel=1e-6, abs=1e-9) for a, b in zip(values, values[1:]))


@SETTINGS
@given(lo=finite, step=steps, gap=st.floats(1e-6, 100.0))
def test_range_below_its_start_is_empty(lo, step, gap):
    assert parse_value(f"{lo!r}:{lo - gap * step!r}:{step!r}") == []


@SETTINGS
@given(lo=positive, hi=positive, n=st.integers(1, 200))
def test_log_range_hits_both_ends_monotonically(lo, hi, n):
    values = parse_value(f"log:{lo!r}:{hi!r}:{n}")
    assert len(values) == n
    assert values[0] == pytest.approx(lo, rel=1e-12)
    if n > 1:
        assert values[-1] == pytest.approx(hi, rel=1e-12)
    ordered = values if hi >= lo else values[::-1]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(ordered, ordered[1:]))  # up to rounding
    assert all(math.isfinite(v) and v > 0 for v in values)


@SETTINGS
@given(items=st.lists(st.one_of(st.integers(-10**6, 10**6), finite), min_size=2, max_size=20))
def test_comma_list_round_trips(items):
    values = parse_value(",".join(repr(x) for x in items))
    assert values == items
    assert [type(v) for v in values] == [type(x) for x in items]


@pytest.mark.parametrize("text", ["log:0:1:5", "log:1:10:0", "log:1:10", "1:2:0", "1:2:-1", "1:2",
                                  "log:1:10:2.5", "log:1:10:true",
                                  # counts no allocator can hold (7 PiB and more), refused at
                                  # once; entry by entry they grew until the process was killed
                                  "0:1e300:1e-300", "0:1e15:1", "log:1:10:1e15"])
def test_bad_ranges_are_config_errors(text):
    with pytest.raises(ConfigError) as info:
        parse_config_text(f"sweep.epsilon = {text}")
    assert info.value.key == "sweep.epsilon" and info.value.line == 1


def test_integral_floats_are_counts():
    # 3.0 is the integer 3; 2.5 is rejected (see test_cli), not truncated
    cfg = validate_config(parse_config_text(
        "model.fock_cutoff = 3.0\ntime.n_points = 1e1\nsweep.Y = log:1:10:4.0\n"))
    assert (cfg.fock_cutoff, cfg.n_points, len(cfg.sweep_Y)) == (3, 10, 4)
    assert type(cfg.fock_cutoff) is int and type(cfg.n_points) is int


@SETTINGS
@given(lo=finite, step=steps, n=st.integers(1, 200), frac=st.floats(0.0, 0.5))
def test_range_values_are_lo_plus_i_step(lo, step, n, frac):
    # each value is one rounding of lo + i * step, as Python floats
    values = parse_value(f"{lo!r}:{lo + (n - 1 + frac) * step!r}:{step!r}")
    assert values == [lo + i * step for i in range(len(values))]
    assert all(type(v) is float for v in values)


FIG3_BLOCK = """\
physical.g_2pi_MHz = 110
physical.kappa1_2pi_MHz = 14.2
physical.gamma_2pi_MHz = 5.2
physical.Delta_2pi_MHz = 8000
physical.Omega_s_2pi_MHz = 100
physical.a_over_b = 2
physical.epsilon = 0.98
"""


@pytest.mark.parametrize("tiers", ["reduced,reduced", "effective,reduced,effective"])
def test_a_tier_listed_twice_fails_at_load(tiers):
    # evolve wrote every row of a repeated tier twice
    with pytest.raises(ConfigError, match="model.tier lists a tier twice") as info:
        validate_config(parse_config_text(f"model.tier = {tiers}\n"))
    assert info.value.key == "model.tier"


@pytest.mark.parametrize("value", ["true", "false"])
def test_cross_drive_conflicts_with_the_physical_block(value):
    # the physical block fixes the drive, and every command that reads it
    # rebuilds the drive from reduced_params, which has no cross: next to
    # the block no command would read the key
    text = FIG3_BLOCK + f"drive.cross = {value}\n"
    with pytest.raises(ConfigError, match="drive.cross conflicts with the physical block") as info:
        validate_config(parse_config_text(text), text)
    assert info.value.key == "drive.cross"
    # without the block the key still selects the psi-sector drive
    assert validate_config(parse_config_text(f"drive.cross = {value}\n")).cross is (value == "true")
