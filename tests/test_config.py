import dataclasses

import pytest

from greencell import config as cfgmod
from greencell.analytics import Scenario
from greencell.errors import ParameterError
from greencell.hcpp import HcppParams


def test_empty_config_is_defaults():
    cfg = cfgmod.parse_config_text("")
    assert cfg == cfgmod.RunConfig()
    assert cfg.lambda_b == 1e-4
    assert cfg.delta_m == 200.0
    assert cfg.antennas_m == 128
    assert cfg.ues_per_cell_l == 5
    assert cfg.sigma_s == 6.0
    assert cfg.noise_dbm == -174.0
    assert cfg.alpha == 4.0
    assert cfg.p_f_w == 7.7
    assert cfg.p_p_w == 0.13
    assert cfg.eta == 0.38
    assert cfg.p_rf_chain_w == 0.048
    assert cfg.p_sta_w == 4.3


def test_default_config_is_the_default_scenario():
    # the reference table is written twice, as RunConfig's defaults and as the
    # dataclass defaults every Scenario(params) test relies on: they must agree
    assert cfgmod.to_scenario(cfgmod.RunConfig()) == Scenario(HcppParams(1e-4, 200.0))


def test_integer_keys_parse_as_integers():
    # every int-annotated key, and only those, parses to int and rejects a fraction
    for f in dataclasses.fields(cfgmod.RunConfig):
        if f.name in cfgmod._CHOICES:
            continue
        value = getattr(cfgmod.parse_config_text(f"{f.name}=1000"), f.name)
        assert type(value) is type(getattr(cfgmod.RunConfig(), f.name)), f.name
        if type(value) is int:
            with pytest.raises(ParameterError, match=f"bad value for {f.name}"):
                cfgmod.parse_config_text(f"{f.name}=1000.5")


def test_unknown_keys_listed():
    with pytest.raises(ParameterError, match="unknown config keys: bogus, wat"):
        cfgmod.parse_config_text("bogus=1\nlambda_b=2e-4\nwat=3\n")


def test_out_of_range_value_names_key():
    with pytest.raises(ParameterError, match="eta must be in"):
        cfgmod.to_scenario(cfgmod.parse_config_text("eta=1.5"))


def test_comments_and_blank_lines():
    cfg = cfgmod.parse_config_text("# comment\n\ndelta_m=250  # trailing\n")
    assert cfg.delta_m == 250.0


def test_malformed_line():
    with pytest.raises(ParameterError, match="line 1"):
        cfgmod.parse_config_text("delta_m 250")
    with pytest.raises(ParameterError, match="bad value"):
        cfgmod.parse_config_text("delta_m=abc")


def test_round_trip_identity():
    cfg = cfgmod.parse_config_text("lambda_b=2.5e-5\ndelta_m=250\nstrategy=random\nseed=42\n")
    text = cfgmod.serialize_config(cfg)
    again = cfgmod.parse_config_text(text)
    assert again == cfg
    assert cfgmod.serialize_config(again) == text


def test_validation_of_choices():
    with pytest.raises(ParameterError):
        cfgmod.parse_config_text("strategy=hex")
    with pytest.raises(ParameterError, match="unknown config keys: regularization"):
        cfgmod.parse_config_text("regularization=exclusion-ball")  # the one near-field model has no key
    with pytest.raises(ParameterError):
        cfgmod.parse_config_text("traffic_mode=hourly")
    with pytest.raises(ParameterError):
        cfgmod.parse_config_text("realizations=1")


def test_to_scenario_and_window():
    cfg = cfgmod.parse_config_text(
        "lambda_b=2e-4\ndelta_m=150\nantennas_m=64\nsigma_s=1\nnoise_dbm=-100\nwindow_m=4000\nguard_m=500\n"
    )
    s = cfgmod.to_scenario(cfg)
    w = cfgmod.to_window(cfg)
    assert s.hcpp.lambda_b == 2e-4
    assert s.hcpp.delta == 150.0
    assert s.radio.antennas_m == 64
    assert s.radio.noise_power == pytest.approx(10 ** (-13.0), rel=1e-12)
    assert s.shadowing.sigma_s == 1.0
    assert w.half_width == 2000.0
    assert w.guard == 500.0


def test_to_scenario_ppp_has_no_hard_core():
    """ppp switches nothing off: its scenario is the same at every delta_m,
    while matern's is not."""
    for strategy, same in (("ppp", True), ("matern", False)):
        a, b = (cfgmod.to_scenario(cfgmod.RunConfig(strategy=strategy, delta_m=d)) for d in (100.0, 200.0))
        assert (a == b) is same
    assert cfgmod.to_scenario(cfgmod.RunConfig(strategy="ppp")).hcpp.delta == 0.0


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("delta_m=300\nseed=9\n")
    cfg = cfgmod.parse_config(path)
    assert cfg.delta_m == 300.0
    assert cfg.seed == 9


def test_shadowing_convention_and_random_mode_keys():
    # shadowing_convention is a key; random_mode is none: random keeps the hard core's density
    assert cfgmod.RunConfig().shadowing_convention == "paper-moments"
    cfg = cfgmod.parse_config_text("shadowing_convention=db-std\nstrategy=random\n")
    s = cfgmod.to_scenario(cfg)
    assert (s.shadowing.convention, s.strategy) == ("db-std", "random")
    assert cfgmod.parse_config_text(cfgmod.serialize_config(cfg)) == cfg
    with pytest.raises(ParameterError, match="shadowing_convention must be one of"):
        cfgmod.parse_config_text("shadowing_convention=linear")
    with pytest.raises(ParameterError, match="^unknown config keys: random_mode$"):
        cfgmod.parse_config_text("random_mode=retain")


def _leaves(obj, prefix=""):
    """Scenario's fields, and those of the dataclasses it holds, by dotted name."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


def test_every_scenario_field_is_set_by_a_config_key():
    # a Scenario field that no key moves is a knob no run can set
    base = dict(_leaves(cfgmod.to_scenario(cfgmod.RunConfig())))
    moved = set()
    for f in dataclasses.fields(cfgmod.RunConfig):
        default = getattr(cfgmod.RunConfig(), f.name)
        if f.name in cfgmod._CHOICES:
            value = next(v for v in cfgmod._CHOICES[f.name] if v != default)
        else:
            value = 2 * default
        leaves = dict(_leaves(cfgmod.to_scenario(cfgmod.RunConfig(**{f.name: value}))))
        moved |= {name for name, v in leaves.items() if v != base[name]}
    assert sorted(set(base) - moved) == []
