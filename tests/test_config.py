"""Config tree: defaults, dotted-path validation, JSON round-trips."""

import json
import math

import pytest

from neuralign.config import (
    AttackSpec,
    ConfigError,
    ExperimentConfig,
    TriggerSpec,
    WatermarkSpec,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    validate_config,
)


def test_defaults_are_valid():
    cfg = validate_config(ExperimentConfig())
    assert cfg.coding.k == 2 and cfg.coding.t == 60
    assert [a.kind for a in cfg.attacks] == ["np", "ftp", "npp", "rescale"]


def test_watermarked_layer_helpers():
    cfg = ExperimentConfig()
    assert cfg.model.watermarked_layer == "dense1"
    assert cfg.watermarked_index() == 1
    assert cfg.watermarked_width() == 32


def test_round_trip_through_dict():
    cfg = ExperimentConfig(seed=7)
    cfg.attacks[1].trials = 11
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_round_trip_through_file(tmp_path):
    cfg = ExperimentConfig(seed=3)
    cfg.triggers.j = 2
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_partial_dict_fills_defaults():
    cfg = config_from_dict({"seed": 5, "coding": {"t": 40}})
    assert cfg.seed == 5 and cfg.coding.t == 40
    assert cfg.coding.k == 2  # untouched default
    assert cfg.model.widths == [128, 32, 16]


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match=r"coding\.tt"):
        config_from_dict({"coding": {"tt": 40}})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match=r"triggers\.mode: unknown key"):
        config_from_dict({"triggers": {"mode": "t1"}})  # both schemes always run


# every value a config file can set; a new knob has to be added here on purpose
SETTABLE_KEYS = {
    "seed",
    "data.samples", "data.input_dim", "data.classes", "data.spread", "data.holdout",
    "model.widths", "model.watermarked_layer", "model.epochs", "model.lr",
    "coding.k", "coding.t", "coding.k_corrupted",
    "triggers.j", "triggers.steps", "triggers.lr", "triggers.restarts", "triggers.box_low",
    "triggers.box_high", "triggers.prune_step",
    "watermark.bits", "watermark.threshold", "watermark.strength", "watermark.max_rounds",
    "attacks[].kind", "attacks[].trials", "attacks[].epochs", "attacks[].lr",
    "attacks[].fraction", "attacks[].scale_low", "attacks[].scale_high",
}


def test_settable_keys_are_pinned():
    """The config's dotted keys (attacks[] stands for each entry), and the
    retired ones: values nothing varied are constants now, so a config or
    echo that still sets one is refused."""
    keys = set()
    for name, value in config_to_dict(ExperimentConfig()).items():
        if name == "attacks":
            keys |= {f"attacks[].{key}" for item in value for key in item}
        elif isinstance(value, dict):
            keys |= {f"{name}.{key}" for key in value}
        else:
            keys.add(name)
    assert keys == SETTABLE_KEYS and len(keys) == 31
    for section, key in [("model", "batch_size"), ("triggers", "variant_lr"),
                         ("watermark", "embed_epochs"), ("watermark", "embed_lr")]:
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown key$"):
            config_from_dict({section: {key: 1}})


def test_attacks_list_built_per_item():
    cfg = config_from_dict({"attacks": [{"kind": "np", "trials": 3}]})
    assert len(cfg.attacks) == 1 and cfg.attacks[0].trials == 3
    with pytest.raises(ConfigError, match=r"attacks\[0\]\.oops"):
        config_from_dict({"attacks": [{"kind": "np", "oops": 1}]})
    with pytest.raises(ConfigError, match="expected a list"):
        config_from_dict({"attacks": {"kind": "np"}})


def test_repeated_attack_kind_rejected():
    """A second entry of one kind would never be read: stage_attack takes the first."""
    with pytest.raises(ConfigError, match=r"attacks\[1\]\.kind: duplicate kind 'np'"):
        config_from_dict({"attacks": [{"kind": "np", "trials": 2}, {"kind": "np", "trials": 5}]})


def test_wrong_shape_rejected():
    with pytest.raises(ConfigError, match="expected an object"):
        config_from_dict({"coding": 4})


def test_invalid_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


NON_FINITE_FIELDS = [  # (the spec holding the field, field name, dotted path)
    (lambda c: c.triggers, "box_low", r"triggers\.box_low"),
    (lambda c: c.attacks[3], "scale_high", r"attacks\[3\]\.scale_high"),
    (lambda c: c.model, "lr", r"model\.lr"),
    (lambda c: c.data, "spread", r"data\.spread"),
]


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda c: setattr(c.data, "classes", 1), "data.classes"),
        (lambda c: setattr(c.data, "holdout", 99999), "data.holdout"),
        pytest.param(lambda c: setattr(c.data, "samples", 3), "data.samples",
                     id="fewer-samples-than-classes"),
        pytest.param(lambda c: setattr(c.data, "samples", 2400.0), "data.samples",
                     id="float-count"),
        pytest.param(lambda c: setattr(c.data, "holdout", True), "data.holdout", id="bool-count"),
        pytest.param(lambda c: setattr(c, "seed", 0.5), "seed", id="float-seed"),
        pytest.param(lambda c: setattr(c.model, "widths", [128.5, 32, 16]), "model.widths",
                     id="float-width"),
        pytest.param(lambda c: setattr(c.model, "widths", [128, True, 16]), "model.widths",
                     id="bool-width"),
        pytest.param(lambda c: setattr(c.model, "lr", "0.1"), "model.lr", id="string-number"),
        pytest.param(lambda c: setattr(c.model, "watermarked_layer", 1),
                     "model.watermarked_layer", id="integer-layer-name"),
        pytest.param(lambda c: setattr(c.attacks[1], "epochs", 2.0), r"attacks\[1\].epochs",
                     id="float-attack-count"),
        (lambda c: setattr(c.model, "widths", []), "model.widths"),
        (lambda c: setattr(c.model, "watermarked_layer", "conv1"), "model.watermarked_layer"),
        (lambda c: setattr(c.model, "watermarked_layer", "dense9"), "model.watermarked_layer"),
        # str.isdigit and int take these, but layers are named dense0, dense1, ...
        pytest.param(lambda c: setattr(c.model, "watermarked_layer", "dense01"),
                     "model.watermarked_layer", id="leading-zero-layer"),
        pytest.param(lambda c: setattr(c.model, "watermarked_layer", "dense\u0661"),
                     "model.watermarked_layer", id="arabic-indic-digit-layer"),
        # str.isdigit takes a superscript two, int does not
        pytest.param(lambda c: setattr(c.model, "watermarked_layer", "dense\u00b2"),
                     "model.watermarked_layer", id="superscript-digit-layer"),
        # widths lists the hidden layers: dense3 is the softmax output, with no successor
        (lambda c: setattr(c.model, "watermarked_layer", "dense3"), "model.watermarked_layer"),
        (lambda c: setattr(c.coding, "k", 1), "coding.k"),
        (lambda c: setattr(c.coding, "k_corrupted", 0), "coding.k_corrupted"),
        (lambda c: setattr(c.coding, "k_corrupted", 2), "coding.k_corrupted"),
        (lambda c: setattr(c.triggers, "j", 3), "triggers.j"),
        (lambda c: setattr(c.triggers, "restarts", 0), "triggers.restarts"),
        (lambda c: setattr(c.triggers, "box_low", 9.0), "triggers.box_low"),
        (lambda c: setattr(c.watermark, "threshold", 1.5), "watermark.threshold"),
        (lambda c: setattr(c.attacks[0], "kind", "steal"), r"attacks\[0\].kind"),
        (lambda c: setattr(c.attacks[0], "trials", 0), r"attacks\[0\].trials"),
        (lambda c: setattr(c.attacks[3], "scale_low", 0.0), r"attacks\[3\].scale_low"),
        # a check that tests one field names that field, not a neighbour
        pytest.param(lambda c: setattr(c.model, "lr", 0.0), r"^model\.lr:", id="model-lr"),
        pytest.param(lambda c: setattr(c.triggers, "lr", 0.0), r"^triggers\.lr:",
                     id="triggers-lr"),
        pytest.param(lambda c: setattr(c.watermark, "max_rounds", 0),
                     r"^watermark\.max_rounds:", id="watermark-max-rounds"),
        pytest.param(lambda c: setattr(c.attacks[1], "lr", 0.0), r"^attacks\[1\]\.lr:",
                     id="ftp-lr"),
        *(pytest.param(lambda c, spec=spec, name=name, v=v: setattr(spec(c), name, v),
                       f"{path}: must be a finite number", id=f"{name}={v}")
          for spec, name, path in NON_FINITE_FIELDS for v in (-math.inf, math.inf, math.nan)),
        # the report's normal baseline probes with the first coding.t = 60 heldout samples
        pytest.param(lambda c: setattr(c.data, "holdout", 59),
                     r"data\.holdout: need at least coding\.t", id="holdout-below-t"),
    ],
)
def test_validation_reports_dotted_path(mutate, path_fragment):
    cfg = ExperimentConfig()
    mutate(cfg)
    with pytest.raises(ConfigError, match=path_fragment):
        validate_config(cfg)


@pytest.mark.parametrize("widths, layer", [([128, 32, 16], "dense2"), ([32], "dense0")],
                         ids=["last-hidden-layer", "one-hidden-layer"])
def test_every_hidden_layer_can_be_watermarked(widths, layer):
    """widths names only the hidden layers (the output layer is appended from
    data.classes), so the last of them still has a successor."""
    cfg = ExperimentConfig()
    cfg.model.widths, cfg.model.watermarked_layer = widths, layer
    validate_config(cfg)
    cfg.model.watermarked_layer = f"dense{len(widths)}"
    with pytest.raises(ConfigError, match=rf"dense0\.\.dense{len(widths) - 1}\)"):
        validate_config(cfg)


def test_ensemble_mode_requires_variants():
    """run_all always forges T2, so a config without variants is refused."""
    cfg = ExperimentConfig(triggers=TriggerSpec(j=0))
    with pytest.raises(ConfigError, match=r"triggers\.j"):
        validate_config(cfg)


def test_prune_fractions_must_stay_below_one():
    cfg = ExperimentConfig(triggers=TriggerSpec(j=6, prune_step=0.4))
    with pytest.raises(ConfigError, match="prune"):
        validate_config(cfg)


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


def test_saved_file_is_plain_json(tmp_path):
    path = tmp_path / "cfg.json"
    save_config(ExperimentConfig(), path)
    raw = json.loads(path.read_text())
    assert raw["watermark"]["bits"] == 32
    assert isinstance(raw["attacks"], list) and len(raw["attacks"]) == 4


def test_whole_numbers_accepted_where_a_number_is_expected():
    cfg = config_from_dict({"model": {"lr": 1}, "triggers": {"box_low": -4, "box_high": 4}})
    assert cfg.model.lr == 1 and cfg.triggers.box_low == -4
