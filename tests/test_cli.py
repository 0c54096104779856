"""Command line behavior: stage chaining, exit codes, verify output."""

import argparse
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neuralign
from neuralign.cli import (
    EXIT_INTEGRITY, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, build_parser, main,
)
from neuralign.coding import CentroidSet
from neuralign.config import ATTACK_KINDS, load_config, save_config
from neuralign.network import init_network
from neuralign.pipeline import (
    CODEBOOK_FILE, CONFIG_FILE, MODEL_FILE, RECORD_FILE, REPORT_FILE, TRAIN_SUMMARY, run_all,
    trigger_file,
)
from neuralign.serialize import (
    MAGIC_CODEBOOK, MAGIC_MODEL, MAGIC_TRIGGERS, read_container, save_model, write_container,
)
from neuralign.triggers import load_trigger_set, save_trigger_set


@pytest.fixture()
def cfg_file(tiny_config_factory, tmp_path):
    path = tmp_path / "cfg.json"
    save_config(tiny_config_factory(), path)
    return path


def test_full_stage_chain(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    base = ["--out", str(out)]
    assert main(["train", "--config", str(cfg_file), *base]) == EXIT_OK
    assert "watermark ber 0.0000" in capsys.readouterr().out
    assert main(["encode", *base]) == EXIT_OK
    text = capsys.readouterr().out
    assert "N\\T" in text and "codebook:" in text and "fold gap" in text
    assert main(["forge", *base, "--mode", "t1"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "forged t1:" in text and "neurons past the decode radius" in text
    assert main(["attack", *base, "--kind", "np", "--trials", "2"]) == EXIT_OK
    assert "attacked np: 2 trials" in capsys.readouterr().out
    assert main(["align", *base, "--kind", "np", "--mode", "t1"]) == EXIT_OK
    assert "aligned np/t1" in capsys.readouterr().out
    assert main(["report", *base]) == EXIT_OK
    assert "report written" in capsys.readouterr().out
    assert (out / "report.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["attacks"][0]["kind"] == "np"
    assert report["attacks"][0]["trials"] == 2  # --trials overrode the config


def test_forge_without_mode_forges_every_scheme(tiny_config_factory, tmp_path, capsys):
    cfg = tiny_config_factory()
    cfg.triggers.steps = 5
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    out = tmp_path / "run"
    base = ["--out", str(out)]
    assert main(["train", "--config", str(cfg_path), *base]) == EXIT_OK
    assert main(["encode", *base]) == EXIT_OK
    capsys.readouterr()
    assert main(["forge", *base]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["forged t1", "forged t2"]
    assert (out / trigger_file("t1")).exists() and (out / trigger_file("t2")).exists()


def test_config_echo_fallback(cfg_file, tmp_path, capsys):
    """Later stages pick the config back up from the run directory."""
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    assert (out / CONFIG_FILE).exists()
    assert main(["encode", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()


def test_seed_override_lands_in_echo(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(out), "--seed", "77"]) == EXIT_OK
    echo = json.loads((out / CONFIG_FILE).read_text())
    assert echo["seed"] == 77
    capsys.readouterr()


def test_verify_plain_and_aligned(tiny_run, capsys):
    _, out, _ = tiny_run
    model, record = str(out / MODEL_FILE), str(out / RECORD_FILE)
    assert main(["verify", "--model", model, "--record", record]) == EXIT_OK
    plain = json.loads(capsys.readouterr().out)
    assert plain == {"accepted": True, "aligned": False, "ber": 0.0}

    suspect = str(out / "suspects" / "np" / "trial_000.naf")
    assert main(["verify", "--model", suspect, "--record", record]) == EXIT_OK
    rejected = json.loads(capsys.readouterr().out)
    assert not rejected["accepted"] and rejected["ber"] > 0.15

    assert main([
        "verify", "--model", suspect, "--record", record,
        "--triggers", str(out / trigger_file("t1")), "--codebook", str(out / CODEBOOK_FILE),
    ]) == EXIT_OK
    aligned = json.loads(capsys.readouterr().out)
    assert aligned["accepted"] and aligned["aligned"] and aligned["ber"] == 0.0
    record_0 = json.loads((out / "align_summary_np_t1.json").read_text())["records"][0]
    assert aligned["margin"] == record_0["margin"] > 0


@pytest.mark.parametrize("suspect", ["rescale/trial_000.naf", "stranger.naf"])
def test_verify_as_a_program_answers_as_main(suspect, tiny_run, tmp_path, capsys):
    """`python -m neuralign.cli verify` in a fresh interpreter, which binds the
    assignment solver on its own, prints what an in-process main() prints and
    exits with its code: a verdict, and a refusal (exit 2)."""
    cfg, out, _ = tiny_run
    model = out / "suspects" / suspect
    if suspect == "stranger.naf":
        model = tmp_path / suspect
        save_model(init_network(cfg.data.input_dim, [8, 5, cfg.data.classes], seed=0), model)
    argv = ["verify", "--model", str(model), "--record", str(out / RECORD_FILE),
            "--triggers", str(out / trigger_file("t2")), "--codebook", str(out / CODEBOOK_FILE)]
    code = main(argv)
    printed = capsys.readouterr().out
    src = str(Path(neuralign.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "neuralign.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, printed)
    assert code == (EXIT_OK if suspect.startswith("rescale") else EXIT_INTEGRITY)


def test_verify_needs_both_alignment_files(tiny_run, capsys):
    _, out, _ = tiny_run
    code = main([
        "verify", "--model", str(out / MODEL_FILE), "--record", str(out / RECORD_FILE),
        "--triggers", str(out / trigger_file("t1")),
    ])
    assert code == EXIT_VALIDATION
    assert "both" in capsys.readouterr().err


def test_verify_refuses_destroyed_layer(tiny_run, tmp_path, capsys):
    cfg, out, _ = tiny_run
    stranger = init_network(cfg.data.input_dim, [8, 5, cfg.data.classes], seed=0)
    path = tmp_path / "stranger.naf"
    save_model(stranger, path)
    code = main([
        "verify", "--model", str(path), "--record", str(out / RECORD_FILE),
        "--triggers", str(out / trigger_file("t1")), "--codebook", str(out / CODEBOOK_FILE),
    ])
    assert code == EXIT_INTEGRITY
    refusal = json.loads(capsys.readouterr().out)
    assert refusal["refused"] and "neurons" in refusal["cause"]


def test_verify_refuses_output_layer_suspect(tiny_run, tmp_path, capsys):
    """dense1 is the output layer of this suspect: a refusal (exit 2), not
    invalid input (exit 1)."""
    cfg, out, _ = tiny_run
    path = tmp_path / "shallow.naf"
    save_model(init_network(cfg.data.input_dim, [48, cfg.data.classes], seed=0), path)
    code = main([
        "verify", "--model", str(path), "--record", str(out / RECORD_FILE),
        "--triggers", str(out / trigger_file("t1")), "--codebook", str(out / CODEBOOK_FILE),
    ])
    assert code == EXIT_INTEGRITY
    assert json.loads(capsys.readouterr().out)["refused"]


def test_corrupt_container_exits_2(tiny_run, tmp_path, capsys):
    _, out, _ = tiny_run
    broken = tmp_path / "broken.naf"
    raw = bytearray((out / MODEL_FILE).read_bytes())
    raw[40] ^= 0xFF
    broken.write_bytes(bytes(raw))
    code = main(["verify", "--model", str(broken), "--record", str(out / RECORD_FILE)])
    assert code == EXIT_INTEGRITY
    assert "integrity error" in capsys.readouterr().err


@pytest.mark.parametrize("name, magic, offset, value, complaint", [
    # u16 symbol count after u32 n and u32 t
    (CODEBOOK_FILE, MAGIC_CODEBOOK, 8, struct.pack("<H", 1), "symbol count"),
    # dense0's first weight after u16 layer count, u32 in, u32 out and u8 tag
    (MODEL_FILE, MAGIC_MODEL, 11, struct.pack("<f", float("nan")), "non-finite"),
    # u16 centroid count after text "t1", u16 variants, text "dense1", u32 t, u32 width
    (trigger_file("t1"), MAGIC_TRIGGERS, 4 + 2 + 8 + 8, struct.pack("<H", 0), "negative field"),
], ids=["codebook", "model", "triggers"])
def test_invalid_field_in_a_valid_container_exits_2(tiny_run, tmp_path, capsys, rewrite_payload,
                                                    name, magic, offset, value, complaint):
    """Fields that fail their own validation behind a valid checksum make the
    container corrupt (exit 2), not the input invalid (exit 1)."""
    _, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    rewrite_payload(copy / name, magic, offset, value)
    code = main([
        "verify", "--model", str(copy / MODEL_FILE), "--record", str(copy / RECORD_FILE),
        "--triggers", str(copy / trigger_file("t1")), "--codebook", str(copy / CODEBOOK_FILE),
    ])
    err = capsys.readouterr().err
    assert code == EXIT_INTEGRITY
    assert "integrity error" in err and str(copy / name) in err and complaint in err


@pytest.mark.parametrize("centroids", [[0.5], [0.1, 0.5, 0.9]], ids=["fewer", "more"])
def test_trigger_set_of_another_symbol_count_exits_2(tiny_run, tmp_path, capsys, centroids):
    """A valid trigger file pinned to the run's codebook whose centroid count
    is not the codebook's symbol count is mismatched owner evidence: fewer
    centroids cannot map every symbol, and more would align against a
    subset of them."""
    _, out, _ = tiny_run
    ts = load_trigger_set(out / trigger_file("t1"))
    path = tmp_path / "triggers.nat"
    save_trigger_set(dataclasses.replace(ts, centroid_set=CentroidSet(np.array(centroids))), path)
    code = main([
        "verify", "--model", str(out / "suspects" / "np" / "trial_000.naf"),
        "--record", str(out / RECORD_FILE), "--triggers", str(path),
        "--codebook", str(out / CODEBOOK_FILE),
    ])
    err = capsys.readouterr().err
    assert code == EXIT_INTEGRITY
    assert f"{len(centroids)} centroids" in err and "2 symbols" in err


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["verify", "--model", str(tmp_path / "nope.naf"),
                 "--record", str(tmp_path / "nope.nar")])
    assert code == EXIT_VALIDATION
    assert "missing file" in capsys.readouterr().err


def test_bad_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"coding": {"k": 1}}')
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert code == EXIT_VALIDATION
    assert "coding.k" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, path",
    [
        ({"data": {"samples": 10, "classes": 20, "holdout": 1}}, "data.samples"),
        ({"model": {"widths": [128.5, 32, 16]}}, "model.widths"),
        ({"triggers": {"box_low": -float("inf")}}, "triggers.box_low"),
        ({"attacks": [{"kind": "rescale", "trials": 2, "scale_high": float("inf")}]},
         "attacks[0].scale_high"),
        # str.isdigit and int take these, but no layer is named so
        ({"model": {"watermarked_layer": "dense01"}}, "model.watermarked_layer"),
        ({"model": {"watermarked_layer": "dense\u0661"}}, "model.watermarked_layer"),
    ],
    ids=["fewer-samples-than-classes", "fractional-width", "infinite-box", "infinite-scale",
         "leading-zero-layer", "arabic-indic-digit-layer"],
)
def test_bad_config_refused_before_train_writes(raw, path, tmp_path, capsys):
    """A refused config leaves the run directory empty, so the next train
    into it is not turned away as an earlier run."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    out = tmp_path / "run"
    out.mkdir()
    assert main(["train", "--config", str(bad), "--out", str(out)]) == EXIT_VALIDATION
    assert f"invalid input: {path}:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "section, values, cause",
    [
        ("watermark", {"strength": 1e-9, "max_rounds": 1}, "raise strength or epochs"),
        ("model", {"lr": 1e6}, "non-finite training loss"),
    ],
    ids=["embedding-fails", "training-diverges"],
)
def test_failed_train_leaves_its_directory_empty(
    section, values, cause, tiny_config_factory, cfg_file, tmp_path, capsys
):
    """A train that fails in its arithmetic writes nothing, not even the
    config echo, so a retry into the same directory is not refused."""
    cfg = tiny_config_factory()
    for key, value in values.items():
        setattr(getattr(cfg, section), key, value)
    bad = tmp_path / "bad.json"
    save_config(cfg, bad)
    out = tmp_path / "run"
    out.mkdir()
    assert main(["train", "--config", str(bad), "--out", str(out)]) == EXIT_NUMERIC
    assert cause in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK


def test_train_over_an_earlier_run_exits_1(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    assert main(["encode", "--out", str(out)]) == EXIT_OK
    codebook = (out / CODEBOOK_FILE).read_bytes()
    capsys.readouterr()
    code = main(["train", "--config", str(cfg_file), "--out", str(out), "--seed", "9"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"run directory {out} already holds run artifacts (config.json)" in err
    assert load_config(out / CONFIG_FILE).seed != 9
    assert (out / CODEBOOK_FILE).read_bytes() == codebook


def test_unsatisfiable_codebook_exits_3(tiny_run, tmp_path, capsys):
    """16 neurons cannot get distinct 3-symbol binary words: numeric failure."""
    _, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    cfg = load_config(copy / CONFIG_FILE)
    cfg.coding.t = 3
    save_config(cfg, copy / CONFIG_FILE)
    code = main(["encode", "--out", str(copy)])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_invalid_report_exits_1(tiny_run, tmp_path, capsys):
    """A stage summary that breaks the report schema is named and leaves the
    earlier report in place."""
    _, out, _ = tiny_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    summary = json.loads((copy / TRAIN_SUMMARY).read_text())
    del summary["bits"]
    (copy / TRAIN_SUMMARY).write_text(json.dumps(summary))
    assert main(["report", "--out", str(copy)]) == EXIT_VALIDATION
    assert "invalid report: 'bits' is a required property" in capsys.readouterr().err
    assert (copy / REPORT_FILE).read_bytes() == (out / REPORT_FILE).read_bytes()


def test_config_echo_with_unknown_key_exits_1(cfg_file, tmp_path, capsys):
    """An echo written before a setting was removed names the key it refuses."""
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    echo = json.loads((out / CONFIG_FILE).read_text())
    echo["normalize"] = False
    (out / CONFIG_FILE).write_text(json.dumps(echo))
    capsys.readouterr()
    assert main(["encode", "--out", str(out)]) == EXIT_VALIDATION
    assert "invalid input: normalize: unknown key" in capsys.readouterr().err


def test_align_without_triggers_exits_1(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    code = main(["align", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "forge first" in capsys.readouterr().err


def test_stage_chain_reads_settings_from_echo(tiny_config_factory, tmp_path, capsys):
    """--seed is given to train only; every later stage reads it from the
    echo and the chain reproduces run_all's report."""
    cfg_path = tmp_path / "cfg.json"
    save_config(tiny_config_factory(), cfg_path)
    out = tmp_path / "run"
    train = ["train", "--config", str(cfg_path), "--seed", "3"]
    assert main([*train, "--out", str(out)]) == EXIT_OK
    for stage in ("encode", "forge", "attack", "align", "report"):
        assert main([stage, "--out", str(out)]) == EXIT_OK, stage
    assert main(["encode", "--out", str(out), "--seed", "5"]) == EXIT_VALIDATION
    capsys.readouterr()

    cfg = tiny_config_factory()
    cfg.seed = 3
    expected = run_all(cfg, tmp_path / "api")
    got = json.loads((out / REPORT_FILE).read_text())
    del got["timings"], expected["timings"]
    assert got == expected


@pytest.mark.parametrize("stage", ["encode", "forge", "attack", "align", "report"])
def test_later_stages_take_settings_only_from_echo(stage, cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    for flags in (["--config", str(cfg_file)], ["--seed", "5"]):
        assert main([stage, "--out", str(out), *flags]) == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err
    assert main([stage, "--out", str(out)]) == EXIT_VALIDATION  # no config echo
    assert "missing file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["encode", "--bogus"],
    ["attack", "--kind", "bogus"],
    ["verify", "--model", "a"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == EXIT_VALIDATION
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["attack", "align"])
def test_kind_choices_are_the_attack_kinds(command):
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (kind,) = [a for a in subparsers.choices[command]._actions if a.dest == "kind"]
    assert tuple(kind.choices) == ATTACK_KINDS


def test_help_exits_0(capsys):
    assert main(["train", "--help"]) == EXIT_OK
    assert "--seed" in capsys.readouterr().out


def test_capacity_table_output(capsys):
    assert main(["capacity-table"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    rows = {int(l.split()[0]): [int(x) for x in l.split()[1:]] for l in lines[2:]}
    assert rows[64] == [4, 12, 21, 29, 38, 47, 56, 65]
    assert rows[128] == [4, 11, 20, 28, 37, 46, 55, 64]


def test_capacity_table_rejects_bad_k(capsys):
    assert main(["capacity-table", "--k", "1"]) == EXIT_VALIDATION
    assert "invalid input" in capsys.readouterr().err
