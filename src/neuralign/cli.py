"""Command line front end over the experiment stages.

A run's settings are set once: `train` takes `--config` and `--seed` and
writes them to the run directory's config echo, and every later stage reads
that echo back, so all stages of one run agree.

Exit codes: 0 success, 1 validation problems (bad config, bad arguments,
missing files, `train` into a directory holding an earlier run), 2 integrity
or tamper failures (corrupt containers, mismatched artifacts, refused
verification), 3 numeric failures (training divergence, trigger optimization
blowup, unsatisfiable codebook distance).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coding import CapacityError, load_codebook
from .config import ATTACK_KINDS, ConfigError, ExperimentConfig, load_config, validate_config
from .network import ShapeError, TrainingDivergenceError, UnknownLayerError
from .pipeline import (
    CONFIG_FILE,
    TRIGGER_MODES,
    capacity_grid,
    format_capacity_grid,
    stage_align,
    stage_attack,
    stage_encode,
    stage_forge,
    stage_report,
    stage_train,
    trigger_file,
)
from .serialize import FormatError, IntegrityError, load_model
from .triggers import OptimizationError, load_trigger_set
from .watermark import EmbedFailure, TamperError, load_record, verify
from .align import verify_with_alignment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTEGRITY = 2
EXIT_NUMERIC = 3


def _train_cfg(args) -> ExperimentConfig:
    """The run's settings: the config file (else defaults), then --seed;
    `train` writes them to the echo."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return validate_config(cfg)


def _run_cfg(args) -> ExperimentConfig:
    return load_config(Path(args.out) / CONFIG_FILE)


def _out_arg(sub):
    sub.add_argument("--out", default="run", help="run directory (default: run)")


def cmd_train(args) -> int:
    summary = stage_train(_train_cfg(args), args.out)
    print(
        "trained: heldout accuracy {a:.4f} -> {b:.4f} (drop {d:.4f}), "
        "watermark ber {ber:.4f}".format(
            a=summary["accuracy_base_heldout"], b=summary["accuracy_marked_heldout"],
            d=summary["accuracy_drop_heldout"], ber=summary["ber_after_embed"],
        )
    )
    return EXIT_OK


def cmd_encode(args) -> int:
    summary = stage_encode(_run_cfg(args), args.out)
    print(format_capacity_grid(summary["capacity"]["grid"]))
    cbs = summary["codebook"]
    conf = summary["capacity"]["configured"]
    print(
        "codebook: N={n} T={t} K={k}, min distance {d} "
        "(corrects {r} corrupted positions; counting bound {b})".format(
            n=cbs["n"], t=cbs["t"], k=cbs["k"], d=cbs["min_distance"],
            r=cbs["guaranteed_radius"], b=conf["counting_bound"],
        )
    )
    print("fold gap {g:.6f}, separation bound {s:.6f}".format(
        g=summary["min_gap"], s=summary["separation_bound"]))
    return EXIT_OK


def cmd_forge(args) -> int:
    cfg = _run_cfg(args)
    modes = [args.mode] if args.mode else list(TRIGGER_MODES)
    for mode in modes:
        summary = stage_forge(cfg, args.out, mode)
        sep = summary["separation"]
        print(
            "forged {mode}: {c}/{t} triggers converged, intra {i:.6f} "
            "(bound {b:.6f}), dead neurons {d}, residual symbol errors {e}, "
            "neurons past the decode radius {r}".format(
                mode=mode, c=summary["converged"], t=summary["t"],
                i=sep["mean_intra"], b=summary["separation_bound"],
                d=len(sep["dead_neurons"]), e=summary["residual_symbol_errors"],
                r=summary["neurons_past_radius"],
            )
        )
    return EXIT_OK


def cmd_attack(args) -> int:
    cfg = _run_cfg(args)
    kinds = [args.kind] if args.kind else [a.kind for a in cfg.attacks]
    for kind in kinds:
        summary = stage_attack(cfg, args.out, kind, trials=args.trials)
        print(
            "attacked {k}: {n} trials, max drift {d:.3e}, "
            "task accuracy {a:.4f} (base {b:.4f})".format(
                k=kind, n=summary["trials"], d=summary["max_drift"],
                a=summary["mean_accuracy"], b=summary["base_accuracy"],
            )
        )
    return EXIT_OK


def cmd_align(args) -> int:
    cfg = _run_cfg(args)
    out = Path(args.out)
    kinds = [args.kind] if args.kind else [a.kind for a in cfg.attacks]
    modes = [args.mode] if args.mode else [
        m for m in TRIGGER_MODES if (out / trigger_file(m)).exists()
    ]
    if not modes:
        raise ConfigError("no trigger sets in the run directory; run forge first")
    for kind in kinds:
        for mode in modes:
            summary = stage_align(cfg, args.out, kind, mode)
            acc = summary["mean_neuron_accuracy"]
            print(
                "aligned {k}/{m}: accept {p:.2%} -> {q:.2%}, "
                "neuron accuracy {acc}".format(
                    k=kind, m=mode, p=summary["no_align_accept_rate"],
                    q=summary["accept_rate"],
                    acc="n/a" if acc is None else f"{acc:.4f}",
                )
            )
    return EXIT_OK


def cmd_verify(args) -> int:
    net = load_model(args.model)
    record = load_record(args.record)
    if (args.triggers is None) != (args.codebook is None):
        raise ConfigError("alignment needs both --triggers and --codebook")
    if args.triggers:
        ts = load_trigger_set(args.triggers)
        cb = load_codebook(args.codebook)
        av = verify_with_alignment(net, ts, cb, record)
        if av.tamper_cause is not None:
            print(json.dumps({"refused": True, "cause": av.tamper_cause}))
            return EXIT_INTEGRITY
        result = {
            "accepted": av.accepted,
            "ber": av.ov.ber,
            "aligned": True,
            "collisions_resolved": av.alignment.collisions_resolved,
            "dead_neurons": len(av.alignment.dead),
            "margin": av.alignment.margin,
        }
    else:
        ov = verify(net, record)
        result = {"accepted": ov.accepted, "ber": ov.ber, "aligned": False}
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def cmd_report(args) -> int:
    import jsonschema  # stage_report loads it to validate the report

    try:
        report = stage_report(_run_cfg(args), args.out)
    except jsonschema.ValidationError as exc:
        print(f"invalid report: {exc.message}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"report written to {Path(args.out) / 'report.json'}")
    for row in report["attacks"]:
        print(
            "  {k}/{m}: accept {p:.2%} -> {q:.2%}".format(
                k=row["kind"], m=row["mode"],
                p=row["no_align_accept_rate"], q=row["accept_rate"],
            )
        )
    return EXIT_OK


def cmd_capacity_table(args) -> int:
    print(format_capacity_grid(capacity_grid(k=args.k, k_corrupted=args.k_corrupted)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuralign",
        description="neuron alignment defense for white-box watermarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("train", help="train the task model and embed the watermark")
    sub.add_argument("--config", help="experiment config JSON", default=None)
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    _out_arg(sub)
    sub.set_defaults(func=cmd_train)

    sub = subs.add_parser("encode", help="derive fold centroids and build the codebook")
    _out_arg(sub)
    sub.set_defaults(func=cmd_encode)

    sub = subs.add_parser("forge", help="synthesize trigger inputs")
    _out_arg(sub)
    sub.add_argument("--mode", choices=list(TRIGGER_MODES), default=None,
                     help="one scheme (default: every scheme, t1 then t2)")
    sub.set_defaults(func=cmd_forge)

    sub = subs.add_parser("attack", help="generate attacked suspect models")
    _out_arg(sub)
    sub.add_argument("--kind", choices=list(ATTACK_KINDS), default=None)
    sub.add_argument("--trials", type=int, default=None)
    sub.set_defaults(func=cmd_attack)

    sub = subs.add_parser("align", help="recover neuron order and verify suspects")
    _out_arg(sub)
    sub.add_argument("--kind", choices=list(ATTACK_KINDS), default=None)
    sub.add_argument("--mode", choices=list(TRIGGER_MODES), default=None)
    sub.set_defaults(func=cmd_align)

    sub = subs.add_parser("verify", help="one-shot watermark check on a model file")
    sub.add_argument("--model", required=True)
    sub.add_argument("--record", required=True)
    sub.add_argument("--triggers", default=None, help="align before verifying")
    sub.add_argument("--codebook", default=None)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("report", help="aggregate stage summaries into report.json")
    _out_arg(sub)
    sub.set_defaults(func=cmd_report)

    sub = subs.add_parser("capacity-table", help="print the correctable-positions table")
    sub.add_argument("--k", type=int, default=2)
    sub.add_argument("--k-corrupted", dest="k_corrupted", type=int, default=1)
    sub.set_defaults(func=cmd_capacity_table)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on bad arguments
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return args.func(args)
    except (FormatError, IntegrityError, TamperError) as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (CapacityError, TrainingDivergenceError, OptimizationError, EmbedFailure) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ShapeError, UnknownLayerError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
