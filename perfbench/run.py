"""Benchmark entry point.

    python3 perfbench/run.py --workload desk|verify|wide --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --seconds S --trace T --repeat R
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. The line before it records the environment. Runs use
at most nproc BLAS threads (one on verify); a lower OPENBLAS_NUM_THREADS / OMP_NUM_THREADS in
the environment is kept, which is how the single-threaded baseline is run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# verify's GEMMs (ftp fine-tuning, suspect forward passes) are too small to
# gain from a second BLAS thread: it only spins, doubling the CPU time a round
# takes and making the round wait on a second core a busy host may not give it
SINGLE_THREADED = ("verify",)


def cap_blas_threads(workload: str | None) -> int:
    """Cap BLAS threads at nproc (1 on verify); must run before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    cap = 1 if workload in SINGLE_THREADED else cores
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)
    return cores


def environment(cores: int) -> dict:
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    # numpy wheels bundle their BLAS next to the package; ask it for its thread count
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*blas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {
        "nproc": cores,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def layer_metrics(tracer) -> dict:
    total, own, calls = tracer.totals()
    count = tracer.counts
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    return {
        "pipeline.train_s": t("pipeline.stage_train"),
        "pipeline.encode_s": t("pipeline.stage_encode"),
        "pipeline.forge_t1_s": t("pipeline.stage_forge_t1"),
        "pipeline.forge_t2_s": t("pipeline.stage_forge_t2"),
        "pipeline.attack_s": t("pipeline.stage_attack"),
        "pipeline.align_s": t("pipeline.stage_align"),
        "pipeline.report_s": t("pipeline.stage_report"),
        "network.input_gradient_s": t("network.input_gradient_batch"),
        "network.input_gradient_calls": calls.get("network.input_gradient_batch", 0),
        "network.input_gradient_rows": count["input_gradient_rows"],
        "network.input_gradient_gflop": count["input_gradient_flop"] / 1e9,
        "network.train_s": t("network.train"),
        "network.train_calls": calls.get("network.train", 0),
        "network.train_samples": count["train_samples"],
        "network.forward_s": t("network.forward"),
        "network.forward_calls": calls.get("network.forward", 0),
        "network.forward_rows": count["forward_rows"],
        "triggers.synthesize_s": t("triggers.synthesize_trigger_set"),
        "triggers.descend_self_s": own.get("triggers.synthesize_trigger_set", 0.0),
        "triggers.steps": count["descent_steps"],
        "triggers.converged": count["converged"],
        "triggers.ensemble_s": t("triggers.make_variant_ensemble"),
        "triggers.separation_s": t("triggers.separation_stats"),
        "coding.codebook_s": t("coding.default_codebook"),
        "coding.codebook_probes": calls.get("coding.generate_codebook", 0),
        "coding.centroids_s": t("coding.compute_centroids"),
        "coding.quantize_s": t("coding.nearest_centroid"),
        "coding.quantize_values": count["quantize_values"],
        "attacks.permute_s": t("attacks.permute_neurons"),
        "attacks.ftp_s": t("attacks.attack_ftp"),
        "attacks.npp_s": t("attacks.attack_npp"),
        "attacks.rescale_s": t("attacks.attack_rescale"),
        "attacks.drift_s": t("attacks.functional_drift"),
        "attacks.suspects": count["suspects_attacked"],
        "align.read_codes_s": t("align.read_codes"),
        "align.assign_s": t("align.align_to_matrix"),
        "align.assign_cells": count["assign_cells"],
        "align.apply_s": t("align.apply_alignment"),
        "align.verify_with_alignment_s": t("align.verify_with_alignment"),
        "align.suspects": calls.get("align.verify_with_alignment", 0),
        "watermark.verify_s": t("watermark.verify"),
        "watermark.verify_calls": calls.get("watermark.verify", 0),
        "watermark.embed_s": t("watermark.embed"),
        "serialize.save_s": t("serialize.save_model"),
        "serialize.load_s": t("serialize.load_model"),
        "serialize.sha256_s": t("serialize.file_sha256"),
        "serialize.bytes_written": count["bytes_written"],
        "serialize.bytes_read": count["bytes_read"],
        "serialize.files_written": calls.get("serialize.write_container", 0),
        "serialize.files_read": calls.get("serialize.read_container", 0),
        "trace.spans": len(tracer.spans),
        "trace.wrapper_cost_s": len(tracer.spans) * tracer.per_call_cost(),
    }


def run_rounds(workload, seconds: float) -> list:
    """Whole rounds until the next one would overrun the measuring window."""
    rounds, spent = [], 0.0
    while True:
        rounds.append(workload.round())
        spent += rounds[-1].seconds
        if (len(rounds) >= workload.min_rounds
                and spent + statistics.median(r.seconds for r in rounds) > seconds):
            return rounds


def summarize(rounds: list) -> tuple[dict, list]:
    """Counts over all rounds; rounds must agree since they repeat one another."""
    outcomes = [r.outcome for r in rounds]
    problems = [p for o in outcomes for p in o.problems]
    fingerprint = lambda o: (o.attempted, o.failed, o.owner_symbols_correct,  # noqa: E731
                             tuple(o.trigger_loss_ratios), o.neurons_recovered)
    if len({fingerprint(o) for o in outcomes}) > 1:
        problems.append("rounds disagree on their verdicts")
    last = outcomes[-1]
    counts = {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "owner_symbols_correct": last.owner_symbols_correct,
        "triggers_converged": sum(r <= 1.0 for r in last.trigger_loss_ratios),
        "trigger_loss_ratio": statistics.median(last.trigger_loss_ratios),
        "neurons_recovered": last.neurons_recovered,
        "rescale_verdicts": last.rescale_verdicts,
        "rescale_rejected": last.rescale_rejected,
    }
    return counts, problems


def bench(args, cores: int) -> int:
    import resource

    import neuralign

    import workloads
    from spans import Tracer

    if Path(neuralign.__file__).resolve().parent != SRC / "neuralign":
        print(f"neuralign imported from {neuralign.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.make(args.workload, args.seed, work, SRC)
        tracer = Tracer() if args.trace else None
        if tracer:
            with tracer:
                setup = w.setup(1)
        else:
            setup = w.setup(SETUP_REPEATS)
        if tracer:
            before = w.round()
            with tracer:
                traced = w.round()
            after = w.round()
            # rounds speed up as a process warms up, so the traced round is
            # compared with the untraced rounds on either side of it
            untraced = (before.seconds + after.seconds) / 2
            rounds = [before, traced, after]
        else:
            rounds = run_rounds(w, args.seconds)
        counts, problems = summarize(rounds)
        if tracer:
            metrics = layer_metrics(tracer)
            metrics["trace.overhead_s"] = traced.seconds - untraced
            tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
        else:
            metrics = w.end_to_end(setup, rounds)
            for name in ("owner_symbols_correct", "triggers_converged", "trigger_loss_ratio",
                         "neurons_recovered"):
                metrics[name] = counts[name]
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = declared_units(bool(args.trace))
    if set(units) != set(metrics):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}",
              file=sys.stderr)
        return 3

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {
        "environment": environment(cores),
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "known_failure": {"kind": "rescale", "verdicts": counts["rescale_verdicts"],
                          "rejected": counts["rescale_rejected"]},
        "problems": len(problems),
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def repeat(args) -> int:
    """Run the benchmark on seeds seed..seed+R-1; print medians and quartiles.

    The seed draws only the check's probe inputs, so the R runs do the same
    work and their spread is run-to-run noise.
    """
    values, shares = {}, set()
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": args.seed + i, "wall_s": wall, **result}), flush=True)
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None}
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "failed_shares_and_correct": sorted(shares), "metrics": summary}))
    return 0


def self_test() -> int:
    """Corrupt a copy of a small run three ways; each must add failed operations."""
    import struct

    import checks
    import containers
    import workloads

    work = OUT / "work" / f"self-test-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.make("verify", 0, work, SRC, trials=5)
        w.setup(1)
        r = w.round()
        run = w.run_dir
        verdicts = r.verdicts
        box = workloads.clamp_box(w.cfg)

        def check(directory, verdict_list):
            return checks.evaluate(directory, w.modes, verdict_list, w.probes, box)

        cases = {"clean": check(run, verdicts)}

        trig = shutil.copytree(run, work / "bad-trigger")
        ts = containers.read_triggers(trig / "triggers_t1.nat")
        containers.patch(trig / "triggers_t1.nat", ts.inputs_offset,
                         struct.pack("<f", float(ts.inputs[0, 0]) + 0.5))
        cases["trigger_input"] = check(trig, verdicts)

        bad = [checks.Verdict(**vars(v)) for v in verdicts]
        perm = bad[0].perm_estimate.copy()
        perm[0] = perm[1]
        bad[0].perm_estimate = perm
        cases["suspect_permutation"] = check(run, bad)

        book = shutil.copytree(run, work / "bad-codebook")
        cb = containers.read_codebook(book / "codebook.nac")
        containers.patch(book / "codebook.nac", cb.words_offset + cb.words.shape[1],
                         cb.words[0].tobytes())
        cases["codebook_word"] = check(book, verdicts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # the clean copy fails only its rejected rescale verdicts
    clean = cases["clean"]
    ok = clean.correct and clean.failed == clean.rescale_rejected
    report = {}
    for name, o in cases.items():
        detected = o.failed > clean.failed and not o.correct
        if name != "clean":
            ok = ok and detected
        report[name] = {"attempted": o.attempted, "failed": o.failed,
                        "correct": o.correct, "problems": o.problems[:3]}
    print(json.dumps({"self_test": "pass" if ok else "fail", "cases": report}, indent=2))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("desk", "verify", "wide"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run R times on consecutive seeds and print quartiles")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "neuralign" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.repeat:
        if not args.workload:
            parser.error("--repeat needs --workload")
        return repeat(args)
    cores = cap_blas_threads(args.workload)
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return bench(args, cores)


if __name__ == "__main__":
    sys.exit(main())
