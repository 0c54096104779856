"""The benchmark's workloads and the metrics each one reports.

desk     run_all on the default config into an empty directory: the user's and
         the acceptance suite's end-to-end run.
verify   owner set-up (train, encode, forge T1) at the default config, then
         rounds of the four default attacks and file-to-verdict verification
         of every suspect through the public API.
wide     the same layers at widths 256/128/16 (dense1 watermarked, N=128) and
         T=120: set-up trains and encodes, each round forges T1, runs the np
         and npp attacks (100 trials each) and verifies every suspect. It is
         run by hand only: BENCHMARK.json names desk and verify, since the
         time a full set of benchmark runs may take leaves room for longer
         runs of two workloads, not for three.

A round is one closed-loop pass over a workload's timed stages; every round
repeats the same operations, so the count of failed operations is a fixed
share of those attempted. Every workload runs the program at
`ExperimentConfig`'s default master seed: the rescale fault rejects a
different share of suspects at each master seed, and the forging and
read-back counts move with it, so a fixed master seed is what lets every run
attempt and fail the same operations. The benchmark's `--seed` draws the
probe inputs of the function-preservation check.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import neuralign as nl
from neuralign import pipeline
from neuralign.config import (
    AttackSpec,
    CodingSpec,
    ExperimentConfig,
    ModelSpec,
    validate_config,
)

from checks import Outcome, Verdict, evaluate

clock = time.perf_counter
PROBE_ROWS = 256


@dataclass
class Round:
    seconds: float
    forge_s: float | None
    attacked: int  # suspects attacked, in attack_s seconds of attack stages
    attack_s: float
    verified: int  # suspects (desk: verdicts) verified, in verify_s seconds
    verify_s: float
    verdicts: list = field(default_factory=list)
    outcome: Outcome = field(default_factory=Outcome)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Desk:
    """run_all(ExperimentConfig(seed)) into an empty directory per round.

    Set-up is the time a fresh interpreter takes to import the package: the
    fixed cost in front of every run_all a user starts.
    """

    modes = ("t1", "t2")
    # one run_all gives a single 1-2 s sample of forge_t1 and of each stage
    # rate; the attack stages' speed swings by up to 40% between rounds
    # independently of the rest of the round, so a run averages three, even
    # where three overrun the measuring window
    min_rounds = 3

    def __init__(self, cfg: ExperimentConfig, probes: np.ndarray, work: Path, src: Path):
        self.cfg = validate_config(cfg)
        self.probes = probes
        self.work = work
        self.src = src
        self.rounds = 0

    def setup(self, repeats: int) -> list:
        env = dict(os.environ, PYTHONPATH=str(self.src))
        times = []
        for _ in range(repeats):
            start = clock()
            subprocess.run([sys.executable, "-c", "import neuralign"], env=env, check=True)
            times.append(clock() - start)
        return times

    def round(self) -> Round:
        out = _fresh(self.work / f"desk-{self.rounds}")
        self.rounds += 1
        # stage_align keeps only summaries and the T2 variants are never
        # saved, so both are picked up in pipeline's namespace for the checks;
        # each capture adds one Python call per verdict or ensemble
        verdicts, ensembles, context = [], {}, {}
        stage_align = pipeline.stage_align
        verify_with_alignment = pipeline.verify_with_alignment
        make_variant_ensemble = pipeline.make_variant_ensemble

        def capture_stage(cfg, out, kind, mode):
            context.update(kind=kind, mode=mode, trial=0)
            return stage_align(cfg, out, kind, mode)

        def capture_verdict(*args, **kwargs):
            av = verify_with_alignment(*args, **kwargs)
            verdicts.append(_verdict(context["kind"], context["mode"], context["trial"], av))
            context["trial"] += 1
            return av

        def capture_ensemble(*args, **kwargs):
            ensemble = make_variant_ensemble(*args, **kwargs)
            ensembles["t1" if ensemble.j == 0 else "t2"] = ensemble.networks
            return ensemble

        pipeline.stage_align = capture_stage
        pipeline.verify_with_alignment = capture_verdict
        pipeline.make_variant_ensemble = capture_ensemble
        try:
            start = clock()
            report = pipeline.run_all(self.cfg, out)
            seconds = clock() - start
        finally:
            pipeline.stage_align = stage_align
            pipeline.verify_with_alignment = verify_with_alignment
            pipeline.make_variant_ensemble = make_variant_ensemble

        timings = report["timings"]
        r = Round(
            seconds=seconds,
            forge_s=timings["forge_t1"],
            attacked=sum(a.trials for a in self.cfg.attacks),
            attack_s=sum(timings[f"attack_{a.kind}"] for a in self.cfg.attacks),
            verified=sum(a["trials"] for a in report["attacks"]),
            verify_s=sum(timings[f"align_{a['kind']}_{a['mode']}"] for a in report["attacks"]),
            verdicts=verdicts,
        )
        r.outcome = evaluate(out, self.modes, verdicts, self.probes, clamp_box(self.cfg),
                             ensembles={"t2": ensembles["t2"]})
        shutil.rmtree(out)
        return r

    def end_to_end(self, setup: list, rounds: list) -> dict:
        return {"setup_s": statistics.median(setup), **_round_metrics(rounds)}


class Suspects:
    """Owner set-up once, then rounds of attacks and suspect verification."""

    modes = ("t1",)

    def __init__(self, name: str, cfg: ExperimentConfig, probes: np.ndarray, work: Path,
                 forge_in_round: bool, trials: int | None = None):
        self.name = name
        self.cfg = validate_config(cfg)
        self.probes = probes
        self.work = work
        self.forge_in_round = forge_in_round
        # a round that forges takes about 15 s, so one sample of forge_t1 and
        # of each rate per run is all a single round would give
        self.min_rounds = 2 if forge_in_round else 1
        self.trials = trials
        self.kinds = [a.kind for a in self.cfg.attacks]
        self.run_dir: Path | None = None
        self.setup_forge_s: list = []

    def setup(self, repeats: int) -> list:
        times = []
        for i in range(repeats):
            out = _fresh(self.work / f"{self.name}-setup-{i}")
            start = clock()
            pipeline.stage_train(self.cfg, out)
            pipeline.stage_encode(self.cfg, out)
            if not self.forge_in_round:
                forge_start = clock()
                pipeline.stage_forge(self.cfg, out, "t1")
                self.setup_forge_s.append(clock() - forge_start)
            times.append(clock() - start)
            if self.run_dir is not None:
                shutil.rmtree(self.run_dir)
            self.run_dir = out
        return times

    def round(self) -> Round:
        cfg, out = self.cfg, self.run_dir
        # every round writes its suspects into an empty directory, as the
        # first round and run_all do; rewriting the last round's files is
        # other work (ext4 starts writeback when a truncated file is closed)
        shutil.rmtree(out / "suspects", ignore_errors=True)
        start = clock()
        forge_s = None
        if self.forge_in_round:
            pipeline.stage_forge(cfg, out, "t1")
            forge_s = clock() - start
        attack_start = clock()
        summaries = {kind: pipeline.stage_attack(cfg, out, kind, trials=self.trials)
                     for kind in self.kinds}
        verify_start = clock()
        record = nl.load_record(out / pipeline.RECORD_FILE)
        cb = nl.load_codebook(out / pipeline.CODEBOOK_FILE)
        ts = nl.load_trigger_set(out / pipeline.trigger_file("t1"))
        verdicts = []
        for kind in self.kinds:
            for rec in summaries[kind]["records"]:
                suspect = nl.load_model(pipeline.suspect_file(out, kind, rec["trial"]))
                av = nl.verify_with_alignment(suspect, ts, cb, record)
                verdicts.append(_verdict(kind, "t1", rec["trial"], av))
        end = clock()
        r = Round(
            seconds=end - start,
            forge_s=forge_s,
            attacked=sum(s["trials"] for s in summaries.values()),
            attack_s=verify_start - attack_start,
            verified=len(verdicts),
            verify_s=end - verify_start,
            verdicts=verdicts,
        )
        r.outcome = evaluate(out, self.modes, verdicts, self.probes, clamp_box(cfg))
        return r

    def end_to_end(self, setup: list, rounds: list) -> dict:
        metrics = {"setup_s": statistics.median(setup), **_round_metrics(rounds)}
        if not self.forge_in_round:
            metrics["forge_t1_s"] = statistics.fmean(self.setup_forge_s)
        return metrics


def _verdict(kind: str, mode: str, trial: int, av) -> Verdict:
    return Verdict(
        kind=kind, mode=mode, trial=trial, accepted=av.accepted,
        ber=av.ov.ber if av.ov is not None else None,
        perm_estimate=av.alignment.perm_estimate if av.alignment is not None else None,
    )


def probe_inputs(cfg, seed: int) -> np.ndarray:
    """Inputs drawn uniformly from the clamp box, on which function-preserving
    suspects must match the marked model."""
    rng = np.random.default_rng(seed)
    return rng.uniform(*clamp_box(cfg), size=(PROBE_ROWS, cfg.data.input_dim))


def clamp_box(cfg):
    return cfg.triggers.box_low, cfg.triggers.box_high


def _round_metrics(rounds: list) -> dict:
    """Timings as totals over the run: work done over the time it took.

    On a shared host the CPU's speed can swing by up to 2x over tens of
    seconds. A median over rounds lands in a fast or a slow stretch depending
    on which holds most rounds, so it jumps between runs; the total averages
    every stretch of the run.
    """
    forge = [r.forge_s for r in rounds if r.forge_s is not None]
    metrics = {
        "pipeline_s": statistics.fmean(r.seconds for r in rounds),
        "attack_suspects_per_s": sum(r.attacked for r in rounds) / sum(r.attack_s for r in rounds),
        "verify_suspects_per_s": sum(r.verified for r in rounds) / sum(r.verify_s for r in rounds),
    }
    if forge:
        metrics["forge_t1_s"] = statistics.fmean(forge)
    return metrics


def wide_config() -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelSpec(widths=[256, 128, 16], watermarked_layer="dense1"),
        coding=CodingSpec(t=120),
        attacks=[AttackSpec(kind="np"), AttackSpec(kind="npp")],
    )


def make(name: str, seed: int, work: Path, src: Path, trials: int | None = None):
    """Workload `name`; `seed` draws the check's probe inputs."""
    cfg = wide_config() if name == "wide" else ExperimentConfig()
    probes = probe_inputs(cfg, seed)
    if name == "desk":
        return Desk(cfg, probes, work, src)
    if name == "verify":
        return Suspects("verify", cfg, probes, work, False, trials)
    if name == "wide":
        return Suspects("wide", cfg, probes, work, True, trials)
    raise ValueError(f"unknown workload {name!r}")

