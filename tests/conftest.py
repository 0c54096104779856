import importlib.util
import os
import sys
from pathlib import Path

import pytest

from neuralign.config import AttackSpec, ExperimentConfig, validate_config
from neuralign.network import Network, _bitwise_equal
from neuralign.pipeline import run_all
from neuralign.serialize import read_container, write_container


def networks_equal(a: Network, b: Network) -> bool:
    """Equal layer count, parameters equal bit for bit: +0.0 and -0.0
    differ, as in the gradient kernel's fold check."""
    return len(a.layers) == len(b.layers) and all(
        _bitwise_equal(la.weights, lb.weights) and _bitwise_equal(la.biases, lb.biases)
        for la, lb in zip(a.layers, b.layers)
    )


def tiny_config() -> ExperimentConfig:
    """A few-second experiment; unit tests assert mechanics, not margins."""
    cfg = ExperimentConfig()
    cfg.data.samples = 600
    cfg.data.input_dim = 24
    cfg.data.classes = 3
    cfg.data.holdout = 120
    cfg.model.widths = [48, 16, 8]
    cfg.model.epochs = 12
    cfg.coding.t = 20
    cfg.triggers.steps = 400
    cfg.triggers.restarts = 3
    cfg.triggers.j = 4
    cfg.watermark.bits = 16
    cfg.attacks = [
        AttackSpec(kind="np", trials=3),
        AttackSpec(kind="ftp", trials=3, epochs=1),
        AttackSpec(kind="npp", trials=3),
        AttackSpec(kind="rescale", trials=3),
    ]
    return validate_config(cfg)


def child_pids() -> list[int]:
    """This process's live and unreaped children, however they were forked:
    the kernel's list for the main thread, which forks them."""
    with open(f"/proc/self/task/{os.getpid()}/children") as f:
        return [int(pid) for pid in f.read().split()]


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a child process behind, running or never
    reaped, such as a forked block of a split loop."""
    yield
    leaked = child_pids()
    assert not leaked, f"child processes left after the test: {leaked}"


@pytest.fixture()
def tiny_config_factory():
    return tiny_config


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """One complete pipeline run shared by every read-only test."""
    cfg = tiny_config()
    out = tmp_path_factory.mktemp("tiny_run")
    report = run_all(cfg, out)
    return cfg, out, report


@pytest.fixture()
def perfbench_module():
    """Loader of one of the benchmark's modules (perfbench/<name>.py), which
    are written apart from the program and imported here read-only."""

    def load(name: str):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture()
def rewrite_payload():
    """Overwrite payload bytes of a container at a payload offset and refresh
    its checksum: a file that passes the CRC but carries the given field."""

    def rewrite(path, magic: bytes, offset: int, value: bytes) -> None:
        payload = bytearray(read_container(path, magic))
        payload[offset : offset + len(value)] = value
        write_container(path, magic, bytes(payload))

    return rewrite
