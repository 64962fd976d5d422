"""Put the benchmark modules and the package source on the import path and
provide scaled-down workloads that finish in about a second."""

import dataclasses
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import workloads  # noqa: E402

TINY_DATA = {**workloads.DEFAULT_DATA, "train_examples": 200, "val_examples": 60, "test_examples": 60}


def tiny_workload(name: str) -> workloads.Workload:
    """The named workload with small splits and a few dozen steps. The NMI
    floor is dropped: it is calibrated for full-length training."""
    wl = workloads.WORKLOADS[name]
    train = {**wl.train, "iterations": 20, "eval_every": 10}
    if train.get("pretrain"):
        train["pretrain_iterations"] = 10
    return dataclasses.replace(wl, data=TINY_DATA, train=train, nmi_floor=0.0)


@pytest.fixture
def tiny(monkeypatch):
    """Replace every registered workload by its tiny version."""
    for name in list(workloads.WORKLOADS):
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny_workload(name))
    return tiny_workload
