"""Tests of the benchmark harness itself, on scaled-down workloads.

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import textwrap

import pytest

import run
import tracer as tracing
import workloads
from conftest import BENCH_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings():
    out = {}
    for module_name, attribute, _ in (*tracing.HOOKS, *tracing.COUNTED):
        owner, attr = tracing._resolve(module_name, attribute)
        out[module_name, attribute] = vars(owner)[attr]
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer.active("op-0"):
        during = _bindings()
        assert all(during[key] is not before[key] for key in before)
    assert all(after is before[key] for key, after in _bindings().items())

    with pytest.raises(ZeroDivisionError):
        with tracer.active("op-1"):
            1 / 0
    assert all(after is before[key] for key, after in _bindings().items())
    assert not tracer.missing


def test_missing_hook_reports_its_metrics_absent(tiny, tmp_path, monkeypatch):
    hook = ("mlembed.trainer", "no_such_function", "sampler.build_minibatch")
    monkeypatch.setattr(tracing, "HOOKS", (*tracing.HOOKS, hook))
    tracer = tracing.Tracer()
    m = workloads.measure(tiny("contrastive"), 1, 0, tmp_path, tracer=tracer)
    assert m.failed == 0
    assert tracer.missing == {"mlembed.trainer.no_such_function"}
    metrics = tracing.layer_metrics(tracer, m.timed_runs, 1.0)
    assert "sampler.ms_per_step" not in metrics
    assert "losses.ms_per_step" in metrics


@pytest.mark.parametrize("name", ["ml2plus-pretrain", "contrastive"])
def test_traced_and_untraced_runs_write_identical_reports(tiny, tmp_path, name):
    plain = workloads.measure(tiny(name), 3, 0, tmp_path / "plain")
    traced = workloads.measure(tiny(name), 3, 0, tmp_path / "traced", tracer=tracing.Tracer())
    # Within the traced run, op-0 ran untraced and op-1 traced; the byte
    # comparison against the first run of the seed counts as a check.
    assert plain.failed == 0 and traced.failed == 0
    assert plain.report_digest is not None
    assert plain.report_digest == traced.report_digest


def _printed_result(capsys, workload, trace):
    assert run.run_one(workload, 2, 0, trace) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_printed_metrics_are_declared(tiny, tmp_path, monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    lines, result = _printed_result(capsys, workload, trace)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME_RE.fullmatch(name)
        assert metric["unit"] == declared[name]
        assert any(line.split()[:1] == [name] for line in lines[:-1]), f"{name} not printed by name"
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in declared)


def test_step_accounting(tiny, tmp_path):
    tracer = tracing.Tracer()
    m = workloads.measure(tiny("ml2plus-pretrain"), 4, 0, tmp_path, tracer=tracer)
    metrics = {k: v[0] for k, v in tracing.layer_metrics(tracer, m.timed_runs, 1.0).items()}
    parts = ("sampler.ms_per_step", "losses.ms_per_step", "model.forward_ms_per_step",
             "model.backward_ms_per_step", "trainer.sgd_ms_per_step", "trainer.self_ms_per_step")
    assert sum(metrics[p] for p in parts) == pytest.approx(metrics["trainer.step_ms_mean"], rel=1e-9)
    assert metrics["losses.calls_per_step"] == 10
    assert metrics["model.rows_per_step"] == 60  # 10 groups of an anchor and one row per label
    assert metrics["trainer.pretrain_step_ms_p50"] > 0
    assert metrics["evaluation.kmeans_sweeps"] >= 1


@pytest.mark.parametrize("corrupt", [b"not a checkpoint", b"MLEMBED\x01\x05"])
def test_corrupted_checkpoint_counts_as_failed(tiny, tmp_path, corrupt):
    m = workloads.measure(
        tiny("eval"), 1, 0, tmp_path, after_setup=lambda inputs: inputs.checkpoint.write_bytes(corrupt)
    )
    timed_calls = len(m.timed_runs)
    assert timed_calls >= workloads.MIN_OPS
    assert m.failed == timed_calls
    metrics = workloads.end_to_end(m)
    assert metrics["ok_ratio"][0] == (m.attempted - m.failed) / m.attempted < 1.0


def test_untraced_run_does_not_import_the_tracer(tmp_path):
    code = textwrap.dedent(
        f"""
        import sys
        sys.path[:0] = [{str(BENCH_DIR / 'tests')!r}]
        import conftest, run, workloads
        run.ROOT = __import__("pathlib").Path({str(tmp_path)!r})
        workloads.WORKLOADS["eval"] = conftest.tiny_workload("eval")
        run.run_one("eval", 1, 0, False)
        assert "tracer" not in sys.modules, "tracer was imported"
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, SPEC["command"][1], "--workload", "eval", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
