"""Self-tests of the benchmark: each workload at tiny size, and the gate.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import calibration
import harness
import workloads as wl
from tracing import NULL_TRACER

with open(os.path.join(harness.repo_root(), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def tiny(workload: wl.Workload) -> wl.Workload:
    return dataclasses.replace(workload, graphs=16, nodes_min=3, nodes_max=6, feature_dim=3,
                               hidden=4, knn_k=2, episode_steps=3, setups=2)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_emits_every_declared_metric_with_its_unit(name, trace, tmp_path):
    result, record = harness.run_workload(tiny(wl.WORKLOADS[name]), seed=3, seconds=0.05,
                                          trace=trace, work_dir=str(tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["checks"]
    assert result["failed"] == 0
    assert result["attempted"] >= harness.MIN_TIMED_STEPS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    for key in ("nproc", "blas_threads", "numpy", "scipy", "python", "seed", "timed_steps",
                "step_ms_tail_percentile"):
        assert record[key] is not None, key
    if trace:
        assert os.path.exists(record["trace_file"])
        assert result["metrics"]["tensor.tape_entries"]["value"] > 0
        assert 0 < result["metrics"]["bench.stage_coverage"]["value"] <= 1


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_quality_metrics_do_not_depend_on_the_seed(name, tmp_path):
    workload = tiny(wl.WORKLOADS[name])
    first, second = (harness.run_workload(workload, seed=seed, seconds=0.05, trace=False,
                                          work_dir=str(tmp_path))[0]["metrics"]
                     for seed in (1, 2))
    for metric in ("loss_final", "acc_final"):
        assert first[metric]["value"] == second[metric]["value"], metric


def test_nan_parameter_fails_the_run_and_the_exit_code(monkeypatch, tmp_path, capsys):
    real_set_up = wl.set_up

    def poisoned_set_up(*args, **kwargs):
        batch, model = real_set_up(*args, **kwargs)
        model.f1.layers[0].w_self.data[0, 0] = np.nan
        return batch, model

    monkeypatch.setattr(wl, "set_up", poisoned_set_up)
    monkeypatch.setattr(wl, "WORKLOADS", {"tiny": tiny(wl.WORKLOADS["pop1024_small"])})
    monkeypatch.setattr(harness, "repo_root", lambda: str(tmp_path))
    code = harness.main(["--workload", "tiny", "--seed", "1", "--seconds", "0.05"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1


def test_nan_during_training_counts_the_step_as_failed(tmp_path):
    workload = tiny(wl.WORKLOADS["wlknn1024_fixed"])
    wl.write_fixture(workload, 1, str(tmp_path))
    run = harness.Run(workload, str(tmp_path), NULL_TRACER)
    run.initial[0][0, 0] = np.nan  # the first episode restores this value
    run.measure(0.05, traced_run=False)
    assert run.failed >= 1
    assert not run.checks()["no_failed_steps"]


def test_times_are_scaled_by_the_reference(monkeypatch, tmp_path):
    class HalfNominal:  # a host twice as fast as the nominal one
        def time_ms(self, python_only=False):
            return (calibration.NOMINAL_PYTHON_MS if python_only else calibration.NOMINAL_MS) / 2

    monkeypatch.setattr(calibration, "Reference", HalfNominal)
    workload = tiny(wl.WORKLOADS["pop1024_small"])
    wl.write_fixture(workload, 1, str(tmp_path))
    run = harness.Run(workload, str(tmp_path), NULL_TRACER)
    run.measure(0.05, traced_run=False)
    metrics = run.e2e_metrics()
    assert metrics["step_ms_p50"] == pytest.approx(2 * harness.median(run.step_ms))
    assert metrics["eval_ms_p50"] == pytest.approx(2 * harness.median(run.eval_ms))
    assert metrics["setup_s"] == pytest.approx(2 * harness.median(run.setup_seconds))


def test_tail_has_ten_samples_beyond_it():
    value, percentile = harness.tail([float(x) for x in range(1, 31)])
    assert value == 20.0
    assert percentile == pytest.approx(200.0 / 3.0)
