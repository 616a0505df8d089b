"""Run one workload: fixtures, correctness gate, set-ups, timed steps, metrics.

``run_workload`` returns the result object the command prints last plus a
run record; ``main`` is the command line. See README.md for the workloads,
the metrics and how to repeat a measurement.
"""

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from importlib import metadata
from time import perf_counter

import numpy as np

from popgraph.tensor import finite_difference_check

import calibration
import workloads as wl
from tracing import NULL_TRACER, Tracer

TAIL_BEYOND = 10  # step_ms_tail is the highest percentile with this many steps beyond it
MIN_TIMED_STEPS = 3 * TAIL_BEYOND
EVALS_PER_ROUND = 5
SETUP_REFERENCE_PASSES = 3  # reference Python passes on each side of a set-up
GRAD_TOLERANCE = 1e-5  # max relative error of the finite-difference gate
# NDDL's 0.5 mask makes the loss jump where an edge weight crosses it, and
# init_threshold leaves two weights close to 0.5. At a 1e-5 step 2 of 100
# tiny populations flipped the mask; at 1e-7 none of 300 did, and rounding
# error stays near 1e-7.
GRAD_STEP = 1e-7
PROB_SUM_TOLERANCE = 1e-9
DENSITY_RANGE = (0.01, 0.99)  # a learned graph outside it has collapsed or filled in

E2E_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "train_graphs_per_s": "1/s",
    "eval_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "loss_final": "nats",
    "acc_final": "fraction",
}

LAYER_UNITS = {
    "node_level.forward_ms": "ms",
    "latent_graph.forward_ms": "ms",
    "degree_loss.forward_ms": "ms",
    "classifier.forward_ms": "ms",
    "tensor.backward_ms": "ms",
    "tensor.release_ms": "ms",
    "tensor.tape_entries": "count",
    "tensor.tape_mb": "MB",
    "tensor.grad_mb": "MB",
    "data.load_tu_s": "s",
    "data.batch_s": "s",
    "data.nodes": "count",
    "data.edges": "count",
    "latent_graph.init_threshold_ms": "ms",
    "baselines.wl_gram_s": "s",
    "baselines.knn_s": "s",
    "latent_graph.edge_density_first": "fraction",
    "latent_graph.edge_density_last": "fraction",
    "bench.update_ms": "ms",
    "bench.step_self_ms": "ms",
    "bench.stage_coverage": "fraction",
    "bench.stage_coverage_ex_release": "fraction",
    "bench.trace_overhead": "ratio",
    "bench.reference_ms": "ms",
}

# Per-layer step metrics: the span names (public calls) each one sums.
STEP_LAYERS = {
    "node_level.forward_ms": ("node_level.forward",),
    "latent_graph.forward_ms": ("latent_graph.forward",),
    "degree_loss.forward_ms": ("degree_loss.degree_loss", "degree_loss.total_loss"),
    "classifier.forward_ms": ("classifier.forward", "classifier.cross_entropy"),
    "tensor.backward_ms": ("tensor.backward",),
    "tensor.release_ms": ("tensor.release",),
    "bench.update_ms": ("bench.update",),
}
# The stages are popgraph's own layers; stage coverage is their share of a step.
STAGES = tuple(m for m in STEP_LAYERS if not m.startswith("bench."))

# Set-up metrics: span name and the factor from seconds to the metric's unit.
SETUP_LAYERS = {
    "data.load_tu_s": ("data.load_tu_dataset", 1.0),
    "data.batch_s": ("data.GraphBatch", 1.0),
    "latent_graph.init_threshold_ms": ("latent_graph.init_threshold", 1e3),
    "baselines.wl_gram_s": ("baselines.wl_gram", 1.0),
    "baselines.knn_s": ("baselines.knn_from_gram", 1.0),
}


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gradient_gate(workload: wl.Workload, seed: int, directory: str) -> float:
    """Finite-difference check of the step's loss on a tiny population.

    The tiny population uses the workload's own topology, graph mode and step
    function; only sizes shrink. Returns the largest relative error over all
    parameters.
    """
    tiny = dataclasses.replace(workload, graphs=8, nodes_min=3, nodes_max=5,
                               feature_dim=3, hidden=4, knn_k=2)
    wl.write_fixture(tiny, seed, directory)
    batch, model = wl.set_up(tiny, directory)
    worst = 0.0
    for param in model.parameters():
        err = finite_difference_check(lambda _: wl.loss_of_step(model, batch)[0], param,
                                      step=GRAD_STEP)
        worst = max(worst, err) if np.isfinite(err) else np.inf
    return worst


def quality_probe(workload: wl.Workload, directory: str):
    """(loss, accuracy) after one training episode on the probe population.

    The probe has the workload's shape at no more than ``wl.PROBE_GRAPHS``
    graphs and is written from ``wl.PROBE_SEED`` whatever the run's seed, so
    both figures depend on the code alone: a change that keeps the
    arithmetic keeps them bit for bit. Returns NaNs when a step is non-finite.
    """
    probe = dataclasses.replace(workload, graphs=min(workload.graphs, wl.PROBE_GRAPHS))
    wl.write_fixture(probe, wl.PROBE_SEED, directory)
    batch, model = wl.set_up(probe, directory)
    for _ in range(probe.episode_steps):
        result = wl.train_step(model, batch)
        if not result.finite:
            return float("nan"), float("nan")
    return result.loss, accuracy(wl.predict(model, batch), batch.labels)


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def fixed_graph_checks(model: wl.Model, k: int) -> dict:
    gram = model.gram
    adj = model.fixed_adjacency.data
    return {
        "wl_gram_symmetric": bool(np.array_equal(gram, gram.T)),
        "wl_gram_positive_diagonal": bool(np.all(np.diag(gram) > 0)),
        "knn_symmetric": bool(np.array_equal(adj, adj.T)),
        "knn_zero_diagonal": bool(np.all(np.diag(adj) == 0)),
        "knn_degree_at_least_k": bool(np.all(adj.sum(axis=1) >= k)),
    }


def median(samples) -> float:
    """Median, or NaN when nothing succeeded (the run is then marked incorrect)."""
    return statistics.median(samples) if samples else float("nan")


def tail(samples):
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return float("nan"), None
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    """Set-ups, training episodes and eval passes of one workload.

    Every step and eval pass is timed right after one pass of the
    host-speed reference (``calibration``), and every set-up between passes
    of its Python part. The raw times go to the run record; the end-to-end
    metrics use the times scaled to the reference's nominal speed.

    All ``workload.setups`` set-ups come first; the run keeps the last.
    A set-up between rounds would leave freed blocks for the next round to
    reuse, so the first round without one would grow the heap, and peak
    memory would depend on how many rounds fit in the window. Machine load
    on a shared host drifts over seconds, so the window is spent in rounds
    of one training episode and a few eval passes, and every median draws
    on the whole window.
    """

    def __init__(self, workload: wl.Workload, data_dir: str, tracer):
        self.workload, self.data_dir, self.tracer = workload, data_dir, tracer
        self.reference = calibration.Reference()
        self.reference_ms = []
        self.reference_python_ms = []
        self.setup_seconds = []  # raw
        self.setup_scaled = []
        for _ in range(workload.setups):
            self.batch, self.model = self.set_up()
        self.params = self.model.parameters()
        self.initial = [p.data.copy() for p in self.params]
        self.step_ms = []  # untraced successful steps, raw
        self.step_scaled = []
        self.traced_step_scaled = []
        self.eval_ms = []  # raw
        self.eval_scaled = []
        self.attempted = self.failed = self.eval_failed = 0
        self.episode_losses = []
        self.densities = []  # (first, last) per episode
        self.tape = (0, 0, 0)  # entries, data bytes, grad bytes of a traced step
        self.first_probs = None
        self.probs_identical = True
        self.prob_rows_sum_to_one = True
        self.accuracy = float("nan")
        self.next_step_id = 0

    def set_up(self):
        gc.collect()  # the previous set-up is garbage; free it untimed
        # A set-up lasts up to seconds, so the host speed is taken on both
        # sides of it, SETUP_REFERENCE_PASSES times each.
        scales = [self.python_scale() for _ in range(SETUP_REFERENCE_PASSES)]
        t0 = perf_counter()
        with self.tracer.span("bench.setup"):
            batch, model = wl.set_up(self.workload, self.data_dir, self.tracer)
        elapsed = perf_counter() - t0
        scales += [self.python_scale() for _ in range(SETUP_REFERENCE_PASSES)]
        self.setup_seconds.append(elapsed)
        self.setup_scaled.append(elapsed * statistics.median(scales))
        return batch, model

    def host_scale(self) -> float:
        """Times one reference pass; returns the factor to scale the next interval by."""
        ref_ms = self.reference.time_ms()
        self.reference_ms.append(ref_ms)
        return calibration.NOMINAL_MS / ref_ms

    def python_scale(self) -> float:
        """As ``host_scale``, from the reference's Python part alone."""
        ref_ms = self.reference.time_ms(python_only=True)
        self.reference_python_ms.append(ref_ms)
        return calibration.NOMINAL_PYTHON_MS / ref_ms

    def episode(self, traced: bool):
        """Train episode_steps steps from the initial parameters."""
        tracer = self.tracer if traced else NULL_TRACER
        for p, data in zip(self.params, self.initial):
            p.data = data.copy()
        first_density = last_adjacency = loss = None
        for _ in range(self.workload.episode_steps):
            step_id = self.next_step_id
            self.next_step_id += 1
            self.attempted += 1
            scale = self.host_scale()
            t0 = perf_counter()
            try:
                with tracer.span("bench.step", step=step_id):
                    result = wl.train_step(self.model, self.batch, tracer, count_tape=traced)
            except Exception:  # a failing step is counted; the episode goes on
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                continue
            elapsed_ms = (perf_counter() - t0) * 1e3
            if not result.finite:
                self.failed += 1
                continue
            if traced:
                self.traced_step_scaled.append(elapsed_ms * scale)
            else:
                self.step_ms.append(elapsed_ms)
                self.step_scaled.append(elapsed_ms * scale)
            if first_density is None:
                first_density = wl.edge_density(result.adjacency)
            last_adjacency, loss = result.adjacency, result.loss
            if traced:
                self.tape = (result.tape_entries, result.tape_bytes, result.grad_bytes)
        self.episode_losses.append(loss)
        if last_adjacency is not None:
            self.densities.append((first_density, wl.edge_density(last_adjacency)))

    def evaluate(self, traced: bool):
        tracer = self.tracer if traced else NULL_TRACER
        eval_id = self.next_step_id
        self.next_step_id += 1
        scale = self.host_scale()
        t0 = perf_counter()
        try:
            with tracer.span("bench.eval", step=eval_id):
                probs = wl.predict(self.model, self.batch, tracer)
        except Exception:  # counted like a failed step
            traceback.print_exc(file=sys.stderr)
            self.eval_failed += 1
            return
        elapsed_ms = (perf_counter() - t0) * 1e3
        if not traced:
            self.eval_ms.append(elapsed_ms)
            self.eval_scaled.append(elapsed_ms * scale)
        if not np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOLERANCE):
            self.prob_rows_sum_to_one = False
        if self.first_probs is None:
            self.first_probs = probs
        elif not np.array_equal(probs, self.first_probs):
            self.probs_identical = False
        self.accuracy = accuracy(probs, self.batch.labels)

    def measure(self, seconds: float, traced_run: bool) -> int:
        """Rounds over a window of about ``seconds``; returns the round count.

        A round starts while its expected midpoint falls inside the window,
        or while fewer than MIN_TIMED_STEPS untraced steps are timed. On a
        traced run, rounds alternate between untraced and traced, so the two
        step medians give the tracing overhead.
        """
        try:  # warm-up, untimed: allocator pools, BLAS threads
            wl.train_step(self.model, self.batch)
            wl.predict(self.model, self.batch)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted = self.failed = 1
            return 0
        # The objects alive now live through the run. Frozen, the collection
        # that ends each step walks only the step's own objects.
        gc.collect()
        gc.freeze()
        start = perf_counter()
        rounds = 0
        try:
            while not (self.failed or self.eval_failed):  # after a failure the run is incorrect
                elapsed = perf_counter() - start
                enough = len(self.step_ms) >= MIN_TIMED_STEPS and (rounds >= 2 or not traced_run)
                if enough and elapsed + elapsed / rounds / 2 >= seconds:
                    break
                traced = traced_run and rounds % 2 == 1
                self.episode(traced)
                for _ in range(EVALS_PER_ROUND):
                    self.evaluate(traced)
                rounds += 1
        finally:
            gc.unfreeze()
        return rounds

    def checks(self) -> dict:
        checks = {
            "no_failed_steps": self.failed == 0,
            "no_failed_evals": self.eval_failed == 0,
            "loss_final_repeats": len(set(self.episode_losses)) == 1
            and None not in self.episode_losses,
            "eval_prob_rows_sum_to_one": self.prob_rows_sum_to_one,
            "eval_repeats": self.probs_identical,
        }
        if self.workload.learned_graph:
            low, high = DENSITY_RANGE
            checks["graph_not_degenerate"] = bool(self.densities) and \
                low <= self.densities[-1][1] <= high
        else:
            checks.update(fixed_graph_checks(self.model, self.workload.knn_k))
        return checks

    def e2e_metrics(self) -> dict:
        """The timing and memory metrics; loss_final and acc_final come from the probe.

        Times are scaled to the reference host speed (``calibration``).
        """
        step_seconds = sum(self.step_scaled) / 1e3
        return {
            "setup_s": median(self.setup_scaled),
            "step_ms_p50": median(self.step_scaled),
            "step_ms_tail": tail(self.step_scaled)[0],
            "train_graphs_per_s": self.workload.graphs * len(self.step_scaled) / step_seconds
            if step_seconds else float("nan"),
            "eval_ms_p50": median(self.eval_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def layer_metrics(self) -> dict:
        metrics = {**step_layer_metrics(self.tracer), **setup_layer_metrics(self.tracer)}
        entries, tape_bytes, grad_bytes = self.tape
        first, last = self.densities[-1] if self.densities else (float("nan"),) * 2
        overhead = median(self.traced_step_scaled) / median(self.step_scaled) - 1.0
        metrics.update({
            "tensor.tape_entries": entries,
            "tensor.tape_mb": tape_bytes / 2**20,
            "tensor.grad_mb": grad_bytes / 2**20,
            "data.nodes": self.batch.total_nodes,
            "data.edges": sum(len(g.edges) for g in self.batch.graphs),
            "latent_graph.edge_density_first": first,
            "latent_graph.edge_density_last": last,
            "bench.trace_overhead": overhead,
            "bench.reference_ms": median(self.reference_ms),
        })
        return metrics


def step_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer medians over traced steps, from the spans each step encloses."""
    own = tracer.self_times()
    per_step = {}  # step id -> {metric: ms}
    durations, step_self = {}, []
    for index, span in enumerate(tracer.spans):
        if span["name"] == "bench.step":
            durations[span["step"]] = (span["end"] - span["start"]) * 1e3
            step_self.append(own[index] * 1e3)
            per_step[span["step"]] = dict.fromkeys(STEP_LAYERS, 0.0)
    for span in tracer.spans:
        totals = per_step.get(span["step"])
        if totals is None:
            continue
        for metric, names in STEP_LAYERS.items():
            if span["name"] in names:
                totals[metric] += (span["end"] - span["start"]) * 1e3
    metrics = {m: median([t[m] for t in per_step.values()]) for m in STEP_LAYERS}

    def coverage(stages):
        return median([sum(t[m] for m in stages) / durations[step]
                       for step, t in per_step.items()])

    metrics["bench.stage_coverage"] = coverage(STAGES)
    metrics["bench.stage_coverage_ex_release"] = coverage(
        [m for m in STAGES if m != "tensor.release_ms"])
    metrics["bench.step_self_ms"] = median(step_self)
    return metrics


def setup_layer_metrics(tracer: Tracer) -> dict:
    metrics = {}
    for metric, (name, scale) in SETUP_LAYERS.items():
        # one span per set-up; a layer the workload does not use took no time
        times = [(s["end"] - s["start"]) * scale for s in tracer.spans
                 if s["name"] == name and s["step"] is None] or [0.0]
        metrics[metric] = median(times)
    return metrics


def versions() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"python": platform.python_version(),
              "blas": f"{blas.get('name')} {blas.get('version')}"}
    for package in ("numpy", "scipy"):
        try:
            record[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            record[package] = None
    return record


def run_workload(workload: wl.Workload, seed: int, seconds: float, trace: bool, work_dir: str):
    """Measure one workload; returns (result printed last, run record)."""
    tracer = Tracer() if trace else NULL_TRACER
    fixture = os.path.join(work_dir, f"{workload.name}-seed{seed}-pid{os.getpid()}")
    try:
        wl.write_fixture(workload, seed, os.path.join(fixture, "data"))
        grad_error = gradient_gate(workload, seed, os.path.join(fixture, "gate"))
        loss_final, acc_final = quality_probe(workload, os.path.join(fixture, "probe"))
        run = Run(workload, os.path.join(fixture, "data"), tracer)
        rounds = run.measure(seconds, trace)
    finally:
        shutil.rmtree(fixture, ignore_errors=True)

    checks = {"finite_difference": bool(grad_error < GRAD_TOLERANCE),
              "probe_finite": bool(np.isfinite(loss_final)), **run.checks()}
    if trace:
        values, units = run.layer_metrics(), LAYER_UNITS
    else:
        values = {**run.e2e_metrics(), "loss_final": loss_final, "acc_final": acc_final}
        units = E2E_UNITS
    result = {
        "correct": all(checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    timed = run.traced_step_scaled if trace else run.step_scaled
    first, last = run.densities[-1] if run.densities else (None, None)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "malloc": {var: os.environ.get(var, "unset")
                   for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")},
        **versions(),
        "learning_rate": wl.LEARNING_RATE, "model_seed": wl.MODEL_SEED,
        "reference_nominal_ms": calibration.NOMINAL_MS,
        "reference_ms_p50": median(run.reference_ms),
        "reference_nominal_python_ms": calibration.NOMINAL_PYTHON_MS,
        "reference_python_ms_p50": median(run.reference_python_ms),
        "raw": {"setup_s_each": run.setup_seconds, "step_ms_p50": median(run.step_ms),
                "eval_ms_p50": median(run.eval_ms)},
        "rounds": rounds, "episode_steps": workload.episode_steps,
        "timed_steps": len(timed), "steps_attempted": run.attempted,
        "steps_failed": run.failed,
        "step_ms_tail_percentile": tail(timed)[1], "eval_passes": len(run.eval_ms),
        "edge_density_first": first, "edge_density_last": last,
        "loss_final_seed": run.episode_losses[-1] if run.episode_losses else None,
        "acc_final_seed": run.accuracy,
        "gradient_check_max_error": grad_error,
        "checks": checks,
    }
    if trace:
        record["trace_file"] = os.path.join(work_dir, f"trace-{workload.name}-seed{seed}.jsonl")
        tracer.write_jsonl(record["trace_file"])
    return result, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description="popgraph training-step benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = os.path.join(repo_root(), ".perfbench")
    result, record = run_workload(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), work_dir)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
