"""The two lanes of ``nn.run_lanes``, and the f1, f2 and f3 ops that run on them."""

import os
import signal
import sys
import threading
import time
import warnings
from concurrent import futures

import numpy as np
import pytest

from popgraph import nn, node_level
from popgraph.classifier import ClassifierConfig
from popgraph.data import GraphBatch, SyntheticSpec, make_synthetic_dataset
from popgraph.model import GiGConfig, GiGModel
from popgraph.nn import ROW_BLOCK, row_blocks
from popgraph.node_level import NodeLevelConfig, node_blocks


@pytest.mark.parametrize("worker", [False, True], ids=["caller_only", "worker"])
def test_run_lanes_returns_each_lanes_result_in_lane_order(monkeypatch, worker):
    monkeypatch.setattr(nn, "LANE_WORKER", worker)
    threads = {}

    def lane(indices):
        threads[indices[0]] = threading.get_ident()
        return 10 * indices[0]

    assert nn.run_lanes(lane, ([0], [1])) == (0, 10)
    assert threads[0] == threading.get_ident()
    assert (threads[1] != threads[0]) is worker


def test_run_lanes_waits_for_lane_1_before_it_raises_lane_0s_error(monkeypatch):
    monkeypatch.setattr(nn, "LANE_WORKER", True)
    started, finished = threading.Event(), []

    def lane(indices):
        if indices == [0]:
            started.wait(10.0)
            raise KeyError("lane 0")
        started.set()
        time.sleep(0.05)
        finished.extend(indices)

    with pytest.raises(KeyError, match="lane 0"):
        nn.run_lanes(lane, ([0], [1]))
    assert finished == [1]


@pytest.mark.parametrize("worker", [False, True], ids=["caller_only", "worker"])
def test_run_lanes_raises_lane_1s_error(monkeypatch, worker):
    monkeypatch.setattr(nn, "LANE_WORKER", worker)

    def lane(indices):
        if indices == [1]:
            raise KeyError("lane 1")

    with pytest.raises(KeyError, match="lane 1"):
        nn.run_lanes(lane, ([0], [1]))


class StubExecutor:
    """Runs each submitted call at once on the caller, and records its arguments."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append(args)
        future = futures.Future()
        future.set_result(fn(*args))
        return future


def test_run_lanes_hands_lane_1_to_the_worker_only_when_it_has_indices(monkeypatch):
    monkeypatch.setattr(nn, "LANE_WORKER", True)
    stub = StubExecutor()
    monkeypatch.setattr(nn, "_worker", [stub])
    ran = []

    def lane(indices):
        ran.append((indices, threading.get_ident()))
        return len(indices)

    assert nn.run_lanes(lane, ([0, 1], [])) == (2, 0)
    assert stub.submitted == []
    assert ran == [([0, 1], threading.get_ident()), ([], threading.get_ident())]
    assert nn.run_lanes(lane, ([0], [1])) == (1, 1)
    assert stub.submitted == [([1],)]


def test_usable_cpus_fall_back_to_the_cpu_count_without_an_affinity_call(monkeypatch):
    assert nn._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert nn._usable_cpus() == (os.cpu_count() or 1)


def test_deal_gives_each_size_to_the_lane_with_less_so_far():
    # f2's row blocks at n = 320, widest first
    assert nn.deal([320, 256, 192, 128, 64]) == ([0, 3, 4], [1, 2])
    assert nn.deal([5, 5, 5]) == ([0, 2], [1])  # a tie goes to lane 0
    assert nn.deal([]) == ([], [])


@pytest.fixture
def lane_batch(monkeypatch):
    """140 graphs: three f2 and f3 row blocks and four f1 node blocks, each last block ragged."""
    monkeypatch.setattr(node_level, "NODE_BLOCK", 300)
    spec = SyntheticSpec(classes=2, graphs_per_class=70, nodes_min=5, nodes_max=9,
                         topology="ambiguous_features", feature_dim=3, noise_sigma=1.0, seed=3)
    batch = GraphBatch(make_synthetic_dataset(spec))
    sizes = [block.rows.stop - block.rows.start for block in node_blocks(batch)]
    assert len(sizes) >= 3 and sizes[-1] < max(sizes) <= 300
    assert len(row_blocks(len(batch))) == 3 and len(batch) % ROW_BLOCK
    return batch


def full_step(batch):
    """One f1 -> f2 -> f3 + CE + NDDL step and its backward, from fixed
    parameters: (a_p, loss, every parameter's gradient)."""
    config = GiGConfig(f1=NodeLevelConfig(layer_dims=[8, 8]), f2_dims=[8, 4],
                       f3=ClassifierConfig(gnn_dims=[8, 8], head_dims=[4, 2]), alpha=1.0)
    model = GiGModel(config, batch, np.random.default_rng(0))
    loss, a = model.loss(batch)
    loss.backward()
    return a.data, loss.item(), [p.grad for p in model.parameters()]


def test_a_step_is_the_same_bit_for_bit_with_and_without_the_worker(monkeypatch, lane_batch):
    monkeypatch.setattr(nn, "LANE_WORKER", False)
    a, loss, grads = full_step(lane_batch)
    monkeypatch.setattr(nn, "LANE_WORKER", True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the two lanes' Python code then interleaves finely
    try:
        a_2, loss_2, grads_2 = full_step(lane_batch)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(a_2, a)
    assert loss_2 == loss
    assert len(grads_2) == len(grads) == 24
    for g_2, g in zip(grads_2, grads):
        np.testing.assert_array_equal(g_2, g)


def test_a_process_forked_after_a_step_runs_a_step(monkeypatch, lane_batch):
    monkeypatch.setattr(nn, "LANE_WORKER", True)
    a, loss, _ = full_step(lane_batch)  # the worker thread now exists
    with warnings.catch_warnings():
        # Python 3.12+ warns that a forked multi-threaded process may deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.alarm(60)  # a step that waits for the parent's worker never returns
            a_child, loss_child, _ = full_step(lane_batch)
            status = 0 if loss_child == loss and np.array_equal(a_child, a) else 2
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
