"""Traced and untraced episodes on small fleets, and their teardown."""

import multiprocessing
import threading
from dataclasses import replace

import pytest

from layers import PER_LAYER, SPAN_TARGETS, LayerTracer, _resolve
from workloads import WORKLOADS, Episode


def small(name, **overrides):
    return replace(WORKLOADS[name], **{"devices": 40, "rounds": 3,
                                       **overrides})


def run_episode(workload, tmp_path, tracer=None):
    episode = Episode(workload, seed=3, scratch_root=str(tmp_path))
    try:
        if tracer is not None:
            with tracer.setup_span():
                episode.provision()
            tracer.attach(episode.fleet)
        else:
            episode.provision()
        return episode.run(phase=tracer.phase if tracer else None)
    finally:
        episode.close()


def test_install_and_uninstall_restore_every_function():
    originals = [_resolve(module, path)[2] for module, path, _ in SPAN_TARGETS]
    tracer = LayerTracer()
    tracer.install()
    try:
        wrapped = [_resolve(module, path)[2]
                   for module, path, _ in SPAN_TARGETS]
        assert all(a is not b for a, b in zip(originals, wrapped))
    finally:
        tracer.uninstall()
    restored = [_resolve(module, path)[2] for module, path, _ in SPAN_TARGETS]
    assert all(a is b for a, b in zip(originals, restored))


def test_traced_inproc_episode_reports_every_layer(tmp_path):
    workload = small("inproc-2k")
    tracer = LayerTracer()
    tracer.install()
    try:
        result = run_episode(workload, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert (result["failed"], result["attempted"]) == (0, 120)
    metrics = tracer.layer_metrics(result)
    expected = {name for name, _u, _b in PER_LAYER} - {"tracing.overhead_frac"}
    assert set(metrics) == expected
    assert metrics["profiles.provision.calls"] == 40
    assert metrics["verification.judge.calls"] == 120
    assert metrics["store.checkpoint.calls"] == 3
    # One MAC check per record: k = 10 from round 2 on, 9 in round 1
    # (the first self-measurement falls one T_M after the start).
    assert metrics["verification.authenticated_payload.calls"] == \
        pytest.approx((9 + 10 + 10) / 3, abs=0.34)
    assert metrics["service.collect_all.self_s"] > 0
    assert metrics["workers.task.calls"] == 0


def test_jsonl_episode_removes_its_store(tmp_path):
    result = run_episode(small("simnet-jsonl-500"), tmp_path)
    assert result["failed"] == 0
    assert list(tmp_path.iterdir()) == []


def test_process_socket_episode_leaves_no_workers_or_threads(tmp_path):
    threads_before = threading.active_count()
    workload = small("process-socket-2k")
    tracer = LayerTracer()
    tracer.install()
    try:
        result = run_episode(workload, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert result["failed"] == 0
    metrics = tracer.layer_metrics(result)
    assert metrics["workers.task.calls"] > 0
    assert metrics["transport.serve_request.calls"] == 120
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before
