"""Per-layer tracing for the traced benchmark run.

:class:`LayerTracer` wraps the public functions of each ``src/repro``
layer from here, outside the program, so every call records a span in
a :class:`~spans.SpanRecorder`; nothing under ``src/`` changes.  After
the episode :meth:`LayerTracer.layer_metrics` turns the spans and a few
counters into the ``per_layer`` metrics of ``BENCHMARK.json``.  Which
end-to-end metric each one should move, and on which workload, is
listed in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

from spans import NO_SPAN, SpanRecorder

#: ``(module, attribute path, span name)`` of every wrapped function.
#: Several implementations of one role share a span name; nested calls
#: of one name (a locked store around its backend) still sum correctly
#: because self time excludes the inner span.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # provisioning
    ("repro.fleet.profiles", "DeviceProfile.provision", "profiles.provision"),
    ("repro.fleet.profiles", "DeviceProfile.build_architecture",
     "profiles.build_architecture"),
    ("repro.fleet.profiles", "derive_device_key", "profiles.derive_device_key"),
    ("repro.fleet.service", "FleetVerifier.enroll_device",
     "service.enroll_device"),
    ("repro.fleet.service", "ShardedFleetVerifier.enroll_device",
     "service.enroll_device"),
    ("repro.fleet.transport", "InProcessTransport.register",
     "transport.register"),
    ("repro.fleet.transport", "SimulatedNetworkTransport.register",
     "transport.register"),
    ("repro.fleet.transport", "SocketTransport.register",
     "transport.register"),
    ("repro.fleet.service", "ShardedFleetVerifier.warm_up", "workers.warm_up"),
    # self-measurement
    ("repro.sim.engine", "SimulationEngine.run", "engine.run"),
    ("repro.core.prover", "ErasmusProver.take_measurement",
     "prover.take_measurement"),
    ("repro.arch.base", "SecurityArchitecture.perform_measurement",
     "arch.perform_measurement"),
    # exchange: the awaitable seam every round loop drives
    ("repro.fleet.transport", "SyncTransportAdapter.exchange_many",
     "transport.exchange_many"),
    ("repro.fleet.transport", "_NativeAsyncAdapter.exchange_many",
     "transport.exchange_many"),
    ("repro.fleet.transport", "serve_request", "transport.serve_request"),
    # the simulated network steps the engine itself while packets fly
    ("repro.fleet.transport", "SimulatedNetworkTransport._drive",
     "transport.packet_drive"),
    # wire decode, judge and assess
    ("repro.fleet.service", "decode_response", "protocol.decode_response"),
    ("repro.core.verification", "DeviceJudge.verify_measurements",
     "verification.judge"),
    ("repro.core.verification", "VerificationCore.check_schedule",
     "verification.check_schedule"),
    # commit
    ("repro.store.memory", "MemoryStore.append_report", "store.append_report"),
    ("repro.store.jsonl", "JsonlStore.append_report", "store.append_report"),
    ("repro.store.memory", "MemoryStore.checkpoint", "store.checkpoint"),
    ("repro.store.jsonl", "JsonlStore.checkpoint", "store.checkpoint"),
    ("repro.fleet.sinks", "FleetHealth.record", "sinks.health_record"),
    ("repro.fleet.sinks", "FleetHealth.merge", "sinks.health_merge"),
    # process shards
    ("repro.fleet.service", "FleetVerifier.apply_worker_batch",
     "service.apply_worker_batch"),
)

#: Span of the benchmark's own ``collect_all`` call: one per round.
ROUND_SPAN = "service.collect_all"

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("profiles.provision.self_s", "s", "lower"),
    ("profiles.provision.calls", "count", "lower"),
    ("profiles.build_architecture.self_s", "s", "lower"),
    ("profiles.derive_device_key.self_s", "s", "lower"),
    ("service.enroll_device.self_s", "s", "lower"),
    ("transport.register.self_s", "s", "lower"),
    ("workers.warm_up.self_s", "s", "lower"),
    ("engine.run.self_s", "s", "lower"),
    ("engine.run.events", "count", "lower"),
    ("prover.take_measurement.self_s", "s", "lower"),
    ("prover.take_measurement.calls", "count", "lower"),
    ("arch.perform_measurement.self_s", "s", "lower"),
    ("transport.exchange_many.wall_s", "s", "lower"),
    ("transport.exchange_many.calls", "count", "lower"),
    ("transport.serve_request.self_s", "s", "lower"),
    ("transport.serve_request.calls", "count", "lower"),
    ("transport.packet_drive.self_s", "s", "lower"),
    ("transport.response_bytes", "B", "lower"),
    ("transport.responses_lost", "count", "lower"),
    ("transport.stale_rejected", "count", "lower"),
    ("protocol.decode_response.self_s", "s", "lower"),
    ("protocol.decode_response.calls", "count", "lower"),
    ("verification.judge.self_s", "s", "lower"),
    ("verification.judge.calls", "count", "lower"),
    ("verification.check_schedule.self_s", "s", "lower"),
    ("verification.authenticated_payload.calls", "1/dev-round", "lower"),
    ("store.append_report.self_s", "s", "lower"),
    ("store.append_report.calls", "count", "lower"),
    ("store.checkpoint.self_s", "s", "lower"),
    ("store.checkpoint.calls", "count", "lower"),
    ("sinks.health_record.self_s", "s", "lower"),
    ("sinks.health_merge.self_s", "s", "lower"),
    ("workers.task.wall_s", "s", "lower"),
    ("workers.task.calls", "count", "lower"),
    ("service.apply_worker_batch.self_s", "s", "lower"),
    ("workers.restarts", "count", "lower"),
    ("service.collect_all.self_s", "s", "lower"),
    ("runtime.gc.pause_s", "s", "lower"),
    ("runtime.gc.gen2_collections", "count", "lower"),
    ("tracing.overhead_frac", "fraction", "lower"),
)


def _resolve(module_name: str, path: str):
    """``(owner, attribute, function)`` for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, owner.__dict__[attribute]


class LayerTracer:
    """Wraps the layers' functions, records spans, derives the metrics."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._patched: List[Tuple[object, str, object]] = []
        self._in_collect = False
        self._gc_started = 0.0
        self._pool = None
        self.engine_events = 0
        self.response_bytes = 0
        self.payload_calls = 0
        self.gc_pause_s = 0.0
        self.gc_gen2_collections = 0

    # -- wrapping -------------------------------------------------------
    def _span_wrapper(self, name: str, function, on_result=None):
        """Record each call of ``function`` as a span named ``name``.

        ``on_result``, when given, sees every return value (counters
        that live in results, such as events processed).
        """
        recorder = self.recorder
        name_id = recorder.name_id(name)
        open_span, close_span = recorder.open, recorder.close

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                span_id, token = open_span(name_id)
                try:
                    result = await function(*args, **kwargs)
                finally:
                    close_span(span_id, token)
                if on_result is not None:
                    on_result(result)
                return result
            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id, token = open_span(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(span_id, token)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _count_events(self, processed: int) -> None:
        self.engine_events += processed

    def _count_response_bytes(self, responses) -> None:
        self.response_bytes += sum(len(payload)
                                   for payload in responses.values()
                                   if payload is not None)

    def _task_wrapper(self, function):
        """``WorkerPool.submit_task``: one span from submit to done."""
        recorder = self.recorder
        name_id = recorder.name_id("workers.task")

        @functools.wraps(function)
        def traced_submit(*args, **kwargs):
            span_id, _ = recorder.open(name_id, detached=True)
            future = function(*args, **kwargs)
            future.add_done_callback(lambda _done: recorder.close(span_id))
            return future
        return traced_submit

    def _payload_counter(self, function):
        """``Measurement.authenticated_payload``: counted during rounds.

        Only the verifying thread calls it while a round is open, so a
        plain increment is enough.
        """
        @functools.wraps(function)
        def counted(*args, **kwargs):
            if self._in_collect:
                self.payload_calls += 1
            return function(*args, **kwargs)
        return counted

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._in_collect:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            if info.get("generation") == 2:
                self.gc_gen2_collections += 1

    def _patch(self, owner, attribute: str, original, replacement) -> None:
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every target and start watching the garbage collector."""
        result_hooks = {"engine.run": self._count_events,
                        "transport.exchange_many": self._count_response_bytes}
        for module_name, path, name in SPAN_TARGETS:
            owner, attribute, function = _resolve(module_name, path)
            self._patch(owner, attribute, function, self._span_wrapper(
                name, function, result_hooks.get(name)))
        owner, attribute, function = _resolve(
            "repro.fleet.workers", "WorkerPool.submit_task")
        self._patch(owner, attribute, function, self._task_wrapper(function))
        owner, attribute, function = _resolve(
            "repro.core.measurement", "Measurement.authenticated_payload")
        self._patch(owner, attribute, function,
                    self._payload_counter(function))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped function (idempotent)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- episode hooks --------------------------------------------------
    def setup_span(self):
        """Span around provisioning (parent of the set-up layers)."""
        return self.recorder.span("setup")

    def attach(self, fleet) -> None:
        """Remember the fleet's worker pool for its restart count."""
        self._pool = getattr(fleet.verifier, "worker_pool", None)

    @contextmanager
    def phase(self, round_no: int, name: str):
        """Round spans: ``simulate`` and the ``collect_all`` round span."""
        recorder = self.recorder
        recorder.round_id = round_no
        if name != "collect":
            with recorder.span(name):
                yield
            return
        with recorder.span(ROUND_SPAN) as span_id:
            recorder.round_span = span_id
            self._in_collect = True
            try:
                yield
            finally:
                self._in_collect = False
                recorder.round_span = NO_SPAN

    # -- results --------------------------------------------------------
    def layer_metrics(self, result: Dict[str, object]) -> Dict[str, float]:
        """The per-layer metrics of one traced episode (overhead aside)."""
        if self.recorder.unfinished():
            raise RuntimeError(
                f"{self.recorder.unfinished()} spans were never closed")
        self_s = self.recorder.self_times()
        calls = self.recorder.counts()
        wall = self.recorder.wall_times()
        device_rounds = result["devices"] * result["rounds"]
        restarts = sum(self._pool.restarts) if self._pool is not None else 0
        values: Dict[str, float] = {
            "engine.run.events": self.engine_events,
            "transport.exchange_many.wall_s":
                wall.get("transport.exchange_many", 0.0),
            "transport.response_bytes": self.response_bytes,
            "transport.responses_lost": result["responses_lost"],
            "transport.stale_rejected": result["stale_rejected"],
            "verification.authenticated_payload.calls":
                self.payload_calls / device_rounds,
            "workers.task.wall_s": wall.get("workers.task", 0.0),
            "workers.restarts": restarts,
            "runtime.gc.pause_s": self.gc_pause_s,
            "runtime.gc.gen2_collections": self.gc_gen2_collections,
        }
        for metric, _unit, _better in PER_LAYER:
            if metric in values or metric.startswith("tracing."):
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "self_s":
                values[metric] = self_s.get(span, 0.0)
            elif kind == "calls":
                values[metric] = calls.get(span, 0)
            else:
                raise KeyError(f"no rule for per-layer metric {metric!r}")
        return values

