"""Per-layer spans recorded from outside the program.

``LayerTracer`` wraps the entry points of each layer of ``repro`` (the
functions other layers call into) with a timing span.  Spans nest on
one stack, so each layer is charged its *self* time: a span's duration
minus the part covered by the spans it opened.  A protocol handler
that sends a message is charged its own work, and the enqueue it calls
is charged to the simulator.  Counts of calls into each entry point
are kept alongside, so per-layer work is visible as well as time.

Spans are recorded on the main thread only (the pool's helper threads
run through the wrappers untouched); the bytes the worker pool pickles
across the process boundary are counted on every thread.

The wrappers are installed only for a traced run (``--trace 1``) and
removed afterwards; an untraced run executes the program unmodified.
Each span costs about a microsecond, which inflates the layers with
the most calls (the simulator above all), so compare traced figures
with traced figures only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Layer names, in report order.  ``driver`` is the loop a workload
#: runs (chaos driver, explorer, storage sampler); ``plumbing`` is the
#: campaign machinery around runs (payloads, cache keys, result
#: (de)serialisation, dispatch codec, journal); ``wait`` is the main
#: thread blocked on pool workers.
LAYERS = (
    "sim",
    "registers",
    "coding",
    "consistency",
    "faults",
    "obs",
    "storage",
    "driver",
    "plumbing",
    "wait",
)

#: Work counts reported per pass: metric -> entry point or layer.
COUNTS = {
    "deliveries": "repro.sim.network.World.deliver",
    "forks": "repro.sim.network.World.fork",
    "checker_calls": "repro.consistency.atomicity.check_atomicity",
    "coding_calls": "coding",
    "obs_hooks": "obs",
    "journal_records": "repro.parallel.journal.CampaignJournal.record",
    "ipc_bytes_out": "ipc_bytes_out",
    "ipc_bytes_in": "ipc_bytes_in",
}


class LayerTracer:
    """Self time and call counts per layer, from wrapped entry points."""

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.layer_calls: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._main = threading.main_thread().ident

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self_seconds = self.self_seconds
        layer_calls = self.layer_calls
        calls = self.calls
        clock = time.perf_counter
        current = threading.get_ident
        main = self._main

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if current() != main:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_seconds[layer] += elapsed - stack.pop()
                layer_calls[layer] += 1
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return spanned

    def _count_bytes(self, name: str, fn: Callable, of_result: bool) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += memoryview(result if of_result else args[-1]).nbytes
            return result

        return counted

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- installation --------------------------------------------------------

    def patch_method(self, cls: type, attr: str, layer: str) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        raw = cls.__dict__[attr]
        name = f"{cls.__module__}.{cls.__qualname__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap(layer, name, raw.__func__))
        else:
            wrapped = self._wrap(layer, name, raw)
        self._replace(cls, attr, wrapped)

    def patch_function(self, module_name: str, attr: str, layer: str) -> None:
        """Wrap a module-level function in every ``repro`` module that
        imported it by name, so calls through any alias are spanned."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self._wrap(layer, f"{module_name}.{attr}", original)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            if vars(module).get(attr) is original:
                self._replace(module, attr, wrapped)

    def patch_handlers(self, package: str, attrs: Tuple[str, ...], layer: str) -> None:
        """Wrap ``attrs`` on every class a ``package`` module defines."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith(package) or module is None:
                continue
            for cls in list(vars(module).values()):
                if not inspect.isclass(cls) or cls.__module__ != mod_name:
                    continue
                for attr in attrs:
                    if attr in cls.__dict__:
                        self.patch_method(cls, attr, layer)

    def install(self) -> None:
        """Span every layer's entry points (once per instance)."""
        if self._undo:
            return
        # Import every module whose entry points are wrapped, so the
        # name-imported aliases exist before they are patched.
        import multiprocessing.reduction

        import repro.analysis.empirical  # noqa: F401
        import repro.cli  # noqa: F401
        import repro.coding.reed_solomon as rs
        import repro.coding.replication as replication
        import repro.consistency.history as history
        import repro.faults.adversary as adversary
        import repro.faults.campaign as campaign
        import repro.faults.recovery as recovery
        import repro.faults.watchdog as watchdog
        import repro.obs.analytics  # noqa: F401
        import repro.obs.recorder as recorder
        import repro.parallel.codec as codec
        import repro.parallel.journal as journal
        import repro.sim.network as network
        import repro.sim.snapshot  # noqa: F401
        import repro.storage.costs  # noqa: F401
        import repro.verification.explore as explore

        for attr in (
            "deliver", "step", "enabled_channels", "enqueue_message",
            "invoke_write", "invoke_read", "crash", "recover", "fork",
        ):
            self.patch_method(network.World, attr, "sim")
        self.patch_function("repro.sim.snapshot", "world_digest", "sim")

        self.patch_handlers(
            "repro.registers",
            ("on_message", "start_write", "start_read", "on_recover"),
            "registers",
        )

        for cls in (rs.ReedSolomonCode, replication.ReplicationCode):
            for attr in ("encode", "encode_symbol", "decode"):
                self.patch_method(cls, attr, "coding")

        self.patch_function(
            "repro.consistency.atomicity", "check_atomicity", "consistency"
        )
        self.patch_method(history.History, "from_world", "consistency")

        # ``allows`` (a per-channel filter inside ``enabled_channels``)
        # is left to the simulator: a span per channel per step would
        # cost more than the filter itself.
        for attr in (
            "pick_index", "fate", "transform", "start_partition", "heal_partition",
        ):
            self.patch_method(adversary.ChannelAdversary, attr, "faults")
        for attr in ("tick", "diagnose"):
            self.patch_method(watchdog.LivenessWatchdog, attr, "faults")
        self.patch_method(recovery.CrashRecoverySchedule, "apply", "faults")

        for attr, raw in list(vars(recorder.SimObserver).items()):
            if attr.startswith(("on_", "begin_", "end_")) and callable(raw):
                self.patch_method(recorder.SimObserver, attr, "obs")
        self.patch_function("repro.obs.analytics", "run_telemetry", "obs")
        self.patch_function("repro.obs.analytics", "analyze_campaign", "obs")

        self.patch_function("repro.storage.costs", "storage_snapshot", "storage")

        self.patch_function("repro.faults.campaign", "run_chaos_workload", "driver")
        self.patch_method(explore.ScheduleExplorer, "explore", "driver")
        self.patch_function("repro.storage.costs", "peak_storage_during", "driver")

        for attr in ("campaign_task_payload", "campaign_task_key"):
            self.patch_function("repro.faults.campaign", attr, "plumbing")
        for attr in ("to_cache_dict", "from_cache_dict"):
            self.patch_method(campaign.ChaosRunResult, attr, "plumbing")
        self.patch_method(codec.PayloadCodec, "train", "plumbing")
        for attr in ("create", "record", "close"):
            self.patch_method(journal.CampaignJournal, attr, "plumbing")

        self.patch_method(threading.Event, "wait", "wait")
        pickler = multiprocessing.reduction.ForkingPickler
        self._replace(
            pickler,
            "dumps",
            classmethod(
                self._count_bytes("ipc_bytes_out", pickler.dumps.__func__, True)
            ),
        )
        self._replace(
            pickler, "loads", self._count_bytes("ipc_bytes_in", pickler.loads, False)
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- report --------------------------------------------------------------

    def per_pass(self, passes: int, wall_seconds: float) -> Dict[str, Tuple[float, str]]:
        """Per-pass ``(value, unit)``: layer self times, the time no
        span covers, and work counts."""
        out: Dict[str, Tuple[float, str]] = {}
        attributed = 0.0
        for layer in LAYERS:
            seconds = self.self_seconds.get(layer, 0.0)
            attributed += seconds
            out[f"{layer}_ms"] = (seconds * 1e3 / passes, "ms")
        out["unattributed_ms"] = (
            max(0.0, wall_seconds - attributed) * 1e3 / passes, "ms"
        )
        for metric, source in COUNTS.items():
            counts = self.layer_calls if source in LAYERS else self.calls
            unit = "bytes" if metric.startswith("ipc_bytes") else "count"
            out[metric] = (counts.get(source, 0) / passes, unit)
        return out
