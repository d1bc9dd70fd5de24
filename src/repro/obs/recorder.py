"""The SimObserver: the bridge between the simulator and the registry.

``World.obs`` is ``None`` until a :class:`SimObserver` is attached, so
an uninstrumented simulation pays only an ``if self.obs:`` truth test
per hook site and calls nothing in this package.  Attaching one turns
on metric and span collection without changing any scheduler decision:
the observer only *reads* simulator state.

The dependency runs one way: the simulator never imports ``repro.obs``
(it only calls the hooks of an attached observer), and this module
imports nothing from ``repro.sim``, ``repro.registers`` or
``repro.workload``.
"""

from __future__ import annotations

import weakref

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracker


def estimate_message_bits(message) -> int:
    """Deterministic size estimate, in bits, of a simulator ``Message``.

    Strings cost 8 bits per character, ints their two's-complement bit
    length (minimum 1), None is free, and anything else falls back to 8
    bits per character of its ``repr``.  The estimate covers the kind
    tag plus every body key and value.  It is a modelling convention,
    not a wire format — what matters is that it is stable and monotone
    in payload size, so communication-cost comparisons between
    algorithms are meaningful.
    """
    bits = 8 * len(message.kind)
    for key, value in message.body:
        bits += 8 * len(key)
        if value is None:
            continue
        if isinstance(value, bool):
            bits += 1
        elif isinstance(value, int):
            bits += max(1, value.bit_length())
        elif isinstance(value, str):
            bits += 8 * len(value)
        elif isinstance(value, (tuple, list)):
            for item in value:
                if isinstance(item, int):
                    bits += max(1, item.bit_length())
                else:
                    bits += 8 * len(repr(item))
        else:
            bits += 8 * len(repr(value))
    return bits


#: Action kinds that take one message out of a channel.
_CONSUMING_ACTIONS = frozenset(("deliver", "drop", "lose"))


def _storage_bits(process):
    """``process.storage_bits`` now, or None if it stores nothing."""
    storage = getattr(process, "storage_bits", None)
    if storage is None:
        return None
    return storage() if callable(storage) else storage


class SimObserver:
    """Collects metrics and spans from an instrumented ``World``.

    Attach with ``world.obs = SimObserver()`` before driving the World
    (``repro metrics``, ``repro profile`` and instrumented chaos runs
    all do exactly that).  The observer is plain data: ``World.fork``
    deep-copies it, so forked worlds accumulate telemetry independently.

    Every action samples per-server storage occupancy in bits into
    the ``storage.*`` time series.

    Parameters
    ----------
    record_wall:
        Forwarded to the span tracker; enables wall-clock capture for
        ``repro profile``.  Leave False for deterministic artifacts.
    tracer:
        Optional :class:`~repro.obs.tracing.TraceCollector`; when set,
        every hook additionally emits a causally-annotated
        :class:`~repro.obs.tracing.TraceEvent`.  ``None`` (the default)
        keeps tracing off at the cost of one truth test per hook.

    Sampling is incremental.  The in-flight total is kept as a running
    count (+1 per send or duplicate, -1 per ``deliver``/``drop``/``lose``
    action), and a server's ``storage_bits`` is re-read only when its
    state may have changed since the last sample: it received a
    message, invoked an operation, crashed or recovered.  The first
    sample of a World (a fork included) and any change to its process
    set trigger one full count instead.  The World is held by weak
    reference only, so ``World.fork`` can deep-copy the observer.

    The instruments written on every action or send are looked up once,
    when first used, and held after that; a fork or a pickle copies them
    with the registry, so a copy writes only to its own.  A gauge is not
    re-set to the object it holds: that changes neither value nor min/max.
    """

    def __init__(self, record_wall: bool = False, tracer=None) -> None:
        self.registry = MetricsRegistry()
        self.spans = SpanTracker(record_wall=record_wall)
        self.tracer = tracer
        # Incremental sampling state, set by ``_resync``.
        self._sampled = None  # weakref to the World last sampled
        self._process_count = 0
        self._in_flight = 0
        self._bits: dict = {}  # pid -> storage bits, in process order
        self._stale: set = set()  # pids whose bits may be out of date
        self._total_bits = 0
        self._max_bits = 0
        # Instruments bound at first use (see the class docstring).
        self._sampling = None  # the per-action tuple, ``_bind_sampling``
        self._sending = None  # the per-send tuple, ``_bind_sending``
        self._actions: dict = {}  # action kind -> sim.actions.<kind>
        self._sent: dict = {}  # message kind -> sim.sent.<kind>

    def __getstate__(self) -> dict:
        # A weak reference does not pickle; a copy resynchronises on
        # its first sample anyway.
        state = self.__dict__.copy()
        state["_sampled"] = None
        return state

    # -- incremental sampling ------------------------------------------------

    def _resync(self, world) -> None:
        """Count everything afresh and adopt ``world`` as the sampled World."""
        processes = world.processes
        self._sampled = weakref.ref(world)
        self._process_count = len(processes)
        self._in_flight = sum(len(ch) for ch in world.channels.values())
        bits = {}
        for pid, process in processes.items():
            value = _storage_bits(process)
            if value is not None:
                bits[pid] = value
        self._bits = bits
        self._stale.clear()
        self._retotal()

    def _refresh(self, processes) -> None:
        """Re-read the stale pids' storage; re-total if any changed."""
        bits = self._bits
        touched = False
        for pid in self._stale:
            if pid in bits:
                value = _storage_bits(processes[pid])
                held = bits[pid]
                # Equal in value and type re-sums to the same totals.
                if value != held or type(value) is not type(held):
                    bits[pid] = value
                    touched = True
        self._stale.clear()
        if touched:
            self._retotal()

    def _retotal(self) -> None:
        """Total and per-server max, summed in process order."""
        total_bits = 0
        max_bits = 0
        for bits in self._bits.values():
            total_bits += bits
            if bits > max_bits:
                max_bits = bits
        self._total_bits = total_bits
        self._max_bits = max_bits

    # -- World hooks ---------------------------------------------------------

    def _bind_sending(self) -> tuple:
        reg = self.registry
        return (
            reg.counter("sim.messages_sent"),
            reg.counter("sim.message_bits_sent"),
            reg.histogram("sim.message_bits"),
        )

    def _bind_sampling(self) -> tuple:
        reg = self.registry
        return (
            reg.counter("sim.steps"),
            reg.gauge("sim.messages_in_flight"),
            reg.timeseries("sim.messages_in_flight"),
            reg.gauge("storage.total_bits"),
            reg.gauge("storage.max_server_bits"),
            reg.timeseries("storage.total_bits"),
            reg.timeseries("storage.max_server_bits"),
        )

    def on_send(self, world, src: str, dst: str, message) -> None:
        """Record one message enqueued from ``src`` to ``dst``."""
        self._in_flight += 1
        bits = estimate_message_bits(message)
        sending = self._sending
        if sending is None:
            sending = self._sending = self._bind_sending()
        messages, bits_sent, histogram = sending
        messages.value += 1
        bits_sent.value += bits
        kind = message.kind
        sent = self._sent.get(kind)
        if sent is None:
            sent = self._sent[kind] = self.registry.counter(f"sim.sent.{kind}")
        sent.value += 1
        histogram.observe(bits)
        if self.tracer:
            self.tracer.on_send(world.step_count, src, dst, message)

    def on_action(self, world, record) -> None:
        """Record one executed action (the simulator just took a step)."""
        step = record.step
        kind = record.kind
        action = self._actions.get(kind)
        if action is None:
            action = self._actions[kind] = self.registry.counter(
                f"sim.actions.{kind}"
            )
        action.value += 1
        sampling = self._sampling
        if sampling is None:
            sampling = self._sampling = self._bind_sampling()
        (steps, in_flight_gauge, in_flight_series, total_gauge, max_gauge,
         total_series, max_series) = sampling
        steps.value = step

        stale = self._stale
        if kind == "crash" or kind == "recover":
            stale.add(record.src)  # ``failed`` flipped before this sample
        sampled = self._sampled
        if (
            sampled is None
            or sampled() is not world
            or len(world.processes) != self._process_count
        ):
            self._resync(world)
        elif kind in _CONSUMING_ACTIONS:
            self._in_flight -= 1
        # Gauges compare by identity: 0 == 0.0, but they print apart.
        in_flight = self._in_flight
        if in_flight is not in_flight_gauge.value:
            in_flight_gauge.set(in_flight)
        in_flight_series.record(step, in_flight)

        if stale:
            self._refresh(world.processes)
        total_bits = self._total_bits
        max_bits = self._max_bits
        if total_bits is not total_gauge.value:
            total_gauge.set(total_bits)
        if max_bits is not max_gauge.value:
            max_gauge.set(max_bits)
        total_series.record(step, total_bits)
        max_series.record(step, max_bits)
        if self.tracer:
            self.tracer.on_storage(step, total_bits, max_bits)

        if kind == "crash":
            self.spans.note_crash(record.src, step)
            if self.tracer:
                self.tracer.on_crash(step, record.src)
        elif kind == "recover":
            stale.add(record.src)  # its ``on_recover`` hook runs next
            if self.tracer:
                self.tracer.on_recover(step, record.src)

    # -- fault hooks (called by World.deliver / the chaos driver) ------------

    def on_deliver(self, world, src: str, dst: str, message, record) -> None:
        """A message reached its receiver, whose handler runs next.

        Counters come from :meth:`on_action` via the ``deliver`` action
        record; here the receiver is marked for a storage re-read at
        the next sample.
        """
        self._stale.add(dst)
        if self.tracer:
            self.tracer.on_deliver(record.step, src, dst, message)

    def on_drop(self, world, src: str, dst: str, message) -> None:
        """The adversary lost a message in transit."""
        self.registry.inc("faults.drops")
        if self.tracer:
            self.tracer.on_drop(world.step_count + 1, src, dst, message)

    def on_crashed_drop(self, world, src: str, dst: str, message) -> None:
        """A message was consumed because its receiver is crashed."""
        self.registry.inc("faults.crashed_receiver_drops")
        if self.tracer:
            self.tracer.on_crashed_drop(world.step_count + 1, src, dst, message)

    def on_duplicate(self, world, src: str, dst: str, message) -> None:
        """The adversary re-enqueued a duplicate before delivering."""
        self._in_flight += 1
        self.registry.inc("faults.duplicates")
        if self.tracer:
            self.tracer.on_duplicate(world.step_count + 1, src, dst, message)

    def on_reorder(self, world, src: str, dst: str, message, index: int) -> None:
        """The adversary delivered a non-head message."""
        self.registry.inc("faults.reorders")
        if self.tracer:
            self.tracer.on_reorder(world.step_count + 1, src, dst, message, index)

    def on_tamper(self, world, src: str, dst: str, message, tampered) -> None:
        """The adversary replaced a message with a corrupted copy."""
        self.registry.inc("faults.tampers")
        kind = getattr(world.adversary, "last_corruption", "")
        if kind.startswith("byzantine:"):
            self.registry.inc("faults.byzantine.corruptions")
            self.registry.inc(f"faults.byzantine.{kind.split(':', 1)[1]}")
        if self.tracer:
            self.tracer.on_tamper(
                world.step_count + 1, src, dst, message, tampered, kind
            )

    def on_partition(self, world, pids, tick=None) -> None:
        """The chaos driver cut a partition isolating ``pids``."""
        self.registry.inc("faults.partition_cuts")
        if self.tracer:
            self.tracer.on_partition(world.step_count, tuple(pids), tick=tick)

    def on_heal(self, world, tick=None) -> None:
        """The chaos driver healed the active partition."""
        self.registry.inc("faults.partition_heals")
        if self.tracer:
            self.tracer.on_heal(world.step_count, tick=tick)

    # -- operation lifecycle -------------------------------------------------

    def begin_op(self, record) -> None:
        """A client operation was invoked; open its ``op/<kind>`` span."""
        self._stale.add(record.client)
        self.registry.inc(f"ops.invoked.{record.kind}")
        self.spans.begin(
            record.client, f"op/{record.kind}", record.invoke_step, op_id=record.op_id
        )
        if self.tracer:
            self.tracer.on_invoke(record.invoke_step, record)

    def end_op(self, record) -> None:
        """A client operation completed; close its span, record latency."""
        self.registry.inc(f"ops.completed.{record.kind}")
        self.spans.end(record.client, f"op/{record.kind}", record.response_step)
        latency = record.response_step - record.invoke_step
        self.registry.histogram(f"ops.latency_steps.{record.kind}").observe(latency)
        if self.tracer:
            self.tracer.on_response(record.response_step, record)

    # -- phase spans (called from register protocol code) --------------------

    def begin_span(self, owner: str, name: str, step: int, op_id=None):
        """Open a protocol-phase span (e.g. ``write/query``) for ``owner``."""
        span = self.spans.begin(owner, name, step, op_id=op_id)
        if self.tracer:
            self.tracer.on_phase_begin(step, owner, name, span)
        return span

    def end_span(self, owner: str, name: str, step: int):
        """Close ``owner``'s innermost open span named ``name``."""
        span = self.spans.end(owner, name, step)
        if self.tracer:
            self.tracer.on_phase_end(step, owner, name, span)
        return span

    def __repr__(self) -> str:
        return f"SimObserver({self.registry!r}, {self.spans!r})"
