"""The World: processes + channels + the step engine.

A World holds every process and channel, executes one *action* per
:meth:`World.step` call, and records the action trace and the operation
history.  The paper's "point ``P_i`` of the execution" is exactly the
World's state after ``i`` actions (``step_count == i``).

Key operations used by the executable proofs:

* :meth:`run_until` — fair stepping until a predicate holds (e.g. "the
  write at client w completed"), under an optional channel filter;
* :meth:`deliver_all` — drain every channel matched by a filter (the
  proofs' "the channels between the servers deliver all their
  messages");
* :meth:`fork` — copy the whole World at the current point.

Hot-path design notes
---------------------

Forking and stepping dominate every executable proof and chaos
campaign, so both avoid reflective work, and a step pays only for
what it changes:

* ``fork()`` uses the explicit clone protocol (``Process.clone``,
  ``Channel.clone``, ``Scheduler.clone``, ``OperationRecord.clone``,
  adversary ``clone``) instead of ``copy.deepcopy``;
  :meth:`deepcopy_fork` keeps the old behaviour as the reference
  implementation for equivalence tests and benchmarks.
* ``enabled_channels()`` reads an incrementally maintained sorted
  index of non-empty channels (updated by channel transition
  callbacks on enqueue/dequeue) instead of rescanning and re-sorting
  every channel per step.  The adversary's partition gate is
  consulted only while a partition is active.  The scheduler sees
  exactly the same sorted key list as before, so schedules are
  byte-identical.
* ``servers()``/``clients()`` and ``pending_operations()`` are served
  from caches invalidated at the (single) mutation points.
* The World keeps no counters for its observer.  An attached
  :class:`~repro.obs.recorder.SimObserver` tracks in-flight messages
  and per-server storage from the hooks below, so uninstrumented
  steps and forks pay nothing for it.  It relies on two invariants:
  server state changes only inside :meth:`deliver`, ``invoke_*`` and
  :meth:`recover`, and channels change only through the World
  (:meth:`enqueue_message` and :meth:`deliver`).
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlockDetectedError,
    OperationIncompleteError,
    ProcessFailedError,
    SimulationError,
    UnknownProcessError,
)
from repro.obs.recorder import NO_OP
from repro.sim.channel import Channel
from repro.sim.events import ActionRecord, Message, OperationRecord
from repro.sim.process import ClientProcess, Process, ProcessContext, ServerProcess
from repro.sim.scheduler import (
    ChannelFilter,
    ChannelKey,
    RoundRobinScheduler,
    Scheduler,
)


class World:
    """A complete simulated system at some point of some execution."""

    def __init__(self, scheduler: Optional[Scheduler] = None) -> None:
        self.processes: Dict[str, Process] = {}
        self.channels: Dict[ChannelKey, Channel] = {}
        self.scheduler: Scheduler = scheduler or RoundRobinScheduler()
        self.step_count = 0
        self.trace: List[ActionRecord] = []
        self.operations: List[OperationRecord] = []
        self._next_op_id = 0
        self.record_trace = True
        #: Keys of channels currently holding messages, maintained by
        #: :meth:`_channel_transition`; ``_nonempty_sorted`` caches the
        #: sorted view and is invalidated on every transition.
        self._nonempty: set = set()
        self._nonempty_sorted: Optional[List[ChannelKey]] = None
        #: Topology caches (invalidated by :meth:`add_process`).
        self._servers_cache: Optional[List[ServerProcess]] = None
        self._clients_cache: Optional[List[ClientProcess]] = None
        #: Incomplete operations by op id, maintained by ``invoke_*``
        #: and :meth:`complete_operation` (insertion = invocation order).
        self._pending_ops: Dict[int, OperationRecord] = {}
        #: Optional :class:`repro.faults.adversary.ChannelAdversary`.
        #: When set, deliveries may be lost, duplicated or reordered and
        #: an active partition gates which channels are enabled.  The
        #: executable proofs never install one — channels stay reliable.
        self.adversary = None
        #: Observer for the obs layer.  The default no-op singleton is
        #: falsy, so every hook site below costs one truth test; attach
        #: a :class:`repro.obs.recorder.SimObserver` to collect metrics
        #: and spans.  The observer only reads state — it never affects
        #: scheduling — and ``world_digest`` ignores it, so digests
        #: match between instrumented and uninstrumented twins.
        self.obs = NO_OP

    # -- topology ------------------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Register a process; ids must be unique."""
        if process.pid in self.processes:
            raise SimulationError(f"duplicate process id {process.pid!r}")
        self.processes[process.pid] = process
        self._servers_cache = None
        self._clients_cache = None
        return process

    def process(self, pid: str) -> Process:
        """Look up a process by id."""
        try:
            return self.processes[pid]
        except KeyError:
            raise UnknownProcessError(f"no process {pid!r}") from None

    def servers(self) -> List[ServerProcess]:
        """All registered servers, sorted by id (cached)."""
        if self._servers_cache is None:
            self._servers_cache = sorted(
                (p for p in self.processes.values() if isinstance(p, ServerProcess)),
                key=lambda p: p.pid,
            )
        return list(self._servers_cache)

    def clients(self) -> List[ClientProcess]:
        """All registered clients, sorted by id (cached)."""
        if self._clients_cache is None:
            self._clients_cache = sorted(
                (p for p in self.processes.values() if isinstance(p, ClientProcess)),
                key=lambda p: p.pid,
            )
        return list(self._clients_cache)

    def channel(self, src: str, dst: str) -> Channel:
        """The channel src->dst, created lazily."""
        key = (src, dst)
        if key not in self.channels:
            if src not in self.processes or dst not in self.processes:
                raise UnknownProcessError(f"channel endpoints {key} unknown")
            self.channels[key] = Channel(src, dst, self._channel_transition)
        return self.channels[key]

    def _channel_transition(self, channel: Channel, nonempty: bool) -> None:
        """Channel callback: keep the non-empty index in sync.

        Fired by :class:`Channel` whenever its queue crosses the
        empty/non-empty boundary, so the index stays correct even when
        tests enqueue on a channel object directly.
        """
        key = (channel.src, channel.dst)
        if nonempty:
            self._nonempty.add(key)
        else:
            self._nonempty.discard(key)
        self._nonempty_sorted = None

    # -- message plumbing (called by ProcessContext) --------------------------

    def enqueue_message(self, src: str, dst: str, message: Message) -> None:
        """Place a message in flight (process send action)."""
        sender = self.process(src)
        if sender.failed:
            raise ProcessFailedError(f"failed process {src} cannot send")
        self.channel(src, dst).enqueue(message)
        if self.obs:
            self.obs.on_send(self, src, dst, message)

    def complete_operation(
        self, client_pid: str, op_id: int, value: Optional[int]
    ) -> None:
        """Record an operation response (client return action)."""
        record = self.operations[op_id]
        if record.client != client_pid:
            raise SimulationError(
                f"op {op_id} belongs to {record.client}, not {client_pid}"
            )
        if record.is_complete:
            raise SimulationError(f"op {op_id} already completed")
        record.response_step = self.step_count
        self._pending_ops.pop(op_id, None)
        if record.kind == "read":
            record.value = value
        if self.obs:
            self.obs.end_op(record)

    # -- action execution -----------------------------------------------------

    def _record(self, kind: str, src: Optional[str] = None,
                dst: Optional[str] = None, info: Optional[str] = None) -> ActionRecord:
        self.step_count += 1
        record = ActionRecord(self.step_count, kind, src, dst, info)
        if self.record_trace:
            self.trace.append(record)
        if self.obs:
            self.obs.on_action(self, record)
        return record

    def enabled_channels(
        self, channel_filter: Optional[ChannelFilter] = None
    ) -> List[ChannelKey]:
        """Non-empty channels permitted by the filter, sorted.

        Message-aware filters see the head message of each channel, so
        a blocked head (FIFO) disables the whole channel.  An installed
        adversary's active partition additionally disables channels
        crossing the cut (their messages stay queued until a heal).
        """
        keys = self._nonempty_sorted
        if keys is None:
            keys = self._nonempty_sorted = sorted(self._nonempty)
        filtered = keys
        if channel_filter is not None:
            channels = self.channels
            filtered = [
                k
                for k in filtered
                if channel_filter.allows(*k, head_message=channels[k].peek())
            ]
        adversary = self.adversary
        if adversary is not None and adversary.partition is not None:
            filtered = [k for k in filtered if adversary.allows(*k)]
        if filtered is keys:
            filtered = list(keys)  # defend the cached list against callers
        return filtered

    def undelivered_channels(self) -> List[ChannelKey]:
        """All non-empty channel keys, sorted (ignores filters/partitions)."""
        keys = self._nonempty_sorted
        if keys is None:
            keys = self._nonempty_sorted = sorted(self._nonempty)
        return list(keys)

    def deliver(self, src: str, dst: str) -> ActionRecord:
        """Execute the delivery action on channel src->dst.

        If the destination has crashed, the message is consumed without
        a handler call (recorded as a ``drop``), matching the model
        where a failed process takes no further steps.

        With an adversary installed the delivery may additionally pick
        a non-head message (bounded reordering), lose the message in
        transit (recorded as ``lose``), or re-enqueue a duplicate at the
        channel tail before delivering.
        """
        channel = self.channel(src, dst)
        if not channel:
            raise SimulationError(f"channel {src}->{dst} is empty")
        adversary = self.adversary
        obs = self.obs
        if adversary is not None:
            index = adversary.pick_index((src, dst), len(channel))
            message = channel.dequeue_at(index)
            if index > 0 and obs:
                obs.on_reorder(self, src, dst, message, index)
        else:
            message = channel.dequeue()
        receiver = self.process(dst)
        if receiver.failed:
            if obs:
                obs.on_crashed_drop(self, src, dst, message)
            return self._record("drop", src, dst, message.kind)
        if adversary is not None:
            fate = adversary.fate(src, dst, message)
            if fate == "drop":
                if obs:
                    obs.on_drop(self, src, dst, message)
                return self._record("lose", src, dst, message.kind)
            if fate == "duplicate":
                # Message is immutable, so the copy may be shared.
                channel.enqueue(message)
                if obs:
                    obs.on_duplicate(self, src, dst, message)
            # Rigged or Byzantine adversaries may hand the receiver a
            # tampered copy (the honest transform is the identity).
            tampered = adversary.transform(src, dst, message)
            if tampered is not message:
                if obs:
                    obs.on_tamper(self, src, dst, message, tampered)
                message = tampered
        record = self._record("deliver", src, dst, message.kind)
        if obs:
            obs.on_deliver(self, src, dst, message, record)
        receiver.on_message(ProcessContext(self, dst), src, message)
        return record

    def step(
        self, channel_filter: Optional[ChannelFilter] = None
    ) -> Optional[ActionRecord]:
        """Run one scheduler-selected delivery; None if nothing enabled."""
        enabled = self.enabled_channels(channel_filter)
        if not enabled:
            return None
        src, dst = self.scheduler.select(self, enabled)
        return self.deliver(src, dst)

    def crash(self, pid: str) -> ActionRecord:
        """Crash a process: it takes no further actions.

        Messages already in its outgoing channels remain deliverable
        (they are "in the channel", not "at the process").
        """
        process = self.process(pid)
        process.failed = True
        return self._record("crash", src=pid)

    def recover(self, pid: str) -> ActionRecord:
        """Recover a crashed process from its persisted local state.

        The process rejoins with exactly the state it had at the crash
        point (the simulator never wipes it — this models durable local
        storage).  Messages consumed as ``drop`` while it was down are
        *not* replayed.  Servers get their
        :meth:`~repro.sim.process.ServerProcess.on_recover` hook called
        so protocols can re-synchronize.
        """
        process = self.process(pid)
        if not process.failed:
            raise SimulationError(f"process {pid!r} is not failed; cannot recover")
        process.failed = False
        record = self._record("recover", src=pid)
        on_recover = getattr(process, "on_recover", None)
        if on_recover is not None:
            on_recover(ProcessContext(self, pid))
        return record

    # -- client operations -----------------------------------------------------

    def invoke_write(self, client_pid: str, value: int) -> OperationRecord:
        """Invoke a write operation at a client (an input action)."""
        client = self.process(client_pid)
        if not isinstance(client, ClientProcess):
            raise SimulationError(f"{client_pid} is not a client")
        if client.failed:
            raise ProcessFailedError(f"failed client {client_pid}")
        record = OperationRecord(
            op_id=self._next_op_id, client=client_pid, kind="write", value=value
        )
        self._next_op_id += 1
        self.operations.append(record)
        self._pending_ops[record.op_id] = record
        self._record("invoke", src=client_pid, info=f"write({value})")
        record.invoke_step = self.step_count
        if self.obs:
            self.obs.begin_op(record)
        client.begin_operation(record.op_id)
        client.start_write(ProcessContext(self, client_pid), record.op_id, value)
        return record

    def invoke_read(self, client_pid: str) -> OperationRecord:
        """Invoke a read operation at a client (an input action)."""
        client = self.process(client_pid)
        if not isinstance(client, ClientProcess):
            raise SimulationError(f"{client_pid} is not a client")
        if client.failed:
            raise ProcessFailedError(f"failed client {client_pid}")
        record = OperationRecord(
            op_id=self._next_op_id, client=client_pid, kind="read"
        )
        self._next_op_id += 1
        self.operations.append(record)
        self._pending_ops[record.op_id] = record
        self._record("invoke", src=client_pid, info="read")
        record.invoke_step = self.step_count
        if self.obs:
            self.obs.begin_op(record)
        client.begin_operation(record.op_id)
        client.start_read(ProcessContext(self, client_pid), record.op_id)
        return record

    # -- driving helpers ---------------------------------------------------------

    def run_until(
        self,
        predicate: Callable[["World"], bool],
        channel_filter: Optional[ChannelFilter] = None,
        max_steps: int = 100_000,
    ) -> int:
        """Step fairly until ``predicate(self)`` holds.

        Returns the number of steps taken.  Raises
        :class:`DeadlockDetectedError` if messages remain queued but the
        filter (or an active partition) suppresses every non-empty
        channel, :class:`OperationIncompleteError` if the system truly
        quiesces (no messages anywhere), and the latter again if
        ``max_steps`` elapse first.  At most ``max_steps`` deliveries
        are executed before giving up.
        """
        taken = 0
        while not predicate(self):
            if taken >= max_steps:
                raise OperationIncompleteError(
                    f"predicate still false after {max_steps} steps"
                )
            record = self.step(channel_filter)
            if record is None:
                blocked = self.undelivered_channels()
                if blocked:
                    raise DeadlockDetectedError(
                        f"{len(blocked)} channel(s) hold undelivered messages "
                        "but none is enabled "
                        f"(filter={channel_filter!r}, blocked={blocked})",
                        blocked_channels=blocked,
                    )
                raise OperationIncompleteError(
                    "system quiesced before predicate held "
                    f"(filter={channel_filter!r})"
                )
            taken += 1
        return taken

    def run_op_to_completion(
        self,
        record: OperationRecord,
        channel_filter: Optional[ChannelFilter] = None,
        max_steps: int = 100_000,
    ) -> OperationRecord:
        """Step until the given operation responds."""
        self.run_until(
            lambda w: record.is_complete, channel_filter, max_steps
        )
        return record

    def deliver_all(
        self,
        channel_filter: Optional[ChannelFilter] = None,
        max_steps: int = 100_000,
    ) -> int:
        """Deliver until no filtered channel has messages.

        Deliveries may trigger new sends; the loop continues until a
        fixed point.  Returns deliveries performed.  At most
        ``max_steps`` deliveries are executed: a system that drains in
        exactly ``max_steps`` returns, one that needs more raises.
        """
        taken = 0
        while True:
            enabled = self.enabled_channels(channel_filter)
            if not enabled:
                return taken
            if taken >= max_steps:
                raise SimulationError(
                    f"deliver_all exceeded {max_steps} steps; "
                    "protocol may be generating unbounded chatter"
                )
            self.deliver(*enabled[0])
            taken += 1

    # -- state inspection ----------------------------------------------------------

    def server_state_vector(
        self, server_ids: Optional[Sequence[str]] = None
    ) -> Tuple[tuple, ...]:
        """Digests of the named servers (default: all), in id order."""
        if server_ids is None:
            targets: List[ServerProcess] = self.servers()
        else:
            targets = [self.process(pid) for pid in sorted(server_ids)]  # type: ignore[misc]
        return tuple(p.state_digest() for p in targets)

    def pending_operations(self) -> List[OperationRecord]:
        """Operations invoked but not yet responded, in invocation order.

        Served from the incomplete-op index maintained by ``invoke_*``
        and :meth:`complete_operation` — O(pending), not O(history).
        """
        return list(self._pending_ops.values())

    def fork(self) -> "World":
        """Copy the World at the current point (the fast clone path).

        The copy shares nothing mutable with the original: stepping one
        never affects the other.  Used for valency probing and schedule
        exploration, so it avoids ``copy.deepcopy``'s per-object
        reflection via the explicit clone protocol (see the module
        docstring).  Immutable values — messages, tags, action records,
        codes — are shared between twins.  :meth:`deepcopy_fork` is the
        reference implementation; the property tests in
        ``tests/sim/test_fast_fork.py`` assert both produce observably
        identical, causally independent Worlds.
        """
        clone = World.__new__(World)
        clone.scheduler = self.scheduler.clone()
        clone.step_count = self.step_count
        clone.trace = list(self.trace)  # ActionRecords are frozen: share
        clone.operations = [op.clone() for op in self.operations]
        clone._next_op_id = self._next_op_id
        clone.record_trace = self.record_trace
        clone.adversary = (
            None if self.adversary is None else self.adversary.clone()
        )
        # A real observer is deep-copied (it may hold mutable metric
        # state).  A falsy observer (the NullObserver singleton, None)
        # is shared directly: NO_OP deep-copies to itself anyway, and
        # skipping the deepcopy protocol dispatch keeps the
        # uninstrumented fork path free (guarded by the perf guard's
        # tracing-off budget).
        clone.obs = copy.deepcopy(self.obs) if self.obs else self.obs
        clone.processes = {
            pid: process.clone() for pid, process in self.processes.items()
        }
        clone.channels = {}
        notify = clone._channel_transition
        for key, channel in self.channels.items():
            clone.channels[key] = channel.clone(notify)
        clone._nonempty = set(self._nonempty)
        clone._nonempty_sorted = None
        clone._servers_cache = None
        clone._clients_cache = None
        # op_id == index in ``operations`` (enforced by invoke_*), so the
        # pending index can be rebuilt against the cloned records.
        clone._pending_ops = {
            op_id: clone.operations[op_id] for op_id in self._pending_ops
        }
        # Anything monkeypatched onto this instance (e.g. the message
        # spies in analysis/communication.py) is copied the way deepcopy
        # would have copied it.
        for key, value in self.__dict__.items():
            if key not in clone.__dict__:
                clone.__dict__[key] = copy.deepcopy(value)
        return clone

    def deepcopy_fork(self) -> "World":
        """Fork via ``copy.deepcopy`` — the slow reference implementation.

        Kept for the fast-fork equivalence property tests and the
        ``benchmarks/bench_core.py`` before/after comparison.
        """
        return copy.deepcopy(self)

    def __repr__(self) -> str:
        return (
            f"World(step={self.step_count}, processes={len(self.processes)}, "
            f"in_flight={sum(len(c) for c in self.channels.values())})"
        )
