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

* ``fork()`` is copy-on-write.  Twins share process and channel
  objects; each World records which of them it *owns*, and the write
  accessors :meth:`process` and :meth:`channel` clone a shared object
  (through the explicit clone protocol: ``Process.clone``,
  ``Channel.clone``) the first time this World writes it.  The
  scheduler is shared the same way and cloned by :meth:`step` before
  its first selection.  ``fork()`` itself copies two dicts and the
  channel index below (the one set mutated in place), and clones only
  the pending operation records and the adversary.
* The non-empty channel index is a set of channel keys.  Each channel
  this World owns holds that set (not the World), adds its own key
  when its queue becomes non-empty and discards it when the queue
  empties, so nothing is rescanned per step.  :meth:`step` hands the
  set itself (or its filter- or partition-gated subset) to
  ``Scheduler.select``, which reads it by membership only, so a step
  copies and sorts nothing.  The adversary's partition gate is
  consulted only while a partition is active, once per step for the
  whole index.
* Set order depends on ``PYTHONHASHSEED``, so it never reaches output:
  every caller that reads an order gets a sorted view built on
  demand (:meth:`enabled_channels` for the explorer's branch order,
  :meth:`undelivered_channels`, the digests below), and the
  round-robin scheduler registers new keys in sorted order.
  Schedules, digests and reports are the same under any hash seed.
* The state digest (:meth:`process_digests`,
  :meth:`channel_digests`, :meth:`config_ids`) walks the non-empty
  index in key order.  Each digest entry is interned to a small int
  id in a table shared by a World and its forks, and the id of every
  process and channel this World does not own is memoised by object
  identity: nobody can write such an object again, so it costs one
  identity test and no hashing.
* Nothing here makes a reference cycle: no object a World holds
  refers back to the World, so a World dropped by the explorer or a
  campaign is freed at once by reference counting, and the cyclic
  collector finds nothing to do.
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
from types import MappingProxyType
from typing import (
    AbstractSet,
    Callable,
    Collection,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    DeadlockDetectedError,
    OperationIncompleteError,
    ProcessFailedError,
    SimulationError,
    UnknownProcessError,
)
from repro.sim.channel import Channel
from repro.sim.events import ActionRecord, Message, OperationRecord
from repro.sim.process import ClientProcess, Process, ProcessContext, ServerProcess
from repro.sim.scheduler import (
    ChannelFilter,
    ChannelKey,
    RoundRobinScheduler,
    Scheduler,
)


class InternTable(dict):
    """Digest entry -> small int id, with the entries in id order.

    Ids are handed out in order of first sight, so two entries get
    equal ids iff they are equal: no hashing away, no collisions.
    """

    def __init__(self) -> None:
        super().__init__()
        self.entries: List[tuple] = []
        #: Relabelling of server ids -> the id of each entry's image
        #: under it, in id order: the schedule explorer's symmetry memo
        #: (:mod:`repro.verification.explore`), kept as long as the ids.
        self.images: Dict[tuple, List[int]] = {}

    def intern(self, entry: tuple) -> int:
        """The id of ``entry``, assigning the next one if it is new."""
        ident = self.get(entry)
        if ident is None:
            ident = self[entry] = len(self.entries)
            self.entries.append(entry)
        return ident


class World:
    """A complete simulated system at some point of some execution."""

    def __init__(self, scheduler: Optional[Scheduler] = None) -> None:
        self._processes: Dict[str, Process] = {}
        self._channels: Dict[ChannelKey, Channel] = {}
        #: Read-only views: reading through them never clones.  Write
        #: through :meth:`process` and :meth:`channel` instead.
        self.processes: Mapping[str, Process] = MappingProxyType(self._processes)
        self.channels: Mapping[ChannelKey, Channel] = MappingProxyType(self._channels)
        #: Pids and channel keys whose objects this World owns: it
        #: created them and no fork shares them.  Every other object is
        #: shared with a twin and cloned on first write (see :meth:`fork`).
        self._owned: set = set()
        #: Digest entries and their ids, shared between a World and its
        #: forks (see :meth:`config_ids`).
        self._interned = InternTable()
        #: pid or channel key -> (object, interned id of its digest
        #: entry) for processes and channels no World owns, shared
        #: between a World and its forks like the intern table.
        self._digest_memo: Dict[object, tuple] = {}
        #: Re-fetch after a fork: twins share the scheduler until one
        #: of them steps (see :meth:`step`).
        self.scheduler: Scheduler = scheduler or RoundRobinScheduler()
        self._owns_scheduler = True
        self.step_count = 0
        self.trace: List[ActionRecord] = []
        self.operations: List[OperationRecord] = []
        self._next_op_id = 0
        self.record_trace = True
        #: Keys of channels currently holding messages, in no order.
        #: Every channel this World owns holds this set and adds or
        #: discards its own key in place, so it is never replaced.
        self._nonempty: Set[ChannelKey] = set()
        #: Sorted pids, all and by role (invalidated by :meth:`add_process`).
        self._pids: Optional[List[str]] = None
        self._server_pids: List[str] = []
        self._client_pids: List[str] = []
        #: Incomplete operations by op id, maintained by ``invoke_*``
        #: and :meth:`complete_operation` (insertion = invocation order).
        self._pending_ops: Dict[int, OperationRecord] = {}
        #: Optional :class:`repro.faults.adversary.ChannelAdversary`.
        #: When set, deliveries may be lost, duplicated or reordered and
        #: an active partition gates which channels are enabled.  The
        #: executable proofs never install one — channels stay reliable.
        self.adversary = None
        #: Observer for the obs layer: ``None`` (off) or a
        #: :class:`repro.obs.recorder.SimObserver`.  Every hook site
        #: below guards with ``if self.obs:``, so off costs one truth
        #: test per site and calls nothing.  The observer only reads
        #: state — it never affects scheduling — and ``world_digest``
        #: ignores it, so digests match between instrumented and
        #: uninstrumented twins.
        self.obs = None

    # -- topology ------------------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Register a process; ids must be unique."""
        pid = process.pid
        if pid in self._processes:
            raise SimulationError(f"duplicate process id {pid!r}")
        self._processes[pid] = process
        self._owned.add(pid)
        self._pids = None
        return process

    def process(self, pid: str) -> Process:
        """This World's own copy of a process, for reading or writing.

        A process shared with a fork twin is cloned on the first call,
        so the write stays invisible to the twin.  Pure reads can go
        through :attr:`processes` instead, which never clones.
        """
        processes = self._processes
        if pid in self._owned:
            return processes[pid]
        try:
            shared = processes[pid]
        except KeyError:
            raise UnknownProcessError(f"no process {pid!r}") from None
        process = processes[pid] = shared.clone()
        self._owned.add(pid)
        return process

    def _sorted_pids(self) -> List[str]:
        """All pids in id order (cached; never mutated in place)."""
        pids = self._pids
        if pids is None:
            processes = self._processes
            pids = self._pids = sorted(processes)
            self._server_pids = [
                pid for pid in pids if isinstance(processes[pid], ServerProcess)
            ]
            self._client_pids = [
                pid for pid in pids if isinstance(processes[pid], ClientProcess)
            ]
        return pids

    def servers(self) -> List[ServerProcess]:
        """All registered servers, sorted by id (this World's own objects)."""
        self._sorted_pids()
        return [self.process(pid) for pid in self._server_pids]  # type: ignore[misc]

    def clients(self) -> List[ClientProcess]:
        """All registered clients, sorted by id (this World's own objects)."""
        self._sorted_pids()
        return [self.process(pid) for pid in self._client_pids]  # type: ignore[misc]

    def channel(self, src: str, dst: str) -> Channel:
        """This World's own channel src->dst, created lazily.

        Like :meth:`process`, clones a channel shared with a fork twin
        on the first call; :attr:`channels` is the read-only view.
        """
        key = (src, dst)
        channels = self._channels
        if key in self._owned:
            return channels[key]
        shared = channels.get(key)
        # The channel holds this World's non-empty index, so the index
        # stays correct even when code enqueues on the channel directly.
        if shared is not None:
            channel = shared.clone(self._nonempty)
        elif src in self._processes and dst in self._processes:
            channel = Channel(src, dst, self._nonempty)
        else:
            raise UnknownProcessError(f"channel endpoints {key} unknown")
        channels[key] = channel
        self._owned.add(key)
        return channel

    # -- message plumbing (called by ProcessContext) --------------------------

    def enqueue_message(self, src: str, dst: str, message: Message) -> None:
        """Place a message in flight (process send action)."""
        sender = self._processes.get(src)
        if sender is None:
            raise UnknownProcessError(f"no process {src!r}")
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

    def enabled_keys(
        self, channel_filter: Optional[ChannelFilter] = None
    ) -> Collection[ChannelKey]:
        """Non-empty channels permitted by the filter, in no order.

        Message-aware filters see the head message of each channel, so
        a blocked head (FIFO) disables the whole channel.  An installed
        adversary's active partition additionally disables channels
        crossing the cut (their messages stay queued until a heal).

        With no filter and no active partition this is the non-empty
        index itself, not a copy: read it before the World changes
        again, and never write or keep it.  Its iteration order follows
        ``PYTHONHASHSEED``; :meth:`enabled_channels` is the sorted view.
        """
        keys = self._nonempty
        if channel_filter is not None:
            channels = self._channels
            keys = [
                k
                for k in keys
                if channel_filter.allows(*k, head_message=channels[k].peek())
            ]
        adversary = self.adversary
        if adversary is not None and adversary.partition is not None:
            keys = adversary.partition_gate(keys)
        return keys

    def enabled_channels(
        self, channel_filter: Optional[ChannelFilter] = None
    ) -> List[ChannelKey]:
        """:meth:`enabled_keys` as a sorted list, for callers that read
        an order (the explorer branches in it)."""
        return sorted(self.enabled_keys(channel_filter))

    def undelivered_keys(self) -> AbstractSet[ChannelKey]:
        """All non-empty channel keys, in no order (ignores filters and
        partitions).  The index itself, read as :meth:`enabled_keys`."""
        return self._nonempty

    def undelivered_channels(self) -> List[ChannelKey]:
        """All non-empty channel keys, sorted (ignores filters/partitions)."""
        return sorted(self._nonempty)

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
        if self._processes[dst].failed:
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
        self.process(dst).on_message(ProcessContext(self, dst), src, message)
        return record

    def step(
        self, channel_filter: Optional[ChannelFilter] = None
    ) -> Optional[ActionRecord]:
        """Run one scheduler-selected delivery; None if nothing enabled."""
        enabled = self.enabled_keys(channel_filter)
        if not enabled:
            return None
        if not self._owns_scheduler:
            # Selecting advances the scheduler; a fork twin shares it.
            self.scheduler = self.scheduler.clone()
            self._owns_scheduler = True
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
            enabled = self.enabled_keys(channel_filter)
            if not enabled:
                return taken
            if taken >= max_steps:
                raise SimulationError(
                    f"deliver_all exceeded {max_steps} steps; "
                    "protocol may be generating unbounded chatter"
                )
            self.deliver(*min(enabled))
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

    def process_digests(self, exclude: Collection[str] = ()) -> Tuple[tuple, ...]:
        """``(pid, failed, state_digest())`` per process, in pid order.

        Processes named in ``exclude`` are left out.  The entries are
        read back through their interned ids (:meth:`config_ids`).
        """
        ids, count = self._digest_ids(exclude)
        entries = self._interned.entries
        return tuple([entries[ident] for ident in ids[:count]])

    def channel_digests(self, exclude: Collection[str] = ()) -> Tuple[tuple, ...]:
        """``(key, contents)`` per non-empty channel, in key order.

        Channels with an endpoint named in ``exclude`` are left out.
        Like :meth:`process_digests`, read back through interned ids.
        """
        ids, count = self._digest_ids(exclude)
        entries = self._interned.entries
        return tuple([entries[ident] for ident in ids[count:]])

    def config_ids(self) -> Tuple[int, ...]:
        """The entries of :meth:`process_digests`, then those of
        :meth:`channel_digests`, as interned ids: a flat tuple of ints.

        Interning is exact: two ids are equal iff their entries are, and
        a process entry never equals a channel entry, so two Worlds of
        one family (a World and its forks, which share the table) have
        equal ids iff they have equal digests.  Ids from Worlds that do
        not share a table are not comparable; a pickled or deep copy
        starts a table of its own.
        """
        return tuple(self._digest_ids(())[0])

    @property
    def interned(self) -> InternTable:
        """The intern table behind :meth:`config_ids`, shared with forks."""
        return self._interned

    def _digest_ids(self, exclude: Collection[str]) -> Tuple[List[int], int]:
        """Interned ids of the process entries in pid order, then of the
        non-empty channel entries in key order, and the number of
        process ids.

        A process or channel this World owns may still be written, so
        it is digested and interned afresh.  One it does not own is
        shared with a fork twin and nobody can write it again (writes
        clone it first), so its id is memoised by object identity.
        """
        pids = self._sorted_pids()
        keys: Collection[ChannelKey] = self._nonempty
        if exclude:
            pids = [pid for pid in pids if pid not in exclude]
            keys = [
                key for key in keys
                if key[0] not in exclude and key[1] not in exclude
            ]
        owned = self._owned
        memo = self._digest_memo
        intern = self._interned.intern
        ids = []
        processes = self._processes
        for pid in pids:
            process = processes[pid]
            if pid in owned:
                ids.append(intern((pid, process.failed, process.state_digest())))
                continue
            hit = memo.get(pid)
            if hit is None or hit[0] is not process:
                entry = (pid, process.failed, process.state_digest())
                hit = memo[pid] = (process, intern(entry))
            ids.append(hit[1])
        process_count = len(ids)
        channels = self._channels
        for key in sorted(keys):
            channel = channels[key]
            if key in owned:
                ids.append(intern((key, channel.state_digest())))
                continue
            hit = memo.get(key)
            if hit is None or hit[0] is not channel:
                hit = memo[key] = (channel, intern((key, channel.state_digest())))
            ids.append(hit[1])
        return ids, process_count

    def fork(self) -> "World":
        """Copy the World at the current point, copy-on-write.

        The twins share every process and channel object, and neither
        owns any of them afterwards: the first write through
        :meth:`process` or :meth:`channel` (and so every ``deliver``,
        ``enqueue_message``, ``invoke_*``, ``crash`` and ``recover``)
        clones the object into the writing World, so stepping one twin
        never affects the other.  The scheduler is shared the same way:
        :meth:`step` clones it before its first selection, and a World
        that is only delivered to (the explorer's) never clones it.
        Completed operation records are shared too (nothing writes a
        completed record); pending ones are cloned for the new World,
        so a record ``invoke_*`` returned still belongs to the parent.
        A fork therefore costs two dict copies, a copy of the
        channel index, the clones of the pending records and of the
        adversary; a later delivery clones only its receiver and the
        channels it pops from and pushes to.
        Immutable values — messages, tags, action records, codes — are
        shared as before.

        Each twin has its own channel index, and every channel a
        twin clones or creates holds that twin's index (a shared channel
        still holds the index of the World that made it, and is never
        written again).  No object refers back to a World, so a dropped
        twin is freed at once by reference counting.  The digest memo
        and the intern table are shared, so the ids of
        :meth:`config_ids` compare across a World and its forks.

        A reference obtained from :meth:`process`, :meth:`channel` or
        :attr:`scheduler` before a fork must be re-fetched after it: the
        old object now belongs to both twins' past, and writing it would
        show in both.

        ``copy.deepcopy(world)`` is the reference implementation; the
        property tests in ``tests/sim/test_fast_fork.py`` assert both
        produce observably identical, causally independent Worlds.
        """
        clone = World.__new__(World)
        clone.scheduler = self.scheduler
        self._owns_scheduler = clone._owns_scheduler = False
        clone.step_count = self.step_count
        clone.trace = list(self.trace)  # ActionRecords are frozen: share
        # op_id == index in ``operations`` (enforced by invoke_*), so
        # the pending records are cloned in place and indexed afresh.
        clone.operations = operations = list(self.operations)
        clone._pending_ops = pending = {}
        for op_id, record in self._pending_ops.items():
            pending[op_id] = operations[op_id] = record.clone()
        clone._next_op_id = self._next_op_id
        clone.record_trace = self.record_trace
        clone.adversary = (
            None if self.adversary is None else self.adversary.clone()
        )
        # An observer is deep-copied (it holds mutable metric state);
        # with none attached the fork makes no ``copy.deepcopy`` call
        # at all (pinned by ``test_forks_make_no_deep_copies`` in
        # tests/perf/test_work_counters.py).
        clone.obs = copy.deepcopy(self.obs) if self.obs else None
        clone._processes = dict(self._processes)
        clone._channels = dict(self._channels)
        clone.processes = MappingProxyType(clone._processes)
        clone.channels = MappingProxyType(clone._channels)
        # Both twins lose ownership: the explorer steps the parent in
        # place for its last child, and that must not write the objects
        # its other children share.
        self._owned.clear()
        clone._owned = set()
        clone._digest_memo = self._digest_memo
        clone._interned = self._interned
        # The channel index is mutated in place by the channels that
        # hold it, so each twin gets its own copy (and never replaces
        # it).  The pid lists are replaced, never mutated in place:
        # share them.
        clone._nonempty = set(self._nonempty)
        clone._pids = self._pids
        clone._server_pids = self._server_pids
        clone._client_pids = self._client_pids
        # Anything monkeypatched onto this instance (e.g. the message
        # spies in analysis/communication.py) is copied the way deepcopy
        # would have copied it.
        if len(self.__dict__) > len(clone.__dict__):
            for key, value in self.__dict__.items():
                if key not in clone.__dict__:
                    clone.__dict__[key] = copy.deepcopy(value)
        return clone

    def __getstate__(self) -> dict:
        # Mapping views do not pickle, and the digest memo holds other
        # Worlds' processes and channels; both are rebuilt by
        # ``__setstate__``, and the intern table starts afresh with the
        # memo.  Pickle keeps the identity of ``_nonempty`` and the set
        # each owned channel holds, so the channels a copy owns hold the
        # copy's own index.
        state = self.__dict__.copy()
        del state["processes"], state["channels"]
        state["_digest_memo"] = {}
        state["_interned"] = InternTable()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.processes = MappingProxyType(self._processes)
        self.channels = MappingProxyType(self._channels)

    def __repr__(self) -> str:
        return (
            f"World(step={self.step_count}, processes={len(self.processes)}, "
            f"in_flight={sum(len(c) for c in self.channels.values())})"
        )
