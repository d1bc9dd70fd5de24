"""Process base classes: I/O-automaton-style reactive components.

Processes are *reactive*: they act when a message is delivered to them
or (for clients) when an operation is invoked.  Each reaction may send
messages and update local state.  This matches every register protocol
we implement (and the paper's model, where a fair execution interleaves
exactly these channel/client/server actions).

A process must be deep-copyable (plain-data state only) so Worlds can
be forked, and must implement :meth:`state_digest` so the storage
accountant can enumerate its reachable state space.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.clone import clone_instance_state
from repro.sim.events import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import World


class ProcessContext:
    """Capability handle a process uses during a reaction.

    Wraps the World so process code can send messages and (clients)
    complete operations, without holding a direct World reference in
    its state (which would make digests and copies awkward).
    """

    def __init__(self, world: "World", pid: str) -> None:
        self._world = world
        self.pid = pid

    @property
    def step(self) -> int:
        """Current action index."""
        return self._world.step_count

    @property
    def obs(self):
        """The World's observer: ``None`` unless instrumentation is attached.

        Register clients emit phase spans through this, guarded by its
        truth value: ``if ctx.obs: ctx.obs.begin_span(...)``.
        """
        return self._world.obs

    def send(self, dst: str, message: Message) -> None:
        """Enqueue a message on the channel ``self.pid -> dst``."""
        self._world.enqueue_message(self.pid, dst, message)

    def complete_operation(self, op_id: int, value: Optional[int] = None) -> None:
        """Record the response of a pending client operation."""
        self._world.complete_operation(self.pid, op_id, value)


class Process:
    """Base class for all simulated processes."""

    #: True declares that this process uses server ids only as opaque
    #: names: its handlers commute with every permutation of the server
    #: ids, and its :meth:`state_digest` holds them only as plain
    #: strings inside tuples and frozensets, never in a sorted order, so
    #: relabelling a digest is a structural map.  When every process of
    #: a World declares it (and no channel adversary is installed), the
    #: schedule explorer keys each state on its smallest relabelling
    #: (:mod:`repro.verification.explore`).  Off by default.
    opaque_server_ids = False

    def __init__(self, pid: str) -> None:
        self.pid = pid
        self.failed = False

    def on_message(self, ctx: ProcessContext, src: str, message: Message) -> None:
        """React to a delivered message.  Subclasses override."""
        raise NotImplementedError

    def state_digest(self) -> tuple:
        """Canonical hashable representation of the local state.

        Used by storage accounting (servers) and snapshot-equality
        checks (everything).  Subclasses must include *all* mutable
        state.
        """
        raise NotImplementedError

    def clone(self) -> "Process":
        """Independent copy of this process for a copy-on-write fork.

        ``World.process`` calls it when a World first writes a process
        it shares with a fork twin.

        The default copies ``__dict__`` through the fast plain-data
        cloner (:mod:`repro.sim.clone`), which every protocol in this
        repo satisfies — process state is scalars, tuples, sets, lists
        and dicts of the same, plus share-safe immutables like codes
        and tags.  A subclass holding exotic state can override this;
        unrecognised values fall back to ``copy.deepcopy`` anyway.
        """
        return clone_instance_state(self)

    def __repr__(self) -> str:
        status = " FAILED" if self.failed else ""
        return f"{type(self).__name__}({self.pid}{status})"


class ServerProcess(Process):
    """Base class for servers (storage-cost accounting targets).

    Servers support *crash-recovery*: :meth:`repro.sim.network.World.recover`
    clears the failed flag and invokes :meth:`on_recover`, modelling a
    server that rejoins from persisted local state (its state at the
    crash point — the simulator never wipes it).  Messages delivered
    while the server was down were consumed as ``drop`` actions and are
    not replayed.
    """

    def on_recover(self, ctx: ProcessContext) -> None:
        """Hook run when the server rejoins after a crash.

        The default is a no-op (state is already persisted); protocols
        that need re-synchronization (e.g. announcing themselves or
        requesting missed updates) override this and may send messages.
        """


class ClientProcess(Process):
    """Base class for read/write clients.

    Tracks at most one pending operation (the model requires every new
    invocation at a client to wait for the previous response).
    Subclasses implement :meth:`start_write` / :meth:`start_read` and
    call :meth:`finish` when the protocol completes.
    """

    def __init__(self, pid: str) -> None:
        super().__init__(pid)
        self.pending_op_id: Optional[int] = None

    # -- invocation hooks (called by World.invoke_*) -----------------------

    def begin_operation(self, op_id: int) -> None:
        """Mark an operation as pending (one at a time)."""
        if self.pending_op_id is not None:
            raise SimulationError(
                f"client {self.pid} invoked op {op_id} while "
                f"op {self.pending_op_id} is pending"
            )
        self.pending_op_id = op_id

    def start_write(self, ctx: ProcessContext, op_id: int, value: int) -> None:
        """Begin the write protocol.  Subclasses override."""
        raise NotImplementedError

    def start_read(self, ctx: ProcessContext, op_id: int) -> None:
        """Begin the read protocol.  Subclasses override."""
        raise NotImplementedError

    def finish(self, ctx: ProcessContext, value: Optional[int] = None) -> None:
        """Complete the pending operation (reads pass the returned value)."""
        if self.pending_op_id is None:
            raise SimulationError(f"client {self.pid} has no pending operation")
        op_id = self.pending_op_id
        self.pending_op_id = None
        ctx.complete_operation(op_id, value)


def require_payload(message: Message, key: str) -> Any:
    """Fetch a required payload field, raising a clear error if missing."""
    sentinel = object()
    value = message.get(key, sentinel)
    if value is sentinel:
        raise SimulationError(
            f"message {message!r} missing required field {key!r}"
        )
    return value
