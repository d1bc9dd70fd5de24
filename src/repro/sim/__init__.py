"""Asynchronous message-passing simulation substrate.

Models the paper's system exactly: a set of named processes (servers
and clients) connected pairwise by reliable FIFO asynchronous channels,
with crash failures.  An execution is a sequence of discrete *actions*
(message deliveries, operation invocations, crashes); the state of the
system between two actions is a *point* of the execution, matching the
paper's proof vocabulary.

The substrate is deterministic given a scheduler, and a whole World can
be forked (deep-copied) at any point — which is how the executable
proofs probe *valency*: "is there an extension of this execution in
which a read returns v?" becomes "fork here, freeze the writer's
channels, run a read".
"""

from repro.sim.events import ActionRecord, Message, OperationRecord
from repro.sim.process import ClientProcess, Process, ProcessContext, ServerProcess
from repro.sim.channel import Channel
from repro.sim.network import World
from repro.sim.scheduler import (
    ChannelFilter,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
    ScriptedScheduler,
)
from repro.sim.snapshot import fork_world

__all__ = [
    "ActionRecord",
    "Message",
    "OperationRecord",
    "Process",
    "ProcessContext",
    "ClientProcess",
    "ServerProcess",
    "Channel",
    "World",
    "Scheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
    "ScriptedScheduler",
    "ChannelFilter",
    "fork_world",
]
