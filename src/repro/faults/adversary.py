"""Adversarial channel behaviors: drops, duplication, reordering, partitions.

The paper's bounds are proved against an adversary that may delay any
message arbitrarily and crash up to ``f`` servers; related work
(Spiegelman et al., *Space Bounds for Reliable Storage*) additionally
lets the adversary lose and reorder messages.  A
:class:`ChannelAdversary` installs those behaviors on a
:class:`~repro.sim.network.World` (via ``world.adversary``), with every
decision drawn from a :class:`~repro.util.rng.SeededRNG` so chaos runs
replay bit-for-bit.

Fault semantics
---------------

* **Drop** — a message is destroyed in transit (recorded as a ``lose``
  action).  Drops are confined to channels touching the configured
  ``lossy_processes`` set: quorum protocols have no retransmission, so
  unrestricted loss breaks liveness even below the crash budget.  Keep
  ``lossy_processes`` to at most ``f`` servers and the remaining
  ``N - f`` reliable servers still form quorums — loss then behaves
  like (recoverable) omission failures inside the fault budget.
* **Duplicate** — the message is delivered *and* a copy is re-enqueued
  at the channel tail, bounded by ``max_duplicates`` so chatter stays
  finite.  Safe for any quorum protocol whose handlers are idempotent.
* **Reorder** — the delivery takes a message up to ``reorder_window``
  positions behind the head instead of the head (bounded out-of-order
  delivery).  Never destroys messages, so liveness is unaffected.
* **Partition** — a :class:`Partition` splits the process set into
  groups; channels crossing the cut are *disabled* (messages stay
  queued), exactly like a :class:`~repro.sim.scheduler.ChannelFilter`
  freeze, and become deliverable again on :meth:`heal_partition`.
* **Tamper** — a *rigged* adversary (``tamper_mode="stale-tags"``)
  rewrites the ``tag`` field of delivered messages to the initial tag,
  so writes never install at servers and reads return stale values.
  This deliberately breaks the safety contract every algorithm here
  otherwise keeps; it exists so the triage subsystem
  (:mod:`repro.triage`) has a reproducible, *known* atomicity
  violation to bundle, shrink, and regression-test against.  No
  campaign fault shape ever enables it.  Modes live in one table
  (``_TAMPER_MODES``), so config validation can list what exists.
* **Byzantine servers** — a :class:`ByzantineConfig` marks up to
  ``f_b`` servers as corrupt and assigns each a *role* describing how
  its traffic is falsified in flight (the server code itself stays
  honest; the wire does the lying, which keeps every protocol
  implementation byte-identical between honest and Byzantine runs):

  - ``equivocate`` — responses carrying data (``value``/``elem``) are
    corrupted with a mask keyed on the *destination*, so different
    readers see different values for the same tag and colluding
    Byzantine servers tell each reader the same consistent lie;
  - ``stale-replay`` — response tags are rewritten to the initial
    tag, replaying the server's long-gone initial state;
  - ``garbage`` — data payloads are bit-flipped with a mask keyed on
    the *source*, modelling independent shard corruption;
  - ``ack-drop`` — *inbound* install messages (``put``/``pre``/
    ``fin``) are neutralized so the server acknowledges protocol
    writes it never applies.

  All corruption decisions are pure functions of ``(seed, src, dst,
  payload)`` via a CRC-based hash — the main ``channel-adversary``
  RNG stream is never consumed, so honest drop/duplicate/reorder
  decisions replay bit-for-bit whether or not Byzantine servers are
  present (the property bundle replay and ddmin shrinking rely on).

The partition gate composes with channel filters: the World applies the
filter first, then the partition, so proofs can run their freezes on a
partitioned system.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.sim.clone import clone_instance_state
from repro.sim.events import Message
from repro.sim.scheduler import ChannelKey
from repro.util.rng import SeededRNG

#: The initial tag as it appears in message payloads (``Tag.as_tuple``).
_INITIAL_TAG_TUPLE = (0, "")


def _rewrite(message: Message, **changes) -> Message:
    """A copy of ``message`` with the given payload fields replaced."""
    body = message.as_dict()
    body.update(changes)
    return Message.make(message.kind, **body)


# ---------------------------------------------------------------------------
# Tamper modes
# ---------------------------------------------------------------------------

#: A tamper function returns the corrupted message, or None to leave the
#: delivery untouched.  It must be deterministic and consume no RNG.
TamperFn = Callable[[str, str, Message], Optional[Message]]


def _stale_tags_tamper(src: str, dst: str, message: Message) -> Optional[Message]:
    """Rewrite any payload ``tag`` to the initial tag (safety-breaking)."""
    if message.get("tag") is None:
        return None
    return _rewrite(message, tag=_INITIAL_TAG_TUPLE)


#: Every rigged tamper mode, by ``AdversaryConfig.tamper_mode`` name.
_TAMPER_MODES: Dict[str, TamperFn] = {"stale-tags": _stale_tags_tamper}


def tamper_mode_names() -> Tuple[str, ...]:
    """All tamper modes, sorted (for error messages)."""
    return tuple(sorted(_TAMPER_MODES))


# ---------------------------------------------------------------------------
# Byzantine server model
# ---------------------------------------------------------------------------

#: Role names in the default assignment cycle.
BYZANTINE_ROLE_NAMES = ("equivocate", "stale-replay", "garbage", "ack-drop")


def _stable_mask(seed: int, *parts) -> int:
    """Deterministic nonzero XOR mask in {1, 2, 3}.

    Small enough that corrupted values stay inside any value/symbol
    domain of >= 2 bits, yet guaranteed to differ from the honest
    payload.  CRC-based (not ``hash``) so it is stable across processes
    and Python hash randomization — a requirement for ``--jobs``
    byte-identity.
    """
    data = repr((seed,) + parts).encode("utf-8")
    return 1 + (zlib.crc32(data) % 3)


@dataclass(frozen=True)
class ByzantineConfig:
    """Up to ``f_b`` corrupt servers and their per-server roles.

    ``roles`` is cycled over ``servers`` (one role each); the default
    cycle covers all four behaviors.  ``seed`` keys the deterministic
    corruption masks (normally the fault config's seed).
    """

    #: Frozen: World forks share ByzantineConfig instances.
    __clone_shared__ = True

    servers: Tuple[str, ...] = ()
    roles: Tuple[str, ...] = BYZANTINE_ROLE_NAMES
    seed: int = 0

    def validate(self) -> None:
        if self.servers and not self.roles:
            raise ConfigurationError(
                "byzantine servers configured but no roles given"
            )
        for role in self.roles:
            if role not in BYZANTINE_ROLE_NAMES:
                raise ConfigurationError(
                    f"unknown byzantine role {role!r} "
                    f"(expected one of {', '.join(BYZANTINE_ROLE_NAMES)})"
                )
        if len(set(self.servers)) != len(self.servers):
            raise ConfigurationError("byzantine servers must be distinct")

    def role_of(self, pid: str) -> Optional[str]:
        """This server's role, or None if it is honest."""
        try:
            index = self.servers.index(pid)
        except ValueError:
            return None
        return self.roles[index % len(self.roles)]


def _corrupt_response(
    role: str, seed: int, src: str, dst: str, message: Message
) -> Optional[Message]:
    """Falsify an outbound response from Byzantine server ``src``."""
    kind = message.kind
    if role == "stale-replay":
        if kind in ("get-ack", "qf-ack", "read-ack") and message.get("tag") not in (
            None,
            _INITIAL_TAG_TUPLE,
        ):
            changes: dict = {"tag": _INITIAL_TAG_TUPLE}
            if message.get("value") is not None:
                changes["value"] = 0
            return _rewrite(message, **changes)
        return None
    if role in ("equivocate", "garbage"):
        # Equivocation masks are keyed on the destination: every
        # colluding Byzantine server tells reader r the same lie, and a
        # different lie to reader r'.  Garbage masks are keyed on the
        # source: each corrupt server flips its own shard independently.
        key = dst if role == "equivocate" else src
        tag = message.get("tag")
        if kind == "get-ack" and message.get("value") is not None:
            mask = _stable_mask(seed, role, key, tag)
            return _rewrite(message, value=message.get("value") ^ mask)
        if kind == "read-ack" and message.get("elem") is not None:
            mask = _stable_mask(seed, role, key, tag)
            return _rewrite(message, elem=message.get("elem") ^ mask)
        return None
    return None


def _neutralize_install(message: Message) -> Optional[Message]:
    """Gut an inbound install so an ``ack-drop`` server acks a no-op."""
    if message.kind == "put":
        return _rewrite(message, tag=_INITIAL_TAG_TUPLE, value=0)
    if message.kind in ("pre", "fin"):
        return _rewrite(message, tag=_INITIAL_TAG_TUPLE)
    return None


@dataclass(frozen=True)
class Partition:
    """A split of the process ids into non-communicating groups.

    Any pid not named in ``groups`` belongs to an implicit "rest"
    group, so isolating a minority is just ``Partition.isolate(pids)``.

    The pid -> group map behind :meth:`side_of` (and behind
    :meth:`ChannelAdversary.partition_gate`) is built once at
    construction and kept out of the dataclass fields (and out of the
    pickled state), so equality, hashing, ``repr`` and pickles are
    those of ``groups`` alone.
    """

    groups: Tuple[FrozenSet[str], ...]

    #: Frozen: World forks share Partition instances.
    __clone_shared__ = True

    def __post_init__(self) -> None:
        side: Dict[str, int] = {}
        for index, group in enumerate(self.groups):
            overlap = group.intersection(side)
            if overlap:
                raise ConfigurationError(
                    f"partition groups overlap on {sorted(overlap)}"
                )
            side.update(dict.fromkeys(group, index))
        object.__setattr__(self, "_side", side)

    def __getstate__(self) -> dict:
        return {"groups": self.groups}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "groups", state["groups"])
        self.__post_init__()

    @classmethod
    def isolate(cls, pids: Iterable[str]) -> "Partition":
        """Cut ``pids`` off from everyone else (one explicit group)."""
        return cls((frozenset(pids),))

    @classmethod
    def split(cls, *groups: Iterable[str]) -> "Partition":
        """Partition into the given explicit groups (plus the rest)."""
        return cls(tuple(frozenset(g) for g in groups))

    def side_of(self, pid: str) -> int:
        """Group index of ``pid`` (-1 for the implicit rest group)."""
        return self._side.get(pid, -1)

    def crosses(self, src: str, dst: str) -> bool:
        """True iff the channel src->dst crosses the cut."""
        side = self._side
        return side.get(src, -1) != side.get(dst, -1)


@dataclass(frozen=True)
class AdversaryConfig:
    """Seeded fault mix applied to deliveries.

    Probabilities are per delivery attempt; all are 0 by default, so an
    adversary with the default config behaves like reliable channels.
    """

    #: Frozen: World forks share AdversaryConfig instances.
    __clone_shared__ = True

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    #: How far behind the head a reordered delivery may reach.
    reorder_window: int = 4
    #: Drops apply only to channels touching these pids (the omission
    #: fault targets).  Empty set = nothing is ever dropped.
    lossy_processes: FrozenSet[str] = frozenset()
    #: Hard caps keeping executions finite under high probabilities.
    max_drops: Optional[int] = None
    max_duplicates: int = 256
    #: Rigged-adversary mode: "" (honest) or a ``_TAMPER_MODES`` name
    #: (e.g. "stale-tags", a deliberate safety violation used by the
    #: triage subsystem's known-failure injection).
    tamper_mode: str = ""
    #: Byzantine server band: None = all servers honest.
    byzantine: Optional[ByzantineConfig] = None

    def validate(self) -> None:
        """Reject nonsensical parameters."""
        for name in ("drop_probability", "duplicate_probability", "reorder_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        if self.reorder_window < 1:
            raise ConfigurationError(
                f"reorder_window must be >= 1, got {self.reorder_window}"
            )
        if self.drop_probability > 0 and not self.lossy_processes:
            raise ConfigurationError(
                "drop_probability > 0 requires lossy_processes: unrestricted "
                "loss breaks liveness below the crash budget"
            )
        if self.max_drops is not None and self.max_drops < 0:
            raise ConfigurationError(f"max_drops must be >= 0, got {self.max_drops}")
        if self.max_duplicates < 0:
            raise ConfigurationError(
                f"max_duplicates must be >= 0, got {self.max_duplicates}"
            )
        if self.tamper_mode and self.tamper_mode not in _TAMPER_MODES:
            raise ConfigurationError(
                f"unknown tamper_mode {self.tamper_mode!r} "
                f"(valid modes: {', '.join(tamper_mode_names())})"
            )
        if self.byzantine is not None:
            self.byzantine.validate()


class ChannelAdversary:
    """Stateful, seeded fault injector consulted by ``World.deliver``.

    Install with ``world.adversary = adversary``.  Deep-copyable (the
    RNG snapshots its state), so forked Worlds replay identically.
    """

    def __init__(self, config: Optional[AdversaryConfig] = None, seed: int = 0) -> None:
        self.config = config or AdversaryConfig()
        self.config.validate()
        self.rng = SeededRNG(seed, "channel-adversary")
        self.partition: Optional[Partition] = None
        # Injection counters (also used to enforce the hard caps).
        self.drops = 0
        self.duplicates = 0
        self.reorders = 0
        self.partitions_started = 0
        self.heals = 0
        self.tampers = 0
        self.byzantine_corruptions = 0
        self.byzantine_by_role: Dict[str, int] = {}
        #: What the last transform() did: "" | "tamper" | "byzantine:<role>".
        #: The World reads this to emit differentiated obs counters.
        self.last_corruption = ""

    def clone(self) -> "ChannelAdversary":
        """Independent copy for World forks.

        Config and partition are immutable and shared; the RNG stream
        and injection counters are copied so the fork replays the
        original's remaining fault decisions bit-for-bit.  Delegates to
        the generic state cloner so subclasses with extra plain-data
        state fork correctly too.
        """
        return clone_instance_state(self)

    def state_digest(self) -> tuple:
        """Everything the adversary's future decisions depend on.

        The RNG stream position, the two counters its caps read, and
        the active partition; the config is fixed for its lifetime.
        Two adversaries with equal digests make identical decisions on
        identical deliveries.  The other counters only report.
        """
        return (self.rng.getstate(), self.drops, self.duplicates, self.partition)

    # -- partition gate (consulted by World.enabled_keys) --------------------

    def partition_gate(self, keys: Iterable[ChannelKey]) -> Set[ChannelKey]:
        """The set of channel keys no active partition cuts, in one pass.

        ``World.enabled_keys`` calls this once per step while a
        partition is active, and a set is what ``Scheduler.select``
        reads in place; with no partition, every key passes.
        """
        if self.partition is None:
            return set(keys)
        side = self.partition._side
        return {k for k in keys if side.get(k[0], -1) == side.get(k[1], -1)}

    def start_partition(self, partition: Partition) -> None:
        """Activate a partition (replaces any active one)."""
        self.partition = partition
        self.partitions_started += 1

    def heal_partition(self) -> None:
        """Reconnect everyone; queued cross-cut messages become deliverable."""
        if self.partition is not None:
            self.partition = None
            self.heals += 1

    # -- per-delivery decisions (consulted by World.deliver) -----------------

    def pick_index(self, key: ChannelKey, queue_length: int) -> int:
        """Queue index this delivery takes (0 = head, FIFO)."""
        cfg = self.config
        if (
            queue_length > 1
            and cfg.reorder_probability > 0
            and self.rng.random() < cfg.reorder_probability
        ):
            index = self.rng.randint(0, min(cfg.reorder_window, queue_length) - 1)
            if index:
                self.reorders += 1
            return index
        return 0

    def fate(self, src: str, dst: str, message: Message) -> str:
        """``"drop"``, ``"duplicate"``, or ``"deliver"`` for this message."""
        cfg = self.config
        if (
            cfg.drop_probability > 0
            and (src in cfg.lossy_processes or dst in cfg.lossy_processes)
            and (cfg.max_drops is None or self.drops < cfg.max_drops)
            and self.rng.random() < cfg.drop_probability
        ):
            self.drops += 1
            return "drop"
        if (
            cfg.duplicate_probability > 0
            and self.duplicates < cfg.max_duplicates
            and self.rng.random() < cfg.duplicate_probability
        ):
            self.duplicates += 1
            return "duplicate"
        return "deliver"

    def transform(self, src: str, dst: str, message: Message) -> Message:
        """The message actually handed to the receiver.

        The honest adversary returns the message unchanged.  A rigged
        ``tamper_mode`` applies its registered rewrite; a
        :class:`ByzantineConfig` then falsifies traffic touching its
        corrupt servers according to each server's role.  Deterministic
        by construction: no RNG is consumed (masks are content-hashed),
        so honest replays of the same channel history stay
        bit-identical even when corruption is toggled.
        """
        self.last_corruption = ""
        mode = self.config.tamper_mode
        if mode:
            tampered = _TAMPER_MODES[mode](src, dst, message)
            if tampered is not None:
                self.tampers += 1
                self.last_corruption = "tamper"
                message = tampered
        byz = self.config.byzantine
        if byz is not None:
            role = byz.role_of(src)
            corrupted = None
            if role is not None and role != "ack-drop":
                corrupted = _corrupt_response(role, byz.seed, src, dst, message)
            if corrupted is None and byz.role_of(dst) == "ack-drop":
                role = "ack-drop"
                corrupted = _neutralize_install(message)
            if corrupted is not None:
                self.byzantine_corruptions += 1
                self.byzantine_by_role[role] = (
                    self.byzantine_by_role.get(role, 0) + 1
                )
                self.last_corruption = f"byzantine:{role}"
                message = corrupted
        return message

    def stats(self) -> dict:
        """Injection counters, for reports and tests."""
        return {
            "drops": self.drops,
            "duplicates": self.duplicates,
            "reorders": self.reorders,
            "partitions": self.partitions_started,
            "heals": self.heals,
            "tampers": self.tampers,
            "byzantine_corruptions": self.byzantine_corruptions,
            "byzantine_by_role": dict(sorted(self.byzantine_by_role.items())),
        }

    def __repr__(self) -> str:
        part = "partitioned" if self.partition is not None else "connected"
        return (
            f"ChannelAdversary({part}, drops={self.drops}, "
            f"dups={self.duplicates}, reorders={self.reorders})"
        )
