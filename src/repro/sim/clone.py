"""Fast structural cloning for copy-on-write World forks.

``World.fork()`` used to be ``copy.deepcopy(self)``.  Deepcopy walks
every object reflectively, consults the memo dictionary per node, and
re-copies values that are immutable by construction (messages, tags,
action records, codes).  Forking dominates valency probing and
exhaustive exploration.  Forks now share processes, channels, the
scheduler and completed operation records, and clone a process,
channel or scheduler only when a twin first writes it
(``World.process``, ``World.channel``, ``World.step``); this module is
the explicit *clone protocol* that copy uses, instead of deepcopy:

* :func:`clone_state_value` — a recursive copier specialised for the
  plain-data state the simulator allows (scalars, strings, tuples,
  lists, dicts, sets, deques).  Immutable values are **shared**, not
  copied; containers are rebuilt eagerly without memoisation (process
  state is tree-shaped by construction — no aliasing, no cycles).
* classes mark themselves share-safe with ``__clone_shared__ = True``
  (immutable records like ``Message``/``Tag``/``ActionRecord``,
  immutable singletons like ``GF2m``, read-only configuration objects
  like ``ReedSolomonCode``);
* anything unrecognised falls back to ``copy.deepcopy`` (or an
  object-level ``clone()`` method when it defines one), so correctness
  never depends on the fast path recognising a type;
* :func:`clone_instance_state` copies an instance's ``__dict__`` in one
  call and sends only the attributes that are neither atomic nor
  share-safe through :func:`clone_state_value` (a process's ids, flags,
  counters and tags are shared as they are).

The equivalence contract — a fast fork and a ``deepcopy`` fork of the
same World are observably identical (equal ``world_digest``) and stay
identical under identical step sequences — is enforced by the property
tests in ``tests/sim/test_fast_fork.py``.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Any

#: Types whose instances are immutable and therefore shared by clones.
_ATOMIC_TYPES = frozenset(
    {type(None), bool, int, float, complex, str, bytes, frozenset, type(Ellipsis)}
)

#: The builtin containers :func:`clone_state_value` rebuilds.
_CONTAINER_TYPES = frozenset({tuple, list, dict, set, deque})


def clone_state_value(value: Any) -> Any:
    """Clone one value of simulator state.

    Shares immutables, rebuilds builtin containers recursively, and
    falls back to an object-level ``clone()`` method or ``deepcopy``
    for anything else.  Assumes the value is tree-shaped (no aliasing
    between mutable containers), which holds for all process/channel/
    record state in this codebase — the property tests guard it.
    """
    cls = value.__class__
    if cls in _ATOMIC_TYPES:
        return value
    if cls is tuple:
        for index, item in enumerate(value):
            cloned = clone_state_value(item)
            if cloned is not item:
                return (
                    value[:index]
                    + (cloned,)
                    + tuple(clone_state_value(rest) for rest in value[index + 1 :])
                )
        return value  # every element immutable: share the tuple itself
    if cls is list:
        return [clone_state_value(item) for item in value]
    if cls is dict:
        return {key: clone_state_value(item) for key, item in value.items()}
    if cls is set:
        return set(value)
    if cls is deque:
        return deque(clone_state_value(item) for item in value)
    if getattr(cls, "__clone_shared__", False):
        return value
    clone = getattr(value, "clone", None)
    if callable(clone):
        return clone()
    return copy.deepcopy(value)


def clone_instance_state(obj: Any) -> Any:
    """Allocate a new instance of ``type(obj)`` with cloned ``__dict__``.

    The default implementation behind ``Process.clone()`` (and any
    other plain-state component): skips ``__init__`` entirely, copies
    ``__dict__`` in one call, and re-clones through
    :func:`clone_state_value` only the attributes that are neither
    atomic nor ``__clone_shared__`` (most of a process's attributes
    are ids, flags and counters, which the copy already shares).
    """
    cls = type(obj)
    duplicate = cls.__new__(cls)
    state = obj.__dict__.copy()
    for key, item in state.items():
        kind = item.__class__
        if kind in _ATOMIC_TYPES:
            continue
        # Builtin containers never carry the marker: skip the (failing,
        # and so slow) attribute lookup for them.
        if kind in _CONTAINER_TYPES or not getattr(kind, "__clone_shared__", False):
            state[key] = clone_state_value(item)
    duplicate.__dict__ = state
    return duplicate
