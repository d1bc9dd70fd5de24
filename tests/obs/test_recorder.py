"""Observer wiring: metrics from real runs, and the instrumentation-off
guarantee — attaching a SimObserver changes no scheduler decision."""

import pytest

from repro.consistency.history import History
from repro.obs.recorder import SimObserver, estimate_message_bits
from repro.registers.abd import build_abd_system
from repro.registers.cas import build_cas_system
from repro.registers.catalog import ALGORITHM_NAMES, build_client_system
from repro.sim.events import Message
from repro.sim.snapshot import world_digest
from repro.workload.generator import run_random_workload


#: The phase spans each algorithm's clients open (ABD and CAS readers
#: also nest ``read/validate`` under a Byzantine budget).
PHASE_SPANS = {
    "abd": {"write/query", "write/propagate", "read/query", "read/write-back"},
    "swmr-abd": {"write/propagate", "read/query"},
    "coded-swmr": {"write/propagate", "read/query"},
    "cas": {
        "write/query", "write/pre-write", "write/finalize",
        "read/query", "read/collect",
    },
}
PHASE_SPANS["casgc"] = PHASE_SPANS["cas"]


def _observed(handle, num_ops, seed):
    """Attach a fresh observer, run, return it."""
    observer = handle.world.obs = SimObserver()
    run_random_workload(handle, num_ops, seed=seed)
    return observer


class TestEstimateMessageBits:
    def test_kind_and_keys_cost_8_bits_per_char(self):
        # "ack" = 24 bits; no body.
        assert estimate_message_bits(Message.make("ack")) == 24

    def test_ints_cost_bit_length_min_one(self):
        base = estimate_message_bits(Message.make("m"))
        with_zero = estimate_message_bits(Message.make("m", v=0))
        with_big = estimate_message_bits(Message.make("m", v=255))
        assert with_zero == base + 8 + 1  # key "v" + 1 bit minimum
        assert with_big == base + 8 + 8

    def test_none_is_free_and_monotone_in_payload(self):
        none_msg = estimate_message_bits(Message.make("m", v=None))
        small = estimate_message_bits(Message.make("m", v="ab"))
        large = estimate_message_bits(Message.make("m", v="abcd"))
        assert none_msg < small < large

    def test_sequences_cost_per_item(self):
        one = estimate_message_bits(Message.make("m", v=(7,)))
        two = estimate_message_bits(Message.make("m", v=(7, 7)))
        assert two == one + 3  # one extra 3-bit int


class TestObserverOff:
    def test_world_default_observer_is_none(self):
        handle = build_abd_system(n=5, f=2, value_bits=8)
        assert handle.world.obs is None
        forked = handle.world.fork()
        assert forked.obs is None


class TestWiring:
    def test_counters_series_and_spans_from_a_real_run(self, small_cas):
        observer = _observed(small_cas, num_ops=8, seed=3)
        reg = observer.registry

        sent = reg.counter("sim.messages_sent").value
        assert sent > 0
        assert reg.counter("sim.message_bits_sent").value > 0
        assert reg.histogram("sim.message_bits").count == sent
        assert reg.counter("sim.actions.deliver").value > 0
        assert (
            reg.counter("ops.invoked.write").value
            + reg.counter("ops.invoked.read").value
            == 8
        )
        # every invoked op completed, so every op span is closed
        assert not observer.spans.open_spans()
        assert not observer.spans.unmatched_ends

        storage = reg.series.get("storage.total_bits")
        assert storage is not None
        assert storage.max_value() > 0
        assert storage.steps() == sorted(storage.steps())

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_phase_spans(self, algorithm):
        handle = build_client_system(algorithm, 5, 1, 12)
        spans = _observed(handle, num_ops=20, seed=3).spans
        assert not spans.open_spans()
        assert not spans.unmatched_ends
        names = {span.name for span in spans.spans}
        assert names == {"op/write", "op/read"} | PHASE_SPANS[algorithm]

    def test_op_latency_matches_trace(self, small_abd):
        observer = _observed(small_abd, num_ops=6, seed=1)
        hist_total = sum(
            observer.registry.histogram(f"ops.latency_steps.{kind}").total
            for kind in ("write", "read")
        )
        trace_total = sum(
            op.response_step - op.invoke_step
            for op in History.from_world(small_abd.world).completed()
        )
        assert hist_total == trace_total


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_observer_changes_no_scheduler_decision(self, seed):
        instrumented = build_cas_system(n=5, f=1, value_bits=12)
        plain = build_cas_system(n=5, f=1, value_bits=12)

        _observed(instrumented, num_ops=10, seed=seed)
        run_random_workload(plain, 10, seed=seed)

        assert world_digest(instrumented.world) == world_digest(plain.world)

    def test_same_seed_same_snapshot(self):
        snaps = []
        for _ in range(2):
            handle = build_abd_system(n=5, f=2, value_bits=8)
            snaps.append(_observed(handle, num_ops=10, seed=4).registry.snapshot())
        assert snaps[0] == snaps[1]
