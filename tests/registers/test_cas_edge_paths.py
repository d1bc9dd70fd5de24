"""Hand-scheduled tests for CAS's rarer protocol paths.

These paths need precise message timing that fair/random schedules
rarely produce: the garbage-collection retry (a reader chasing a tag
that servers pruned meanwhile), the pending-reader forwarding (a
reader asking for a finalized tag whose coded element has not yet
arrived at a server) and a pre-write that reaches a server after
garbage collection pruned its tag.
"""

from repro.registers.cas import build_cas_system
from repro.registers.casgc import build_casgc_system
from repro.sim.scheduler import ChannelFilter


class TestGCRetryPath:
    def test_reader_retries_after_gc_and_returns_newer_value(self):
        handle = build_casgc_system(n=5, f=1, value_bits=12, gc_depth=0)
        w = handle.world
        reader = handle.reader_ids[0]
        servers = handle.server_ids

        handle.write(100)
        handle.write(200)
        w.deliver_all()

        # Reader queries and commits to the current max finalized tag...
        read_op = w.invoke_read(reader)
        for sid in servers:
            w.deliver(reader, sid)      # qf
        for sid in servers[:4]:          # quorum of qf-acks
            w.deliver(sid, reader)
        reader_proc = w.process(reader)
        assert reader_proc.phase == 2    # read-fin(tag of 200) now queued

        # ...but two more writes complete (with the reader's stalled
        # read-fin messages held back) and GC prunes that tag.
        handle.write(300, channel_filter=_not_from(reader))
        handle.write(400, channel_filter=_not_from(reader))
        w.deliver_all(_not_from(reader))
        for sid in servers:
            assert w.process(sid).gc_floor is not None

        # Delivering the stale read-fin now triggers read-gc and a retry.
        w.run_op_to_completion(read_op)
        assert read_op.value == 400
        assert reader_proc.retries >= 1

    def test_retry_counter_resets_between_reads(self):
        handle = build_casgc_system(n=5, f=1, value_bits=12, gc_depth=0)
        handle.write(5)
        handle.read()
        reader = handle.world.process(handle.reader_ids[0])
        handle.read()
        assert reader.retries == 0


class TestPendingReaderPath:
    def test_element_forwarded_when_pre_arrives_late(self):
        handle = build_cas_system(n=5, f=1, value_bits=12)
        w = handle.world
        writer = handle.writer_ids[0]
        reader = handle.reader_ids[0]
        servers = handle.server_ids
        straggler = servers[4]

        handle.write(111)
        w.deliver_all()

        # Write 222: pre and fin reach servers 0..3; the straggler's
        # copies sit undelivered in its FIFO channel from the writer.
        write_op = w.invoke_write(writer, 222)
        for sid in servers:
            w.deliver(writer, sid)       # qf
        for sid in servers:
            w.deliver(sid, writer)       # qf-acks -> pre sent to all
        for sid in servers[:4]:
            w.deliver(writer, sid)       # pre to quorum only
        for sid in servers[:4]:
            w.deliver(sid, writer)       # pre-acks -> fin sent to all
        for sid in servers[:4]:
            w.deliver(writer, sid)       # fin to the quorum
        straggler_proc = w.process(straggler)
        assert (2, writer) not in straggler_proc.store

        # The reader learns tag (2, writer) from the quorum and asks the
        # straggler too, which knows nothing about it yet: parked.
        read_op = w.invoke_read(reader)
        for sid in servers:
            w.deliver(reader, sid)
        for sid in servers[1:]:          # qf quorum includes the straggler
            w.deliver(sid, reader)
        w.deliver(reader, straggler)     # read-fin at the straggler
        assert straggler_proc.pending_readers  # parked, no element yet

        # The late pre arrives; the straggler forwards the element.
        w.deliver(writer, straggler)
        assert not straggler_proc.pending_readers
        assert straggler_proc.store[(2, writer)][0] is not None

        w.run_op_to_completion(read_op)
        w.run_op_to_completion(write_op)
        assert read_op.value == 222


class TestLatePreWrite:
    def test_pre_write_of_a_collected_tag_is_acked_not_stored(self):
        handle = build_casgc_system(
            n=5, f=1, value_bits=12, gc_depth=0, num_writers=2
        )
        w = handle.world
        first, second = handle.writer_ids
        straggler = handle.server_ids[4]
        hold = ChannelFilter(
            lambda s, d: (s, d) != (first, straggler), "hold-first-to-straggler"
        )

        # The first write completes without the straggler; two more by
        # the second writer finalize (3, second) everywhere, so the
        # straggler (gc_depth=0) collects every tag up to (2, second).
        handle.write(100, writer=first, channel_filter=hold)
        handle.write(200, writer=second, channel_filter=hold)
        handle.write(300, writer=second, channel_filter=hold)
        w.deliver_all(hold)
        straggler_proc = w.process(straggler)
        assert straggler_proc.gc_floor == (2, second)

        # The held qf, then the pre of the collected tag (1, first).
        w.deliver(first, straggler)
        w.deliver(first, straggler)
        assert sorted(straggler_proc.store) == [(3, second)]
        assert straggler_proc.stored_version_count() == 1
        replies = w.channel(straggler, first).state_digest()
        assert [kind for kind, _ in replies] == ["qf-ack", "pre-ack"]


def _not_from(pid):
    return ChannelFilter(lambda s, d: s != pid, f"not-from({pid})")
