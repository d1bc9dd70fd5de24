"""Tests for FIFO channels."""

from repro.sim.channel import Channel
from repro.sim.events import Message


class TestChannel:
    def test_fifo_order(self):
        ch = Channel("a", "b")
        for i in range(5):
            ch.enqueue(Message.make("m", i=i))
        assert [ch.dequeue().get("i") for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_peek_nondestructive(self):
        ch = Channel("a", "b")
        ch.enqueue(Message.make("m", i=0))
        assert ch.peek().get("i") == 0
        assert len(ch) == 1

    def test_peek_empty(self):
        assert Channel("a", "b").peek() is None

    def test_bool_and_len(self):
        ch = Channel("a", "b")
        assert not ch
        ch.enqueue(Message.make("m"))
        assert ch
        assert len(ch) == 1

    def test_state_digest_order_sensitive(self):
        ch1 = Channel("a", "b")
        ch2 = Channel("a", "b")
        ch1.enqueue(Message.make("m", i=0))
        ch1.enqueue(Message.make("m", i=1))
        ch2.enqueue(Message.make("m", i=1))
        ch2.enqueue(Message.make("m", i=0))
        assert ch1.state_digest() != ch2.state_digest()

    def test_state_digest_hashable(self):
        ch = Channel("a", "b")
        ch.enqueue(Message.make("m", i=0))
        hash(ch.state_digest())

    def test_keeps_its_key_in_the_index_it_holds(self):
        keys = {("a", "a"), ("z", "z")}
        ch = Channel("a", "b", keys)
        ch.enqueue(Message.make("m", i=0))
        ch.enqueue(Message.make("m", i=1))
        assert keys == {("a", "a"), ("a", "b"), ("z", "z")}
        ch.dequeue()
        assert ("a", "b") in keys
        ch.dequeue_at(0)
        assert keys == {("a", "a"), ("z", "z")}

    def test_clone_holds_the_callers_index(self):
        theirs, mine = set(), set()
        ch = Channel("a", "b", theirs)
        ch.enqueue(Message.make("m", i=0))
        mine.update(theirs)
        duplicate = ch.clone(mine)
        duplicate.dequeue()
        assert mine == set() and theirs == {("a", "b")} and len(ch) == 1
