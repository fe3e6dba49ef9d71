"""Two-phase FIFO semantics."""

import pytest

from repro.errors import ProtocolError
from repro.sim.fifo import Fifo, drain


def test_push_not_visible_until_commit():
    fifo = Fifo(4, "t")
    fifo.push(1)
    assert not fifo.can_pop()
    fifo.commit()
    assert fifo.can_pop()
    assert fifo.pop() == 1


def test_fifo_order_preserved():
    fifo = Fifo(8, "t")
    for item in (1, 2, 3):
        fifo.push(item)
    fifo.commit()
    assert drain(fifo) == [1, 2, 3]


def test_capacity_includes_staged():
    fifo = Fifo(2, "t")
    fifo.push(1)
    fifo.push(2)
    assert not fifo.can_push()
    with pytest.raises(ProtocolError):
        fifo.push(3)


def test_pop_frees_space_within_cycle():
    """Fall-through full side: a pop's slot is reusable immediately,
    but the new entry still only becomes visible after commit."""
    fifo = Fifo(1, "t")
    fifo.push("a")
    fifo.commit()
    assert fifo.pop() == "a"
    assert fifo.can_push()
    fifo.push("b")
    assert not fifo.can_pop()
    fifo.commit()
    assert fifo.pop() == "b"


def test_peek_does_not_consume():
    fifo = Fifo(2, "t")
    fifo.push(7)
    fifo.commit()
    assert fifo.peek() == 7
    assert fifo.pop() == 7


def test_peek_empty_raises():
    with pytest.raises(ProtocolError):
        Fifo(2, "t").peek()


def test_pop_empty_raises():
    with pytest.raises(ProtocolError):
        Fifo(2, "t").pop()


def test_unbounded_fifo():
    fifo = Fifo(None, "t")
    for i in range(10_000):
        fifo.push(i)
    assert fifo.can_push(1_000_000)


def test_capacity_validation():
    with pytest.raises(ValueError):
        Fifo(0, "t")


def test_occupancy_and_len():
    fifo = Fifo(4, "t")
    fifo.push(1)
    assert len(fifo) == 0  # committed only
    assert fifo.occupancy == 1  # committed + staged
    fifo.commit()
    assert len(fifo) == 1


def test_counters_and_max_occupancy():
    fifo = Fifo(4, "t")
    for item in (1, 2, 3):
        fifo.push(item)
    fifo.commit()
    fifo.pop()
    assert fifo.total_pushed == 3
    assert fifo.total_popped == 1
    assert fifo.max_occupancy == 3


def test_is_empty_accounts_staged():
    fifo = Fifo(4, "t")
    assert fifo.is_empty
    fifo.push(1)
    assert not fifo.is_empty


def test_ops_counter_is_per_instance():
    """Activity tracking must not leak across FIFOs (it used to be a
    class-level counter, which let two live simulators mask each
    other's idle detection)."""
    assert not hasattr(Fifo, "global_ops")
    a = Fifo(4, "a")
    b = Fifo(4, "b")
    a.push(1)
    a.commit()
    a.pop()
    assert a._ops[0] == 2
    assert b._ops[0] == 0


def test_max_occupancy_samples_staged_pushes():
    """A staged-only spike (pushed then drained before any commit
    merges it) must still register in max_occupancy."""
    fifo = Fifo(8, "t")
    fifo.push(1)
    fifo.commit()
    for item in (2, 3, 4):  # occupancy peaks at 1 committed + 3 staged
        fifo.push(item)
    fifo.pop()
    fifo.commit()
    drain(fifo)
    fifo.commit()
    assert fifo.max_occupancy == 4
