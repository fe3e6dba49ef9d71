"""Property-based tests: FIFO order and occupancy invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fifo import Fifo


@st.composite
def fifo_scripts(draw):
    """A capacity plus a sequence of push/pop/commit operations."""
    capacity = draw(st.integers(min_value=1, max_value=8))
    ops = draw(
        st.lists(
            st.sampled_from(["push", "pop", "commit"]), min_size=1, max_size=200
        )
    )
    return capacity, ops


@given(fifo_scripts())
@settings(max_examples=200, deadline=None)
def test_fifo_preserves_order_and_bounds(script):
    capacity, ops = script
    fifo = Fifo(capacity, "prop")
    pushed = []
    popped = []
    next_value = 0
    for op in ops:
        if op == "push" and fifo.can_push():
            fifo.push(next_value)
            pushed.append(next_value)
            next_value += 1
        elif op == "pop" and fifo.can_pop():
            popped.append(fifo.pop())
        elif op == "commit":
            fifo.commit()
        # Invariant: occupancy never exceeds capacity.
        assert fifo.occupancy <= capacity
    fifo.commit()
    while fifo.can_pop():
        popped.append(fifo.pop())
    # FIFO order: what came out is a prefix-order copy of what went in.
    assert popped == pushed
