"""Replay determinism of the simulation kernel on random programs.

Hypothesis generates random kernel programs (schedule / schedule_at /
cancel / run / step / pop_until / peek, including reentrant scheduling
from inside handlers) and runs each twice on fresh kernels, asserting
identical observable traces: the executed event stream, the clock,
``events_executed`` and ``pending`` after every operation.  That rules
out hidden global state inside the kernel.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import SimulationError, Simulator


# Delays are drawn from a small pool so same-timestamp ties are common —
# tie-breaking is exactly where an ordering bug would hide.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5])

_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("schedule_spawner"), _DELAYS, _DELAYS),
    st.tuples(st.just("schedule_at"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("run_budget"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("run_all")),
    st.tuples(st.just("step")),
    st.tuples(st.just("pop"), st.one_of(st.none(), _DELAYS)),
    st.tuples(st.just("peek")),
)

PROGRAMS = st.lists(_OP, min_size=1, max_size=40)


def run_program(program) -> list:
    """Execute ``program`` on a fresh kernel; return its observable trace."""
    sim = Simulator()
    trace: list = []
    handles: list = []
    tag_counter = [0]

    def fire(tag):
        trace.append(("fire", sim.now, tag))

    def spawn(tag, child_delay):
        # reentrant: a handler scheduling more work mid-run
        trace.append(("spawn", sim.now, tag))
        tag_counter[0] += 1
        handles.append(sim.schedule(child_delay, fire, tag_counter[0]))

    for op in program:
        kind = op[0]
        try:
            if kind == "schedule":
                tag_counter[0] += 1
                handles.append(sim.schedule(op[1], fire, tag_counter[0]))
            elif kind == "schedule_spawner":
                tag_counter[0] += 1
                handles.append(sim.schedule(op[1], spawn, tag_counter[0], op[2]))
            elif kind == "schedule_at":
                tag_counter[0] += 1
                handles.append(sim.schedule_at(sim.now + op[1], fire, tag_counter[0]))
            elif kind == "cancel":
                if handles:
                    sim.cancel(handles[op[1] % len(handles)])
            elif kind == "run_until":
                sim.run(until=sim.now + op[1])
            elif kind == "run_budget":
                sim.run(max_events=op[1])
            elif kind == "run_all":
                sim.run()
            elif kind == "step":
                trace.append(("step", sim.step()))
            elif kind == "pop":
                limit = None if op[1] is None else sim.now + op[1]
                popped = sim.pop_until(limit)
                trace.append(
                    ("pop", None if popped is None else (popped[0], popped[2]))
                )
            elif kind == "peek":
                trace.append(("peek", sim.peek_time()))
        except SimulationError as exc:
            trace.append(("error", kind, type(exc).__name__))
        trace.append(("state", sim.now, sim.events_executed, sim.pending))
    # drain whatever is left so the full event stream is compared
    sim.run()
    trace.append(("final", sim.now, sim.events_executed, sim.pending))
    return trace


@settings(max_examples=20, deadline=None)
@given(program=PROGRAMS)
def test_replay_is_deterministic(program):
    assert run_program(program) == run_program(program)
