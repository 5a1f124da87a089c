"""Tests for the StatusTable (the manager's stale view)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import StatusTable

from helpers import ReferenceStatusTable


class TestStatusTable:
    def test_initial_loads_zero(self):
        t = StatusTable([1, 2, 3])
        assert t.loads() == {1: 0.0, 2: 0.0, 3: 0.0}
        assert len(t) == 3
        assert 2 in t and 9 not in t

    def test_record_and_read(self):
        t = StatusTable([1, 2])
        t.record(1, 4.0, time=10.0)
        assert t.load_of(1) == 4.0
        assert t.load_of(2) == 0.0

    def test_stale_update_ignored(self):
        t = StatusTable([1])
        t.record(1, 5.0, time=10.0)
        t.record(1, 2.0, time=8.0)  # older observation arrives late
        assert t.load_of(1) == 5.0

    def test_equal_time_update_applies(self):
        t = StatusTable([1])
        t.record(1, 5.0, time=10.0)
        t.record(1, 2.0, time=10.0)
        assert t.load_of(1) == 2.0

    def test_untracked_resource_rejected(self):
        t = StatusTable([1])
        with pytest.raises(KeyError):
            t.record(9, 1.0, time=0.0)
        with pytest.raises(KeyError):
            t.bump(9)

    def test_record_many_ignores_untracked_ids(self):
        t = StatusTable([1, 2])
        t.record_many({9: 5.0, 2: 3.0, 7: 1.0}, time=4.0)
        assert t.loads() == {1: 0.0, 2: 3.0}
        assert t.staleness_of(2, 10.0) == 6.0
        assert math.isnan(t.staleness_of(1, 10.0))

    def test_record_many_applies_record_semantics(self):
        t = StatusTable([1, 2])
        t.record(1, 5.0, time=10.0)
        t.mark_dead(2)
        t.record_many({1: 2.0, 2: 0.0}, time=8.0)
        assert t.load_of(1) == 5.0  # older observation dropped
        assert not t.is_dead(2)  # fresh news revives
        assert t.least_loaded() == (2, 0.0)

    def test_unchanged_live_record_refreshes_stamp_only(self):
        t = StatusTable([1, 2])
        t.record(1, 0.0, time=3.0)
        assert t.staleness_of(1, 5.0) == 2.0
        assert t.least_loaded() == (1, 0.0)

    def test_revival_with_unchanged_load_rejoins_heap(self):
        t = StatusTable([1, 2])
        t.bump(2, +1.0)
        t.mark_dead(1)
        assert t.least_loaded() == (2, 1.0)  # pops resource 1's entry
        t.record(1, 0.0, time=1.0)  # same load as before the death
        assert t.least_loaded() == (1, 0.0)

    def test_bump_and_floor(self):
        t = StatusTable([1])
        t.bump(1, +1.0)
        t.bump(1, +1.0)
        assert t.load_of(1) == 2.0
        t.bump(1, -5.0)
        assert t.load_of(1) == 0.0  # floored at zero

    def test_least_loaded_picks_minimum(self):
        t = StatusTable([1, 2, 3])
        t.record(1, 3.0, 0.0)
        t.record(2, 1.0, 0.0)
        t.record(3, 2.0, 0.0)
        assert t.least_loaded() == (2, 1.0)

    def test_least_loaded_tie_breaks_lowest_id(self):
        t = StatusTable([5, 2, 8])
        assert t.least_loaded() == (2, 0.0)

    def test_least_loaded_empty(self):
        rid, load = StatusTable([]).least_loaded()
        assert rid is None and math.isinf(load)

    def test_average_and_min(self):
        t = StatusTable([1, 2])
        t.record(1, 4.0, 0.0)
        assert t.average_load() == 2.0
        assert t.min_load() == 0.0

    def test_average_empty_is_nan(self):
        assert math.isnan(StatusTable([]).average_load())


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),       # resource
            st.floats(min_value=0, max_value=100, allow_nan=False),  # load
            st.floats(min_value=0, max_value=1000, allow_nan=False),  # time
        ),
        max_size=50,
    )
)
def test_table_reflects_latest_observation(updates):
    """After any update sequence, each tracked load equals the
    max-timestamp observation for that resource (last-writer-wins with
    out-of-order drops)."""
    t = StatusTable(range(5))
    latest = {}
    for rid, load, time in updates:
        t.record(rid, load, time)
        if rid not in latest or time >= latest[rid][0]:
            latest[rid] = (time, load)
    for rid in range(5):
        expected = latest.get(rid, (None, 0.0))[1]
        assert t.load_of(rid) == expected


# ---------------------------------------------------------------------------
# Exactness oracle: the push-on-every-write reference table
# ---------------------------------------------------------------------------

_TRACKED = (0, 1, 2, 3, 4, 5)
_LOADS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 0, 1])
_RID = st.sampled_from(_TRACKED)

_OPS = st.one_of(
    st.tuples(st.just("record"), _RID, _LOADS, st.floats(0.0, 5.0)),
    st.tuples(st.just("late"), _RID, _LOADS, st.floats(0.5, 50.0)),
    st.tuples(
        st.just("many"),
        st.dictionaries(st.sampled_from(_TRACKED + (7, 9)), _LOADS, max_size=5),
        st.floats(0.0, 5.0),
    ),
    st.tuples(st.just("bump"), _RID, st.sampled_from([-2.0, -1.0, 1.0, 2.0])),
    st.tuples(st.just("dead"), _RID),
    st.tuples(st.just("revive"), _RID),
    st.tuples(st.just("churn"), _RID, st.integers(1, 40)),
)


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _assert_same_view(table, ref, now):
    assert table.least_loaded() == ref.least_loaded()
    assert table.min_load() == ref.min_load()
    assert _same(table.average_load(), ref.average_load())
    assert table.alive_count == ref.alive_count
    assert table.loads() == ref.loads()
    assert _same(table.mean_staleness(now), ref.mean_staleness(now))


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=80))
def test_matches_reference_table(ops):
    """Every view equals the push-always reference after every op:
    skipping the heap push for unchanged live loads never changes an
    answer, across late records, revivals and heap compactions."""
    table = StatusTable(_TRACKED)
    ref = ReferenceStatusTable(_TRACKED)
    clock = 100.0
    for op in ops:
        kind = op[0]
        if kind == "record":
            _, rid, load, dt = op
            clock += dt
            table.record(rid, load, clock)
            ref.record(rid, load, clock)
        elif kind == "late":
            _, rid, load, back = op
            table.record(rid, load, clock - back)
            ref.record(rid, load, clock - back)
        elif kind == "many":
            _, entries, dt = op
            clock += dt
            table.record_many(entries, clock)
            for rid, load in entries.items():
                if rid in ref:
                    ref.record(rid, load, clock)
        elif kind == "bump":
            _, rid, by = op
            table.bump(rid, by)
            ref.bump(rid, by)
        elif kind == "dead":
            table.mark_dead(op[1])
            ref.mark_dead(op[1])
        elif kind == "revive":
            # fresh news at the load the table already holds
            rid = op[1]
            table.record(rid, table.load_of(rid), clock)
            ref.record(rid, ref.load_of(rid), clock)
        else:  # churn: enough pushes to force heap compaction
            _, rid, n = op
            for i in range(n):
                by = 1.0 if i % 2 == 0 else -1.0
                table.bump(rid, by)
                ref.bump(rid, by)
                _assert_same_view(table, ref, clock)
        _assert_same_view(table, ref, clock)


def test_oracle_ops_force_compaction():
    """The churn op really does compact the heap (64-entry floor)."""
    table = StatusTable(_TRACKED)
    for i in range(70):
        table.bump(0, 1.0 if i % 2 == 0 else -1.0)
    assert len(table._heap) <= 64
