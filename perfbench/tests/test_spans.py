"""Self-time arithmetic and wrapper bookkeeping of the span recorder."""

import math

import pytest

from spans import WRAPPED_MARK, SpanRecorder, self_times


def test_self_time_of_a_synthetic_tree():
    #   a [0, 10]
    #   ├── b [1, 4]
    #   │   └── c [2, 3]
    #   └── b [5, 9]
    #       ├── c [5, 6]
    #       └── d [7, 8.5]
    names = ["a", "b", "c", "d"]
    name_id = [0, 1, 2, 1, 2, 3]
    parent = [-1, 0, 1, 0, 3, 3]
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5]
    own = self_times(names, name_id, parent, start, end)
    assert own["a"] == pytest.approx(10 - 3 - 4)
    assert own["b"] == pytest.approx((3 - 1) + (4 - 1 - 1.5))
    assert own["c"] == pytest.approx(1 + 1)
    assert own["d"] == pytest.approx(1.5)
    # self times partition the roots' time exactly
    assert math.fsum(own.values()) == pytest.approx(10.0)


def test_recorded_spans_nest_and_restore():
    class Box:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            if x < 0:
                raise ValueError("negative")
            return x * 2

    original_outer, original_inner = Box.__dict__["outer"], Box.__dict__["inner"]
    rec = SpanRecorder()
    rec.wrap(Box, "outer", "outer")
    rec.wrap(Box, "inner", "inner")
    box = Box()
    assert box.outer(3) == 7
    with pytest.raises(ValueError):
        box.outer(-1)
    assert box.outer(1) == 3
    assert rec.spans("outer") == 3 and rec.spans("inner") == 3
    # every inner span's parent is the outer span recorded just before it
    for i, nid in enumerate(rec.name_id):
        if rec.names[nid] == "inner":
            assert rec.names[rec.name_id[rec.parent[i]]] == "outer"
        else:
            assert rec.parent[i] == -1
    assert not rec._stack
    assert getattr(Box.__dict__["outer"], WRAPPED_MARK, False)
    rec.restore()
    assert Box.__dict__["outer"] is original_outer
    assert Box.__dict__["inner"] is original_inner


def test_counting_wrapper_counts_calls():
    class Table:
        def record(self, x):
            return x

    rec = SpanRecorder()
    rec.wrap(Table, "record", "records", span=False)
    t = Table()
    for i in range(5):
        t.record(i)
    rec.restore()
    t.record(0)
    assert rec.counts["records"] == 5
    assert len(rec.start) == 0
