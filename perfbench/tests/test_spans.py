import pytest

from perfbench.spans import Span, Tracer, layer_breakdown, self_times, union_length


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span(1, "run", 0.0, 10.0),
        Span(2, "service.request", 1.0, 6.0, parent=1),
        Span(3, "extract", 1.5, 2.5, parent=2),
        Span(4, "solve", 2.0, 4.0, parent=2),  # overlaps its sibling
        Span(5, "execute", 5.5, 7.0, parent=2),  # runs past its parent
        Span(6, "serving.submit", 0.0, 9.0, parent=1, nested=False),
    ]
    selfs = self_times(spans)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(5.0 - 2.5 - 0.5)
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert 6 not in selfs  # overlapping async spans are outside the tree
    # Siblings that overlap (0.5 s) and a child that overruns its parent
    # (1.0 s) are the only ways self times can exceed the root.
    assert sum(selfs.values()) == pytest.approx(10.0 + 0.5 + 1.0)


def test_self_times_add_up_to_the_root_when_children_nest():
    spans = [
        Span(1, "run", 0.0, 8.0),
        Span(2, "service.request_many", 1.0, 5.0, parent=1),
        Span(3, "scheduler.map", 1.0, 3.0, parent=2),
        Span(4, "solve_many", 1.5, 2.5, parent=3),
        Span(5, "solve", 1.6, 2.0, parent=4),
        Span(6, "solve", 2.0, 2.4, parent=4),
        Span(7, "service.request_many", 6.0, 7.0, parent=1),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)
    layers = layer_breakdown(spans)
    assert layers["solve"]["calls"] == 1  # solve re-entered inside solve_many
    assert layers["solve"]["busy_s"] == pytest.approx(1.0)
    assert layers["solve"]["self_s"] == pytest.approx(1.0)
    assert layers["service"]["calls"] == 2
    assert layers["service"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert layers["outside"]["self_s"] == pytest.approx(3.0)


def test_tracer_nests_spans_and_inherits_request_ids():
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    tracer = Tracer(clock)
    root = tracer.open_root()
    tracer.set_rid(7)
    outer = tracer.begin("service.request")
    inner = tracer.begin("extract")
    tracer.finish(inner)
    tracer.finish(outer)
    async_span = tracer.begin("serving.submit", rid=9, nested=False)
    tracer.finish(async_span)
    tracer.close_root()
    assert outer.parent == root.id and inner.parent == outer.id
    assert outer.rid == inner.rid == 7
    assert async_span.parent == root.id and async_span.rid == 9
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.duration)
