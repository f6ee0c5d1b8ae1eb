"""Span arithmetic of the traced run: self time, per-round totals, counts."""

import pytest

from perfbench.trace import LAYER_UNITS, Span, Tracer, layer_metrics, self_time


def span(i, name, start, end, parent=None, rnd=0, error=None, **attrs):
    return Span(i, name, parent, 0, rnd, start, end, error, attrs)


class TestSelfTime:
    def test_no_children(self):
        assert self_time(span(0, "a", 1.0, 4.0), []) == pytest.approx(3.0)

    def test_disjoint_children(self):
        parent = span(0, "a", 0.0, 10.0)
        kids = [span(1, "b", 1.0, 3.0, 0), span(2, "b", 5.0, 6.0, 0)]
        assert self_time(parent, kids) == pytest.approx(7.0)

    def test_overlapping_children_count_once(self):
        parent = span(0, "a", 0.0, 10.0)
        kids = [span(1, "b", 1.0, 5.0, 0), span(2, "b", 4.0, 6.0, 0)]
        assert self_time(parent, kids) == pytest.approx(5.0)

    def test_child_outside_parent_is_clipped(self):
        parent = span(0, "a", 2.0, 6.0)
        kids = [span(1, "b", 1.0, 3.0, 0), span(2, "b", 5.5, 9.0, 0)]
        assert self_time(parent, kids) == pytest.approx(2.5)

    def test_nested_child_inside_child(self):
        parent = span(0, "a", 0.0, 10.0)
        kids = [span(1, "b", 2.0, 8.0, 0), span(2, "b", 3.0, 4.0, 0)]
        assert self_time(parent, kids) == pytest.approx(4.0)


class TestTracerRecording:
    def test_parent_links_and_errors(self):
        ticks = iter(range(100))
        tr = Tracer(clock=lambda: float(next(ticks)))

        def inner():
            raise ValueError("boom")

        def outer():
            with pytest.raises(ValueError):
                tr.call("inner", inner, (), {})
            return 7

        assert tr.call("outer", outer, (), {}) == 7
        outer_span, inner_span = tr.spans
        assert inner_span.parent == outer_span.id
        assert inner_span.error == "ValueError"
        assert outer_span.error is None
        assert outer_span.start < inner_span.start < inner_span.end < outer_span.end

    def test_wrap_names_from_arguments(self):
        tr = Tracer()
        f = tr.wrap(lambda x: f"f{x}", lambda x: x * 2, attrs=lambda x: {"x": x})
        assert f(3) == 6
        assert tr.spans[0].name == "f3" and tr.spans[0].attrs == {"x": 3}


class TestLayerMetrics:
    def test_every_metric_reported(self):
        assert set(layer_metrics([], 1)) == set(LAYER_UNITS)

    def test_contour_setup_is_self_time_outside_riesz(self):
        spans = [
            span(0, "symbols.half_plane", 0.0, 0.010),
            span(1, "linalg.riesz", 0.002, 0.009, 0),
            span(2, "symbols.half_plane", 0.020, 0.024),
            span(3, "linalg.riesz", 0.021, 0.023, 2),
        ]
        m = layer_metrics(spans, 1)
        assert m["symbols.contour_setup_ms"] == pytest.approx(2.5)  # median of 3 and 2
        assert m["symbols.half_plane_ms"] == pytest.approx(7.0)
        assert m["linalg.riesz_ms"] == pytest.approx(4.5)

    def test_node_yield_counts_round_zero(self):
        spans = [
            span(0, "linalg.riesz", 0.0, 1.0),
            span(1, "linalg.quadrature", 0.1, 0.2, 0, nodes=32),
            span(2, "linalg.quadrature", 0.3, 0.4, 0, nodes=64),
            span(3, "linalg.riesz", 2.0, 3.0, error="ContourTooClose"),
            span(4, "linalg.quadrature", 2.1, 2.2, 3, nodes=32),
            span(5, "linalg.riesz", 4.0, 5.0, rnd=1),
            span(6, "linalg.quadrature", 4.1, 4.2, 5, rnd=1, nodes=4096),
        ]
        m = layer_metrics(spans, 2)
        assert m["linalg.riesz_nodes"] == 128
        assert m["linalg.riesz_node_yield"] == pytest.approx(64 / 128)

    def test_per_round_totals_take_the_median_round(self):
        spans = [span(i, "discrete.factor", 0.0, d, rnd=r, nnz=10)
                 for i, (r, d) in enumerate([(0, 0.1), (0, 0.2), (1, 0.5), (2, 0.4)])]
        m = layer_metrics(spans, 3)
        assert m["discrete.factor_ms"] == pytest.approx(400.0)  # rounds 300, 500, 400
        assert m["discrete.lu_nnz"] == 20

    def test_failed_time_sums_failed_operations(self):
        spans = [span(0, "op", 0.0, 0.3, error="ContourTooClose"),
                 span(1, "op", 0.3, 0.4),
                 span(2, "op", 1.0, 1.5, rnd=1, error="ContourTooClose")]
        m = layer_metrics(spans, 2)
        assert m["symbols.failed_ms"] == pytest.approx(400.0)  # median of 300 and 500
        assert m["fibre.failed_ms"] == 0.0

    def test_per_unit_counts_descendants(self):
        spans = [
            span(0, "cli.symbol", 0.0, 1.0, xi=2),
            span(1, "symbols.half_plane", 0.1, 0.2, 0),
            span(2, "symbols.dn", 0.3, 0.8, 0),
            span(3, "symbols.half_plane", 0.4, 0.5, 2),
            span(4, "symbols.half_plane", 0.6, 0.7, 2),
            span(5, "symbols.half_plane", 0.85, 0.95, 0),
            span(6, "symbols.half_plane", 2.0, 2.1),  # outside the command
        ]
        m = layer_metrics(spans, 1)
        assert m["cli.symbol_projectors"] == pytest.approx(2.0)
