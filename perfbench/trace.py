"""Spans around cuspcal's public functions, recorded from outside the package.

`Tracer.install()` wraps the functions listed by `_targets` in every cuspcal
module namespace that refers to them, so that calls between modules pass
through the wrappers too. Each wrapper records one span (name, start, end,
parent, operation id, round) and, where the layer has one, a count. Spans
stay in memory; `write_jsonl` writes them when the run ends.
`layer_metrics` reduces the spans to the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    round: int
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []
        self.round = -1
        self.op = None

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs, attrs=None, post=None):
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    self.op, self.round, self.clock(), attrs=dict(attrs or {}))
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
            if post is not None:
                result = post(self, span, result)
            return result
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(self, name, fn, attrs=None, post=None):
        """`fn` with a span around each call. `name` and `attrs` may be
        callables of the call arguments."""

        def wrapper(*args, **kwargs):
            n = name(*args, **kwargs) if callable(name) else name
            a = attrs(*args, **kwargs) if callable(attrs) else attrs
            return self.call(n, fn, args, kwargs, a, post)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Patch every target in every loaded cuspcal module."""
        import cuspcal.discrete as discrete
        import cuspcal.linalg as linalg

        targets = _targets()  # imports every module that holds a target
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "cuspcal" or k.startswith("cuspcal.")) and m is not None]
        for owner, attr, name, attrs, post in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, attrs, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)
        # methods: quadrature nodes and the basis constructor of linalg
        spec = linalg.ContourSpec
        quad = spec.quadrature
        self._patches.append((spec, "quadrature", quad))
        spec.quadrature = self.wrap("linalg.quadrature", quad, post=_count_nodes)
        basis = linalg.SubspaceBasis
        from_span = vars(basis)["from_span"]
        self._patches.append((basis, "from_span", from_span))
        basis.from_span = classmethod(self.wrap("linalg.from_span", from_span.__func__))
        # SuperLU: the module object `spla` inside discrete gets a proxy
        self._patches.append((discrete, "spla", discrete.spla))
        discrete.spla = _SplaProxy(self, discrete.spla)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ------------------------------------------------------------------ targets


def _count_nodes(tracer, span, result):
    span.attrs["nodes"] = len(result[0])
    return result


def _count_nfev(tracer, span, result):
    span.attrs["nfev"] = int(result.nfev)
    return result


class _SplaProxy:
    """Stands in for scipy.sparse.linalg inside cuspcal.discrete: splu gets a
    span and returns a SuperLU proxy whose solve gets a span too."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)

    def splu(self, *args, **kwargs):
        tracer = self._tracer

        def post(tr, span, lu):
            span.attrs["nnz"] = int(lu.L.nnz + lu.U.nnz)
            return _SuperLUProxy(tr, lu)

        return tracer.call("discrete.factor", self._module.splu, args, kwargs, post=post)


class _SuperLUProxy:
    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, rhs, *args, **kwargs):
        cols = 1 if getattr(rhs, "ndim", 1) == 1 else int(rhs.shape[1])
        return self._tracer.call("discrete.solve", self._lu.solve, (rhs,) + args,
                                 kwargs, attrs={"columns": cols})


def _geometry_name(prefix):
    def name(opd, *args, **kwargs):
        return prefix + ("_toy" if opd.grid.geometry == "HalfLineToy" else "_strip")
    return name


def _targets():
    """(owner, attribute, span name, attrs, post) for every wrapped function."""
    from cuspcal import cli, discrete, fibre, linalg, symbols

    def cli_discrete_name(cfg, op):
        return "cli.discrete_toy" if op.geometry == "HalfLineToy" else "cli.discrete_strip"

    return [
        (symbols, "calderon_symbol", "symbols.half_plane", None, None),
        (symbols, "complementary_symbol", "symbols.half_plane", None, None),
        (linalg, "riesz_projector", "linalg.riesz", None, None),
        (linalg, "projector_from_pair", "linalg.projector_from_pair", None, None),
        (fibre, "normal_calderon", "fibre.normal_calderon", None, None),
        (fibre, "fundamental_matrix", "fibre.fundamental_matrix", None, None),
        (fibre, "range_solution_residual", "fibre.residual_check", None, None),
        (fibre, "solve_ivp", "fibre.solve_ivp", None, _count_nfev),
        (discrete, "discretize", "discrete.assemble", None, None),
        (discrete, "double_geometry", "discrete.assemble", None, None),
        (discrete, "calderon_path_spaces", _geometry_name("discrete.path_spaces"), None, None),
        (discrete, "calderon_path_jump", "discrete.path_jump", None, None),
        (discrete, "one_sided_trace", "discrete.trace", None, None),
        (cli, "cmd_symbol", "cli.symbol", lambda cfg, op: {"xi": len(cfg.xi)}, None),
        (cli, "cmd_normal", "cli.normal", lambda cfg, op: {"tau": int(cfg.tau_steps)}, None),
        (cli, "cmd_discrete", cli_discrete_name, None, None),
        (cli, "cmd_lab", "cli.lab", None, None),
        (cli, "build_identifier", "cli.build_identifier", None, None),
        (cli, "write_csv", "cli.write", None, None),
        (cli, "write_projector", "cli.write", None, None),
    ]


# --------------------------------------------------------------- reduction


def self_time(span, children):
    """Duration of `span` minus the union of its children's intervals,
    clipped to the span."""
    covered, cursor = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, cursor), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def children_of(spans):
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _per_round(spans, rounds, pick):
    """Median over rounds of the per-round total duration of picked spans."""
    totals = [0.0] * rounds
    for s in spans:
        if 0 <= s.round < rounds and pick(s):
            totals[s.round] += s.duration
    return _median(totals)


def _under(spans, by_id, ancestor_name):
    """Spans that have an ancestor called `ancestor_name`."""
    out = []
    for s in spans:
        p = s.parent
        while p is not None:
            if by_id[p].name == ancestor_name:
                out.append(s)
                break
            p = by_id[p].parent
    return out


def layer_metrics(spans, rounds):
    """Per-layer metrics from the spans of `rounds` complete rounds.

    *_ms metrics are medians per call where the name says so, otherwise the
    median over rounds of the per-round total (see the README table). Count
    metrics come from round 0 alone, so that they repeat exactly for a seed.
    """
    by_id = {s.id: s for s in spans}
    kids = children_of(spans)
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def get(name):
        return named.get(name, [])

    def ms_median(name, value=lambda s: s.duration):
        return 1e3 * _median([value(s) for s in get(name)])

    def ms_round(name):
        return 1e3 * _per_round(spans, rounds, lambda s: s.name == name)

    def ms_failed(error):
        return 1e3 * _per_round(spans, rounds, lambda s: s.name == "op" and s.error == error)

    def count0(name, value=lambda s: 1):
        return int(sum(value(s) for s in get(name) if s.round == 0))

    # Riesz nodes in round 0: evaluated over all doublings, accepted = the
    # last rule of each call that returned a projector.
    evaluated = count0("linalg.quadrature", lambda s: s.attrs["nodes"])
    accepted = 0
    for r in get("linalg.riesz"):
        if r.round == 0 and r.error is None:
            rules = [c for c in kids.get(r.id, []) if c.name == "linalg.quadrature"]
            accepted += rules[-1].attrs["nodes"] if rules else 0

    def per_unit(name, parent, unit_key):
        parents = [p for p in get(parent) if p.round == 0]
        units = sum(p.attrs[unit_key] for p in parents)
        inside = [s for s in _under(get(name), by_id, parent) if s.round == 0]
        return len(inside) / units if units else 0.0

    return {
        "symbols.half_plane_ms": ms_median("symbols.half_plane"),
        "symbols.contour_setup_ms": ms_median(
            "symbols.half_plane", lambda s: self_time(s, kids.get(s.id, []))),
        "symbols.failed_ms": ms_failed("ContourTooClose"),
        "linalg.riesz_ms": ms_median("linalg.riesz"),
        "linalg.riesz_nodes": evaluated,
        "linalg.riesz_node_yield": accepted / evaluated if evaluated else 0.0,
        "linalg.from_span_ms": ms_round("linalg.from_span"),
        "linalg.projector_from_pair_ms": ms_round("linalg.projector_from_pair"),
        "fibre.normal_calderon_ms": ms_median("fibre.normal_calderon"),
        "fibre.fundamental_matrix_ms": ms_round("fibre.fundamental_matrix"),
        "fibre.fundamental_matrix_calls": count0("fibre.fundamental_matrix"),
        "fibre.rhs_evals": count0("fibre.solve_ivp", lambda s: s.attrs.get("nfev", 0)),
        "fibre.residual_check_ms": ms_median("fibre.residual_check"),
        "fibre.failed_ms": ms_failed("SolveFailure"),
        "discrete.assemble_ms": ms_round("discrete.assemble"),
        "discrete.factor_ms": ms_round("discrete.factor"),
        "discrete.solve_ms": ms_round("discrete.solve"),
        "discrete.rhs_columns": count0("discrete.solve", lambda s: s.attrs["columns"]),
        "discrete.lu_nnz": count0("discrete.factor", lambda s: s.attrs.get("nnz", 0)),
        "discrete.trace_ms": ms_round("discrete.trace"),
        "discrete.path_jump_ms": ms_round("discrete.path_jump"),
        "discrete.path_spaces_toy_ms": ms_round("discrete.path_spaces_toy"),
        "cli.symbol_ms": ms_median("cli.symbol"),
        "cli.normal_ms": ms_median("cli.normal"),
        "cli.discrete_toy_ms": ms_median("cli.discrete_toy"),
        "cli.discrete_strip_ms": ms_median("cli.discrete_strip"),
        "cli.lab_ms": ms_median("cli.lab"),
        "cli.build_identifier_calls": count0("cli.build_identifier"),
        "cli.build_identifier_ms": ms_round("cli.build_identifier"),
        "cli.write_ms": ms_round("cli.write"),
        "cli.symbol_projectors": per_unit("symbols.half_plane", "cli.symbol", "xi"),
        "cli.fibre_integrations": per_unit("fibre.fundamental_matrix", "cli.normal", "tau"),
    }


# name -> unit, in the order of BENCHMARK.json
LAYER_UNITS = {
    "symbols.half_plane_ms": "ms",
    "symbols.contour_setup_ms": "ms",
    "symbols.failed_ms": "ms",
    "linalg.riesz_ms": "ms",
    "linalg.riesz_nodes": "count",
    "linalg.riesz_node_yield": "ratio",
    "linalg.from_span_ms": "ms",
    "linalg.projector_from_pair_ms": "ms",
    "fibre.normal_calderon_ms": "ms",
    "fibre.fundamental_matrix_ms": "ms",
    "fibre.fundamental_matrix_calls": "count",
    "fibre.rhs_evals": "count",
    "fibre.residual_check_ms": "ms",
    "fibre.failed_ms": "ms",
    "discrete.assemble_ms": "ms",
    "discrete.factor_ms": "ms",
    "discrete.solve_ms": "ms",
    "discrete.rhs_columns": "count",
    "discrete.lu_nnz": "count",
    "discrete.trace_ms": "ms",
    "discrete.path_jump_ms": "ms",
    "discrete.path_spaces_toy_ms": "ms",
    "cli.symbol_ms": "ms",
    "cli.normal_ms": "ms",
    "cli.discrete_toy_ms": "ms",
    "cli.discrete_strip_ms": "ms",
    "cli.lab_ms": "ms",
    "cli.build_identifier_calls": "count",
    "cli.build_identifier_ms": "ms",
    "cli.write_ms": "ms",
    "cli.symbol_projectors": "count",
    "cli.fibre_integrations": "count",
}
