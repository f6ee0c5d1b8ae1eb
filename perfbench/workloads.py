"""The four benchmark workloads and the closed loop that times them.

A workload is a `Plan`: a fixed list of operations (one round) plus the
checks on their outputs. The loop runs whole rounds with one caller until
the next round would pass the run length, so every run attempts the same
operations and fails the same share of them. Only the operations are
timed; the checks run between rounds.

Program calls go through module attributes (`symbols.calderon_symbol`, not
an imported name) so that the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cuspcal import cli, discrete, errors, fibre, symbols

from . import inputs, refs
from .trace import LAYER_UNITS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], dict]  # raises CheckFailed; returns figures
    fault: type | None = None  # the exception a named fault raises today


@dataclass
class Plan:
    ops: list
    round_check: Callable[[dict], None] = lambda figures: None
    cleanup: Callable[[], None] = lambda: None


# ------------------------------------------------------------ symbol_sweep


def symbol_sweep(seed):
    """C+ and C- of 96 seeded elliptic matrix symbols, plus the three
    near-axis symbols that fail today with ContourTooClose."""
    ops = []
    for case in inputs.symbol_cases(seed) + inputs.near_axis_cases():
        ref = {}

        def call(case=case):
            return (symbols.calderon_symbol(case.symbol, case.xi),
                    symbols.complementary_symbol(case.symbol, case.xi))

        def check(result, case=case, ref=ref):
            if not ref:
                a = refs.companion(refs.tau_coefficients(case))
                ref["up"], ref["low"], ref["n_up"] = refs.half_plane_projectors(a)
                expect(ref["n_up"] == case.upper_roots,
                       f"{case.label}: eig finds {ref['n_up']} upper roots, "
                       f"construction {case.upper_roots}")
            cp, cm = result
            for name, proj, want in (("C+", cp.matrix, ref["up"]), ("C-", cm.matrix, ref["low"])):
                err = refs.rel_err(proj, want)
                expect(err <= 1e-9, f"{case.label}: {name} differs from eig projector by {err:.2e}")
                expect(refs.idempotence(proj) <= 1e-10, f"{case.label}: {name} not idempotent")
            tr = np.trace(cp.matrix)
            expect(abs(tr - ref["n_up"]) <= 1e-8,
                   f"{case.label}: trace C+ = {tr:.6g}, upper eigenvalues {ref['n_up']}")
            return {}

        fault = errors.ContourTooClose if case.label.startswith("near-axis") else None
        ops.append(Op(case.label, call, check, fault))
    # warm-up: one small projector pair
    ops[0].call()
    return Plan(ops)


# ------------------------------------------------------------ normal_sweep

LAPLACE_TAUS = 12  # one seeded tau in each unit interval of [0, 12]
SYSTEM_TAUS = 8  # one seeded tau in each of 8 equal parts of [0, 6]
FAULT_TAUS = (13.0, 14.0, 15.0, 15.9)  # inside MU_CAP, false SolveFailure today


def normal_sweep(seed):
    rng = np.random.default_rng([seed, 3])
    lap = inputs.strip_laplacian()
    sys_case = inputs.system_fibre_case(seed)
    ext = fibre.FibreExtension.with_default_bump(1.0)
    ops = []

    def lap_check(tau):
        bplus = refs.laplace_bplus(tau)

        def check(proj):
            c = proj.matrix
            err = refs.fixes(c, bplus)
            expect(err <= 1e-8, f"laplace tau={tau:.4g}: C moves closed-form B+ by {err:.2e}")
            expect(refs.idempotence(c) <= 1e-8, f"laplace tau={tau:.4g}: not idempotent")
            expect(abs(np.trace(c) - 2.0) <= 1e-8, f"laplace tau={tau:.4g}: trace != mN = 2")
            return {}
        return check

    def sys_check(tau):
        ref = {}

        def coeff(b, z):
            c0, c1 = sys_case.coeffs[b]
            return c0 + c1 * z

        def check(proj):
            if not ref:
                ref["bp"], ref["bm"] = refs.fibre_data_spaces(coeff, tau)
            c = proj.matrix
            fix, ann = refs.fixes(c, ref["bp"]), refs.annihilates(c, ref["bm"])
            expect(fix <= 1e-9 and ann <= 1e-9,
                   f"system tau={tau:.4g}: |C B+ - B+| {fix:.2e}, |C B-| {ann:.2e}")
            expect(refs.idempotence(c) <= 1e-8, f"system tau={tau:.4g}: not idempotent")
            expect(abs(np.trace(c) - 4.0) <= 1e-8, f"system tau={tau:.4g}: trace != mN = 4")
            return {}
        return check

    def call(op, tau):
        return lambda: fibre.normal_calderon(op, (tau,), ext)

    for tau in inputs.stratified(rng, 0.0, 12.0, LAPLACE_TAUS):
        ops.append(Op(f"laplace tau={tau:.4f}", call(lap, tau), lap_check(tau)))
    for tau in inputs.stratified(rng, 0.0, 6.0, SYSTEM_TAUS):
        ops.append(Op(f"system tau={tau:.4f}", call(sys_case.op, tau), sys_check(tau)))
    for tau in FAULT_TAUS:
        ops.append(Op(f"laplace tau={tau:g}", call(lap, tau), lap_check(tau),
                      errors.SolveFailure))
    fibre.normal_calderon(lap, (0.5,), ext)  # warm-up
    return Plan(ops)


# ---------------------------------------------------------- strip_discrete

STRIP_GRIDS = (48, 80, 128)  # odd count: the median op is a middle-grid op
STRIP_S = 6.0
PROBE_K = 13  # xi = 13 pi / 5, about 8.2: the frozen-symbol error then shrinks with n
PROBE_CENTER, PROBE_WIDTH = 1.0 + 0.75 * (STRIP_S - 1.0), 1.0


def strip_discrete(seed):
    """Assembly plus path-A projector on the doubled strip, for the Laplacian
    and for (x^2 D_x)^2 + (1 + c x) D_z^2 with a seeded c."""
    rng = np.random.default_rng([seed, 4])
    slope = float(rng.uniform(0.3, 0.7))
    ext = fibre.FibreExtension.with_default_bump(1.0)
    operators = {"laplace": inputs.strip_laplacian(),
                 "xdep": inputs.strip_laplacian(ds2={0: 1.0, 1: slope})}

    def call(op, n):
        def run():
            grid = discrete.PhiGrid("StripHyperbolic", S=STRIP_S, ns=n, L=1.0, nz=n)
            dop = discrete.double_geometry(grid, discrete.discretize(op, grid), bump=ext.bump)
            return discrete.calderon_path_spaces(dop)
        return run

    def check(kind, n):
        def run(path):
            c = path.projector.matrix
            s = np.asarray(path.layout["s_interior"])
            expect(s.size == n - 1, f"{kind} n={n}: {s.size} interior nodes")
            expect(refs.idempotence(c) <= 1e-9, f"{kind} n={n}: not idempotent")
            expect(abs(np.trace(c) - 2 * (n - 1)) <= 1e-6,
                   f"{kind} n={n}: trace {np.trace(c).real:.6g} != dim B+ = {2 * (n - 1)}")
            if kind == "laplace":
                worst = 0.0
                for k in (1, 2, 3):
                    for d in refs.strip_cauchy_data(s, STRIP_S, k):
                        worst = max(worst, float(np.linalg.norm(c @ d - d) / np.linalg.norm(d)))
                # second order: 1.1e-3 at n = 48 for k = 3
                bound = 2.5e-3 * (STRIP_GRIDS[0] / n) ** 2
                expect(worst <= bound, f"laplace n={n}: Cauchy data residual "
                                       f"{worst:.2e} > {bound:.2e}")
                return {"residual": worst}
            a0 = 1.0 + slope / PROBE_CENTER
            err = refs.frozen_probe_error(c, s, STRIP_S, PROBE_K, a0, PROBE_CENTER, PROBE_WIDTH)
            return {"probe": err}
        return run

    ops = []
    for n in STRIP_GRIDS:
        for kind, op in operators.items():
            ops.append(Op(f"{kind} n={n}", call(op, n), check(kind, n)))

    def round_check(figures):
        for kind, key in (("laplace", "residual"), ("xdep", "probe")):
            seq = [figures[f"{kind} n={n}"][key] for n in STRIP_GRIDS]
            expect(all(a > b for a, b in zip(seq, seq[1:])),
                   f"{kind}: {key} does not shrink under refinement: "
                   + ", ".join(f"{v:.2e}" for v in seq))
        probe = [figures[f"xdep n={n}"]["probe"] for n in STRIP_GRIDS]
        expect(probe[-1] <= 0.5 * probe[0], "xdep: probe error not halved from coarsest to finest")

    call(operators["xdep"], 16)()  # warm-up
    return Plan(ops, round_check)


# ------------------------------------------------------------- cli_configs


def cli_configs(seed):
    """cuspcal.cli.main in-process on the shipped configs."""
    rng = np.random.default_rng([seed, 5])
    configs = ROOT / "configs"
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.TemporaryDirectory(dir=OUT, prefix="cli-")
    work = Path(tmp.name)
    strip_cfg, toy_cfg = configs / "strip_laplacian.json", configs / "halfline_toy.json"
    xis = [math.exp(v) for v in inputs.stratified(rng, math.log(0.25), math.log(4.0), 6)]
    tau_min, tau_max = float(rng.uniform(0.1, 0.5)), float(rng.uniform(3.5, 4.0))
    tau_steps = 6
    lab_seed = int(rng.integers(0, 2**31))

    def run(name, argv):
        out = work / name

        def call():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv + ["--out", str(out)]), out
        return call

    def check_symbol(result):
        rc, out = result
        expect(rc == 0, f"symbol exit code {rc}")
        rows = refs.read_csv(out / "symbol.csv")
        expect(len(rows) == len(xis), "symbol.csv row count")
        for row, xi in zip(rows, xis):
            c = np.array([[complex(row["c_00"]), complex(row["c_01"])],
                          [complex(row["c_10"]), complex(row["c_11"])]])
            err = float(np.max(np.abs(c - refs.laplace_projector(xi))))
            expect(err <= 1e-10, f"symbol xi={xi:.4g}: C off the closed form by {err:.2e}")
            dn = complex(row["dn"])
            expect(abs(dn - xi) <= 1e-10, f"symbol xi={xi:.4g}: dn {dn} != |xi|")
        return {}

    def check_normal(result):
        rc, out = result
        expect(rc == 0, f"normal exit code {rc}")
        rows = refs.read_csv(out / "normal.csv")
        expect(len(rows) == tau_steps, "normal.csv row count")
        for row in rows:
            tau = float(row["tau"])
            c = np.array([[complex(row[f"c_{i}{j}"]) for j in range(4)] for i in range(4)])
            err = refs.fixes(c, refs.laplace_bplus(tau))
            expect(err <= 1e-8, f"normal tau={tau:.4g}: C moves closed-form B+ by {err:.2e}")
            expect(refs.idempotence(c) <= 1e-8, f"normal tau={tau:.4g}: not idempotent")
        return {}

    def check_toy(result):
        rc, out = result
        expect(rc == 0, f"discrete toy exit code {rc}")
        rows = [r for r in refs.read_csv(out / "discrete_toy.csv") if not r["note"]]
        gaps = [float(r["path_gap"]) for r in rows]
        expect(len(gaps) == 3 and gaps[0] > gaps[1] > gaps[2],
               f"toy path gap does not decrease with ns: {gaps}")
        for name in ("projector_spaces.txt", "projector_jump.txt"):
            c = refs.read_matrix(out / name)
            expect(refs.idempotence(c) <= 1e-3, f"{name} not idempotent")
            expect(abs(np.trace(c) - 1.0) <= 1e-3, f"{name}: trace != 1")
        return {}

    def check_strip(result):
        rc, out = result
        expect(rc == 0, f"discrete strip exit code {rc}")
        rows = refs.read_csv(out / "discrete_strip.csv")
        expect(len(rows) == 3, "discrete_strip.csv row count")
        c = refs.read_matrix(out / "projector_strip.txt")
        expect(refs.idempotence(c) <= 1e-9, "projector_strip.txt not idempotent")
        expect(abs(np.trace(c) - c.shape[0] / 2) <= 1e-6, "projector_strip.txt: trace != dim/2")
        return {}

    def check_lab(result):
        rc, out = result
        expect(rc == 0, f"lab exit code {rc}")
        rows = refs.read_csv(out / "summary.csv")
        expect(len(rows) == 2 and all(r["passed"] == "true" for r in rows),
               "lab summary has a failed criterion")
        return {}

    xi_arg = ",".join(repr(x) for x in xis)
    ops = [
        Op("symbol", run("symbol", ["symbol", "--config", str(strip_cfg), "--xi", xi_arg]),
           check_symbol),
        Op("normal", run("normal", [
            "normal", "--config", str(strip_cfg), "--tau-min", repr(tau_min),
            "--tau-max", repr(tau_max), "--tau-steps", str(tau_steps)]), check_normal),
        Op("discrete toy", run("toy", ["discrete", "--config", str(toy_cfg), "--ns", "1024"]),
           check_toy),
        Op("discrete strip", run("strip", [
            "discrete", "--config", str(strip_cfg), "--ns", "64", "--nz", "32"]), check_strip),
        Op("lab", run("lab", ["lab", "--seed", str(lab_seed)]), check_lab),
    ]
    run("warmup", ["symbol", "--config", str(strip_cfg), "--xi", "1"])()
    return Plan(ops, cleanup=tmp.cleanup)


WORKLOADS = {
    "symbol_sweep": symbol_sweep,
    "normal_sweep": normal_sweep,
    "strip_discrete": strip_discrete,
    "cli_configs": cli_configs,
}

SETUP_REPEATS = 3


# -------------------------------------------------------------- the loop


@dataclass
class RunState:
    latencies: list = field(default_factory=list)
    round_walls: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def _run_round(plan, state, tracer):
    figures, results = {}, []
    t_round = time.perf_counter()
    for index, op in enumerate(plan.ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = op.call()
            else:
                tracer.op = index
                value = tracer.call("op", op.call, (), {}, attrs={"label": op.label})
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            value, error = None, exc
        state.latencies.append(time.perf_counter() - t0)
        results.append((op, value, error))
    state.round_walls.append(time.perf_counter() - t_round)
    for op, value, error in results:
        state.attempted += 1
        if error is not None:
            state.failed += 1
            if op.fault is None or not isinstance(error, op.fault):
                state.problems.append(f"{op.label}: unexpected "
                                      + "".join(traceback.format_exception(error)).strip())
            continue
        try:
            figures[op.label] = op.check(value)
        except CheckFailed as exc:
            state.problems.append(str(exc))
    if not state.problems:
        try:
            plan.round_check(figures)
        except CheckFailed as exc:
            state.problems.append(str(exc))


def run(workload, seed, seconds, trace, import_s):
    """Set up the workload, run whole rounds for about `seconds` of timed
    work, and return the result object printed by run.py."""
    build = WORKLOADS[workload]
    setups = []
    plan = None
    for _ in range(SETUP_REPEATS):
        if plan is not None:
            plan.cleanup()
        t0 = time.perf_counter()
        plan = build(seed)
        setups.append(time.perf_counter() - t0)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    state = RunState()
    try:
        while True:
            if tracer is not None:
                tracer.round = len(state.round_walls)
            _run_round(plan, state, tracer)
            done = sum(state.round_walls)
            if state.problems or done + statistics.median(state.round_walls) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        plan.cleanup()
    rounds = len(state.round_walls)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{workload}-seed{seed}.jsonl")
        values = layer_metrics(tracer.spans, rounds)
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        lat_ms = 1e3 * np.array(state.latencies)
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(state.round_walls), "unit": "s"},
            "op_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms"},
            "op_p95_ms": {"value": float(np.percentile(lat_ms, 95)), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    summary = {"workload": workload, "seed": seed, "rounds": rounds,
               "round_walls_s": state.round_walls, "setup_s": setups,
               "import_s": import_s, "problems": state.problems[:20]}
    return {"correct": not state.problems, "attempted": state.attempted,
            "failed": state.failed, "metrics": metrics}, summary
