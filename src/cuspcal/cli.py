"""Command-line entry point: config parsing, seeded reproducible runs of the
symbol / normal / lab / discrete suites, and the acceptance verifier.

Exit codes: 0 pass, 1 assertion failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._poly import PolyMat2
from .discrete import (
    PhiGrid,
    calderon_path_spaces,
    discretize,
    double_geometry,
    jump_operator,
    normal_probe,
    symbol_probe,
    _frozen_interface_symbol,
)
from .errors import CuspcalError, NotComplementary, SchemaError, SolveFailure
from .fibre import GEOMETRIES, MU_CAP, Fibre, FibreExtension, ModelOperator, normal_calderon
from .linalg import fro
from .suites import CRITERIA, VerifyConfig, run_criteria, toy_path_row
from .symbols import calderon_symbol, dn_from_projector


@functools.cache
def build_identifier():
    """git-describe-style identifier of the build, stable within a tree."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--tags"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "cuspcal-0.1.0"


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        return f"{value.real:.16e}{value.imag:+.16e}j"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, rows, columns=None):
    """Deterministic CSV with a trailing build-identifier column."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    build = build_identifier()
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    lines = [",".join(list(columns) + ["build"])]
    for row in rows:
        lines.append(",".join([_fmt(row.get(c, "")) for c in columns] + [build]))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_projector(path, matrix, label=""):
    """Binary-free text format: a dims header, then one complex entry per
    line in row-major order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    m = np.asarray(matrix, dtype=complex)
    lines = [f"# cuspcal projector {m.shape[0]} {m.shape[1]} {label}".rstrip()]
    for entry in m.ravel():
        lines.append(f"{entry.real:.17e} {entry.imag:.17e}")
    path.write_text("\n".join(lines) + "\n")
    return path


def read_projector(path):
    lines = Path(path).read_text().splitlines()
    head = lines[0].split()
    rows, cols = int(head[3]), int(head[4])
    data = np.array([complex(float(a), float(b))
                     for a, b in (ln.split() for ln in lines[1:])])
    return data.reshape(rows, cols)


@dataclass
class RunConfig:
    """Numeric parameters of a CLI run; a fixed seed makes output bytes
    reproducible. Integer fields accept integral floats and hold ints."""

    out_dir: str = "out"
    seed: int = 12345
    suite: tuple = ()
    ns: int = 256
    nz: int = 64
    S: float = 8.0
    tau_min: float = 0.25
    tau_max: float = 2.0
    tau_steps: int = 8
    xi: tuple = (0.25, 1.0, 4.0)
    tol_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.out_dir, str):
            raise SchemaError("run.out_dir", "expected a string")
        if not isinstance(self.tol_overrides, dict):
            raise SchemaError("run.tol_overrides", "expected an object")
        for name, value in self.tol_overrides.items():
            if not (_number(value) and 0 < value < math.inf):
                raise SchemaError(f"run.tol.{name}", "tolerances must be finite numbers > 0")
        for name in ("tau_min", "tau_max"):
            tau = getattr(self, name)
            if not _number(tau) or not abs(tau) <= MU_CAP:
                raise SchemaError(f"run.{name}", f"need a number with |tau| <= MU_CAP = {MU_CAP:g}")
        # the strip and toy discrete runs use ns // 4 >= 16 nodes in s and
        # at least the strip grid's 16 nodes in z
        for name, low in (("seed", 0), ("ns", 64), ("nz", 16), ("tau_steps", 1)):
            value = _exact_int(getattr(self, name))
            if value is None or value < low:
                raise SchemaError(f"run.{name}", f"need an integer >= {low}")
            setattr(self, name, value)
        if not (_number(self.S) and 4 <= self.S < math.inf):
            raise SchemaError("run.S", "need a finite truncation S >= 4")
        if not (isinstance(self.xi, (tuple, list)) and self.xi and all(
                _number(xi) and math.isfinite(xi) and xi != 0 for xi in self.xi)):
            raise SchemaError("run.xi", "need a non-empty list of finite nonzero numbers")


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _exact_int(value):
    """An int or an integral float (never a bool) as an int, else None."""
    exact = (isinstance(value, float) and value.is_integer()) or (
        isinstance(value, int) and not isinstance(value, bool))
    return int(value) if exact else None


def parse_config(text):
    """Parse an operator configuration (JSON) into a RunConfig and a
    ModelOperator; raises SchemaError with the offending path."""
    errors = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")

    def need(key, types, path=""):
        if key not in doc:
            errors.append(SchemaError(path + key, "missing required field"))
            return None
        if not isinstance(doc[key], types):
            errors.append(SchemaError(path + key, f"expected {types}"))
            return None
        return doc[key]

    order = need("order", int)
    size = need("system_size", int)
    if size is not None and size < 1:
        errors.append(SchemaError("system_size", "need an integer >= 1"))
        size = None
    base_dim = need("base_dim", int)
    geometry = need("geometry", str)
    # the weight c of x^{-c m} P is accepted and ignored: it does not change
    # the solutions of P u = 0
    if not isinstance(doc.get("weight_c", 0), int):
        errors.append(SchemaError("weight_c", "expected an integer"))
    fibre_doc = need("fibre", dict)
    fibre = None
    if fibre_doc is not None:
        kind = fibre_doc.get("type")
        if kind not in ("point", "interval"):
            errors.append(SchemaError("fibre.type", "must be 'point' or 'interval'"))
        elif kind == "interval":
            length = fibre_doc.get("length")
            if not isinstance(length, (int, float)) or length <= 0:
                errors.append(SchemaError("fibre.length", "need a positive length"))
            else:
                fibre = Fibre("interval", float(length))
        else:
            fibre = Fibre("point")
    if geometry is not None and geometry not in GEOMETRIES:
        errors.append(SchemaError("geometry", f"unknown geometry {geometry!r}"))
    coeff_list = need("coefficients", list)
    coefficients = {}
    if coeff_list is not None and size is not None:
        for idx, item in enumerate(coeff_list):
            path = f"coefficients[{idx}]"
            if not isinstance(item, dict):
                errors.append(SchemaError(path, "expected an object"))
                continue
            k, alpha, beta = (_exact_int(item.get(name, 0))
                              for name in ("k", "alpha", "beta"))
            if "k" not in item or None in (k, alpha, beta):
                errors.append(SchemaError(path, "need integer k/alpha/beta"))
                continue
            poly = item.get("poly")
            if not isinstance(poly, list) or not poly:
                errors.append(SchemaError(path + ".poly", "need [[x_deg,z_deg,re,im],...]"))
                continue
            table = {}
            bad = False
            for j, term in enumerate(poly):
                if (not isinstance(term, list) or len(term) != 4
                        or not all(isinstance(v, (int, float)) for v in term)):
                    errors.append(SchemaError(f"{path}.poly[{j}]",
                                              "expected [x_deg, z_deg, re, im]"))
                    bad = True
                    continue
                dx, dz, re, im = term
                key = (_exact_int(dx), _exact_int(dz))
                if None in key or min(key) < 0:
                    errors.append(SchemaError(f"{path}.poly[{j}]",
                                              "degrees must be non-negative integers"))
                    bad = True
                    continue
                if not (math.isfinite(re) and math.isfinite(im)):
                    errors.append(SchemaError(f"{path}.poly[{j}]", "coefficient must be finite"))
                    bad = True
                    continue
                table[key] = table.get(key, 0) + complex(re, im) * np.eye(size)
            if bad:
                continue
            key = (k, alpha, beta)
            if key in coefficients:
                errors.append(SchemaError(path, f"duplicate multi-index {key}"))
                continue
            coefficients[key] = PolyMat2(table, size)
    run_doc = doc.get("run", {})
    if not isinstance(run_doc, dict):
        errors.append(SchemaError("run", "expected an object"))
        run_doc = {}
    if errors:
        raise SchemaError("config", "; ".join(str(e) for e in errors))
    try:
        op = ModelOperator(order, size, base_dim, fibre, coefficients, geometry=geometry)
    except (ValueError, CuspcalError) as exc:
        raise SchemaError("coefficients", str(exc)) from exc
    allowed = {"ns", "nz", "S", "seed", "tau_min", "tau_max", "tau_steps",
               "xi", "tol_overrides", "out_dir"}
    unknown = set(run_doc) - allowed
    if unknown:
        raise SchemaError(f"run.{sorted(unknown)[0]}", "unknown run parameter")
    cfg = RunConfig(**{k: (tuple(v) if isinstance(v, list) else v)
                       for k, v in run_doc.items()})
    return cfg, op


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read config: {exc}") from exc
    return parse_config(text)


def default_extension(op):
    if op.fibre.kind == "interval":
        return FibreExtension.with_default_bump(op.fibre.length)
    return None


def cmd_symbol(cfg, op):
    """Interface-symbol sweep: projector entries, idempotence, DN value."""
    sym = _frozen_interface_symbol(op, 0.0) if op.fibre.kind == "interval" \
        else None
    rows = []
    for xi in cfg.xi:
        if sym is None:
            raise SchemaError("geometry", "symbol sweep needs an interval fibre")
        proj = calderon_symbol(sym, (float(xi),))
        row = {"xi": float(xi), "idem_defect": proj.idem_defect}
        m = proj.matrix
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                row[f"c_{i}{j}"] = m[i, j]
        if op.order == 2 and op.system_size == 1:
            row["dn"] = dn_from_projector(proj, 1)
        rows.append(row)
    out = Path(cfg.out_dir)
    write_csv(out / "symbol.csv", rows)
    return 0, rows


def cmd_normal(cfg, op):
    """Per-mu sweep of the normal-family projector; emits a failure list of
    the frequencies that raise NotComplementary or SolveFailure."""
    ext = default_extension(op)
    if ext is None:
        raise SchemaError("geometry", "normal sweep needs an interval fibre")
    taus = np.linspace(cfg.tau_min, cfg.tau_max, cfg.tau_steps)
    rows, failures = [], []
    for tau in taus:
        tau = float(tau)
        try:
            proj = normal_calderon(op, (tau,), ext)
        except (NotComplementary, SolveFailure) as exc:
            failures.append({"tau": tau, "gap": getattr(exc, "gap", ""),
                             "reason": type(exc).__name__})
            continue
        row = {"tau": tau, "idem_defect": proj.idem_defect, "gap": proj.certs["gap"],
               "construction": "pm-spaces"}
        m = proj.matrix
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                row[f"c_{i}{j}"] = m[i, j]
        rows.append(row)
    out = Path(cfg.out_dir)
    write_csv(out / "normal.csv", rows)
    write_csv(out / "normal_failures.csv", failures,
              columns=["tau", "gap", "reason"])
    return 0, rows


def cmd_lab(cfg):
    """Seeded finite-dimensional suites (perturbation lemma + section-4
    algebra): the `lab` group of `verify`."""
    return verify_all(replace(cfg, suite=("lab",)))


def cmd_discrete(cfg, op):
    """Grid runs: 1-D convergence/agreement tables or strip probe tables;
    raw projector matrices go to text files."""
    out = Path(cfg.out_dir)
    rows = []
    if op.geometry == "HalfLineToy":
        jump = jump_operator(op)
        for ns in (cfg.ns // 4, cfg.ns // 2, cfg.ns):
            row, pa, pb = toy_path_row(op, jump, cfg.S, ns)
            rows.append(row)
            if ns == cfg.ns:
                write_projector(out / "projector_spaces.txt", pa.matrix,
                                f"toy ns={ns}")
                write_projector(out / "projector_jump.txt", pb.matrix,
                                f"toy ns={ns}")
                # truncation sensitivity: reported, not asserted
                grid2 = PhiGrid("HalfLineToy", S=2 * cfg.S, ns=2 * ns)
                dop2 = double_geometry(grid2, discretize(op, grid2))
                pa2 = calderon_path_spaces(dop2)
                rows.append({"ns": 2 * ns, "h": grid2.hs,
                             "path_gap": fro(pa.matrix - pa2.projector.matrix),
                             "idem_spaces": pa2.projector.idem_defect,
                             "idem_jump": -1.0,
                             "note": "truncation-sensitivity-2S"})
        write_csv(out / "discrete_toy.csv", rows)
    else:
        ext = default_extension(op)
        if ext is None:
            raise SchemaError("geometry", "strip discrete run needs an interval fibre")
        for ns in (cfg.ns // 4, cfg.ns // 2, cfg.ns):
            nz = max(16, (cfg.nz * ns) // cfg.ns)
            grid = PhiGrid("StripHyperbolic", S=cfg.S, ns=ns,
                           L=op.fibre.length, nz=nz)
            dop = double_geometry(grid, discretize(op, grid), bump=ext.bump)
            path = calderon_path_spaces(dop)
            probe = normal_probe(path, ext, (cfg.tau_min + cfg.tau_max) / 2,
                                 (1.0 + 0.4 * (cfg.S - 1.0), 1.0 + 0.9 * (cfg.S - 1.0)))
            sprobe = symbol_probe(path, xi=cfg.xi[-1],
                                  point=1.0 + 0.5 * (cfg.S - 1.0))
            rows.append({"ns": ns, "nz": nz, "h": grid.hs,
                         "idem": path.projector.idem_defect,
                         "normal_probe": probe.error,
                         "symbol_probe": sprobe.error})
            if ns == cfg.ns:
                write_projector(out / "projector_strip.txt",
                                path.projector.matrix, f"strip ns={ns}")
        write_csv(out / "discrete_strip.csv", rows)
    return 0, rows


def write_suite_outputs(results, out_dir):
    # wall-clock times stay out of the files: outputs are byte-reproducible
    out = Path(out_dir)
    summary = []
    for r in results:
        write_csv(out / f"suite_{r.index:02d}_{r.name}.csv", r.rows)
        summary.append({"index": r.index, "name": r.name,
                        "passed": r.passed, "message": r.message})
    write_csv(out / "summary.csv", summary,
              columns=["index", "name", "passed", "message"])


SUITE_GROUPS = {
    "symbol": (1, 2, 3, 4),
    "lab": (5, 6),
    "normal": (7, 8),
    "discrete": (9, 10, 11, 12),
    "determinism": (13,),
}


def verify_all(cfg):
    """Run every acceptance-criteria suite in fixed order; nonzero status
    iff any asserted criterion fails."""
    indices = None
    if cfg.suite:
        by_name = {name: idx for idx, name, _ in CRITERIA}
        indices = []
        for token in cfg.suite:
            token = str(token)
            if token.isdigit():
                indices.append(int(token))
            elif token in SUITE_GROUPS:
                indices.extend(SUITE_GROUPS[token])
            elif token in by_name:
                indices.append(by_name[token])
            else:
                raise SchemaError("--suite", f"unknown suite {token!r}")
    vcfg = VerifyConfig(seed=cfg.seed, tol_overrides=cfg.tol_overrides)
    results = run_criteria(vcfg, indices)
    write_suite_outputs(results, Path(cfg.out_dir))
    for r in results:
        print(r.line())
    return (0 if all(r.passed for r in results) else 1), results


def _build_parser():
    # numeric flags default to None so explicit flags can be told apart
    # from RunConfig / config-file defaults
    parser = argparse.ArgumentParser(
        prog="cuspcal",
        description="Calderon projectors for fibred-cusp model operators")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("symbol", "normal", "lab", "discrete", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--ns", type=int, default=None)
        p.add_argument("--nz", type=int, default=None)
        p.add_argument("--S", type=float, default=None)
        p.add_argument("--tau-min", type=float, default=None)
        p.add_argument("--tau-max", type=float, default=None)
        p.add_argument("--tau-steps", type=int, default=None)
        p.add_argument("--xi", default=None)
        p.add_argument("--tol-override", action="append", default=[],
                       metavar="NAME=VALUE")
        if name == "verify":
            p.add_argument("--suite", default="")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        try:
            overrides = {name: float(value) for name, _, value in
                         (item.partition("=") for item in args.tol_override)}
            xi = None if args.xi is None else tuple(
                float(x) for x in str(args.xi).split(",") if x)
        except ValueError as exc:
            raise SchemaError("--tol-override/--xi", str(exc)) from exc
        op = None
        if args.config is not None:
            cfg, op = load_config(args.config)
        else:
            cfg = RunConfig()
        cfg.out_dir = args.out
        cfg.suite = tuple(t for t in getattr(args, "suite", "").split(",") if t)
        for name in ("seed", "ns", "nz", "S", "tau_min", "tau_max", "tau_steps"):
            value = getattr(args, name)
            if value is not None:
                setattr(cfg, name, value)
        if xi is not None:
            cfg.xi = xi
        cfg.tol_overrides.update(overrides)
        cfg = replace(cfg)  # re-validate after the command-line overrides
        if args.subcommand == "verify":
            status, _ = verify_all(cfg)
            return status
        if args.subcommand == "lab":
            status, _ = cmd_lab(cfg)
            return status
        if op is None:
            raise SchemaError("--config", "this subcommand needs an operator config")
        if args.subcommand == "symbol":
            cmd_symbol(cfg, op)
        elif args.subcommand == "normal":
            cmd_normal(cfg, op)
        elif args.subcommand == "discrete":
            cmd_discrete(cfg, op)
        return 0
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CuspcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
