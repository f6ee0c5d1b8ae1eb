"""Discrete realization of the construction on graded grids.

Coordinates: s = 1/x (uniform grid, singular end truncated at s = S with
homogeneous Dirichlet rows), fibre coordinate z on [0, L]. In s the cusp
derivative is constant-coefficient: x^2 d/dx = -d/ds.

Two routes to the discrete Calderon projector:
  path A (`calderon_path_spaces`): plus/minus boundary-data spaces of the
    doubled operator, as projector_from_pair (on the strip, one sine mode
    in s at a time when the operator is s-separable, else a block-
    tridiagonal sweep in z);
  path B (`calderon_path_jump`, 1-D geometries): the jump formula
    C = gamma (Phat+Pi)^-1 gamma* J with discrete delta data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._poly import Jet, formal_adjoint, ipow, poly_on_jet
from .errors import (
    GeometryMismatch,
    NotComplementary,
    SolveFailure,
    TraceUnstable,
)
from .fibre import Bump, ModelOperator, normal_calderon
from .linalg import Projector, SubspaceBasis, fro, idempotence_defect, projector_from_pair
from .symbols import PolyMatrixSymbol, calderon_symbol


SWEEP_TOL = 1e-12  # normwise backward error of a line equation of the strip sweep


def _central_stencil(der, h):
    if der == 0:
        return np.array([0]), np.array([1.0])
    if der == 1:
        return np.array([-1, 1]), np.array([-0.5, 0.5]) / h
    if der == 2:
        return np.array([-1, 0, 1]), np.array([1.0, -2.0, 1.0]) / h**2
    raise ValueError("discrete stencils are second order, derivative <= 2")


@dataclass(frozen=True)
class PhiGrid:
    """Uniform grid in (s, z); `doubled` marks the geometry extended across
    the BC boundary (mirror in s for 1-D, fibre circle in z for the strip)."""

    geometry: str
    S: float
    ns: int
    L: float | None = None
    nz: int | None = None
    doubled: bool = False

    def __post_init__(self):
        if self.geometry not in ("HalfLineToy", "StripHyperbolic"):
            raise ValueError(f"no discrete geometry {self.geometry!r}")
        if not 4 <= self.S < math.inf:
            raise ValueError("truncation S must be finite and >= 4")
        sizes = {"ns": self.ns} if self.nz is None else {"ns": self.ns, "nz": self.nz}
        for name, size in sizes.items():
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {size!r}")
        if self.ns < 16:
            raise ValueError("need >= 16 nodes in s")
        if self.geometry == "StripHyperbolic":
            if self.L is None or self.nz is None:
                raise ValueError("strip grid needs L and nz")
            if not 0 < self.L < math.inf:
                raise ValueError("fibre length L must be finite and > 0")
            if self.nz < 16:
                raise ValueError("need >= 16 nodes in z")

    @property
    def hs(self):
        return (self.S - 1.0) / self.ns

    @property
    def hz(self):
        return self.L / self.nz if self.nz else None

    def s_nodes(self):
        if self.geometry == "HalfLineToy" and self.doubled:
            return np.linspace(2.0 - self.S, self.S, 2 * self.ns + 1)
        return np.linspace(1.0, self.S, self.ns + 1)

    def z_nodes(self):
        if self.geometry != "StripHyperbolic":
            return None
        if self.doubled:
            return np.arange(2 * self.nz) * self.hz
        return np.linspace(0.0, self.L, self.nz + 1)

    def doubled_copy(self):
        return PhiGrid(self.geometry, self.S, self.ns, self.L, self.nz, True)


@dataclass
class GridOperator:
    """Sparse discretization; `dirichlet` indexes its identity rows."""

    grid: PhiGrid
    matrix: sp.csr_matrix
    dirichlet: np.ndarray
    model: ModelOperator


def discretize(op, grid):
    """Second-order finite-difference discretization on the (undoubled) grid.

    Dirichlet identity rows at the truncated singular end and at the other
    boundary lines.
    """
    if op.geometry != grid.geometry:
        raise GeometryMismatch(
            f"operator geometry {op.geometry} != grid geometry {grid.geometry}")
    if grid.doubled:
        raise ValueError("discretize expects the undoubled grid")
    return _assemble(op, grid, doubled=False, bump=None)


def double_geometry(grid, opd, bump=None):
    """Operator on the doubled geometry: identical to `opd` on the plus
    side, mirrored coefficients plus the optional bump on the minus side."""
    if opd.grid.doubled:
        raise ValueError("operator already doubled")
    if grid.geometry != opd.grid.geometry:
        raise GeometryMismatch("grid/operator geometry mismatch")
    return _assemble(opd.model, grid.doubled_copy(), doubled=True, bump=bump)


def _assemble(op, grid, doubled, bump):
    if grid.geometry == "HalfLineToy":
        return _assemble_toy(op, grid, doubled, bump)
    return _assemble_strip(op, grid, doubled, bump)


def _assemble_toy(op, grid, doubled, bump):
    if op.order > 2:
        raise ValueError("second-order stencils support order <= 2")
    n = op.system_size
    s = grid.s_nodes()
    npts = s.size
    h = grid.hs
    minus = s < 1.0
    sc = np.where(minus, 2.0 - s, s)
    x = 1.0 / sc
    dirich = np.zeros(npts, dtype=bool)
    dirich[0] = dirich[-1] = True
    if op.order == 0:
        dirich[:] = False

    rows, cols, vals = [], [], []
    interior = ~dirich
    terms = {}
    for k in range(op.order + 1):
        pm = op.coefficients.get((k, 0, 0))
        if pm is None:
            continue
        cv = pm.eval(x.astype(complex), 0.0)  # (npts, n, n)
        sign = np.where(minus, (-1.0) ** k, 1.0)
        cv = cv * (sign * 1.0)[:, None, None]
        cv = cv * ((-1.0) ** k * ipow(-k))
        terms[k] = cv
    if bump is not None:
        bv = np.zeros(npts)
        bv[minus] = bump(s[minus])
        zero = terms.setdefault(0, np.zeros((npts, n, n), dtype=complex))
        terms[0] = zero + bv[:, None, None] * np.eye(n)
    for k, cv in terms.items():
        offs, st = _central_stencil(k, h)
        for off, w in zip(offs, st):
            ii = np.flatnonzero(interior)
            jj = ii + off
            ok = (jj >= 0) & (jj < npts)
            ii, jj = ii[ok], jj[ok]
            for a in range(n):
                for b in range(n):
                    rows.append(ii * n + a)
                    cols.append(jj * n + b)
                    vals.append(w * cv[ii, a, b])
    di = np.flatnonzero(np.repeat(dirich, n))
    rows.append(di)
    cols.append(di)
    vals.append(np.ones(di.size, dtype=complex))
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(npts * n, npts * n)).tocsr()
    return GridOperator(grid, mat, di, op)


def _assemble_strip(op, grid, doubled, bump):
    if op.system_size != 1:
        raise ValueError("strip assembly supports scalar operators")
    if op.order > 2:
        raise ValueError("second-order stencils support order <= 2")
    ns, nz = grid.ns, grid.nz
    hs, hz = grid.hs, grid.hz
    length = grid.L
    s = grid.s_nodes()
    z = grid.z_nodes()
    nzz = z.size
    minus_z = z > length + 1e-12
    zc = np.where(minus_z, 2.0 * length - z, z)

    def flat(i, j):
        return i * nzz + j

    ii, jj = np.meshgrid(np.arange(ns + 1), np.arange(nzz), indexing="ij")
    dirich = (ii == 0) | (ii == ns)
    if not doubled:
        dirich |= (jj == 0) | (jj == nz)
    if op.order == 0:
        dirich[:] = False
    interior = ~dirich

    rows, cols, vals = [], [], []
    int_i = ii[interior]
    int_j = jj[interior]
    x_int = 1.0 / s[int_i]
    zc_int = zc[int_j]
    terms = {}
    for (k, alpha, beta), pm in op.coefficients.items():
        if alpha != 0:
            raise ValueError("strip operators have point base (alpha = 0)")
        cv = pm.eval(x_int.astype(complex), zc_int.astype(complex))[:, 0, 0]
        cv = cv * ((-1.0) ** k * ipow(-(k + beta)))
        cv = cv * np.where(minus_z[int_j], (-1.0) ** beta, 1.0)
        terms[(k, beta)] = terms.get((k, beta), 0) + cv
    if bump is not None:
        bv = np.zeros(int_j.size, dtype=complex)
        sel = minus_z[int_j]
        bv[sel] = bump(z[int_j[sel]])
        terms[(0, 0)] = terms.get((0, 0), 0) + bv
    for (k, beta), cv in terms.items():
        offs_s, st_s = _central_stencil(k, hs)
        offs_z, st_z = _central_stencil(beta, hz)
        for os_, ws in zip(offs_s, st_s):
            ci = int_i + os_
            ok = (ci >= 0) & (ci <= ns)
            for oz, wz in zip(offs_z, st_z):
                cj = int_j + oz
                if doubled:
                    cj = cj % nzz
                    okz = ok
                else:
                    okz = ok & (cj >= 0) & (cj < nzz)
                rows.append(flat(int_i[okz], int_j[okz]))
                cols.append(flat(ci[okz], cj[okz]))
                vals.append(ws * wz * cv[okz])
    di = flat(ii[dirich], jj[dirich])
    rows.append(di)
    cols.append(di)
    vals.append(np.ones(di.size, dtype=complex))
    npts = (ns + 1) * nzz
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(npts, npts)).tocsr()
    return GridOperator(grid, mat, di, op)


def one_sided_trace(values, h, side, njet, degree, stability_tol=None):
    """Boundary jet by polynomial extrapolation from one side.

    `values` holds samples at rho = side*h*(1..K), K >= degree+2 (extra
    trailing axes allowed). Returns (jet, stability): jet[r] is the D_rho^r
    value at rho = 0 for r < njet; stability is the relative difference
    between the degree and degree+1 extrapolations.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape[0] < degree + 2:
        raise ValueError("need degree+2 sample layers for the stability report")
    w1 = _trace_weights(h, side, njet, degree)
    w2 = _trace_weights(h, side, njet, degree + 1)
    jet = np.tensordot(w1, values[: degree + 1], axes=(1, 0))
    jet2 = np.tensordot(w2, values[: degree + 2], axes=(1, 0))
    scale = max(1.0, float(np.max(np.abs(jet))))
    stability = float(np.max(np.abs(jet - jet2))) / scale
    if stability_tol is not None and stability > stability_tol:
        raise TraceUnstable(stability, stability_tol)
    return jet, stability


def _trace_weights(h, side, njet, degree):
    """Weights W with jet_r = sum_j W[r, j] * u(side*h*(j+1))."""
    nodes = np.arange(1, degree + 2, dtype=float)
    v = np.vander(nodes, degree + 1, increasing=True)
    vinv = np.linalg.inv(v)
    w = np.zeros((njet, degree + 1), dtype=complex)
    for r in range(njet):
        if r > degree:
            continue
        w[r] = vinv[r] * math.factorial(r) / (side * h) ** r * ipow(-r)
    return w


@dataclass
class PathProjection:
    """Path-A result: the discrete projector and its boundary-data spaces."""

    projector: Projector
    b_plus: SubspaceBasis
    b_minus: SubspaceBasis
    layout: dict
    operator: GridOperator


def calderon_path_spaces(opd, trace_degree=None, rank_tol=1e-10):
    """Discrete Calderon projector with range B+ and kernel B-: boundary
    jets of the one-sided discrete Dirichlet problems on the doubled grid.

    On the strip, an s-separable operator is solved one sine mode in s at a
    time; every other operator by a block-tridiagonal sweep in z over each
    body. The 1-D toy takes one sparse LU of each body."""
    if not opd.grid.doubled:
        raise ValueError("path construction needs the doubled operator")
    if opd.grid.geometry == "HalfLineToy":
        return _path_spaces_toy(opd, trace_degree, rank_tol)
    if _s_separable(opd.model):
        return _path_spaces_modes(opd, trace_degree, rank_tol)
    return _path_spaces_sweep(opd, trace_degree, rank_tol)


def _path_from_spans(opd, side_span, layout, rank_tol):
    """Path-A projector from the spanning data columns of each body."""
    bp = SubspaceBasis.from_span(side_span(+1), rank_tol=rank_tol)
    bm = SubspaceBasis.from_span(side_span(-1), rank_tol=rank_tol)
    return PathProjection(projector_from_pair(bp, bm), bp, bm, layout, opd)


def _path_spaces_toy(opd, trace_degree, rank_tol):
    op = opd.model
    m, n = op.order, op.system_size
    if m < 1:
        raise ValueError("path construction needs order >= 1")
    p = _trace_degree(opd, trace_degree)
    ns, h = opd.grid.ns, opd.grid.hs
    interior = np.ones(ns + 1, dtype=bool)
    interior[[0, -1]] = False  # interface and truncated end
    interior = np.repeat(interior, n)

    def side_span(side):
        # Dirichlet problem on one body, nodes ordered from the interface
        # outward: rows off `interior` become identity rows, and solution c
        # has unit data at interface component c. One LU, in float64 when
        # the body has no imaginary part.
        gidx = ((ns + side * np.arange(ns + 1))[:, None] * n + np.arange(n)).ravel()
        mat = (sp.diags(interior.astype(float)) @ opd.matrix[gidx][:, gidx]
               + sp.diags(1.0 - interior)).tocsc()
        if not np.any(mat.data.imag):
            mat = sp.csc_matrix((mat.data.real.copy(), mat.indices, mat.indptr), shape=mat.shape)
        u = spla.splu(mat).solve(np.eye(gidx.size, n, dtype=mat.dtype))
        jet, _ = one_sided_trace(u.reshape(ns + 1, n, n)[1 : p + 3], h, side, m, p)
        return jet.reshape(m * n, n)

    layout = {"geometry": "HalfLineToy", "m": m, "N": n, "data_dim": m * n}
    return _path_from_spans(opd, side_span, layout, rank_tol)


def _s_separable(op):
    """No coefficient depends on x and every power of x^2 D_x is even: the
    doubled strip matrix then commutes with the DST-I in s."""
    return all(k % 2 == 0 and all(dx == 0 for dx, _ in pm.coeffs)
               for (k, _, _), pm in op.coefficients.items())


def _trace_degree(opd, trace_degree):
    """Checked extrapolation degree p of the path-A jets (default m + 1): the
    jets need D^(m-1), so p >= m - 1, and one_sided_trace reads p + 2 layers
    of each body, which has ns (toy) or nz (strip) of them past the
    interface."""
    m = opd.model.order
    p = m + 1 if trace_degree is None else trace_degree
    name = "ns" if opd.grid.geometry == "HalfLineToy" else "nz"
    layers = getattr(opd.grid, name)
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or not m - 1 <= p <= layers - 2:
        raise ValueError(f"trace_degree must be an integer in [{m - 1}, {layers - 2}] "
                         f"for order {m} on a grid with {name} = {layers}, got {p!r}")
    return int(p)


def _strip_setup(opd, trace_degree):
    m = opd.model.order
    if m != 2:
        raise ValueError("strip path construction is implemented for order 2")
    p = _trace_degree(opd, trace_degree)
    ns = opd.grid.ns
    layout = {"geometry": "StripHyperbolic", "m": m, "N": 1, "n_int": ns - 1,
              "s_interior": opd.grid.s_nodes()[1:ns], "data_dim": 4 * (ns - 1)}
    return m, p, layout


def _body_lines(grid, side):
    """Global z lines of a body: side +1 is z in [0, L], side -1 is
    z in [L, 2L] (its last line wraps to z = 0)."""
    return (np.arange(grid.nz + 1) + (0 if side > 0 else grid.nz)) % (2 * grid.nz)


def _jet_rows(u, hz, m, p, side):
    """Data rows (val@0, Dz@0, val@L, Dz@L) of the boundary jets of body
    solutions u, whose first axis runs over the body's z lines. The line
    index increases with global z on both bodies, so the jet at the lower
    interface is one-sided from above (+) and at the upper one from below
    (-), in the global D_z convention."""
    k_layers = p + 2
    jet_a, _ = one_sided_trace(u[1 : 1 + k_layers], hz, +1, m, p)
    jet_b, _ = one_sided_trace(u[-2 : -2 - k_layers : -1], hz, -1, m, p)
    # minus body: its first line is z = L, its last z = 2L ~ 0
    lo, hi = (jet_a, jet_b) if side > 0 else (jet_b, jet_a)
    return [lo[0], lo[1], hi[0], hi[1]]


def _path_spaces_sweep(opd, trace_degree, rank_tol):
    """Strip path A by a block-tridiagonal sweep in z over each body.

    Grouped by z line, the interior-s unknowns of a body satisfy
    A_j u_{j-1} + B_j u_j + C_j u_{j+1} = 0 for j = 1..nz-1, with data
    u_0 = g_lo and u_nz = g_hi on the interface lines. A sweep down from the
    far interface gives u_j = M_j u_{j-1} + N_j g_hi, where K_j = B_j +
    C_j M_{j+1}, M_j = -K_j^-1 A_j and N_j = -K_j^-1 C_j N_{j+1}. One pass
    back up carries the 2(ns-1) unit-data solutions line by line and keeps
    only the lines that the jets read. The largest normwise backward error of
    a line equation is reported as `certs["line_backward_error"]`.
    """
    m, p, layout = _strip_setup(opd, trace_degree)
    grid = opd.grid
    nz, k = grid.nz, p + 2
    kept = np.r_[0 : k + 1, nz - k : nz + 1]  # the lines that _jet_rows reads
    errs = []

    def side_span(side):
        u, err = _sweep_body(_body_blocks(opd, side), kept, side)
        errs.append(err)
        return np.concatenate(_jet_rows(u, grid.hz, m, p, side))

    path = _path_from_spans(opd, side_span, layout, rank_tol)
    path.projector = replace(path.projector, certs={"line_backward_error": max(errs)})
    return path


def _body_blocks(opd, side):
    """Line blocks of one strip body: blocks[j, d, e, i] is the coefficient
    of the unknown at (body line j, interior s node i) on the one at
    (line j + d - 1, node i + e - 1). The blocks are tridiagonal in s because
    every stencil is second order. Float64 when the body is real."""
    grid = opd.grid
    n = grid.ns - 1
    gidx = (np.arange(1, grid.ns) * 2 * grid.nz + _body_lines(grid, side)[:, None]).ravel()
    sub = opd.matrix[gidx][:, gidx].tocoo()
    (lr, ir), (lc, ic) = np.divmod(sub.row, n), np.divmod(sub.col, n)
    vals = sub.data if np.any(sub.data.imag) else sub.data.real
    blocks = np.zeros((grid.nz + 1, 3, 3, n), dtype=vals.dtype)
    blocks[lr, lc - lr + 1, ic - ir + 1, ir] = vals
    return blocks


def _tri_mul(d, x):
    """T @ x for the tridiagonal T whose sub-, main and super-diagonal
    coefficients of row i are d[0, i], d[1, i], d[2, i]; a zero
    off-diagonal (no s derivative in the block) costs nothing."""
    y = d[1][:, None] * x
    if d[0].any():
        y[1:] += d[0][1:, None] * x[:-1]
    if d[2].any():
        y[:-1] += d[2][:-1, None] * x[1:]
    return y


def _sweep_body(blocks, kept, side):
    """Unit-data solutions of one body on its lines `kept`, as an array
    (line, s node, solution); solution c has g_lo = e_c and solution
    n + c has g_hi = e_c. Also returns the largest normwise backward error
    |A u_{j-1} + B u_j + C u_{j+1}| / (|A||u_{j-1}| + |B||u_j| + |C||u_{j+1}|)
    of a line equation, over all the solutions; above SWEEP_TOL, or on a
    singular K_j, raises SolveFailure."""
    nz, n = blocks.shape[0] - 1, blocks.shape[-1]
    eye = np.eye(n, dtype=blocks.dtype)
    zero = np.zeros_like(eye)
    steps = np.empty((nz, n, 2 * n), dtype=blocks.dtype)  # [M_j | N_j] at j
    step = np.hstack([zero, eye])  # u_nz = g_hi
    for j in range(nz - 1, 0, -1):
        a, b, c = blocks[j]
        cs = _tri_mul(c, step)  # [C_j M_{j+1} | C_j N_{j+1}]
        try:  # inverse and product: faster than a solve with 2n right-hand sides
            kinv = sla.inv(cs[:, :n] + _tri_mul(b, eye), check_finite=False)
            step = steps[j] = kinv @ -np.hstack([_tri_mul(a, eye), cs[:, n:]])
        except np.linalg.LinAlgError as exc:
            raise SolveFailure(f"strip sweep, side {side:+d}, line {j}: {exc}") from None
    out = np.empty((kept.size, n, 2 * n), dtype=blocks.dtype)
    lo, mid = None, np.hstack([eye, zero])  # u_0 = g_lo
    worst = 0.0
    for j in range(1, nz + 1):
        out[kept == j - 1] = mid
        if j < nz:
            hi = steps[j][:, :n] @ mid
            hi[:, n:] += steps[j][:, n:]
        else:
            hi = np.hstack([zero, eye])
        if lo is not None:
            a, b, c = blocks[j - 1]
            res = fro(_tri_mul(a, lo) + _tri_mul(b, mid) + _tri_mul(c, hi))
            err = res / (fro(a) * fro(lo) + fro(b) * fro(mid) + fro(c) * fro(hi))
            if not err <= SWEEP_TOL:
                raise SolveFailure(f"strip sweep, side {side:+d}, line {j - 1}: "
                                   f"backward error {err:.3e} exceeds {SWEEP_TOL:.0e}")
            worst = max(worst, err)
        lo, mid = mid, hi
    out[kept == nz] = mid
    return out, worst


def _path_spaces_modes(opd, trace_degree, rank_tol):
    """Strip path A for an s-separable operator, by fast diagonalisation.

    With the same-line block A0 and the next-line block A1 of the assembled
    matrix, sine mode j = 1..ns-1 of the DST-I in s solves the z-problem
    (A0 + 2 cos(pi j / ns) A1) u = 0 on each body: one tridiagonal solve per
    mode and body, and one 4 x 4 projector per mode. Rank and complementarity
    are certified against the largest singular value over all modes, as the
    sweep route certifies the full bases.
    """
    m, p, layout = _strip_setup(opd, trace_degree)
    grid = opd.grid
    ns, n_int, nzz = grid.ns, layout["n_int"], 2 * grid.nz
    line = opd.matrix[nzz : 2 * nzz]  # rows of the s line i = 1
    a0 = line[:, nzz : 2 * nzz].toarray()
    a1 = line[:, 2 * nzz : 3 * nzz].toarray()
    if not (np.any(a0.imag) or np.any(a1.imag)):
        a0, a1 = a0.real, a1.real
    modes = np.arange(1, ns)
    twocos = 2.0 * np.cos(np.pi * modes / ns)

    def band(a):  # LAPACK (1, 1) band storage of a tridiagonal matrix
        out = np.zeros((3, a.shape[0]), dtype=a.dtype)
        out[0, 1:], out[1], out[2, :-1] = np.diagonal(a, 1), np.diagonal(a), np.diagonal(a, -1)
        return out

    def side_span(side):
        body = _body_lines(grid, side)
        b0, b1 = a0[np.ix_(body, body)], a1[np.ix_(body, body)]
        band0, band1 = band(b0[1:-1, 1:-1]), band(b1[1:-1, 1:-1])
        rhs0, rhs1 = -b0[1:-1][:, [0, -1]], -b1[1:-1][:, [0, -1]]
        u = np.zeros((body.size, n_int, 2), dtype=a0.dtype)
        u[0, :, 0] = u[-1, :, 1] = 1.0
        for j, c in enumerate(twocos):
            u[1:-1, j] = sla.solve_banded((1, 1), band0 + c * band1, rhs0 + c * rhs1)
        q = np.stack(_jet_rows(u, grid.hz, m, p, side), axis=1)  # (mode, 4, 2)
        basis, sv, _ = np.linalg.svd(q, full_matrices=False)
        return basis, int(np.sum(sv > rank_tol * sv.max()))

    (up, r), (um, k) = side_span(+1), side_span(-1)
    if r + k != 4 * n_int:
        raise NotComplementary(
            f"range dim {r} + kernel dim {k} != ambient dim {4 * n_int}", gap=0.0)
    pair = np.concatenate([up, um], axis=2)
    sv = np.linalg.svd(pair, compute_uv=False)
    if sv.min() <= rank_tol * sv.max():
        raise NotComplementary(
            "concatenated range/kernel basis is numerically singular", gap=float(sv.min()))
    c_modes = up @ np.linalg.inv(pair)[:, :2]
    smat = np.sqrt(2.0 / ns) * np.sin(np.pi * np.outer(modes, modes) / ns)

    def lift(blocks):  # (mode, 4, c) -> (I_4 x S) blockdiag(blocks)
        return np.einsum("ij,jrc->ricj", smat, blocks).reshape(4 * n_int, -1)

    half = lift(c_modes).reshape(4 * n_int, 4, n_int)
    cmat = (half.real @ smat + 1j * (half.imag @ smat)).reshape(4 * n_int, -1)
    # S and every mode's singular vectors are orthonormal, so the lifts are
    bp = SubspaceBasis._orthonormal(lift(up), rank_tol)
    bm = SubspaceBasis._orthonormal(lift(um), rank_tol)
    proj = Projector(cmat, idempotence_defect(cmat), bp, bm)
    return PathProjection(proj, bp, bm, layout, opd)


@dataclass(frozen=True)
class JumpOperator:
    """m x m array of N x N blocks; entry (p, l) (1-indexed) has tangential
    order m+1-p-l when nonnegative and vanishes otherwise (scalars here
    since the jump path is 1-D)."""

    order: int
    system_size: int
    blocks: np.ndarray  # (m, m, N, N)

    def matrix(self):
        m, n = self.order, self.system_size
        out = np.zeros((m * n, m * n), dtype=complex)
        for r in range(m):
            for q in range(m):
                out[r * n : (r + 1) * n, q * n : (q + 1) * n] = self.blocks[r, q]
        return out


def collar_jets(op, order):
    """rho-Taylor jets at 0 of the collar coefficients A_k(rho) of
    P = sum A_k(rho) D_rho^k at the BC boundary s = 1 (rho = s - 1).

    A_k(rho) = (-1)^k a_k(x) at x = 1/(1+rho); returns jets[k][j] = A_k^(j)(0).
    """
    if op.geometry != "HalfLineToy":
        raise GeometryMismatch("collar jets are built for the 1-D geometry")
    n = op.system_size
    # jet of x(rho) = 1/(1+rho) at rho = 0
    xjet = Jet.variable(1.0, order).reciprocal()
    jets = []
    for k in range(op.order + 1):
        pm = op.coefficients.get((k, 0, 0))
        out = np.zeros((order + 1, n, n), dtype=complex)
        if pm is not None:
            for a in range(n):
                for b in range(n):
                    coeffs = _x_poly_entry(pm, a, b)
                    jet = poly_on_jet(coeffs, xjet)
                    out[:, a, b] = jet.derivatives()
        jets.append(((-1.0) ** k) * out)
    return jets


def _x_poly_entry(pm, a, b):
    """Ascending x-coefficients of entry (a, b) of a PolyMat2 at z = 0."""
    deg = max((dx for (dx, dz) in pm.coeffs if dz == 0), default=0)
    out = np.zeros(deg + 1, dtype=complex)
    for (dx, dz), c in pm.coeffs.items():
        if dz == 0:
            out[dx] += c[a, b]
    return out


def jump_from_collar(jets):
    """Jump operator from the collar coefficient jets: P(u^0) = (Pu)^0 +
    gamma* J gamma u, by distributional Leibniz reduction of A(rho) D^j delta."""
    m = len(jets) - 1
    n = jets[0].shape[1]
    blocks = np.zeros((m, m, n, n), dtype=complex)
    for k in range(1, m + 1):
        for q in range(k):
            for r in range(k - q):
                d = k - 1 - q - r
                factor = math.comb(k - 1 - q, r) * ipow(d - 1)
                blocks[r, q] += factor * jets[k][d]
    return JumpOperator(m, n, blocks)


def jump_operator(op):
    """Jump operator of a 1-D model operator at the BC collar."""
    jets = collar_jets(op, max(op.order - 1, 0))
    return jump_from_collar(jets)


def green_identity_defect(coeffs, jump, u_fn, phi_fn, rho_max, panels=48, quad_order=10):
    """Oracle for the jump operator: for smooth u (plus side) and phi,

        <u, P* phi> - <P u, phi>  over rho > 0   vs   <J gamma u, gamma phi>.

    `coeffs` are the collar coefficients A_k as PolyMat1 in rho; u_fn/phi_fn
    map (rho, order) to arrays of D^j-free classical jets (order+1, N).
    Returns the absolute defect.
    """
    m = len(coeffs) - 1
    adjoint = formal_adjoint(coeffs)
    x, w = np.polynomial.legendre.leggauss(quad_order)
    edges = np.linspace(0.0, rho_max, panels + 1)
    total = 0.0 + 0j
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for xi, wi in zip(x, w):
            rho = mid + half * xi
            uj = u_fn(rho, m)
            pj = phi_fn(rho, m)
            pu = _apply_collar(coeffs, rho, uj)
            psphi = _apply_collar(adjoint, rho, pj)
            total += half * wi * (np.vdot(psphi, uj[0]) - np.vdot(pj[0], pu))
    gu = _dz_jet(u_fn(0.0, m - 1))[:m]
    gphi = _dz_jet(phi_fn(0.0, m - 1))[:m]
    pairing = 0.0 + 0j
    jm = jump.blocks
    for r in range(m):
        slot = sum(jm[r, q] @ gu[q] for q in range(m))
        pairing += np.vdot(gphi[r], slot)
    return abs(total - pairing)


def _dz_jet(classical_jets):
    """Convert classical derivative jets to D_rho jets."""
    order = classical_jets.shape[0]
    conv = np.array([ipow(-j) for j in range(order)])
    return classical_jets * conv[:, None]


def _apply_collar(coeffs, rho, classical_jets):
    """Apply sum A_k D^k to a function given by classical jets at rho."""
    out = 0
    for k, pm in enumerate(coeffs):
        out = out + ipow(-k) * pm.eval(rho) @ classical_jets[k]
    return out


def calderon_path_jump(opd, jump):
    """Path B on 1-D geometries: C-hat = gamma (Phat+Pi)^-1 gamma* J.

    For each boundary-data basis vector the right-hand side gamma* J U is a
    delta/difference load, weighted by 1/h, on interface-adjacent nodes; the
    solution's one-sided plus trace is a column of the projector.
    """
    if opd.grid.geometry != "HalfLineToy":
        raise GeometryMismatch("the jump path is restricted to 1-D geometries")
    if not opd.grid.doubled:
        raise ValueError("path construction needs the doubled operator")
    op = opd.model
    m, n = op.order, op.system_size
    p = m + 1
    grid = opd.grid
    h = grid.hs
    i0 = grid.ns
    npts = 2 * grid.ns + 1
    try:
        lu = spla.splu(opd.matrix.tocsc())
    except RuntimeError as exc:
        raise SolveFailure(f"doubled operator factorization failed: {exc}") from exc
    jmat = jump.blocks
    k_layers = p + 2
    cols = np.zeros((m * n, m * n), dtype=complex)
    for q in range(m):
        for c in range(n):
            v = np.array([jmat[l, q][:, c] for l in range(m)])  # (m, n)
            rhs = np.zeros(npts * n, dtype=complex)
            for l in range(m):
                offs, st = _central_stencil(l, h)
                stencil = st * ipow(-l)
                for off, cf in zip(offs, stencil):
                    node = i0 + off
                    rhs[node * n : (node + 1) * n] += (
                        np.conj(cf) * v[l] / h
                    )
            sol = lu.solve(rhs).reshape(npts, n)
            layers = sol[i0 + 1 : i0 + 1 + k_layers]
            jet, _ = one_sided_trace(layers, h, +1, m, p)
            cols[:, q * n + c] = jet.reshape(m * n)
    defect = idempotence_defect(cols)
    rng = SubspaceBasis.from_span(cols, sv_cut=0.5)
    ker = SubspaceBasis.from_span(np.eye(m * n) - cols, sv_cut=0.5)
    return Projector(cols, defect, rng, ker)


@dataclass(frozen=True)
class ProbeReport:
    error: float
    per_pattern: tuple
    details: dict


def _snap_frequency(tau, S):
    """Nearest oscillation frequency compatible with the Dirichlet ends of
    [1, S]: a standing wave sin(k pi (s-1)/(S-1)), k >= 1."""
    k = max(1, round(abs(tau) * (S - 1.0) / np.pi))
    return k * np.pi / (S - 1.0)


def _wave_probe(path, freq, csym, window, eval_fraction):
    """Standing wave sin(freq (s - 1)) in each data slot q < k = len(csym)
    against the prediction csym[r, q] * wave in slots r < k. Returns the
    per-slot sup relative errors where the bump on `window` exceeds
    `eval_fraction` of its maximum, and the largest response in the slots
    from k on (the leakage), relative to the prediction."""
    if not 0 < eval_fraction <= 1:
        raise ValueError(f"eval_fraction must lie in (0, 1], got {eval_fraction!r}")
    n_int = path.layout["n_int"]
    s = path.layout["s_interior"]
    env = Bump(1.0, window)(s)
    if not np.any(env > 0):
        raise ValueError("evaluation window does not meet the grid")
    mask = env >= eval_fraction * env.max()
    wave = np.sin(freq * (s - 1.0)).astype(complex)
    k = csym.shape[0]
    errs, leak = [], 0.0
    for q in range(k):
        d = np.zeros(4 * n_int, dtype=complex)
        d[q * n_int : (q + 1) * n_int] = wave
        e = path.projector.matrix @ d
        num, den = 0.0, 0.0
        for r in range(k):
            pred = csym[r, q] * wave
            act = e[r * n_int : (r + 1) * n_int]
            num = max(num, float(np.max(np.abs((act - pred)[mask]))))
            den = max(den, float(np.max(np.abs(pred[mask]))))
        leak = max(leak, float(np.max(np.abs(e[k * n_int :]), initial=0.0)) / max(den, 1e-300))
        errs.append(num / max(den, 1e-300))
    return errs, leak


def normal_probe(path, ext, tau, envelope, eval_fraction=0.5):
    """Compare the discrete projector against the normal-family projector on
    oscillatory boundary data (standing wave in s) x (unit jet pattern).

    The requested tau snaps to the nearest Dirichlet-compatible frequency of
    the truncated s-interval, for which the doubled problem separates
    variables exactly; an envelope*e^{i tau s} wavepacket would instead
    carry an O(1/width) modulation error that no grid refinement removes.
    `envelope` = (lo, hi) is the evaluation window in s; the probe reports
    the sup relative error over the four jet patterns where the window bump
    exceeds `eval_fraction` of its maximum.
    """
    if path.layout["geometry"] != "StripHyperbolic":
        raise GeometryMismatch("normal_probe runs on the strip geometry")
    tau_snap = _snap_frequency(tau, path.operator.grid.S)
    c4 = normal_calderon(path.operator.model, (tau_snap,), ext).matrix
    errs, _ = _wave_probe(path, tau_snap, c4, envelope, eval_fraction)
    return ProbeReport(max(errs), tuple(errs),
                       {"tau": tau, "tau_snapped": tau_snap,
                        "envelope": envelope})


def symbol_probe(path, xi, point, width=2.0, eval_fraction=0.5):
    """Compare the strip projector against the interior-symbol projector:
    localized oscillatory data e^{i xi (s - s0)} * bump at the z = 0
    interface versus the 2x2 frozen-symbol Calderon projector at the probe
    point."""
    if path.layout["geometry"] != "StripHyperbolic":
        raise GeometryMismatch("symbol_probe runs on the strip geometry")
    xi_snap = _snap_frequency(xi, path.operator.grid.S)
    csym = calderon_symbol(_frozen_interface_symbol(path.operator.model, 1.0 / point),
                           (float(xi_snap),)).matrix
    errs, leak = _wave_probe(path, xi_snap, csym, (point - width, point + width),
                             eval_fraction)
    return ProbeReport(max(errs), tuple(errs),
                       {"xi": xi, "xi_snapped": xi_snap, "point": point,
                        "leakage": leak})


def _frozen_interface_symbol(op, x0):
    """Interface symbol of a strip operator at the z = 0 collar: D_z becomes
    the transversal D_t, the s-oscillation contributes (-xi)^k."""
    n = op.system_size
    coeffs = {}
    for (k, alpha, beta), pm in op.coefficients.items():
        val = pm.eval(x0, 0.0) * ((-1.0) ** k)
        key = (beta, (), (k,))
        coeffs[key] = coeffs.get(key, 0) + val
    return PolyMatrixSymbol(op.order, n, 0, 1, coeffs)

