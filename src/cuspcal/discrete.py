"""Discrete realization of the construction on graded grids.

Coordinates: s = 1/x (uniform grid, singular end truncated at s = S with
homogeneous Dirichlet rows), fibre coordinate z on [0, L]. In s the cusp
derivative is constant-coefficient: x^2 d/dx = -d/ds. A grid belongs to one
operator: its geometry (one of fibre.GEOMETRIES), and on the strip its L,
are the operator's.

Two routes to the discrete Calderon projector:
  path A (`calderon_path_spaces`): plus/minus boundary-data spaces of the
    doubled operator, as projector_from_pair. On the strip an s-separable
    operator is solved one sine mode in s at a time, with one small
    projector per mode; otherwise each body is solved one sine mode in z
    at a time when its line blocks are the same on every line, else by a
    block-tridiagonal sweep in z, each solve for the data of one interface
    (the other's come from the body flipped in z). When both bodies are
    their own mirror, the projector splits into an even and an odd half
    under the reflection that swaps the interfaces. It runs in the dtype
    of the bodies, on derivative jets, and applies the D-jet phase to the
    result. The projector's range and kernel bases are B+ and B-;
  path B (`calderon_path_jump`, the 1-D toy): the jump formula
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
from .fibre import GEOMETRIES, Bump, FibreExtension, ModelOperator, normal_calderon
from .linalg import (
    Projector,
    SubspaceBasis,
    _inexact,
    fro,
    idempotence_defect,
    projector_from_pair,
)
from .symbols import PolyMatrixSymbol, calderon_symbol


SWEEP_TOL = 1e-12  # normwise backward error of a strip line equation or mode solve
PATH_RANK_TOL = 1e-10  # rank and complementarity of the path-A data spaces, relative


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
    """Uniform grid in (s, z), on the toy with the single node z = 0;
    `doubled` marks the geometry extended across the BC boundary (mirror in
    s for 1-D, fibre circle in z for the strip)."""

    geometry: str
    S: float
    ns: int
    L: float | None = None
    nz: int | None = None
    doubled: bool = False

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
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
        if self.geometry == "HalfLineToy":
            return np.zeros(1)  # the toy's point fibre: the single node z = 0
        if self.doubled:
            return np.arange(2 * self.nz) * self.hz
        return np.linspace(0.0, self.L, self.nz + 1)

    def doubled_copy(self):
        return PhiGrid(self.geometry, self.S, self.ns, self.L, self.nz, True)


@dataclass
class GridOperator:
    """Sparse discretization; `dirichlet` indexes its identity rows, and
    `bump` is the minus-side bump assembled with it (None if none)."""

    grid: PhiGrid
    matrix: sp.csr_matrix
    dirichlet: np.ndarray
    model: ModelOperator
    bump: Bump | None


def discretize(op, grid):
    """Second-order finite-difference discretization on the (undoubled) grid.

    Dirichlet identity rows at the truncated singular end and at the other
    boundary lines. A strip grid must span the operator's fibre.
    """
    if op.geometry != grid.geometry:
        raise GeometryMismatch(
            f"operator geometry {op.geometry} != grid geometry {grid.geometry}")
    if op.fibre.kind == "interval" and grid.L != op.fibre.length:
        raise GeometryMismatch(f"grid length L = {grid.L} != fibre length {op.fibre.length}")
    if grid.doubled:
        raise ValueError("discretize expects the undoubled grid")
    return _assemble(op, grid, None)


def double_geometry(grid, opd, bump=None):
    """Operator on the doubled geometry: identical to `opd` on the plus
    side, mirrored coefficients plus the optional bump on the minus side.
    `grid` must be the grid of `opd`; on the strip the bump's support must
    lie inside the minus side (L, 2L)."""
    if opd.grid.doubled:
        raise ValueError("operator already doubled")
    if grid != opd.grid:
        raise GeometryMismatch(f"{grid} is not the grid of the operator, {opd.grid}")
    if grid.geometry == "StripHyperbolic":
        FibreExtension(grid.L, bump)  # raises ValueError on a support outside (L, 2L)
    return _assemble(opd.model, grid.doubled_copy(), bump)


def _assemble(op, grid, bump):
    """Stencil assembly on the (s, z) node grid; the toy has the single node
    z = 0. Unknowns are node-major, then by system component. The doubled
    axis (s about 1 on the toy, z about L on the strip) gives the minus side
    mirrored coefficients, the sign (-1)^r of a derivative of order r along
    it, and the bump. Dirichlet rows fence every stencil in s, and in z on
    the undoubled strip; the doubled strip wraps in z."""
    if op.order > 2:
        raise ValueError("second-order stencils support order <= 2")
    n, toy = op.system_size, grid.geometry == "HalfLineToy"
    s, z = grid.s_nodes(), grid.z_nodes()
    nzz = z.size
    axis, mirror = (s, 1.0) if toy else (z, grid.L)
    minus = axis < mirror if toy else axis > mirror + 1e-12
    folded = np.where(minus, 2.0 * mirror - axis, axis)
    dirich = np.zeros((s.size, nzz), dtype=bool)
    if op.order > 0:
        dirich[[0, -1]] = True
        if not (toy or grid.doubled):
            dirich[:, [0, -1]] = True
    node_i, node_j = np.nonzero(~dirich)
    along = node_i if toy else node_j  # index along the doubled axis
    on_minus = minus[along]
    x = 1.0 / (folded if toy else s)[node_i]
    zc = z if toy else folded[node_j]  # the toy's one z node broadcasts
    terms = {}
    for (k, alpha, beta), pm in op.coefficients.items():
        if alpha != 0:
            raise ValueError("discrete geometries have a point base (alpha = 0)")
        cv = pm.eval(x, zc).reshape(-1, n * n) * ((-1.0) ** k * ipow(-(k + beta)))
        terms[k, beta] = cv * np.where(on_minus, (-1.0) ** (k if toy else beta), 1.0)[:, None]
    if bump is not None:
        bv = np.where(minus, bump(axis), 0.0)[along]
        terms[0, 0] = terms.get((0, 0), 0) + bv[:, None] * np.eye(n).ravel()
    comp_a, comp_b = np.divmod(np.arange(n * n), n)
    row = ((node_i * nzz + node_j)[:, None] * n + comp_a).ravel()
    rows, cols, vals = [], [], []
    for (k, beta), cv in terms.items():
        for os_, ws in zip(*_central_stencil(k, grid.hs)):
            for oz, wz in zip(*_central_stencil(beta, grid.hz)):
                col = (node_i + os_) * nzz + (node_j + oz) % nzz
                rows.append(row)
                cols.append((col[:, None] * n + comp_b).ravel())
                vals.append((ws * wz * cv).ravel())
    di = np.flatnonzero(np.repeat(dirich.ravel(), n))
    rows.append(di)
    cols.append(di)
    vals.append(np.ones(di.size, dtype=complex))
    size = s.size * nzz * n
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size)).tocsr()
    return GridOperator(grid, mat, di, op, bump)


def one_sided_trace(values, h, side, njet, degree, stability_tol=None):
    """Boundary jet by polynomial extrapolation from one side.

    `values` holds samples at rho = side*h*(1..K), K >= degree+2 (extra
    trailing axes allowed). Returns (jet, stability): jet[r] is the
    derivative d^r/drho^r at rho = 0 for r < njet, in the dtype of `values`
    (float64 or complex128; `_dz_jet` turns it into D_rho jets); stability
    is the relative difference between the degree and degree+1
    extrapolations.
    """
    values = _inexact(values)
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
    """Real weights W with d^r/drho^r u(0) ~ sum_j W[r, j] * u(side*h*(j+1))."""
    nodes = np.arange(1, degree + 2, dtype=float)
    v = np.vander(nodes, degree + 1, increasing=True)
    vinv = np.linalg.inv(v)
    w = np.zeros((njet, degree + 1))
    for r in range(min(njet, degree + 1)):
        w[r] = vinv[r] * math.factorial(r) / (side * h) ** r
    return w


@dataclass
class PathProjection:
    """Path-A result: the discrete projector, whose range and kernel bases
    are the boundary-data spaces B+ and B-. `projector.certs` holds the
    direct-sum gap of the two spaces and the largest stability report of
    the one-sided traces of the body solutions (`gap`, `trace_stability`)."""

    projector: Projector
    layout: dict
    operator: GridOperator


def calderon_path_spaces(opd):
    """Discrete Calderon projector with range B+ and kernel B-: boundary
    jets of the one-sided discrete Dirichlet problems on the doubled grid,
    extrapolated with degree p = m + 1 from p + 2 layers of each body
    (`one_sided_trace`; every body has at least 16).

    On the strip, an s-separable operator is solved one sine mode in s at a
    time. Every other operator is solved body by body: one sine mode in z
    at a time when the body's line blocks are exactly the same on every
    line, else by a block-tridiagonal sweep in z, each solve for the data
    of one interface (the other's come from the body flipped in z). When
    both bodies are exactly their own mirror, the projector is built from
    its even and odd halves under the reflection that swaps the two
    interfaces, else from the two whole spans (see _path_spaces_sweep).
    The 1-D toy takes one sparse LU of each body."""
    if not opd.grid.doubled:
        raise ValueError("path construction needs the doubled operator")
    if opd.grid.geometry == "HalfLineToy":
        return _path_spaces_toy(opd)
    if _s_separable(opd.model):
        return _path_spaces_modes(opd)
    return _path_spaces_sweep(opd)


def _by_side(side_data):
    """side_data(side) for the plus and the minus body, which returns the
    body's data and its certificates (name -> value). Returns the two data
    and the certificates of the pair: the larger value of the two bodies."""
    data, certs = [], {}
    for side in (+1, -1):
        values, side_certs = side_data(side)
        data.append(values)
        for name, value in side_certs.items():
            certs[name] = max(value, certs.get(name, value))
    return data, certs


def _path_from_spans(opd, side_span, layout):
    """Path-A projector from the spanning data columns of each body.

    side_span(side) returns the columns as derivative jets in the dtype of
    the body, and the body's certificates (name -> value); the projector
    reports the larger value of the two bodies, beside its gap."""
    spans, certs = _by_side(side_span)
    proj = projector_from_pair(*(SubspaceBasis.from_span(span, rank_tol=PATH_RANK_TOL)
                                 for span in spans))
    return _dz_phase(replace(proj, certs={**proj.certs, **certs}), layout, opd)


def _blocked_projector(spans):
    """Path-A projector of a direct sum of small independent problems:
    spans[0] and spans[1] stack, block by block, the columns that span B+
    and B- there, (block, rows, columns) with the two column counts adding
    up to the rows. Each side's rank is counted against its largest singular
    value over all blocks, as from_span counts it on the whole span; the
    singular values of the whole pair are those of the blocks, so the gap is
    the smallest over the blocks, and the pair is complementary when it
    exceeds PATH_RANK_TOL times the largest. Raises NotComplementary with the
    messages of projector_from_pair. Returns the orthonormal bases of each
    block (from the SVD), the projector blocks and the gap."""
    bases, ranks = [], []
    for span in spans:
        basis, sv, _ = np.linalg.svd(span, full_matrices=False)
        bases.append(basis)
        ranks.append(int(np.sum(sv > PATH_RANK_TOL * sv.max())))
    (r, k), dim = ranks, spans[0].shape[0] * spans[0].shape[1]
    if r + k != dim:
        raise NotComplementary(f"range dim {r} + kernel dim {k} != ambient dim {dim}", gap=0.0)
    pair = np.concatenate(bases, axis=2)
    sv = np.linalg.svd(pair, compute_uv=False)
    gap = float(sv.min())
    if gap <= PATH_RANK_TOL * sv.max():
        raise NotComplementary(
            "concatenated range/kernel basis is numerically singular", gap=gap)
    return bases, bases[0] @ np.linalg.inv(pair)[:, : bases[0].shape[2]], gap


def _dz_phase(proj, layout, opd):
    """Path-A result for D-jet data from the projector C of derivative-jet
    data: Phi C Phi* with bases Phi Q, where Phi = diag((-i)^r) and r is the
    derivative order of each data row. Phi is a unitary diagonal, so the
    ranks, the gap and the idempotence defect of C certify the result."""
    strip = layout["geometry"] == "StripHyperbolic"
    orders = np.repeat(np.arange(layout["m"]), layout["n_int"] if strip else layout["N"])
    if strip:
        orders = np.tile(orders, 2)  # (val, D_z) at z = 0, then at z = L
    phase = np.array([ipow(-r) for r in range(layout["m"])])[orders]

    def rotate(basis):
        return SubspaceBasis._orthonormal(phase[:, None] * basis.orthonormal(), basis.rank_tol)

    bp, bm = rotate(proj.range_basis), rotate(proj.kernel_basis)
    cmat = proj.matrix * phase[:, None]
    cmat *= phase.conj()
    return PathProjection(replace(proj, matrix=cmat, range_basis=bp, kernel_basis=bm),
                          layout, opd)


def _path_spaces_toy(opd):
    op = opd.model
    m, n = op.order, op.system_size
    if m < 1:
        raise ValueError("path construction needs order >= 1")
    p = m + 1
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
        jet, stability = one_sided_trace(u.reshape(ns + 1, n, n)[1 : p + 3], h, side, m, p)
        return jet.reshape(m * n, n), {"trace_stability": stability}

    layout = {"geometry": "HalfLineToy", "m": m, "N": n, "data_dim": m * n}
    return _path_from_spans(opd, side_span, layout)


def _s_separable(op):
    """No coefficient depends on x and every power of x^2 D_x is even: the
    doubled strip matrix then commutes with the DST-I in s."""
    return all(k % 2 == 0 and all(dx == 0 for dx, _ in pm.coeffs)
               for (k, _, _), pm in op.coefficients.items())


def _strip_setup(opd):
    m = opd.model.order
    if m != 2 or opd.model.system_size != 1:
        raise ValueError("strip path construction is implemented for scalar order-2 operators")
    ns = opd.grid.ns
    layout = {"geometry": "StripHyperbolic", "m": m, "N": 1, "n_int": ns - 1,
              "s_interior": opd.grid.s_nodes()[1:ns], "data_dim": 4 * (ns - 1)}
    return m, m + 1, layout


def _body_lines(grid, side):
    """Global z lines of a body: side +1 is z in [0, L], side -1 is
    z in [L, 2L] (its last line wraps to z = 0)."""
    return (np.arange(grid.nz + 1) + (0 if side > 0 else grid.nz)) % (2 * grid.nz)


def _jet_rows(u, hz, m, p, side):
    """Data rows (val@0, d_z@0, val@L, d_z@L) of the boundary jets of body
    solutions u, whose first axis runs over the body's z lines, in the dtype
    of u; and the larger trace stability of the two interfaces. The line
    index increases with global z on both bodies, so the jet at the lower
    interface is one-sided from above (+) and at the upper one from below
    (-), in the global z direction."""
    k_layers = p + 2
    jet_a, stab_a = one_sided_trace(u[1 : 1 + k_layers], hz, +1, m, p)
    jet_b, stab_b = one_sided_trace(u[-2 : -2 - k_layers : -1], hz, -1, m, p)
    # minus body: its first line is z = L, its last z = 2L ~ 0
    lo, hi = (jet_a, jet_b) if side > 0 else (jet_b, jet_a)
    return [lo[0], lo[1], hi[0], hi[1]], max(stab_a, stab_b)


def _path_spaces_sweep(opd):
    """Strip path A body by body, in z.

    Grouped by z line, the interior-s unknowns of a body satisfy
    A_j u_{j-1} + B_j u_j + C_j u_{j+1} = 0 for j = 1..nz-1, with data
    u_0 = g_lo and u_nz = g_hi on the interface lines. Every route is
    chosen from exact equalities of the blocks, never a tolerance.

    Each solver finds the solutions with g_lo = e_c and g_hi = 0:
      - blocks the same on every line, with A = C (no z-dependent
        coefficient, no odd power of D_z; the plus body of an x-dependent
        operator): one tridiagonal s-problem per sine mode in z
        (`_dst_body`), certified by each mode's normwise backward error,
        reported as `certs["mode_backward_error"]`;
      - otherwise a block-tridiagonal sweep (`_sweep_body`): a sweep down
        from the far interface gives u_j = M_j u_{j-1}, with
        K_j = B_j + C_j M_{j+1} and M_j = -K_j^-1 A_j, and one pass back up
        keeps the lines that the jets read. The largest normwise backward
        error of a line equation is `certs["line_backward_error"]`.

    The g_lo solutions of the body flipped under line j -> nz - j (`_flip`)
    are the g_hi solutions of the body with their lines reversed, and the
    reflection R (v0, dv0, vL, dvL) = (vL, -dvL, v0, -dv0) maps the jets of
    the one to those of the other exactly: the one-sided trace weights of
    the two sides differ in the sign of the odd orders. When both bodies
    are their own flip (`_mirrored`; a line-invariant body always is, and
    so is the minus body with a symmetric bump), C commutes with R and is
    built from two parity halves (`_path_from_halves`). Otherwise it comes
    from the two whole spans (`_path_from_spans`), and a body that is not
    its own flip also solves its flip with the same solver; the
    certificates are the largest over all solves.
    """
    m, p, layout = _strip_setup(opd)
    grid = opd.grid
    nz, k = grid.nz, p + 2
    kept = np.r_[0 : k + 1, nz - k : nz + 1]  # the lines that _jet_rows reads
    blocks = {side: _body_blocks(opd, side) for side in (+1, -1)}
    halves = all(_mirrored(b) for b in blocks.values())

    def solve(body, side, where):  # jet rows of the g_lo solutions, certificates
        solver, route, name = ((_dst_body, "z modes", "mode_backward_error")
                               if _line_invariant(body) else
                               (_sweep_body, "sweep", "line_backward_error"))
        u, err = solver(body, kept, f"strip {route}, {where}")
        rows, stability = _jet_rows(u, grid.hz, m, p, side)
        return rows, {name: err, "trace_stability": stability}

    def side_data(side):
        body = blocks.pop(side)  # freed once this body is solved
        rows, certs = solve(body, side, f"side {side:+d}")
        if halves:
            return _parity_halves(*rows), certs
        (v0, dv0, vl, dvl), flip_certs = ((rows, certs) if _mirrored(body) else
                                          solve(_flip(body), side, f"side {side:+d}, flipped"))
        certs = {name: max(value, flip_certs[name]) for name, value in certs.items()}
        return np.hstack([np.concatenate(rows), np.concatenate([vl, -dvl, v0, -dv0])]), certs

    return (_path_from_halves if halves else _path_from_spans)(opd, side_data, layout)


def _path_from_halves(opd, side_halves, layout):
    """Path-A projector of a doubled strip whose bodies are both their own
    mirror, from the even and odd halves of each body's g_lo data,
    side_halves(side) -> (`_parity_halves`, certificates).

    The reflection R maps the g_lo data J of a mirrored body to its g_hi
    data (see _path_spaces_sweep), so its span is [J | R J] and C commutes
    with R. The orthogonal butterflies
    E = [I 0; 0 I; I 0; 0 -I] / sqrt 2 and O = [I 0; 0 I; -I 0; 0 I] / sqrt 2
    span the even and the odd data, and a body's even and odd halves are
    spanned by E^T J and O^T J, of 2n x n for n = ns - 1. So
    C = E C_e E^T + O C_o O^T: with P = (C_e + C_o) / 2, M = (C_e - C_o) / 2
    and D = diag(I, -I), C = [P, M D; D M, D P D]. [E|O] is orthogonal, so
    the ranks, the gap and the idempotence defect of the halves are those
    of C."""
    halves, certs = _by_side(side_halves)
    (qp, qm), c_halves, gap = _blocked_projector(halves)
    ce, co = c_halves
    n2 = ce.shape[0]
    sign = np.repeat([1.0, -1.0], n2 // 2)  # the diagonal of D
    plus, minus = 0.5 * (ce + co), 0.5 * (ce - co)
    cmat = np.empty((2 * n2, 2 * n2), dtype=ce.dtype)
    cmat[:n2, :n2] = plus
    cmat[:n2, n2:] = minus * sign
    cmat[n2:, :n2] = sign[:, None] * minus
    cmat[n2:, n2:] = sign[:, None] * plus * sign

    def lift(q):  # [E q_e | O q_o], orthonormal as [E|O] and each q are
        return SubspaceBasis._orthonormal(
            np.concatenate([np.hstack([q[0], q[1]]), sign[:, None] * np.hstack([q[0], -q[1]])])
            / math.sqrt(2.0), PATH_RANK_TOL)

    proj = Projector(cmat, idempotence_defect(c_halves), lift(qp), lift(qm),
                     {"gap": gap, **certs})
    return _dz_phase(proj, layout, opd)


def _parity_halves(v0, dv0, vl, dvl):
    """sqrt 2 (E^T J, O^T J) for the data J = (v0, dv0, vL, dvL) of
    `_path_from_halves`, stacked as (half, 2n, columns)."""
    return np.stack([np.concatenate([v0 + vl, dv0 - dvl]),
                     np.concatenate([v0 - vl, dv0 + dvl])])


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
    coefficients of row i are d[..., 0, i], d[..., 1, i], d[..., 2, i],
    over any leading axes of d and x; a zero off-diagonal (no s derivative
    in the block) costs nothing."""
    y = d[..., 1, :, None] * x
    if d[..., 0, :].any():
        y[..., 1:, :] += d[..., 0, 1:, None] * x[..., :-1, :]
    if d[..., 2, :].any():
        y[..., :-1, :] += d[..., 2, :-1, None] * x[..., 1:, :]
    return y


def _band(d):
    """LAPACK (1, 1) band storage of the tridiagonals d in the row format of
    `_tri_mul` (d[..., 0, 0] and d[..., 2, -1] lie outside the matrix)."""
    out = np.zeros_like(d)
    out[..., 0, 1:], out[..., 1, :], out[..., 2, :-1] = d[..., 2, :-1], d[..., 1, :], d[..., 0, 1:]
    return out


def _sine_matrix(n):
    """Orthonormal DST-I of size n - 1, S_jl = sqrt(2/n) sin(pi j l / n) for
    j, l = 1..n-1: symmetric, its own inverse, and the eigenvectors of the
    path of n - 1 nodes, with eigenvalues 2 cos(pi l / n)."""
    j = np.arange(1, n)
    return np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(j, j) / n)


def _mode_solves(d, rhs, where):
    """X_l with T_l X_l = R_l for the tridiagonals T_l = d[l - 1] (row format
    of `_tri_mul`), one banded solve per mode l = 1, 2, ...; `rhs` holds the
    R_l, or one R for every mode. Also returns the largest normwise backward
    error |T_l X_l - R_l| / (|T_l||X_l| + |R_l|) over the modes; above
    SWEEP_TOL, or on a singular T_l, raises SolveFailure naming `where` and
    the mode."""

    def norms(a):  # Frobenius norms over the last two axes, without a copy of a
        parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
        return np.sqrt(sum(np.einsum("...ij,...ij->...", q, q) for q in parts))

    rhs_norm = norms(rhs)  # before the broadcast: one R for every mode is one norm
    rhs = np.broadcast_to(rhs, d.shape[:1] + rhs.shape[-2:])
    x = np.empty(rhs.shape, dtype=np.result_type(d, rhs))
    for l, (ab, r) in enumerate(zip(_band(d), rhs)):
        try:
            x[l] = sla.solve_banded((1, 1), ab, r, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolveFailure(f"{where}, mode {l + 1}: {exc}") from None
    scale = norms(d) * norms(x) + rhs_norm
    err = np.empty_like(scale)
    chunk = max(1, 2**19 // x[0].size)  # residuals of a few MB at a time, not one more copy of x
    for lo in range(0, len(d), chunk):
        part = slice(lo, lo + chunk)
        res = _tri_mul(d[part], x[part])
        res -= rhs[part]
        err[part] = norms(res) / scale[part]
    l = int(np.argmax(err))  # the first nan, if any
    if not err[l] <= SWEEP_TOL:
        raise SolveFailure(f"{where}, mode {l + 1}: "
                           f"backward error {err[l]:.3e} exceeds {SWEEP_TOL:.0e}")
    return x, float(err[l])


def _line_invariant(blocks):
    """The body's line blocks are exactly the same on every interior line,
    with A = C."""
    inner = blocks[1:-1]
    return bool(np.all(inner == inner[0]) and np.array_equal(inner[0, 0], inner[0, 2]))


def _flip(blocks):
    """The body flipped under line j -> nz - j: line j of the flip is line
    nz - j of the body, with A and C swapped."""
    return blocks[::-1, ::-1]


def _mirrored(blocks):
    """The body is exactly its own flip on the interior lines j = 1..nz-1.
    Its g_hi solutions are then its g_lo solutions reflected."""
    return bool(np.array_equal(blocks[1:-1], _flip(blocks)[1:-1]))


def _dst_body(blocks, kept, where):
    """`_sweep_body` for a line-invariant body (`_line_invariant`), one sine
    mode in z at a time: with the orthonormal DST-I S over the interior
    lines, mode l = 1..nz-1 solves (B + 2 cos(pi l / nz) A) X_l = A, and
    the solutions are -sum_l S_jl S_l1 X_l on the kept lines j. The blocks
    are the same on every line and S is orthonormal, so each mode's
    backward error (returned; `_mode_solves` bounds it by SWEEP_TOL and
    names `where`) certifies the line equations."""
    nz, n = blocks.shape[0] - 1, blocks.shape[-1]
    a, b = blocks[1, 0], blocks[1, 1]
    modes = np.arange(1, nz)
    x, err = _mode_solves(b + 2.0 * np.cos(np.pi * modes / nz)[:, None, None] * a,
                          _tri_mul(a, np.eye(n, dtype=blocks.dtype)), where)
    smat = _sine_matrix(nz)
    inner = (kept > 0) & (kept < nz)
    weights = smat[kept[inner] - 1] * smat[0]  # S_jl S_l1 on the kept interior lines
    out = np.zeros((kept.size, n, n), dtype=x.dtype)
    out[inner] = -np.tensordot(weights, x, axes=(1, 0))
    out[kept == 0] = np.eye(n)
    return out, err


def _sweep_body(blocks, kept, where):
    """Solutions of one body with g_lo = e_c and g_hi = 0 on its lines
    `kept`, as an array (line, s node, c). Also returns the largest
    normwise backward error
    |A u_{j-1} + B u_j + C u_{j+1}| / (|A||u_{j-1}| + |B||u_j| + |C||u_{j+1}|)
    of a line equation, over all the solutions; above SWEEP_TOL, or on a
    singular K_j, raises SolveFailure naming `where` and the line."""
    nz, n = blocks.shape[0] - 1, blocks.shape[-1]
    eye = np.eye(n, dtype=blocks.dtype)
    steps = np.empty((nz, n, n), dtype=blocks.dtype)  # M_j at j
    step = zero = np.zeros_like(eye)  # u_nz = g_hi = 0
    for j in range(nz - 1, 0, -1):
        a, b, c = blocks[j]
        try:  # inverse and product: faster than a solve with n right-hand sides
            kinv = sla.inv(_tri_mul(c, step) + _tri_mul(b, eye), check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolveFailure(f"{where}, line {j}: {exc}") from None
        if a[0].any() or a[2].any():
            step = kinv @ -_tri_mul(a, eye)
        else:  # A_j diagonal: M_j is a column scaling of K_j^-1
            step = kinv * -a[1]
        steps[j] = step
    out = np.empty((kept.size, n, n), dtype=blocks.dtype)
    lo, mid = None, eye  # u_0 = g_lo
    norm_lo, norm_mid = None, fro(mid)  # |u_{j-2}|, |u_{j-1}|, carried forward
    worst = 0.0
    for j in range(1, nz + 1):
        out[kept == j - 1] = mid
        hi = steps[j] @ mid if j < nz else zero
        norm_hi = fro(hi)
        if lo is not None:
            a, b, c = blocks[j - 1]
            res = fro(_tri_mul(a, lo) + _tri_mul(b, mid) + _tri_mul(c, hi))
            err = res / (fro(a) * norm_lo + fro(b) * norm_mid + fro(c) * norm_hi)
            if not err <= SWEEP_TOL:
                raise SolveFailure(f"{where}, line {j - 1}: "
                                   f"backward error {err:.3e} exceeds {SWEEP_TOL:.0e}")
            worst = max(worst, err)
        lo, mid = mid, hi
        norm_lo, norm_mid = norm_mid, norm_hi
    out[kept == nz] = mid
    return out, worst


def _path_spaces_modes(opd):
    """Strip path A for an s-separable operator, by fast diagonalisation.

    With the same-line block A0 and the next-line block A1 of the assembled
    matrix, sine mode j = 1..ns-1 of the DST-I in s solves the z-problem
    (A0 + 2 cos(pi j / ns) A1) u = 0 on each body: one tridiagonal solve per
    mode and body, and one 4 x 4 projector per mode (`_blocked_projector`,
    which the parity halves of the sweep route share). The largest normwise
    backward error of a mode's solve is reported as
    `certs["mode_backward_error"]` (bound SWEEP_TOL). Rank and
    complementarity are certified against the largest singular value over
    all modes; the singular values of the lifted pair are those of the
    modes, so its gap is the smallest over the modes. The idempotence
    defect is that of the lifted matrix.
    """
    m, p, layout = _strip_setup(opd)
    grid = opd.grid
    ns, n_int, nzz = grid.ns, layout["n_int"], 2 * grid.nz
    line = opd.matrix[nzz : 2 * nzz]  # rows of the s line i = 1
    a0 = line[:, nzz : 2 * nzz].toarray()
    a1 = line[:, 2 * nzz : 3 * nzz].toarray()
    if not (np.any(a0.imag) or np.any(a1.imag)):
        a0, a1 = a0.real, a1.real
    modes = np.arange(1, ns)
    twocos = 2.0 * np.cos(np.pi * modes / ns)

    def diagonals(b):  # the interior z-lines of a body block, in the row format of _tri_mul
        t = b[1:-1, 1:-1]
        out = np.zeros((3, t.shape[0]), dtype=t.dtype)
        out[0, 1:], out[1], out[2, :-1] = np.diagonal(t, -1), np.diagonal(t), np.diagonal(t, 1)
        return out

    def side_span(side):
        body = _body_lines(grid, side)
        b0, b1 = a0[np.ix_(body, body)], a1[np.ix_(body, body)]
        rhs0, rhs1 = -b0[1:-1][:, [0, -1]], -b1[1:-1][:, [0, -1]]
        c = twocos[:, None, None]
        x, err = _mode_solves(diagonals(b0) + c * diagonals(b1), rhs0 + c * rhs1,
                              f"strip s modes, side {side:+d}")
        u = np.zeros((body.size, n_int, 2), dtype=a0.dtype)
        u[0, :, 0] = u[-1, :, 1] = 1.0
        u[1:-1] = x.transpose(1, 0, 2)
        rows, stability = _jet_rows(u, grid.hz, m, p, side)
        return np.stack(rows, axis=1), {"trace_stability": stability,  # (mode, 4, 2)
                                        "mode_backward_error": err}

    spans, certs = _by_side(side_span)
    (up, um), c_modes, gap = _blocked_projector(spans)
    smat = _sine_matrix(ns)

    def lift(blocks):  # (mode, 4, c) -> (I_4 x S) blockdiag(blocks)
        return np.einsum("ij,jrc->ricj", smat, blocks).reshape(4 * n_int, -1)

    cmat = (lift(c_modes).reshape(4 * n_int, 4, n_int) @ smat).reshape(4 * n_int, -1)
    # S and every mode's singular vectors are orthonormal, so the lifts are
    bp = SubspaceBasis._orthonormal(lift(up), PATH_RANK_TOL)
    bm = SubspaceBasis._orthonormal(lift(um), PATH_RANK_TOL)
    proj = Projector(cmat, idempotence_defect(cmat), bp, bm, {"gap": gap, **certs})
    return _dz_phase(proj, layout, opd)


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


def green_identity_defect(coeffs, jump, u_fn, phi_fn, rho_max):
    """Oracle for the jump operator: for smooth u (plus side) and phi,

        <u, P* phi> - <P u, phi>  over rho > 0   vs   <J gamma u, gamma phi>.

    `coeffs` are the collar coefficients A_k as PolyMat1 in rho; u_fn/phi_fn
    map (rho, order) to arrays of D^j-free classical jets (order+1, N).
    Returns the absolute defect; the integral is 10-point Gauss-Legendre on
    48 equal panels.
    """
    m = len(coeffs) - 1
    adjoint = formal_adjoint(coeffs)
    x, w = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(0.0, rho_max, 49)
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
    """Convert classical derivative jets (first axis: order) to D_rho jets."""
    order = classical_jets.shape[0]
    conv = np.array([ipow(-j) for j in range(order)])
    return classical_jets * conv.reshape((order,) + (1,) * (classical_jets.ndim - 1))


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
            cols[:, q * n + c] = _dz_jet(jet).reshape(m * n)
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


def _wave_probe(path, freq, csym, window):
    """Standing wave sin(freq (s - 1)) in each data slot q < k = len(csym)
    against the prediction csym[r, q] * wave in slots r < k. Returns the
    per-slot sup relative errors where the bump on `window` reaches half
    its maximum, and the largest response in the slots from k on (the
    leakage), relative to the prediction."""
    n_int = path.layout["n_int"]
    s = path.layout["s_interior"]
    env = Bump(1.0, window)(s)
    if not np.any(env > 0):
        raise ValueError("evaluation window does not meet the grid")
    mask = env >= 0.5 * env.max()
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


def normal_probe(path, tau, envelope):
    """Compare the discrete projector against the normal-family projector on
    oscillatory boundary data (standing wave in s) x (unit jet pattern),
    with the normal family of the bump that `path` was assembled with.

    The requested tau snaps to the nearest Dirichlet-compatible frequency of
    the truncated s-interval, for which the doubled problem separates
    variables exactly; an envelope*e^{i tau s} wavepacket would instead
    carry an O(1/width) modulation error that no grid refinement removes.
    `envelope` = (lo, hi) is the evaluation window in s; the probe reports
    the sup relative error over the four jet patterns where the window bump
    reaches half its maximum.
    """
    if path.layout["geometry"] != "StripHyperbolic":
        raise GeometryMismatch("normal_probe runs on the strip geometry")
    tau_snap = _snap_frequency(tau, path.operator.grid.S)
    ext = FibreExtension(path.operator.grid.L, path.operator.bump)
    c4 = normal_calderon(path.operator.model, (tau_snap,), ext).matrix
    errs, _ = _wave_probe(path, tau_snap, c4, envelope)
    return ProbeReport(max(errs), tuple(errs),
                       {"tau": tau, "tau_snapped": tau_snap,
                        "envelope": envelope})


def symbol_probe(path, xi, point, width=2.0):
    """Compare the strip projector against the interior-symbol projector:
    localized oscillatory data e^{i xi (s - s0)} * bump at the z = 0
    interface versus the 2x2 frozen-symbol Calderon projector at the probe
    point."""
    if path.layout["geometry"] != "StripHyperbolic":
        raise GeometryMismatch("symbol_probe runs on the strip geometry")
    xi_snap = _snap_frequency(xi, path.operator.grid.S)
    csym = calderon_symbol(_frozen_interface_symbol(path.operator.model, 1.0 / point),
                           (float(xi_snap),)).matrix
    errs, leak = _wave_probe(path, xi_snap, csym, (point - width, point + width))
    return ProbeReport(max(errs), tuple(errs),
                       {"xi": xi, "xi_snapped": xi_snap, "point": point,
                        "leakage": leak})


def _frozen_interface_symbol(op, x0):
    """Interface symbol of a strip operator at the z = 0 collar: D_z becomes
    the transversal D_t, the s-oscillation contributes (-xi)^k. The symbol
    has no eta covariable, so a (x D_y)^alpha term with alpha != 0 raises
    ValueError."""
    n = op.system_size
    coeffs = {}
    for (k, alpha, beta), pm in op.coefficients.items():
        if alpha != 0:
            raise ValueError("the interface symbol has a point base (alpha = 0)")
        val = pm.eval(x0, 0.0) * ((-1.0) ** k)
        key = (beta, (), (k,))
        coeffs[key] = coeffs.get(key, 0) + val
    return PolyMatrixSymbol(op.order, n, 0, 1, coeffs)

