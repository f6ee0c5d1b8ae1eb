"""Normal families on the fibre: model operators, fibre ODEs, boundary-data
spaces of the plus and minus sides of the doubled fibre, the unique
continuation check, and the normal-family Calderon projector.

Convention: one global collar field nu with D_nu = D_z at both fibre
endpoints; boundary-data vectors in C^{2mN} are ordered
(jet at z=0, jet at z=L), each jet being (v, D_z v, ..., D_z^{m-1} v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import dct
from scipy.integrate import solve_ivp

from ._poly import PolyMat1, PolyMat2, companion_from_rows, compose_affine, formal_adjoint, horner
from .errors import (
    IntegrationFailure,
    NotComplementary,
    PointFibre,
    RankDeficient,
    SolveFailure,
)
from .linalg import (
    SubspaceBasis,
    direct_sum_check,
    projector_from_pair,
)

GEOMETRIES = ("HalfLineToy", "StripHyperbolic", "CuspDomain", "ExteriorToy")


@dataclass(frozen=True)
class Fibre:
    kind: str  # "point" or "interval"
    length: float = 0.0

    def __post_init__(self):
        if self.kind not in ("point", "interval"):
            raise ValueError(f"unknown fibre kind {self.kind!r}")
        if self.kind == "interval" and self.length <= 0:
            raise ValueError("interval fibre needs positive length")


class ModelOperator:
    """Model phi-differential operator with y-independent coefficients:

        P = x^{-c m} sum a_{k,alpha,beta}(x, z) (x^2 D_x)^k (x D_y)^alpha D_z^beta

    Coefficients are bivariate polynomial matrices in (x, z). The weight
    x^{-c m} does not change the solutions of P u = 0, so it is not stored.
    """

    def __init__(self, order, system_size, base_dim, fibre, coefficients,
                 geometry="StripHyperbolic", rank_tol=1e-8):
        self.order = int(order)
        self.system_size = int(system_size)
        self.base_dim = int(base_dim)
        self.fibre = fibre
        self.geometry = geometry
        if geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {geometry!r}")
        if self.order < 0:
            raise ValueError("negative order")
        if self.base_dim not in (0, 1):
            raise ValueError("base_dim must be 0 or 1")
        n = self.system_size
        self.coefficients = {}
        for key, val in coefficients.items():
            k, alpha, beta = (int(i) for i in key)
            if min(k, alpha, beta) < 0 or k + alpha + beta > self.order:
                raise ValueError(f"multi-index {key} out of range")
            if alpha > 0 and self.base_dim == 0:
                raise ValueError("alpha > 0 with point base")
            if beta > 0 and self.fibre.kind == "point":
                raise ValueError("beta > 0 with point fibre")
            pm = val if isinstance(val, PolyMat2) else PolyMat2(val, n)
            if pm.system_size != n:
                raise ValueError("coefficient system size mismatch")
            self.coefficients[(k, alpha, beta)] = pm
        lead = self.coefficients.get((self.order, 0, 0))
        if lead is None:
            raise ValueError("leading coefficient a_{m,0,0} is missing")
        zs = np.linspace(0.0, self.fibre.length, 33) if self.fibre.kind == "interval" else np.array([0.0])
        vals = lead.at_x0().eval(zs)
        sv = np.linalg.svd(vals, compute_uv=False)
        if np.min(sv[..., -1]) <= rank_tol * max(1.0, np.max(sv[..., 0])):
            raise ValueError("a_{m,0,0}(0, z) is singular on the fibre")
        self._families = {}  # normal families by side, see _plus_family


class FibreODE:
    """N(P)(mu) as an ODE of order m in z on [z_lo, z_hi]:

        sum_beta A_beta(z) D_z^beta v = 0,
        A_beta(z) = sum_{k,alpha} a_{k,alpha,beta}(0, z) tau^k eta^alpha

    An ODE is a _NormalFamily bound to the weights tau^k eta^alpha of its
    monomials. One built here from A_0..A_m gets a family of its own with
    the single monomial 1.
    """

    def __init__(self, order, system_size, interval, coeffs, mu=None,
                 extra_potential=None, rank_tol=1e-8):
        order, n = int(order), int(system_size)
        if len(coeffs) != order + 1:
            raise ValueError("need coefficients A_0..A_m")
        table = np.zeros((max(c.degree for c in coeffs) + 1, 1, order + 1, n, n), dtype=complex)
        for beta, c in enumerate(coeffs):
            table[: c.degree + 1, 0, beta] = c.coeffs
        family = _NormalFamily(order, n, interval, [(0, 0)], table, extra_potential)
        _check_leading(family, rank_tol)
        self._bind(family, mu, (1.0,), list(coeffs))

    def _bind(self, family, mu, weights, coeffs=None):
        self.family, self.mu, self.weights, self._coeffs = family, mu, weights, coeffs
        self.order, self.system_size = family.order, family.system_size
        self.interval, self.extra_potential = family.interval, family.potential

    @property
    def coeffs(self):
        """A_0..A_m as PolyMat1, summed from the family on first use."""
        if self._coeffs is None:
            self._coeffs = self.family.coeffs(self.weights)
        return self._coeffs

    @property
    def dim(self):
        return self.order * self.system_size

    @property
    def length(self):
        return self.interval[1] - self.interval[0]

    def coeff_values(self, z):
        vals = [c.eval(z) for c in self.coeffs]
        if self.extra_potential is not None:
            a = np.asarray(self.extra_potential(np.asarray(z, dtype=float)))
            vals[0] = vals[0] + a[..., None, None] * np.eye(self.system_size)
        return vals

    def companion(self, z):
        """D_z-convention companion: D_z V = A(z) V, V = (v, ..., D_z^{m-1} v).
        Evaluates at scalar or array z; returns (..., mN, mN)."""
        return self.family.companion(self.family.tables(z), self.weights)

    def formal_adjoint(self):
        """L2 formal adjoint (see _poly.formal_adjoint). The bump potential,
        when present, must be real-valued and is kept."""
        return FibreODE(self.order, self.system_size, self.interval,
                        formal_adjoint(self.coeffs), mu=self.mu,
                        extra_potential=self.extra_potential)


class _NormalFamily:
    """The mu-independent part of a family of fibre ODEs on `interval`,

        sum_w mu^w sum_beta A_{w,beta}(z) D_z^beta v + q(z) v = 0,

    where mu^w = tau^k eta^alpha runs over the monomials w = (k, alpha) in
    `powers`, the first being (0, 0), and q is an optional potential.
    `table` holds the coefficients as (degree in z, monomial, beta, N, N).
    Only w = (0, 0) has a beta = m part (k + alpha + beta <= m), so A_m
    carries no mu. Per panel layout (p, breaks) the family keeps the factors
    of the collocation tensor and the companion tables at the nodes; nothing
    keyed by mu is kept."""

    def __init__(self, order, system_size, interval, powers, table, potential=None):
        self.order, self.system_size = order, system_size
        self.interval = (float(interval[0]), float(interval[1]))
        if self.interval[1] <= self.interval[0]:
            raise ValueError("empty fibre interval")
        self.powers, self.table, self.potential = powers, table, potential
        self._layouts = {}

    def at(self, tau, eta):
        """The ODE of the family at mu = (tau, eta)."""
        ode = FibreODE.__new__(FibreODE)
        ode._bind(self, (tau, eta), [tau**k * (eta**alpha if alpha else 1.0)
                                     for k, alpha in self.powers])
        return ode

    def coeffs(self, weights):
        """A_0..A_m at the given monomial weights, as PolyMat1."""
        table = np.tensordot(weights, self.table, axes=([0], [1]))
        return [PolyMat1(table[:, beta], self.system_size) for beta in range(self.order + 1)]

    def mirrored(self, length, potential):
        """The family of the doubled operator on the minus side [L, 2L]:
        B_{w,b}(z) = (-1)^b A_{w,b}(2L - z), plus the potential."""
        sign = (-1.0) ** np.arange(self.order + 1)
        table = compose_affine(self.table, 2.0 * length, -1.0) * sign[:, None, None]
        return _NormalFamily(self.order, self.system_size, (length, 2.0 * length),
                             self.powers, table, potential)

    def tables(self, z):
        """Companion tables at z (any shape s), from one solve with A_m: the
        mu-free last block row R = -A_m^-1 [q I, 0, ..., 0], shape
        s + (N, mN), and per monomial F_w = -A_m^-1 [A_{w,0}, ..., A_{w,m-1}],
        shape (W,) + s + (N, mN)."""
        m, n, nw = self.order, self.system_size, len(self.powers)
        z = np.asarray(z, dtype=float)
        vals = horner(self.table, z)
        q = np.zeros(z.shape) if self.potential is None else np.asarray(self.potential(z))
        rhs = np.concatenate([np.moveaxis(vals[..., :m, :, :], -2, -4).reshape(z.shape + (n, nw * m * n)),
                              q[..., None, None] * np.eye(n)], axis=-1)
        x = -np.linalg.solve(vals[..., 0, m, :, :], rhs)
        rows = np.zeros(z.shape + (n, m * n), dtype=complex)
        rows[..., :n] = x[..., nw * m * n :]
        return rows, np.moveaxis(x[..., : nw * m * n].reshape(z.shape + (n, nw, m * n)), -2, 0)

    def companion(self, tables, weights):
        """Companion matrices R + sum_w mu^w F_w from `tables` (see tables)."""
        rows, f = tables
        return companion_from_rows(sum((w * fw for w, fw in zip(weights, f)), rows), self.order)

    def layout(self, p, breaks):
        """Collocation of the panels [a, b] between the breaks at every node
        but each panel's first: the factors of the tensor (-2i/(b-a)) D (x) I,
        namely -2i/(b-a) per panel and D (x) I without its first d rows, and
        the companion tables at those nodes, node-major (node, panel). The
        tensor itself is one outer product per mu, which costs about what a
        copy of a kept tensor would."""
        key = (p, tuple(breaks))
        if key not in self._layouts:
            x, dmat = _cheb(p)
            a, b = breaks[:-1], breaks[1:]
            z = 0.5 * (a + b) + 0.5 * (b - a) * x[1:, None]
            d = self.order * self.system_size
            self._layouts[key] = (-2j / (b - a), np.kron(dmat[1:], np.eye(d)).astype(complex),
                                  self.tables(z))
        return self._layouts[key]


def _check_leading(family, rank_tol=1e-8):
    """ValueError unless A_m is invertible at 33 points of the fibre. A_m
    carries no mu, so this runs once per family."""
    zs = np.linspace(*family.interval, 33)
    sv = np.linalg.svd(horner(family.table[:, 0, -1], zs), compute_uv=False)
    if np.min(sv[..., -1]) <= rank_tol * max(1.0, np.max(sv[..., 0])):
        raise ValueError("leading ODE coefficient is singular on the fibre")


def _plus_family(op):
    """The family of N(P) on [0, L]: the x = 0 coefficients of op grouped by
    their monomial tau^k eta^alpha. Built and checked on first use and kept
    on the operator, whose coefficients are fixed once it is constructed."""
    family = op._families.get("plus")
    if family is None:
        m, n = op.order, op.system_size
        entries = [(k, alpha, beta, dz, c) for (k, alpha, beta), pm in op.coefficients.items()
                   for (dx, dz), c in pm.coeffs.items() if dx == 0]
        powers = list(dict.fromkeys([(0, 0)] + [e[:2] for e in entries]))
        deg = max((e[3] for e in entries), default=0)
        table = np.zeros((deg + 1, len(powers), m + 1, n, n), dtype=complex)
        for k, alpha, beta, dz, c in entries:
            table[dz, powers.index((k, alpha)), beta] = c
        family = _NormalFamily(m, n, (0.0, op.fibre.length), powers, table)
        _check_leading(family)
        op._families["plus"] = family
    return family


def _minus_family(op, ext):
    """The family of the doubled operator on the minus side of `ext`, derived
    from _plus_family(op) and kept on the operator per extension."""
    family = op._families.get(ext)
    if family is None:
        if ext.length != op.fibre.length:
            raise ValueError(f"extension length {ext.length} differs from the "
                             f"fibre length {op.fibre.length}")
        family = op._families[ext] = _plus_family(op).mirrored(ext.length, ext.bump)
    return family


MU_CAP = 16.0  # exponential growth over the fibre stays within float64


def normal_operator(op, mu, mu_cap=MU_CAP):
    """Freeze coefficients at x = 0 and substitute tau^k eta^alpha: the
    operator's normal family (built once, see _plus_family) at mu."""
    if op.fibre.kind != "interval":
        raise PointFibre("normal_operator needs an interval fibre; "
                         "use full_ellipticity_scan for point fibres")
    tau, eta = _split_mu(op, mu)
    if not (math.isfinite(tau) and math.isfinite(eta)):
        raise ValueError(f"mu={mu} is not finite")
    if mu_cap is not None and max(abs(tau), abs(eta)) > mu_cap:
        raise ValueError(f"|mu| exceeds the growth cap {mu_cap}")
    return _plus_family(op).at(tau, eta)


def _split_mu(op, mu):
    if np.isscalar(mu):
        mu = (float(mu),)
    tau = float(mu[0])
    eta = float(mu[1]) if len(mu) > 1 else 0.0
    if op.base_dim == 0 and len(mu) > 1 and eta != 0.0:
        raise ValueError("eta supplied for a point base")
    return tau, eta


@dataclass
class FundamentalSolution:
    """Solution space of the fibre ODE represented by endpoint jet maps.

    Columns are the solutions with D_z-canonical jets at the left endpoint;
    jet_hi maps those initial jets to D_z-jets at the right endpoint.
    """

    ode: FibreODE
    jet_lo: np.ndarray
    jet_hi: np.ndarray
    residual: float


CHEB_P = 16  # p + 1 Chebyshev points per panel
TAIL_TOL = 1e-10  # bound on a panel's last 3 Chebyshev coefficients / largest


def _cheb(p):
    """Ascending Chebyshev points on [-1, 1] and their differentiation
    matrix (Trefethen, Spectral Methods in MATLAB, ch. 6)."""
    j = np.arange(p + 1)
    x = -np.cos(np.pi * j / p)
    c = np.where(j % p == 0, 2.0, 1.0) * (-1.0) ** j
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(p + 1))
    return x, d - np.diag(d.sum(axis=1))


def _panel_breaks(ode):
    """Four equal panels; with a bump potential, breaks at the ends of its
    support and panels inside it graded geometrically (ratio 1/2, 5 levels)
    towards both ends, where the bump is smooth but not analytic."""
    lo, hi = ode.interval
    support = getattr(ode.extra_potential, "support", None)
    if support is None:
        return np.linspace(lo, hi, 5)
    a, b = support
    half = 0.5 * (b - a)
    grade = half * 0.5 ** np.arange(5, 0, -1)
    return np.concatenate([[lo, a], a + grade, [a + half], (b - grade)[::-1], [b, hi]])


def _panel_solutions(ode, side, p, breaks):
    """Orthonormal solution basis of D_z V = A(z) V on every panel, as an
    array (panel, node, component, solution), and the largest relative
    collocation residual |M V| / (|M| |V|) over the panels. M collocates the
    system at every node but the first: the family's mu-free tensor of the
    layout minus the companion at the nodes. By ODE uniqueness a solution is
    fixed by its values at the first node, so those d columns split M into
    [M_0 | B] with B square, and V = [I; -B^-1 M_0]: one batched solve over
    all panels, then a batched thin QR."""
    d = ode.dim
    scale, dmat, tables = ode.family.layout(p, breaks)
    k = scale.shape[0]
    mat = np.multiply.outer(scale, dmat).reshape(k, p, d, p + 1, d)
    j = np.arange(1, p + 1)
    mat[:, j - 1, :, j] -= ode.family.companion(tables, ode.weights)
    mat = mat.reshape(k, p * d, (p + 1) * d)
    try:
        rest = np.linalg.solve(mat[:, :, d:], -mat[:, :, :d])
    except np.linalg.LinAlgError as exc:
        worst = int(np.argmax(np.linalg.cond(mat[:, :, d:])))
        raise SolveFailure(
            f"{side} side at mu={ode.mu}: collocation block of panel {worst} "
            f"[{breaks[worst]:.4g}, {breaks[worst + 1]:.4g}] is singular ({exc})") from None
    first = np.broadcast_to(np.eye(d), (k, d, d))
    null = np.linalg.qr(np.concatenate([first, rest], axis=1))[0]
    res, m_norm, v_norm = (_panel_norms(m) for m in (mat @ null, mat, null))
    return null.reshape(k, p + 1, d, d), float(np.max(res / (m_norm * v_norm)))


def _panel_norms(a):
    """Frobenius norm of each panel's complex matrix a[i], as one sum of
    squares over the real and imaginary parts."""
    v = np.ascontiguousarray(a).view(float).reshape(a.shape[0], -1)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _collocated_jets(ode, side, p=CHEB_P, breaks=None):
    """End jets (at z_lo, at z_hi) of one solution basis of the fibre ODE,
    and its certificates: the worst Chebyshev tail and the worst collocation
    residual of a panel. Each panel's solutions are read from their values
    at its first node (see _panel_solutions); the interface matching matrix
    joins the panels."""
    breaks = _panel_breaks(ode) if breaks is None else np.asarray(breaks, dtype=float)
    null, resid = _panel_solutions(ode, side, p, breaks)
    coef = np.abs(dct(null, type=1, axis=1))
    coef[:, [0, -1]] *= 0.5
    tails = coef[:, -3:].max(axis=(1, 2, 3)) / coef.max(axis=(1, 2, 3))
    worst = int(np.argmax(tails))
    if not tails[worst] <= TAIL_TOL:
        raise SolveFailure(
            f"{side} side at mu={ode.mu}: Chebyshev tail {tails[worst]:.3e} exceeds "
            f"{TAIL_TOL:.0e} on panel {worst} [{breaks[worst]:.4g}, {breaks[worst + 1]:.4g}]")
    k, d = null.shape[0], ode.dim
    lo, hi = null[:, 0], null[:, -1]
    match = np.zeros((k - 1, d, k, d), dtype=complex)
    j = np.arange(k - 1)
    match[j, :, j] = hi[:-1]
    match[j, :, j + 1] = -lo[1:]
    c = np.linalg.svd(match.reshape((k - 1) * d, k * d))[2][-d:].conj().T.reshape(k, d, d)
    return lo[0] @ c[0], hi[-1] @ c[-1], {"tail": float(tails[worst]), "panel_residual": resid}


def fundamental_matrix(ode):
    """Endpoint jet maps read from the collocated solution basis with end
    jets Lo, H: jet_hi = H Lo^-1; the residual is the Chebyshev tail."""
    lo, hi, certs = _collocated_jets(ode, "plus")
    return FundamentalSolution(ode, np.eye(ode.dim, dtype=complex),
                               np.linalg.solve(lo.T, hi.T).T, certs["tail"])


def propagate_jet(ode, jet_lo, rtol=1e-11, atol=1e-13, method="DOP853"):
    """D_z-jet at the right endpoint of the solution with the given left jet."""
    n = ode.dim
    z_lo, z_hi = ode.interval
    sol = solve_ivp(lambda z, v: 1j * (ode.companion(z) @ v), (z_lo, z_hi),
                    np.asarray(jet_lo, dtype=complex), method=method,
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationFailure(f"integrator failed: {sol.message}")
    return sol.y[:, -1]


def _data_space(ode, side, rank_tol):
    """Boundary-data basis of one side of the doubled fibre, ordered
    (jet at z=0, jet at z=L), and its collocation certificates."""
    lo, hi, certs = _collocated_jets(ode, side)
    stacked = np.vstack([lo, hi] if side == "plus" else [hi, lo])
    basis = SubspaceBasis.from_span(stacked, rank_tol=rank_tol)
    if basis.dim != ode.dim:
        raise RankDeficient(
            f"{side}-side jet map lost rank: {basis.dim} < {ode.dim}")
    return basis, certs


def boundary_data_space(ode, rank_tol=1e-8):
    """Basis of B+(mu) = {gamma u : N(P)(mu) u = 0} in C^{2mN}, data ordered
    (jet at z_lo, jet at z_hi) with the single global D_z convention."""
    return _data_space(ode, "plus", rank_tol)[0]


@dataclass(frozen=True)
class Bump:
    """Smooth bump h * exp(-1/(1-w^2)) supported on (lo, hi)."""

    height: float = 1.0
    support: tuple = (0.0, 1.0)

    def __post_init__(self):
        # a tuple of floats keeps the bump hashable: extensions key the
        # minus-side families (see _minus_family)
        object.__setattr__(self, "support", tuple(float(s) for s in self.support))
        if self.height < 0:
            raise ValueError("bump height must be nonnegative")
        if self.support[1] <= self.support[0]:
            raise ValueError("empty bump support")

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self.support
        w = (2.0 * z - (lo + hi)) / (hi - lo)
        out = np.zeros_like(w)
        inside = np.abs(w) < 1.0
        out[inside] = self.height * np.exp(-1.0 / (1.0 - w[inside] ** 2))
        return out


@dataclass(frozen=True)
class FibreExtension:
    """Doubled fibre: circle [0, 2L]/~ with a nonnegative bump potential
    supported in the minus side (L, 2L).

    Mirror doubling across a single endpoint is realized by the 1-D
    discrete geometry, not here.
    """

    length: float
    bump: Bump | None = None

    def __post_init__(self):
        if self.bump is not None:
            lo, hi = self.bump.support
            if not (self.length < lo and hi < 2 * self.length):
                raise ValueError("bump support must lie inside the minus side")

    @classmethod
    def with_default_bump(cls, length, height=1.0):
        return cls(length, Bump(height, (1.15 * length, 1.85 * length)))

    def minus_ode(self, op, mu):
        """Normal family of the doubled operator on the minus side [L, 2L]:
        mirrored coefficients B_b(z) = (-1)^b A_b(2L - z), plus the bump."""
        tau, eta = normal_operator(op, mu).mu
        return _minus_family(op, self).at(tau, eta)


def minus_boundary_data_space(ext, op, mu, rank_tol=1e-8):
    """Basis of B-(mu): boundary data at {0, L} of solutions on the minus
    side of the doubled fibre, read as limits from the minus side.

    Data ordering matches boundary_data_space: (jet at z=0+~2L, jet at z=L).
    """
    return _data_space(ext.minus_ode(op, mu), "minus", rank_tol)[0]


@dataclass(frozen=True)
class UcpReport:
    dim_shadow: int
    min_sv: float


def ucp_check(ode, rank_tol=1e-8):
    """Shadow-solution dimension of the fibre ODE (zero for the model class
    by ODE uniqueness): d minus the rank of the stacked end jets [lo; hi] of
    a collocated solution basis. The conditioning report min_sv is the
    smallest singular value of the first d rows of the left singular
    vectors of [lo; hi], the one-endpoint jet map of an orthonormal basis of
    the solution data, which does not depend on the basis chosen."""
    lo, hi, _ = _collocated_jets(ode, "plus")
    u, s, _ = np.linalg.svd(np.vstack([lo, hi]), full_matrices=False)
    rank = int(np.sum(s > rank_tol * s[0]))
    return UcpReport(ode.dim - rank, float(np.linalg.norm(u[: ode.dim], -2)))


def range_solution_residual(ode, projector, rtol=1e-11):
    """Max relative defect between the upper jet of each range basis column
    and the integrated solution launched from its lower jet."""
    rb = projector.range_basis
    if rb is None or rb.dim == 0:
        return 0.0
    n = ode.dim
    worst = 0.0
    q = rb.orthonormal()
    for j in range(rb.dim):
        col = q[:, j]
        jet_hi = propagate_jet(ode, col[:n], rtol=rtol)
        err = np.linalg.norm(jet_hi - col[n:]) / max(1.0, np.linalg.norm(col))
        worst = max(worst, float(err))
    return worst


def normal_calderon(op, mu, ext, gap_tol=1e-8, rank_tol=1e-8):
    """Normal-family Calderon projector at mu: projector_from_pair of the
    plus and minus boundary-data spaces of the doubled extension, carrying
    as certificates the direct-sum gap and, over both sides, the worst
    Chebyshev tail and the worst panel collocation residual (reported only,
    no bound)."""
    bp, certs_p = _data_space(normal_operator(op, mu), "plus", rank_tol)
    bm, certs_m = _data_space(ext.minus_ode(op, mu), "minus", rank_tol)
    report = direct_sum_check(bp, bm, tol=gap_tol)
    if not report.is_direct_sum:
        raise NotComplementary("B+ and B- are not complementary",
                               gap=report.gap, mu=mu)
    return replace(projector_from_pair(bp, bm),
                   certs={"gap": report.gap,
                          **{key: max(certs_p[key], certs_m[key]) for key in certs_p}})


@dataclass(frozen=True)
class ScanRow:
    mu: tuple
    min_sv: float
    invertible: bool


@dataclass(frozen=True)
class ScanReport:
    rows: list
    failing: list


def full_ellipticity_scan(op, mu_grid, ext=None, tol=1e-6):
    """Invertibility of the normal family over a mu grid.

    Point fibres: N(P)(mu) is a matrix, so a singular-value check. Interval
    fibres: the doubled normal operator (bump from `ext`, none if omitted)
    is invertible exactly when B+(mu) and B-(mu) meet only in 0, so min_sv
    is their direct-sum gap (see normal_calderon).
    """
    if ext is None and op.fibre.kind == "interval":
        ext = FibreExtension(op.fibre.length)
    rows = []
    for mu in mu_grid:
        mu_t = tuple(np.atleast_1d(mu).astype(float))
        if op.fibre.kind == "point":
            tau, eta = _split_mu(op, mu_t)
            n = op.system_size
            acc = np.zeros((n, n), dtype=complex)
            for (k, alpha, beta), pm in op.coefficients.items():
                acc += (tau**k) * (eta**alpha if alpha else 1.0) * pm.eval(0.0, 0.0)
            sv = float(np.linalg.svd(acc, compute_uv=False)[-1])
        else:
            bp = boundary_data_space(normal_operator(op, mu_t))
            sv = direct_sum_check(bp, minus_boundary_data_space(ext, op, mu_t)).gap
        rows.append(ScanRow(mu_t, sv, bool(sv > tol)))
    return ScanReport(rows, [r.mu for r in rows if not r.invertible])
