"""Normal families on the fibre: model operators, fibre ODEs, boundary-data
spaces of the plus and minus sides of the doubled fibre, the unique
continuation check, and the normal-family Calderon projector.

Convention: one global collar field nu with D_nu = D_z at both fibre
endpoints; boundary-data vectors in C^{2mN} are ordered
(jet at z=0, jet at z=L), each jet being (v, D_z v, ..., D_z^{m-1} v).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import dct
from scipy.integrate import solve_ivp

from ._poly import PolyMat1, PolyMat2, block_companion, formal_adjoint
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


class FibreODE:
    """N(P)(mu) as an ODE of order m in z on [z_lo, z_hi]:

        sum_beta A_beta(z) D_z^beta v = 0,
        A_beta(z) = sum_{k,alpha} a_{k,alpha,beta}(0, z) tau^k eta^alpha
    """

    def __init__(self, order, system_size, interval, coeffs, mu=None,
                 extra_potential=None, rank_tol=1e-8):
        self.order = int(order)
        self.system_size = int(system_size)
        self.interval = (float(interval[0]), float(interval[1]))
        if self.interval[1] <= self.interval[0]:
            raise ValueError("empty fibre interval")
        if len(coeffs) != self.order + 1:
            raise ValueError("need coefficients A_0..A_m")
        self.coeffs = list(coeffs)
        self.mu = mu
        self.extra_potential = extra_potential
        zs = np.linspace(*self.interval, 33)
        lead = self.coeffs[-1].eval(zs)
        sv = np.linalg.svd(lead, compute_uv=False)
        if np.min(sv[..., -1]) <= rank_tol * max(1.0, np.max(sv[..., 0])):
            raise ValueError("leading ODE coefficient is singular on the fibre")

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
        return block_companion(self.coeff_values(z))

    def formal_adjoint(self):
        """L2 formal adjoint (see _poly.formal_adjoint). The bump potential,
        when present, must be real-valued and is kept."""
        return FibreODE(self.order, self.system_size, self.interval,
                        formal_adjoint(self.coeffs), mu=self.mu,
                        extra_potential=self.extra_potential)


MU_CAP = 16.0  # exponential growth over the fibre stays within float64


def normal_operator(op, mu, mu_cap=MU_CAP):
    """Freeze coefficients at x = 0 and substitute tau^k eta^alpha."""
    if op.fibre.kind != "interval":
        raise PointFibre("normal_operator needs an interval fibre; "
                         "use full_ellipticity_scan for point fibres")
    tau, eta = _split_mu(op, mu)
    if mu_cap is not None and max(abs(tau), abs(eta)) > mu_cap:
        raise ValueError(f"|mu| exceeds the growth cap {mu_cap}")
    n = op.system_size
    coeffs = [PolyMat1.zero(n) for _ in range(op.order + 1)]
    for (k, alpha, beta), pm in op.coefficients.items():
        w = (tau**k) * (eta**alpha if alpha else 1.0)
        coeffs[beta] = coeffs[beta] + pm.at_x0().scale(w)
    return FibreODE(op.order, n, (0.0, op.fibre.length), coeffs, mu=(tau, eta))


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


def _collocated_jets(ode, side, p=CHEB_P, breaks=None):
    """End jets (at z_lo, at z_hi) of one solution basis of the fibre ODE and
    its Chebyshev tail. D_z V = A(z) V is collocated on each panel without
    the rows of its first node, whose last d right singular vectors span the
    panel's solutions; the interface matching matrix joins the panels."""
    d = ode.dim
    breaks = _panel_breaks(ode) if breaks is None else np.asarray(breaks, dtype=float)
    x, dmat = _cheb(p)
    a, b = breaks[:-1, None], breaks[1:, None]
    z = 0.5 * (a + b) + 0.5 * (b - a) * x
    k = z.shape[0]
    mat = np.einsum("k,ij,ab->kiajb", -2j / (b - a)[:, 0], dmat, np.eye(d))
    j = np.arange(p + 1)
    mat[:, j, :, j] -= ode.companion(z).swapaxes(0, 1)
    mat = mat.reshape(k, (p + 1) * d, (p + 1) * d)[:, d:]
    null = np.linalg.svd(mat)[2][:, -d:].conj().swapaxes(1, 2).reshape(k, p + 1, d, d)
    coef = np.abs(dct(null, type=1, axis=1))
    coef[:, [0, -1]] *= 0.5
    tails = coef[:, -3:].max(axis=(1, 2, 3)) / coef.max(axis=(1, 2, 3))
    worst = int(np.argmax(tails))
    if tails[worst] > TAIL_TOL:
        raise SolveFailure(
            f"{side} side at mu={ode.mu}: Chebyshev tail {tails[worst]:.3e} exceeds "
            f"{TAIL_TOL:.0e} on panel {worst} [{breaks[worst]:.4g}, {breaks[worst + 1]:.4g}]")
    lo, hi = null[:, 0], null[:, -1]
    match = np.zeros((k - 1, d, k, d), dtype=complex)
    j = np.arange(k - 1)
    match[j, :, j] = hi[:-1]
    match[j, :, j + 1] = -lo[1:]
    c = np.linalg.svd(match.reshape((k - 1) * d, k * d))[2][-d:].conj().T.reshape(k, d, d)
    return lo[0] @ c[0], hi[-1] @ c[-1], float(tails[worst])


def fundamental_matrix(ode):
    """Endpoint jet maps read from the collocated solution basis with end
    jets Lo, H: jet_hi = H Lo^-1; the residual is the Chebyshev tail."""
    lo, hi, tail = _collocated_jets(ode, "plus")
    return FundamentalSolution(ode, np.eye(ode.dim, dtype=complex),
                               np.linalg.solve(lo.T, hi.T).T, tail)


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
    (jet at z=0, jet at z=L), and its Chebyshev tail certificate."""
    lo, hi, tail = _collocated_jets(ode, side)
    stacked = np.vstack([lo, hi] if side == "plus" else [hi, lo])
    basis = SubspaceBasis.from_span(stacked, rank_tol=rank_tol)
    if basis.dim != ode.dim:
        raise RankDeficient(
            f"{side}-side jet map lost rank: {basis.dim} < {ode.dim}")
    return basis, tail


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
        base = normal_operator(op, mu)
        two_l = 2.0 * self.length
        coeffs = [
            c.compose_affine(two_l, -1.0).scale((-1.0) ** b)
            for b, c in enumerate(base.coeffs)
        ]
        return FibreODE(base.order, base.system_size, (self.length, two_l),
                        coeffs, mu=base.mu, extra_potential=self.bump)


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
    the direct-sum gap and the worse Chebyshev tail as certificates."""
    bp, tail_p = _data_space(normal_operator(op, mu), "plus", rank_tol)
    bm, tail_m = _data_space(ext.minus_ode(op, mu), "minus", rank_tol)
    report = direct_sum_check(bp, bm, tol=gap_tol)
    if not report.is_direct_sum:
        raise NotComplementary("B+ and B- are not complementary",
                               gap=report.gap, mu=mu)
    return replace(projector_from_pair(bp, bm),
                   certs={"gap": report.gap, "tail": max(tail_p, tail_m)})


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
