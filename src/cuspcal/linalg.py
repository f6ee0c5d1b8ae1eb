"""Dense linear algebra primitives: Riesz contour projectors and subspace
operations.

The subspace operations compute in the dtype they are given: a real operand
stays float64, a complex one complex128. Riesz projectors are complex.

All unqualified norms are Frobenius norms; tolerances are relative to the
Frobenius norm of the operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (
    ContourTooClose,
    GramNotPD,
    NotComplementary,
    RankDeficient,
)

DEFAULT_RANK_TOL = 1e-8


def as_matrix(a, name="matrix"):
    """Validate a 2-d complex array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _inexact(a):
    """`a` as float64, or as complex128 when its dtype is complex."""
    a = np.asarray(a)
    return a if a.dtype.char in "dD" else a.astype(np.result_type(a.dtype, np.float64))


def fro(a):
    return float(np.linalg.norm(a))


def idempotence_defect(c):
    """|C^2 - C| relative to max(1, |C|); for a stack of square blocks C,
    that of their block diagonal."""
    c = _inexact(c)
    return fro(c @ c - c) / max(1.0, fro(c))


def gram_adjoint(a, gram):
    """Adjoint of `a` in the inner product <u, v> = v^H G u."""
    g = as_matrix(gram, "gram")
    return np.linalg.solve(g, a.conj().T @ g)


def check_gram(gram):
    """Validate a Hermitian positive definite inner-product matrix."""
    g = as_matrix(gram, "gram")
    if fro(g - g.conj().T) > 1e-10 * max(1.0, fro(g)):
        raise GramNotPD("gram matrix is not Hermitian")
    try:
        sla.cholesky(0.5 * (g + g.conj().T), lower=True)
    except sla.LinAlgError as exc:
        raise GramNotPD("gram matrix is not positive definite") from exc
    return g


def nullspace(a):
    """Orthonormal basis of the numerical null space (columns)."""
    a = as_matrix(a)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 0.0)))
    return vh[rank:].conj().T


class SubspaceBasis:
    """Column basis of a subspace of C^ambient_dim (of R^ambient_dim for a
    real basis) with a rank certificate.

    The certificate is smallest_sv > rank_tol * largest_sv of the basis
    matrix; a zero-dimensional basis (k = 0) is allowed.
    """

    _is_orthonormal = False

    def __init__(self, ambient_dim, basis, rank_tol=DEFAULT_RANK_TOL):
        self.ambient_dim = int(ambient_dim)
        self.rank_tol = float(rank_tol)
        b = _inexact(basis)
        if b.size == 0:
            b = b.reshape(self.ambient_dim, 0)
        if b.ndim == 1:
            b = b[:, None]
        if b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis has {b.shape[0]} rows, ambient dimension is {self.ambient_dim}"
            )
        if b.size and not np.all(np.isfinite(b)):
            raise ValueError("basis has non-finite entries")
        if b.shape[1]:
            s = np.linalg.svd(b, compute_uv=False)
            if s[-1] <= self.rank_tol * s[0]:
                raise RankDeficient(
                    f"basis rank certificate failed: sv ratio {s[-1] / s[0]:.3e}"
                )
        self.basis = b

    @classmethod
    def from_span(cls, vectors, rank_tol=DEFAULT_RANK_TOL, sv_cut=None):
        """Orthonormal basis of the span of the given columns.

        Rank is determined by sv > rank_tol * sv_max, or by the absolute
        threshold sv_cut when given.
        """
        v = _inexact(vectors)
        if v.ndim == 1:
            v = v[:, None]
        n = v.shape[0]
        if v.shape[1] == 0 or not np.any(v):
            return cls(n, np.zeros((n, 0), dtype=v.dtype), rank_tol)
        u, s, _ = np.linalg.svd(v, full_matrices=False)
        if sv_cut is not None:
            rank = int(np.sum(s > sv_cut))
        else:
            rank = int(np.sum(s > rank_tol * s[0]))
        return cls._orthonormal(u[:, :rank], rank_tol)

    @classmethod
    def _orthonormal(cls, basis, rank_tol=DEFAULT_RANK_TOL):
        """Basis whose columns are orthonormal by construction: its rank
        certificate holds without an SVD, and `orthonormal()` returns it."""
        self = cls.__new__(cls)
        self.ambient_dim, self.rank_tol = basis.shape[0], float(rank_tol)
        self.basis = _inexact(basis)
        self._is_orthonormal = True
        return self

    @property
    def dim(self):
        return self.basis.shape[1]

    def orthonormal(self):
        """Orthonormal basis matrix for the same span."""
        if self.dim == 0 or self._is_orthonormal:
            return self.basis
        q, _ = np.linalg.qr(self.basis)
        return q

    def __repr__(self):
        return f"SubspaceBasis(ambient={self.ambient_dim}, dim={self.dim})"


@dataclass(frozen=True)
class Projector:
    """Square matrix with a certified idempotence defect; `certs`
    holds the further certificates of its construction (name -> value)."""

    matrix: np.ndarray
    idem_defect: float
    range_basis: SubspaceBasis | None = None
    kernel_basis: SubspaceBasis | None = None
    certs: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.matrix.shape[0]


def subspace_distance(u, v):
    """Spectral norm of the difference of the orthogonal projectors.

    Equals the sine of the largest principal angle for equal dimensions.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if u.dim == 0 and v.dim == 0:
        return 0.0
    qu = u.orthonormal()
    qv = v.orthonormal()
    pu = qu @ qu.conj().T
    pv = qv @ qv.conj().T
    s = np.linalg.svd(pu - pv, compute_uv=False)
    return float(s[0]) if s.size else 0.0


@dataclass(frozen=True)
class DirectSumReport:
    is_direct_sum: bool
    gap: float


def direct_sum_check(u, v):
    """Check U (+) V = ambient; gap is the smallest singular value of the
    concatenated orthonormalized bases."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = u.ambient_dim
    k = u.dim + v.dim
    if k == 0:
        return DirectSumReport(n == 0, 1.0 if n == 0 else 0.0)
    if k > n:
        return DirectSumReport(False, 0.0)
    m = np.hstack([u.orthonormal(), v.orthonormal()])
    s = np.linalg.svd(m, compute_uv=False)
    gap = float(s[-1])
    return DirectSumReport(bool(k == n and gap > DEFAULT_RANK_TOL), gap)


def projector_from_pair(range_basis, kernel_basis):
    """Projector with the given range and kernel: [R|K] diag(I,0) [R|K]^-1,
    real when both bases are. The pair is complementary when the smallest
    singular value of [R|K] (orthonormalized) exceeds the larger rank_tol of
    the two bases times the largest; `certs["gap"]` is that smallest value
    (1 when one basis is trivial)."""
    if range_basis.ambient_dim != kernel_basis.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = range_basis.ambient_dim
    r, k = range_basis.dim, kernel_basis.dim
    if r + k != n:
        raise NotComplementary(
            f"range dim {r} + kernel dim {k} != ambient dim {n}", gap=0.0
        )
    dtype = np.result_type(range_basis.basis, kernel_basis.basis)
    if r == 0 or k == 0:
        c = np.eye(n, dtype=dtype) if r else np.zeros((n, n), dtype=dtype)
        return Projector(c, 0.0, range_basis, kernel_basis, {"gap": 1.0})
    qr_ = range_basis.orthonormal()
    qk = kernel_basis.orthonormal()
    m = np.hstack([qr_, qk])
    s = np.linalg.svd(m, compute_uv=False)
    gap = float(s[-1])
    if s[-1] <= max(range_basis.rank_tol, kernel_basis.rank_tol) * s[0]:
        raise NotComplementary(
            "concatenated range/kernel basis is numerically singular", gap=gap)
    minv = np.linalg.solve(m, np.eye(n, dtype=dtype))
    c = qr_ @ minv[:r]
    return Projector(c, idempotence_defect(c), range_basis, kernel_basis, {"gap": gap})


def orth_projector(u, gram):
    """Gram-orthogonal projector onto span(U): C = U (U*GU)^-1 U*G."""
    g = check_gram(gram)
    if u.ambient_dim != g.shape[0]:
        raise ValueError("gram dimension mismatch")
    n = u.ambient_dim
    if u.dim == 0:
        return Projector(np.zeros((n, n), dtype=complex), 0.0, u)
    b = u.basis
    m = b.conj().T @ g @ b
    c = b @ np.linalg.solve(m, b.conj().T @ g)
    return Projector(c, idempotence_defect(c), range_basis=u)


class ContourSpec:
    """Closed integration contour: a circle or an axis-aligned rectangle.

    `nodes` is the initial quadrature node count; riesz_projector doubles
    it until the idempotence defect converges.
    """

    def __init__(self, kind, *, center=0j, radius=0.0, re_min=0.0, re_max=0.0,
                 im_min=0.0, im_max=0.0, nodes=32):
        if kind not in ("circle", "rectangle"):
            raise ValueError(f"unknown contour kind {kind!r}")
        self.kind = kind
        self.center = complex(center)
        self.radius = float(radius)
        self.re_min, self.re_max = float(re_min), float(re_max)
        self.im_min, self.im_max = float(im_min), float(im_max)
        self.nodes = int(nodes)
        if kind == "circle" and self.radius <= 0:
            raise ValueError("circle radius must be positive")
        if kind == "rectangle" and (self.re_min >= self.re_max or self.im_min >= self.im_max):
            raise ValueError("degenerate rectangle")

    @classmethod
    def circle(cls, center, radius, nodes=32):
        return cls("circle", center=center, radius=radius, nodes=nodes)

    @classmethod
    def rectangle(cls, re_min, re_max, im_min, im_max, nodes=32):
        return cls("rectangle", re_min=re_min, re_max=re_max,
                   im_min=im_min, im_max=im_max, nodes=nodes)

    def quadrature(self, n):
        """Nodes and weights with sum_j w_j f(l_j) ~ closed contour integral
        of f, counterclockwise."""
        if self.kind == "circle":
            theta = 2.0 * np.pi * np.arange(n) / n
            pts = self.center + self.radius * np.exp(1j * theta)
            w = (2j * np.pi * self.radius / n) * np.exp(1j * theta)
            return pts, w
        # Rectangle: composite Gauss-Legendre on each edge (trapezoid loses
        # its spectral accuracy at the corners).
        a, b = self.re_min, self.re_max
        c, d = self.im_min, self.im_max
        corners = [a + 1j * c, b + 1j * c, b + 1j * d, a + 1j * d, a + 1j * c]
        per_edge = max(4, n // 4)
        x, wq = np.polynomial.legendre.leggauss(per_edge)
        pts, w = [], []
        for z0, z1 in zip(corners[:-1], corners[1:]):
            mid = 0.5 * (z0 + z1)
            half = 0.5 * (z1 - z0)
            pts.append(mid + half * x)
            w.append(half * wq)
        return np.concatenate(pts), np.concatenate(w)


def riesz_projector(a, contour, idem_tol=1e-10, node_cap=4096):
    """Riesz spectral projector (1/2 pi i) \\oint (lambda I - A)^-1 dlambda.

    Quadrature nodes are doubled until the idempotence defect drops below
    idem_tol; raises ContourTooClose when the cap is reached first.
    """
    a = as_matrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    nodes = max(8, contour.nodes)
    best = None
    while True:
        pts, w = contour.quadrature(nodes)
        acc = np.zeros((n, n), dtype=complex)
        try:
            for lam, wj in zip(pts, w):
                acc += wj * np.linalg.solve(lam * eye - a, eye)
        except np.linalg.LinAlgError:
            # a quadrature node hit an eigenvalue exactly
            raise ContourTooClose(np.inf, nodes) from None
        c = acc / (2j * np.pi)
        defect = idempotence_defect(c)
        if best is None or defect < best[0]:
            best = (defect, c, nodes)
        if defect <= idem_tol:
            rng = SubspaceBasis.from_span(c, sv_cut=0.5)
            ker = SubspaceBasis.from_span(eye - c, sv_cut=0.5)
            return Projector(c, defect, rng, ker)
        if nodes >= node_cap:
            raise ContourTooClose(best[0], best[2])
        nodes *= 2
