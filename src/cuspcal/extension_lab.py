"""Finite-dimensional proving ground for the augmentation / modification /
extension algebra: every functional-analytic step of the invertible-extension
construction, on concrete matrices.

Support notions are coordinate masks: a vector is plus-supported when its
minus-side coordinates vanish. Grams are assumed local (block-diagonal with
respect to the mask) wherever restriction properties are certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotComplementary,
    SideConditionViolated,
    UCPViolated,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    SubspaceBasis,
    as_matrix,
    check_gram,
    direct_sum_check,
    fro,
    nullspace,
    orth_projector,
    subspace_distance,
)


@dataclass(frozen=True)
class AbstractBVP:
    """A matrix boundary-value problem: operator T, boundary map gamma,
    inner product gram, and a plus/minus coordinate mask."""

    T: np.ndarray
    gamma: np.ndarray
    gram: np.ndarray
    mask_plus: np.ndarray

    def __post_init__(self):
        t = as_matrix(self.T, "T")
        if t.shape[0] != t.shape[1]:
            raise ValueError("T must be square")
        g = as_matrix(self.gamma, "gamma")
        if g.shape[1] != t.shape[0]:
            raise ValueError("gamma width mismatch")
        s = np.linalg.svd(g, compute_uv=False)
        if g.shape[0] and s[-1] <= 1e-10 * s[0]:
            raise ValueError("gamma is not of full row rank")
        check_gram(self.gram)
        mask = np.asarray(self.mask_plus, dtype=bool)
        if mask.shape != (t.shape[0],):
            raise ValueError("mask length mismatch")
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "gram", np.asarray(self.gram, dtype=complex))
        object.__setattr__(self, "mask_plus", mask)

    @property
    def dim(self):
        return self.T.shape[0]

    @property
    def data_dim(self):
        return self.gamma.shape[0]

    def plus_indices(self):
        return np.flatnonzero(self.mask_plus)

    def minus_indices(self):
        return np.flatnonzero(~self.mask_plus)


def boundary_space(bvp, T=None):
    """Basis of gamma(ker T)."""
    t = bvp.T if T is None else as_matrix(T, "T")
    kernel = nullspace(t)
    return SubspaceBasis.from_span(bvp.gamma @ kernel)


def augment(t, gram_domain=None, gram_codomain=None):
    """Block augmentation [[0, T*], [T, 0]] with the gram-based adjoint;
    Hermitian for the doubled gram diag(G_dom, G_cod)."""
    t = as_matrix(t, "T")
    nd, nc = t.shape[1], t.shape[0]
    gd = np.eye(nd, dtype=complex) if gram_domain is None else check_gram(gram_domain)
    gc = np.eye(nc, dtype=complex) if gram_codomain is None else check_gram(gram_codomain)
    tstar = np.linalg.solve(gd, t.conj().T @ gc)
    out = np.zeros((nd + nc, nd + nc), dtype=complex)
    out[:nd, nd:] = tstar
    out[nd:, :nd] = t
    return out


@dataclass(frozen=True)
class ModifyShadowResult:
    T_mod: np.ndarray
    Pi_sh: np.ndarray
    shadow: SubspaceBasis


def modify_shadow(bvp):
    """Add the gram-orthogonal projector onto ker T /\\ ker gamma.

    Certifies the two modification identities: the boundary data space is
    unchanged, and the modified operator has no shadow kernel left.
    """
    t, gamma = bvp.T, bvp.gamma
    shadow_vecs = nullspace(np.vstack([t, gamma]))
    shadow = SubspaceBasis.from_span(shadow_vecs)
    if shadow.dim == 0:
        return ModifyShadowResult(t.copy(), np.zeros_like(t), shadow)
    rg_t = SubspaceBasis.from_span(t)
    if rg_t.dim + shadow.dim > bvp.dim:
        raise SideConditionViolated("rg Pi meets rg T (dimension count)")
    if rg_t.dim:
        concat = np.hstack([rg_t.orthonormal(), shadow.orthonormal()])
        s = np.linalg.svd(concat, compute_uv=False)
        if s[-1] <= DEFAULT_RANK_TOL:
            raise SideConditionViolated(
                f"rg Pi /\\ rg T != 0 (gap {s[-1]:.3e})")
    pi = orth_projector(shadow, bvp.gram).matrix
    t_mod = t + pi
    before = boundary_space(bvp)
    after = boundary_space(bvp, T=t_mod)
    if before.dim != after.dim or subspace_distance(before, after) > DEFAULT_RANK_TOL:
        raise SideConditionViolated("boundary space changed under modification")
    if nullspace(np.vstack([t_mod, gamma])).shape[1] != 0:
        raise SideConditionViolated("modified operator still has shadow kernel")
    return ModifyShadowResult(t_mod, pi, shadow)


@dataclass(frozen=True)
class PerturbReport:
    matrix: np.ndarray
    min_sv: float


def _perturb(t, pi, alpha, unit):
    """T + unit alpha Pi and its smallest singular value, for a self-adjoint
    T and an orthogonal projector Pi (each to 1e-8 relative)."""
    t = as_matrix(t, "T")
    pi = as_matrix(pi, "Pi")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    for defect, of, message in ((t - t.conj().T, t, "T is not self-adjoint"),
                                (pi @ pi - pi, pi, "Pi is not a projection"),
                                (pi - pi.conj().T, pi, "Pi is not orthogonal")):
        if fro(defect) > 1e-8 * max(1.0, fro(of)):
            raise ValueError(message)
    m = t + unit * alpha * pi
    return PerturbReport(m, float(np.linalg.svd(m, compute_uv=False)[-1]))


def perturb_real(t, pi, alpha):
    """T + alpha Pi with an invertibility certificate (smallest singular
    value); invertible when rg T (+) rg Pi is the whole space."""
    return _perturb(t, pi, alpha, 1)


def perturb_imag(t, pi, alpha):
    """T + i alpha Pi; invertible iff rg T + rg Pi is the whole space."""
    return _perturb(t, pi, alpha, 1j)


def complement_in_minus(k, bvp, chi):
    """W = chi^2 K, a minus-supported complement of the gram-orthocomplement
    of K.

    Requires (i): no nonzero element of K is supported entirely on the plus
    side, and a cutoff chi vanishing on the plus side.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (bvp.dim,):
        raise ValueError("cutoff length mismatch")
    plus = bvp.plus_indices()
    if np.max(np.abs(chi[plus]), initial=0.0) > 1e-12 * max(1.0, np.max(np.abs(chi))):
        raise ValueError("cutoff must vanish on the plus side")
    if k.dim == 0:
        w = SubspaceBasis(bvp.dim, np.zeros((bvp.dim, 0)))
    else:
        q = k.orthonormal()
        minus = bvp.minus_indices()
        restricted = q[minus]
        s = np.linalg.svd(restricted, compute_uv=False) if minus.size else np.zeros(1)
        if minus.size == 0 or s[-1] <= 1e-8:
            raise UCPViolated(
                "a kernel vector is supported entirely on the plus side")
        try:
            w = SubspaceBasis.from_span((chi**2)[:, None] * k.basis)
        except Exception as exc:
            raise UCPViolated(f"cutoff collapses the kernel: {exc}") from exc
        if w.dim != k.dim:
            raise UCPViolated("cutoff is not injective on the kernel")
    kperp = SubspaceBasis.from_span(nullspace(k.basis.conj().T @ bvp.gram)) \
        if k.dim else SubspaceBasis.from_span(np.eye(bvp.dim, dtype=complex))
    report = direct_sum_check(w, kperp)
    if not report.is_direct_sum:
        raise NotComplementary("W (+) K-perp is not the whole space",
                               gap=report.gap)
    return w
