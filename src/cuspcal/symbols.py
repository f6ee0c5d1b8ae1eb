"""Interior principal-symbol level: companion reduction of the symbol ODE,
Calderon projectors for elliptic matrix symbols, Dirichlet-to-Neumann
symbols, and gram-orthogonalization of projectors.

Boundary-data vectors are ordered (v, D_t v, ..., D_t^{m-1} v)(0) with
D_t = (1/i) d/dt; the transversal covariable of the symbol polynomial is
named tau and becomes D_t in the symbol ODE.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import ztrsyl

from ._poly import block_companion
from .errors import (GraphConditionFailed, NotInvertible, SolveFailure,
                     SpectrumNearAxis, ZeroCovector)
from .linalg import (
    DEFAULT_RANK_TOL,
    Projector,
    SubspaceBasis,
    as_matrix,
    check_gram,
    fro,
    gram_adjoint,
    idempotence_defect,
)


def _tangential(xi_prime):
    t = np.atleast_1d(np.asarray(xi_prime, dtype=float))
    if t.ndim != 1:
        raise ValueError("xi_prime must be a flat covector")
    return t


class PolyMatrixSymbol:
    """sigma(tau, eta, zeta') = sum a_{k,alpha,beta} tau^k eta^alpha zeta'^beta
    with N x N matrix coefficients, k + |alpha| + |beta| <= order.

    The leading tau-coefficient a_{order,0,0} must be invertible (companion
    reduction of the symbol ODE).
    """

    def __init__(self, order, system_size, base_dim, fibre_codim, coefficients):
        self.order = int(order)
        self.system_size = int(system_size)
        self.base_dim = int(base_dim)
        self.fibre_codim = int(fibre_codim)
        if self.order < 1:
            raise ValueError("symbol order must be >= 1")
        if self.base_dim < 0 or self.fibre_codim < 0:
            raise ValueError("negative covariable dimensions")
        n = self.system_size
        self.coefficients = {}
        for key, value in coefficients.items():
            k, alpha, beta = self._norm_key(key)
            c = np.asarray(value, dtype=complex)
            if c.ndim == 0:
                c = c * np.eye(n)
            if c.shape != (n, n):
                raise ValueError(f"coefficient {key} has shape {c.shape}")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"coefficient {key} has non-finite entries")
            if k + sum(alpha) + sum(beta) > self.order:
                raise ValueError(f"multi-index {key} exceeds order {self.order}")
            if np.any(c != 0):
                self.coefficients[(k, alpha, beta)] = c
        lead = self.coefficients.get(self._lead_key())
        if lead is None:
            raise ValueError("leading tau-coefficient a_{m,0,0} is missing")
        s = np.linalg.svd(lead, compute_uv=False)
        if s[-1] <= DEFAULT_RANK_TOL * s[0]:
            raise ValueError("leading tau-coefficient a_{m,0,0} is singular")

    def _lead_key(self):
        return (self.order, (0,) * self.base_dim, (0,) * self.fibre_codim)

    def _norm_key(self, key):
        k, alpha, beta = key
        alpha = tuple(int(i) for i in np.atleast_1d(alpha)) if self.base_dim else ()
        beta = tuple(int(i) for i in np.atleast_1d(beta)) if self.fibre_codim else ()
        if len(alpha) != self.base_dim or len(beta) != self.fibre_codim:
            raise ValueError(f"multi-index {key} has wrong lengths")
        if int(k) < 0 or any(i < 0 for i in alpha + beta):
            raise ValueError(f"negative multi-index {key}")
        return int(k), alpha, beta

    def eval(self, tau, xi_prime):
        """sigma(tau, xi') = sum_k tau^k a_k(xi'); an array of tau gives
        (..., N, N)."""
        tau = np.asarray(tau)[..., None, None]
        return sum(tau**k * a for k, a in enumerate(self.tau_coefficients(xi_prime)))

    def tau_coefficients(self, xi_prime):
        """a_k(xi') for k = 0..order, including lower-order terms."""
        t = _tangential(xi_prime)
        if t.size != self.base_dim + self.fibre_codim:
            raise ValueError(f"tangential covector has length {t.size}, "
                             f"expected {self.base_dim + self.fibre_codim}")
        n = self.system_size
        out = [np.zeros((n, n), dtype=complex) for _ in range(self.order + 1)]
        for (k, alpha, beta), c in self.coefficients.items():
            w = 1.0
            for i, p in enumerate(alpha):
                w *= t[i] ** p
            for j, p in enumerate(beta):
                w *= t[self.base_dim + j] ** p
            out[k] = out[k] + w * c
        return out


def companion_matrix(sym, xi_prime):
    """First-order companion A of sigma(D_t, xi') v = 0 in the variables
    V = (v, D_t v, ..., D_t^{m-1} v), so that D_t V = A V."""
    coeffs = sym.tau_coefficients(xi_prime)
    if np.linalg.norm(_tangential(xi_prime)) == 0:
        raise ZeroCovector("companion reduction requires xi' != 0")
    return block_companion(coeffs)


def _companion_radius(sym, t):
    """Upper bound for the companion spectral radius: the smaller of a
    Fujiwara-type coefficient bound 2 max_k |a_m^-1 a_k|^(1/(m-k)) and the
    power bound |A^16|^(1/16), plus a unit safety margin."""
    coeffs = sym.tau_coefficients(t)
    m = sym.order
    lead = coeffs[m]
    fuji = 0.0
    for k in range(m):
        nrm = np.linalg.norm(np.linalg.solve(lead, coeffs[k]), 2)
        fuji = max(fuji, nrm ** (1.0 / (m - k)))
    bound = 2.0 * fuji
    a = block_companion(coeffs)
    power = np.linalg.norm(np.linalg.matrix_power(a, 16), 2) ** (1.0 / 16.0)
    if np.isfinite(power):
        bound = min(bound, power)
    return 1.0 + max(1.0, bound)


# min |Im lambda| / max(1, max |lambda|) at or below which a companion
# eigenvalue counts as real: about sqrt(eps), the split of a double root.
AXIS_TOL = 1e-8


def calderon_symbol(sym, xi_prime, idem_tol=1e-12):
    """Projector onto boundary data of decaying solutions (t -> +infinity)
    of the symbol ODE: the spectral projector of the companion matrix for
    the open upper half-plane."""
    return _half_plane_projector(sym, xi_prime, 1.0, idem_tol)


def complementary_symbol(sym, xi_prime, idem_tol=1e-12):
    """Lower-half-plane spectral projector from its own Schur ordering, so
    that calderon + complementary = I is a check, not an identity."""
    return _half_plane_projector(sym, xi_prime, -1.0, idem_tol)


def _half_plane_projector(sym, xi_prime, sign, idem_tol):
    """Spectral projector of the companion matrix for {sign * Im > 0}.

    The ordered Schur form A = Z [[T11, T12], [0, T22]] Z^H has the k wanted
    eigenvalues in T11; with T11 W - W T22 = T12, C = Z [[I, W], [0, 0]] Z^H
    has range Z[:, :k] and kernel Z [-W; I] (Golub & Van Loan 7.6). Certified
    by the axis margin, block separation, trace C = k and idempotence.
    """
    t = _tangential(xi_prime)
    a = companion_matrix(sym, t)
    n = a.shape[0]
    try:
        tm, z, k = sla.schur(a, output="complex", sort=lambda lam: sign * lam.imag > 0)
        lam = np.diag(tm)
    except sla.LinAlgError:
        # reordering fails only if rounding moves an eigenvalue across the axis
        tm, lam = None, np.linalg.eigvals(a)
    margin = float(np.min(np.abs(lam.imag))) / max(1.0, float(np.max(np.abs(lam))))
    if tm is None or margin <= AXIS_TOL:
        raise SpectrumNearAxis(t, margin, AXIS_TOL)
    w = np.zeros((k, n - k), dtype=complex)
    if 0 < k < n:
        w, scale, info = ztrsyl(tm[:k, :k], tm[k:, k:], tm[:k, k:], isgn=-1)
        if info != 0:
            raise SolveFailure(f"Schur blocks not separated at xi'={tuple(t)}")
        w = w / scale
    zr = z[:, :k]
    c = zr @ (zr.conj().T + w @ z[:, k:].conj().T)
    wanted = np.count_nonzero(sign * lam.imag > 0)
    if abs(np.trace(c) - wanted) > 1e-8 * max(1.0, fro(c)):
        raise SolveFailure(f"trace C != {wanted} wanted eigenvalues at xi'={tuple(t)}")
    defect = idempotence_defect(c)
    if defect > idem_tol:
        raise SolveFailure(f"idempotence defect {defect:.3e} at xi'={tuple(t)}")
    return Projector(c, defect, SubspaceBasis(n, zr), SubspaceBasis(n, z[:, k:] - zr @ w))


def dn_symbol(sym, xi_prime, normal_orientation=1):
    """Dirichlet-to-Neumann principal symbol of a second-order scalar symbol;
    see dn_from_projector."""
    if sym.order != 2 or sym.system_size != 1:
        raise ValueError("dn_symbol requires a scalar second-order symbol")
    c = calderon_symbol(sym, xi_prime)
    return dn_from_projector(c, normal_orientation)


def dn_from_projector(c, normal_orientation=1):
    """DN value of the Calderon projector c of a scalar second-order symbol.

    Extracts lambda with range(c) = span{(1, lambda)} and converts D_t-data
    to the normal derivative; normal_orientation=+1 is the outward normal
    (-d/dt on the decaying side), -1 the inward one.
    """
    if normal_orientation not in (1, -1):
        raise ValueError("normal_orientation must be +1 or -1")
    rng = c.range_basis
    if rng is None or rng.dim != 1:
        raise GraphConditionFailed(
            f"range dimension {None if rng is None else rng.dim} != 1"
        )
    v = rng.basis[:, 0]
    if abs(v[0]) <= 1e-8 * np.linalg.norm(v):
        raise GraphConditionFailed("Dirichlet component of the range vanishes")
    lam = v[1] / v[0]
    return complex(-1j * lam * normal_orientation)


def orthogonalize(c, gram):
    """Gram-orthogonal projector with the same range: C (I + C - C*)^-1."""
    if isinstance(c, Projector):
        cm, rng, defect = c.matrix, c.range_basis, c.idem_defect
    else:
        cm = as_matrix(c, "C")
        rng, defect = None, idempotence_defect(cm)
    if defect > 1e-8:
        raise ValueError(f"input idempotence defect {defect:.3e} too large")
    g = check_gram(gram)
    cstar = gram_adjoint(cm, g)
    m = np.eye(cm.shape[0], dtype=complex) + cm - cstar
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise NotInvertible("I + C - C* is numerically singular")
    co = cm @ np.linalg.solve(m, np.eye(cm.shape[0], dtype=complex))
    return Projector(co, idempotence_defect(co), range_basis=rng)


def _monomials(total, nvars):
    """All exponent tuples over nvars variables with given total degree."""
    if nvars == 0:
        return [()] if total == 0 else []
    if nvars == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        for tail in _monomials(total - head, nvars - 1):
            out.append((head,) + tail)
    return out


def _multinomial(exps):
    from math import factorial

    total = sum(exps)
    out = factorial(total)
    for e in exps:
        out //= factorial(e)
    return out


def random_elliptic_symbol(seed, order=None, system_size=None, lower_order=True):
    """Seeded random elliptic symbol.

    Even orders build the principal part as S(xi)* S(xi) + 0.1 |xi|^m I with
    S a random homogeneous matrix polynomial of degree m/2; odd orders use
    root-controlled scalar factors conjugated by a random similarity (one
    tangential covariable). Lower-order terms are scaled well below the
    real-axis ellipticity margin so the companion spectrum stays off the
    real line.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    m = int(order) if order is not None else int(rng.integers(1, 5))
    n = int(system_size) if system_size is not None else int(rng.integers(1, 4))
    if m % 2 == 1:
        b = 0
        f1 = 1
    else:
        b = int(rng.integers(0, 2))
        f1 = int(rng.integers(1, 3))
    d = 1 + b + f1

    def key_of(exp):
        return (exp[0], tuple(exp[1 : 1 + b]), tuple(exp[1 + b :]))

    coeffs = {}
    if m % 2 == 0:
        r = m // 2
        half = {}
        for exp in _monomials(r, d):
            half[exp] = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
        for e1, c1 in half.items():
            for e2, c2 in half.items():
                exp = tuple(a + bb for a, bb in zip(e1, e2))
                key = key_of(exp)
                coeffs[key] = coeffs.get(key, 0) + c1.conj().T @ c2
        for exp in _monomials(r, d):
            sq = tuple(2 * e for e in exp)
            key = key_of(sq)
            coeffs[key] = coeffs.get(key, 0) + 0.1 * _multinomial(exp) * np.eye(n)
    else:
        v = np.eye(n) + 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        vinv = np.linalg.inv(v)
        polys = []
        for _ in range(n):
            roots = []
            for _ in range(m):
                re = rng.uniform(-1.5, 1.5)
                im = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 2.0)
                roots.append(re + 1j * im)
            # expand prod_k (tau - z_k * zeta) into c[(k_tau, k_zeta)]
            poly = {(0, 0): 1.0 + 0j}
            for z in roots:
                new = {}
                for (kt, kz), c in poly.items():
                    new[(kt + 1, kz)] = new.get((kt + 1, kz), 0) + c
                    new[(kt, kz + 1)] = new.get((kt, kz + 1), 0) - z * c
                poly = new
            polys.append(poly)
        exps = set()
        for p in polys:
            exps.update(p.keys())
        for kt, kz in sorted(exps):
            diag = np.diag([p.get((kt, kz), 0.0) for p in polys])
            key = (kt, (), (kz,))
            coeffs[key] = coeffs.get(key, 0) + v @ diag @ vinv

    sym = PolyMatrixSymbol(m, n, b, f1, coeffs)
    if lower_order and m >= 1:
        margin = _real_axis_margin(sym, rng)
        scale = 0.02 * margin
        low = dict(sym.coefficients)
        for total in range(m):
            for exp in _monomials(total, d):
                key = key_of(exp)
                bump = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
                low[key] = low.get(key, 0) + bump
        sym = PolyMatrixSymbol(m, n, b, f1, low)
    return sym


def _real_axis_margin(sym, rng):
    """min over a (tau, xi') sample of sigma_min of the full symbol on the
    real axis: 24 directions xi' on the unit sphere, 33 tau each."""
    t_dim = sym.base_dim + sym.fibre_codim
    dirs = rng.standard_normal((24, t_dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    margin = np.inf
    for t in dirs:
        radius = _companion_radius(sym, t)
        taus = np.linspace(-radius, radius, 33)
        sv = np.linalg.svd(sym.eval(taus, t), compute_uv=False)[:, -1]
        margin = min(margin, float(sv.min()))
    return margin
