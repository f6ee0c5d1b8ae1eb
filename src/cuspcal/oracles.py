"""Independent oracles used by the verification suites.

These deliberately avoid the machinery they check: polynomial roots come
from a Durand-Kerner simultaneous iteration (no eigensolvers, no contour
integrals), and the root-split projector is assembled from Vandermonde
eigenvectors of the companion structure.
"""

from __future__ import annotations

import numpy as np

from .linalg import SubspaceBasis, projector_from_pair


def durand_kerner(coeffs):
    """All roots of a scalar polynomial sum_k c[k] z^k (ascending, c[-1]!=0)
    by the Durand-Kerner simultaneous iteration: at most 400 sweeps, until
    the largest step is below 1e-14 relative."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if c[-1] == 0:
        raise ValueError("leading coefficient vanishes")
    mon = c / c[-1]
    deg = mon.size - 1
    radius = 1.0 + float(np.max(np.abs(mon[:-1])))
    # deterministic non-real starting angles avoid symmetric stalls
    roots = radius * np.exp(1j * (2.0 * np.pi * np.arange(deg) / deg + 0.4))

    def poly(z):
        out = np.zeros_like(z)
        for ck in mon[::-1]:
            out = out * z + ck
        return out

    for _ in range(400):
        num = poly(roots)
        den = np.ones_like(roots)
        for i in range(deg):
            others = np.delete(roots, i)
            den[i] = np.prod(roots[i] - others)
        step = num / den
        roots = roots - step
        if np.max(np.abs(step)) < 1e-14 * max(1.0, np.max(np.abs(roots))):
            break
    return roots


def half_plane_projector_from_roots(coeffs):
    """Projector onto boundary data of decaying solutions of a scalar
    constant-coefficient ODE sigma(D_t) v = 0 from its polynomial roots:
    range spanned by Vandermonde vectors (1, r, ..., r^{m-1}) with Im r > 0,
    kernel by those with Im r < 0."""
    roots = durand_kerner(coeffs)
    deg = len(roots)
    if np.min(np.abs(roots.imag)) < 1e-10:
        raise ValueError("a root sits on the real axis")
    vand = np.vander(roots, deg, increasing=True).T
    upper = vand[:, roots.imag > 0]
    lower = vand[:, roots.imag < 0]
    rng = SubspaceBasis.from_span(upper)
    ker = SubspaceBasis.from_span(lower)
    return projector_from_pair(rng, ker), roots
