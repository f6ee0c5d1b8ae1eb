"""Reference computations the benchmark checks cuspcal's outputs against.

None of these call cuspcal: the symbol level uses numpy's eigensolver on a
companion matrix built here, the fibre level integrates the fibre ODE in
classical variables with its own solve_ivp call, and the discrete level uses
separated solutions of the strip Laplacian and frozen-coefficient symbols.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.integrate import solve_ivp

# ------------------------------------------------------------ symbol level


def tau_coefficients(case):
    """A_0..A_m of sigma(tau, xi) = sum_k A_k tau^k, from the construction
    sigma = V diag(p_j) V^-1 of the case."""
    n, m = case.size, case.order
    vinv = np.linalg.inv(case.mix)
    out = []
    for k in range(m + 1):
        diag = np.zeros(n, dtype=complex)
        for j, poly in enumerate(case.polys):
            for e, c in poly.items():
                if e[0] == k:
                    diag[j] += c * np.prod(case.xi ** np.array(e[1:]))
        out.append(case.mix @ np.diag(diag) @ vinv)
    return out


def companion(coeffs):
    """D_t V = A V for V = (v, D_t v, ..., D_t^{m-1} v) and sum_k A_k D_t^k v = 0."""
    m, n = len(coeffs) - 1, coeffs[0].shape[0]
    a = np.zeros((m * n, m * n), dtype=complex)
    a[:-n, n:] = np.eye((m - 1) * n)
    lead_inv = np.linalg.inv(coeffs[m])
    for j in range(m):
        a[-n:, j * n:(j + 1) * n] = -lead_inv @ coeffs[j]
    return a


def half_plane_projectors(a):
    """Spectral projectors of `a` for the upper and lower half-planes from its
    eigendecomposition, and the number of eigenvalues with Im > 0."""
    w, vecs = np.linalg.eig(a)
    inv = np.linalg.inv(vecs)
    up = w.imag > 0
    return vecs[:, up] @ inv[up], vecs[:, ~up] @ inv[~up], int(up.sum())


def rel_err(a, b):
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(b)))


def idempotence(c):
    return float(np.linalg.norm(c @ c - c)) / max(1.0, float(np.linalg.norm(c)))


def laplace_projector(xi):
    """Calderon symbol of tau^2 + xi^2: range (1, i|xi|), kernel (1, -i|xi|)."""
    k = abs(xi)
    return 0.5 * np.array([[1.0, -1j / k], [1j * k, 1.0]])


# ------------------------------------------------------------- fibre level


def bump(z, length):
    """exp(-1/(1-w^2)) on (1.15 L, 1.85 L): the default extension bump."""
    lo, hi = 1.15 * length, 1.85 * length
    w = (2.0 * z - (lo + hi)) / (hi - lo)
    return math.exp(-1.0 / (1.0 - w * w)) if abs(w) < 1.0 else 0.0


def laplace_bplus(tau, length=1.0):
    """Boundary data (v, D_z v at 0; v, D_z v at L) of cosh/sinh solutions of
    -v'' + tau^2 v = 0, as two columns."""
    c, s = math.cosh(tau * length), math.sinh(tau * length)
    sinc = s / tau if tau else length
    return np.array([
        [1.0, 0.0, c, -1j * tau * s],
        [0.0, -1j, sinc, -1j * c],
    ]).T


def _fundamental(rhs_matrix, z0, z1, dim):
    """Classical fundamental matrix Y(z1) of Y' = M(z) Y, Y(z0) = I."""
    sol = solve_ivp(lambda z, y: (rhs_matrix(z) @ y.reshape(dim, dim)).ravel(),
                    (z0, z1), np.eye(dim, dtype=complex).ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(dim, dim)


def fibre_data_spaces(coeff, tau, length=1.0):
    """B+ and B- of the doubled fibre problem, integrated here.

    `coeff(b, z)` is the N x N coefficient of D_z^b of the operator at x = 0
    without the (x^2 D_x)^2 term, which contributes tau^2 to D_z^0. The
    equation -A_2 v'' - i A_1 v' + (A_0 + tau^2) v = 0 is integrated for
    (v, v') on [0, L] (plus side) and, with mirrored coefficients
    (-1)^b A_b(2L - z) and the bump added to A_0, on [L, 2L] (minus side).
    Returns (B+, B-) as column bases of D_z-data (jet at 0, jet at L).
    """
    n = coeff(2, 0.0).shape[0]
    eye = np.eye(n)

    def system(sign, shift, extra):
        def rhs(z):
            zz = shift + sign * z
            a2 = coeff(2, zz)
            a1 = sign * coeff(1, zz)
            a0 = coeff(0, zz) + (tau * tau + extra(z)) * eye
            lead = np.linalg.inv(a2)
            return np.block([[np.zeros((n, n)), eye],
                             [lead @ a0, -1j * lead @ a1]])
        return rhs

    jet = np.block([[eye, np.zeros((n, n))], [np.zeros((n, n)), -1j * eye]])
    plus = _fundamental(system(1.0, 0.0, lambda z: 0.0), 0.0, length, 2 * n)
    minus = _fundamental(system(-1.0, 2.0 * length, lambda z: bump(z, length)),
                         length, 2.0 * length, 2 * n)
    bp = np.vstack([jet, jet @ plus])
    bm = np.vstack([jet @ minus, jet])
    return bp, bm


def fixes(c, basis):
    """|C Q - Q| for an orthonormal basis Q of span(B)."""
    q, _ = np.linalg.qr(basis)
    return float(np.linalg.norm(c @ q - q))


def annihilates(c, basis):
    """|C Q| for an orthonormal basis Q of span(B)."""
    q, _ = np.linalg.qr(basis)
    return float(np.linalg.norm(c @ q))


# ---------------------------------------------------------- discrete level


def strip_cauchy_data(s, S, k, length=1.0):
    """Data vectors (u, D_z u at z=0; u, D_z u at z=L) on the interior s nodes
    of u = sin(k pi (s-1)/(S-1)) cosh(tau_k z) and ... sinh(tau_k z), which
    solve the strip Laplacian -u_ss - u_zz = 0 with Dirichlet ends."""
    tk = k * math.pi / (S - 1.0)
    w = np.sin(tk * (s - 1.0)).astype(complex)
    c, sh = math.cosh(tk * length), math.sinh(tk * length)
    zero = np.zeros_like(w)
    cosh_data = np.concatenate([w, zero, c * w, -1j * tk * sh * w])
    sinh_data = np.concatenate([zero, -1j * tk * w, sh * w, -1j * tk * c * w])
    return cosh_data, sinh_data


def window(s, center, width):
    """Smooth bump exp(-1/(1-w^2)) of half-width `width` around `center`."""
    w = (s - center) / width
    out = np.zeros_like(s)
    inside = np.abs(w) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - w[inside] ** 2))
    return out


def frozen_probe_error(cmat, s, S, k, a0, center, width, frac=0.5):
    """Localized check of the discrete projector against the frozen symbol.

    The data is sin(xi (s-1)) in one jet slot at z = 0 (value or D_z), with
    xi = k pi/(S-1). The frozen interface symbol there is xi^2 + a0 t^2 for
    the operator (x^2 D_x)^2 + a(x) D_z^2, a0 = a(x) at the window centre;
    its projector is that of the Laplacian at xi / sqrt(a0). Returns the
    largest relative error over the window core.
    """
    n_int = s.size
    xi = k * math.pi / (S - 1.0)
    csym = laplace_projector(xi / math.sqrt(a0))
    wave = np.sin(xi * (s - 1.0)).astype(complex)
    env = window(s, center, width)
    mask = env >= frac * env.max()
    worst = 0.0
    for q in range(2):
        d = np.zeros(4 * n_int, dtype=complex)
        d[q * n_int:(q + 1) * n_int] = wave
        e = cmat @ d
        num = den = 0.0
        for r in range(2):
            pred = csym[r, q] * wave
            act = e[r * n_int:(r + 1) * n_int]
            num = max(num, float(np.max(np.abs(act - pred)[mask])))
            den = max(den, float(np.max(np.abs(pred[mask]))))
        worst = max(worst, num / den)
    return worst


# -------------------------------------------------------------- CLI output


def read_csv(path):
    """Rows of a cuspcal CSV as dicts of strings."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_matrix(path):
    """A projector text file: '# cuspcal projector rows cols ...' then one
    're im' pair per line, row-major."""
    lines = path.read_text().splitlines()
    head = lines[0].split()
    rows, cols = int(head[3]), int(head[4])
    data = np.array([float(a) + 1j * float(b) for a, b in (ln.split() for ln in lines[1:])])
    return data.reshape(rows, cols)
