"""Small polynomial containers: matrix-valued polynomials in one or two
variables and truncated Taylor ("jet") arithmetic for collar expansions."""

from __future__ import annotations

import math

import numpy as np


def _as_coeff(value, system_size):
    a = np.asarray(value, dtype=complex)
    if a.ndim == 0:
        a = a * np.eye(system_size, dtype=complex)
    if a.shape != (system_size, system_size):
        raise ValueError(f"coefficient has shape {a.shape}, expected ({system_size},{system_size})")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficient has non-finite entries")
    return a


class PolyMat1:
    """Matrix-valued polynomial in one variable: p(z) = sum_d c[d] z^d."""

    def __init__(self, coeffs, system_size):
        self.system_size = int(system_size)
        if isinstance(coeffs, dict):
            deg = max(coeffs, default=0)
            table = np.zeros((deg + 1, system_size, system_size), dtype=complex)
            for d, c in coeffs.items():
                table[int(d)] = _as_coeff(c, system_size)
        else:
            table = np.asarray(coeffs, dtype=complex)
            if table.ndim == 1:
                table = table[:, None, None] * np.eye(system_size)
            if table.ndim != 3 or table.shape[1:] != (system_size, system_size):
                raise ValueError("bad coefficient table shape")
        self.coeffs = table

    @classmethod
    def zero(cls, system_size):
        return cls(np.zeros((1, system_size, system_size), dtype=complex), system_size)

    @classmethod
    def constant(cls, value, system_size):
        return cls(_as_coeff(value, system_size)[None, :, :], system_size)

    @property
    def degree(self):
        return self.coeffs.shape[0] - 1

    def __add__(self, other):
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        out = np.zeros((n, self.system_size, self.system_size), dtype=complex)
        out[: self.coeffs.shape[0]] += self.coeffs
        out[: other.coeffs.shape[0]] += other.coeffs
        return PolyMat1(out, self.system_size)

    def scale(self, factor):
        return PolyMat1(self.coeffs * factor, self.system_size)

    def eval(self, z):
        """Evaluate at scalar or array z; returns (..., N, N)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape + (self.system_size, self.system_size), dtype=complex)
        for c in self.coeffs[::-1]:
            out = out * z[..., None, None] + c
        return out

    def deriv(self):
        """d/dz derivative."""
        if self.degree == 0:
            return PolyMat1.zero(self.system_size)
        d = np.arange(1, self.coeffs.shape[0])[:, None, None]
        return PolyMat1(self.coeffs[1:] * d, self.system_size)

    def adjoint(self):
        """Coefficient-wise conjugate transpose (adjoint of p(z) for real z)."""
        return PolyMat1(np.conj(np.swapaxes(self.coeffs, 1, 2)), self.system_size)

    def compose_affine(self, c0, c1):
        """Return q with q(z) = p(c0 + c1 z)."""
        n = self.system_size
        out = PolyMat1.zero(n)
        # Horner: p(w) = c_k + w(...), with w = c0 + c1 z.
        for c in self.coeffs[::-1]:
            out = _affine_mul(out, c0, c1) + PolyMat1.constant(c, n)
        return out

    def jets_at(self, z0, order):
        """Derivative values p^(j)(z0), j = 0..order, shape (order+1, N, N)."""
        out = np.zeros((order + 1, self.system_size, self.system_size), dtype=complex)
        p = self
        for j in range(order + 1):
            out[j] = p.eval(z0)
            p = p.deriv()
        return out


def _affine_mul(p, c0, c1):
    """(c0 + c1 z) * p(z)."""
    n = p.system_size
    k = p.coeffs.shape[0]
    out = np.zeros((k + 1, n, n), dtype=complex)
    out[:k] += c0 * p.coeffs
    out[1:] += c1 * p.coeffs
    return PolyMat1(out, n)


class PolyMat2:
    """Matrix-valued polynomial in (x, z): p = sum a[(dx,dz)] x^dx z^dz."""

    def __init__(self, coeffs, system_size):
        self.system_size = int(system_size)
        if not isinstance(coeffs, dict):
            coeffs = {(0, 0): coeffs}
        self.coeffs = {}
        for (dx, dz), c in coeffs.items():
            if dx < 0 or dz < 0:
                raise ValueError("negative polynomial degree")
            c = _as_coeff(c, system_size)
            if np.any(c != 0):
                self.coeffs[(int(dx), int(dz))] = c

    def eval(self, x, z):
        x = np.asarray(x, dtype=complex)
        z = np.asarray(z, dtype=complex)
        shape = np.broadcast_shapes(x.shape, z.shape)
        out = np.zeros(shape + (self.system_size, self.system_size), dtype=complex)
        for (dx, dz), c in self.coeffs.items():
            w = (x**dx * z**dz) if shape else complex(x**dx * z**dz)
            out += np.asarray(w)[..., None, None] * c
        return out

    def at_x0(self):
        """Freeze x = 0: the z-polynomial of the normal family."""
        table = {dz: c for (dx, dz), c in self.coeffs.items() if dx == 0}
        if not table:
            return PolyMat1.zero(self.system_size)
        return PolyMat1(table, self.system_size)


def ipow(e):
    """Exact i**e for integer e (possibly negative)."""
    return (1.0 + 0j, 1j, -1.0 + 0j, -1j)[e % 4]


def block_companion(coeffs):
    """Companion matrix A of sum_k A_k D^k v = 0, k = 0..m, in the variables
    V = (v, D v, ..., D^{m-1} v), so that D V = A V. The A_k are (..., N, N)
    arrays of one shape; returns (..., mN, mN) from one solve with A_m."""
    m, n = len(coeffs) - 1, coeffs[-1].shape[-1]
    a = np.zeros(coeffs[-1].shape[:-2] + (m * n, m * n), dtype=complex)
    for i in range(m - 1):
        a[..., i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = np.eye(n)
    a[..., (m - 1) * n :, :] = -np.linalg.solve(coeffs[m], np.concatenate(coeffs[:m], axis=-1))
    return a


def formal_adjoint(coeffs):
    """L2 formal adjoint sum_l B_l D^l of sum_k A_k D^k, D = (1/i) d/dz, for
    PolyMat1 coefficients A_k: B_l = sum_{k>=l} C(k,l) i^{-(k-l)} (d/dz)^{k-l} A_k^H."""
    out = [PolyMat1.zero(coeffs[0].system_size) for _ in coeffs]
    for k, c in enumerate(coeffs):
        p = c.adjoint()
        for r in range(k + 1):
            out[k - r] = out[k - r] + p.scale(math.comb(k, r) * ipow(-r))
            p = p.deriv()
    return out


class Jet:
    """Truncated Taylor series sum_j c[j] eps^j with matrix coefficients."""

    def __init__(self, coeffs, order):
        self.order = int(order)
        c = np.asarray(coeffs, dtype=complex)
        if c.shape[0] != order + 1:
            raise ValueError("jet length mismatch")
        self.coeffs = c

    @classmethod
    def variable(cls, base, order):
        """Jet of (base + eps)."""
        c = np.zeros(order + 1, dtype=complex)
        c[0] = base
        if order >= 1:
            c[1] = 1.0
        return cls(c, order)

    @classmethod
    def const(cls, value, order):
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(c, order)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.coeffs + other.coeffs, self.order)
        c = self.coeffs.copy()
        c[0] += other
        return Jet(c, self.order)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs * other, self.order)
        n = self.order
        out = np.zeros(n + 1, dtype=complex)
        for j in range(n + 1):
            for k in range(n + 1 - j):
                out[j + k] += self.coeffs[j] * other.coeffs[k]
        return Jet(out, n)

    def reciprocal(self):
        """Jet of 1/self; requires nonzero constant term."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("jet has zero constant term")
        n = self.order
        out = np.zeros(n + 1, dtype=complex)
        out[0] = 1.0 / a0
        for j in range(1, n + 1):
            s = sum(self.coeffs[k] * out[j - k] for k in range(1, j + 1))
            out[j] = -s / a0
        return Jet(out, n)

    def exp(self):
        """Jet of exp(self), via e_j = (1/j) sum_k k f_k e_{j-k}."""
        n = self.order
        out = np.zeros(n + 1, dtype=complex)
        out[0] = np.exp(self.coeffs[0])
        for j in range(1, n + 1):
            out[j] = sum(k * self.coeffs[k] * out[j - k] for k in range(1, j + 1)) / j
        return Jet(out, n)

    def derivatives(self):
        """Derivative values f^(j)(0) = j! c[j]."""
        return np.array(
            [math.factorial(j) * self.coeffs[j] for j in range(self.order + 1)]
        )


def poly_on_jet(poly_coeffs, jet):
    """Evaluate a scalar polynomial (ascending coefficients) on a Jet."""
    out = Jet.const(0.0, jet.order)
    for c in poly_coeffs[::-1]:
        out = out * jet + c
    return out
