"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed. The program under test only
ever sees the objects built here; the benchmark's reference checks use the
plain parameters kept alongside them (roots, linear forms, mixing matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cuspcal import Fibre, ModelOperator, PolyMatrixSymbol

# ---------------------------------------------------------------- symbols


@dataclass
class SymbolCase:
    """One C+/C- operation: an N x N symbol of order m at covector xi."""

    symbol: PolyMatrixSymbol
    xi: np.ndarray
    order: int
    size: int
    upper_roots: int  # roots with Im > 0 at xi, known from the construction
    label: str
    polys: list  # diagonal entries p_j as {(k_tau, e_1..e_d): coefficient}
    mix: np.ndarray  # sigma = mix diag(p_j) mix^-1


def _poly_mul(p, q):
    out = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            e = tuple(a + b for a, b in zip(ep, eq))
            out[e] = out.get(e, 0) + cp * cq
    return out


def _linear_factor(z, u):
    """tau - z * (u . xi'), as {(k_tau, e_1..e_d): coefficient}."""
    d = u.size
    out = {(1,) + (0,) * d: 1.0 + 0j}
    for i in range(d):
        e = [0] * (d + 1)
        e[1 + i] = 1
        out[tuple(e)] = out.get(tuple(e), 0) - z * u[i]
    return out


def _quadratic_factor(a, b, u):
    """tau^2 - 2 a (u . xi') tau + (a^2 + b^2) |xi'|^2 with |u| = 1.

    Its roots at a real covector are a l +- i sqrt((a^2 + b^2)|xi'|^2 - a^2 l^2),
    l = u . xi', so both stay at least b |xi'| away from the real axis and the
    factor is elliptic in every tangential dimension.
    """
    d = u.size
    out = {(2,) + (0,) * d: 1.0 + 0j}
    for i in range(d):
        e = [0] * (d + 1)
        e[0], e[1 + i] = 1, 1
        out[tuple(e)] = -2.0 * a * u[i] + 0j
        e = [0] * (d + 1)
        e[1 + i] = 2
        out[tuple(e)] = (a * a + b * b) + 0j
    return out


def _to_symbol(order, size, diag_polys, mix, base_dim, fibre_codim):
    """sigma = V diag(p_1..p_N) V^-1 as a PolyMatrixSymbol."""
    vinv = np.linalg.inv(mix)
    exps = sorted(set().union(*diag_polys))
    coeffs = {}
    for e in exps:
        diag = np.diag([p.get(e, 0.0) for p in diag_polys])
        key = (e[0], tuple(e[1:1 + base_dim]), tuple(e[1 + base_dim:]))
        coeffs[key] = mix @ diag @ vinv
    return PolyMatrixSymbol(order, size, base_dim, fibre_codim, coeffs)


def _root_count_upper(diag_specs, xi):
    """Roots with Im > 0 of every diagonal factor at covector xi."""
    count = 0
    for factors in diag_specs:
        for kind, params, u in factors:
            ell = float(u @ xi)
            if kind == "lin":
                count += int((params * ell).imag > 0)
            else:
                count += 1  # a quadratic factor has one root in each half-plane
    return count


def symbol_cases(seed, laps=4):
    """Elliptic matrix symbols from seeded roots, stratified over order 1-4,
    system size 1-3, tangential dimension 1-3 (odd orders use one tangential
    variable, since a linear factor is elliptic only there). Each lap over
    the 24 (order, size, dimension) specs takes one of `laps` log strata of
    covector norms in 0.25-4. The root distance from the real axis, which
    sets the contour cost, is stratified over [0.4, 1.6] as well.
    """
    rng = np.random.default_rng([seed, 1])
    specs = [(m, n, d) for m in (1, 2, 3, 4) for n in (1, 2, 3)
             for d in ((1,) if m % 2 else (1, 2, 3))]
    cases = []
    for i in range(laps * len(specs)):
        m, n, d = specs[i % len(specs)]
        lap = i // len(specs)
        norm = 0.25 * 16.0 ** in_stratum(rng, lap, laps)
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        xi = norm * direction
        diag_specs, diag_polys = [], []
        for j in range(n):
            height = 0.4 + 1.2 * in_stratum(rng, (lap + 3 * i + 5 * j) % laps, laps)
            factors = []
            if m % 2:
                sign = 1.0 if (i + j) % 2 else -1.0
                z = rng.uniform(-1.0, 1.0) + 1j * sign * height
                factors.append(("lin", z, np.ones(1)))
            for _ in range(m // 2):
                u = rng.standard_normal(d)
                u /= np.linalg.norm(u)
                factors.append(("quad", (rng.uniform(-1.0, 1.0), height), u))
            poly = {(0,) * (d + 1): 1.0 + 0j}
            for kind, params, u in factors:
                f = _linear_factor(params, u) if kind == "lin" else _quadratic_factor(*params, u)
                poly = _poly_mul(poly, f)
            diag_specs.append(factors)
            diag_polys.append(poly)
        mix = np.eye(n) + 0.2 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        base_dim = 1 if d >= 2 else 0
        sym = _to_symbol(m, n, diag_polys, mix, base_dim, d - base_dim)
        cases.append(SymbolCase(sym, xi, m, n, _root_count_upper(diag_specs, xi),
                                f"m{m}n{n}d{d}#{i}", diag_polys, mix))
    return cases


NEAR_AXIS_EPS = (1e-2, 1e-3, 1e-4)


def near_axis_cases():
    """sigma = (tau - (0.537 + i eps) xi)(tau + (0.3 + i) xi) at xi = 1: a
    valid elliptic symbol with one root eps above the real axis. Independent
    of the seed."""
    cases = []
    for eps in NEAR_AXIS_EPS:
        z1, z2 = 0.537 + 1j * eps, -0.3 - 1j
        poly = _poly_mul(_linear_factor(z1, np.ones(1)), _linear_factor(z2, np.ones(1)))
        sym = _to_symbol(2, 1, [poly], np.eye(1), 0, 1)
        cases.append(SymbolCase(sym, np.array([1.0]), 2, 1, 1, f"near-axis eps={eps:g}",
                                [poly], np.eye(1)))
    return cases


# ---------------------------------------------------------- fibre operators


def strip_laplacian(length=1.0, ds2=None):
    """(x^2 D_x)^2 + a(x) D_z^2 on the strip; a = 1 unless `ds2` gives the
    x-polynomial {x_degree: value} of the D_z^2 coefficient."""
    dz2 = {(dx, 0): v for dx, v in (ds2 or {0: 1.0}).items()}
    return ModelOperator(2, 1, 0, Fibre("interval", length),
                         {(2, 0, 0): 1.0, (0, 0, 2): dz2},
                         geometry="StripHyperbolic")


@dataclass
class SystemFibreCase:
    """P = (x^2 D_x)^2 + A(z) D_z^2 + B(z) D_z + C(z) with N = 2: small
    z-dependent perturbations of the Laplacian system."""

    op: ModelOperator
    coeffs: dict  # beta -> [c0, c1]: coefficient c0 + c1 z (N x N) at x = 0


def system_fibre_case(seed):
    rng = np.random.default_rng([seed, 2])
    n = 2

    def small(scale):
        return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    coeffs = {
        2: [np.eye(n) + small(0.05), small(0.1)],
        1: [small(0.1), small(0.1)],
        0: [small(0.1), small(0.1)],
    }
    table = {(0, 0, b): {(0, 0): c0, (0, 1): c1} for b, (c0, c1) in coeffs.items()}
    table[(2, 0, 0)] = np.eye(n)
    op = ModelOperator(2, n, 0, Fibre("interval", 1.0), table,
                       geometry="StripHyperbolic")
    return SystemFibreCase(op, coeffs)


JITTER = 0.3


def in_stratum(rng, k, strata):
    """A draw from the middle 30% of stratum k of [0, 1] cut into `strata`
    parts. Keeping draws near the stratum centres gives every seed the same
    cost mix; the seed still moves every value."""
    return (k + 0.5 + JITTER * (rng.uniform() - 0.5)) / strata


def stratified(rng, lo, hi, count):
    """One draw in each of `count` equal sub-intervals of [lo, hi]."""
    return [lo + (hi - lo) * in_stratum(rng, k, count) for k in range(count)]
