"""Acceptance-criteria suites.

Each criterion runs at its stated tolerance with fixed seeds and returns a
SuiteResult with per-item CSV rows; verify_all executes them in order and
reports one pass/fail line per criterion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._poly import Jet, PolyMat1, poly_on_jet
from .discrete import (
    PhiGrid,
    calderon_path_jump,
    calderon_path_spaces,
    discretize,
    double_geometry,
    green_identity_defect,
    jump_from_collar,
    jump_operator,
    normal_probe,
    one_sided_trace,
)
from .errors import NotComplementary, TraceUnstable
from .extension_lab import (
    AbstractBVP,
    augment,
    boundary_space,
    complement_in_minus,
    modify_shadow,
    perturb_imag,
    perturb_real,
)
from .fibre import (
    Fibre,
    FibreExtension,
    ModelOperator,
    boundary_data_space,
    minus_boundary_data_space,
    normal_calderon,
    normal_operator,
    ucp_check,
)
from .linalg import (
    SubspaceBasis,
    direct_sum_check,
    fro,
    idempotence_defect,
    nullspace,
    orth_projector,
    projector_from_pair,
    subspace_distance,
)
from .oracles import half_plane_projector_from_roots
from .symbols import (
    PolyMatrixSymbol,
    calderon_symbol,
    complementary_symbol,
    dn_symbol,
    orthogonalize,
    random_elliptic_symbol,
)


# 1-D toy path study (c09): convergence grids at TOY_S, idempotence on the
# default grid
TOY_S, TOY_GRIDS = 8.0, (256, 512, 1024)
TOY_DEFAULT_S, TOY_DEFAULT_NS = 6.0, 2048
# strip probe study (c11)
STRIP_S, STRIP_GRIDS = 12.0, (64, 128, 256)


# the tolerances of the criteria by name; no run can change them
TOLERANCES = {
    "dn": 1e-10,
    "calderon_closed": 1e-10,
    "calderon_oracle": 1e-8,
    "complementarity": 1e-9,
    "orthogonalize": 1e-9,
    "proj_inversion_margin": 1e-8,
    "s4_algebra": 1e-10,
    "normal_space": 1e-8,
    "normal_idem": 1e-8,
    "normal_gap": 0.05,
    "path_gap": 1e-5,
    "path_slope": 1.7,
    "discrete_idem": 1e-6,
    "green_identity": 1e-6,
    "probe": 5e-2,
    "trace_rate": 2.0,
}


@dataclass
class SuiteResult:
    index: int
    name: str
    passed: bool
    rows: list
    message: str
    runtime: float = 0.0

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.index:02d} {self.name}] {status}: {self.message}"


def _laplace_symbol(base_dim, fibre_codim):
    """tau^2 + |eta|^2 + |zeta'|^2."""
    coeffs = {(2, (0,) * base_dim, (0,) * fibre_codim): 1.0}
    for i in range(base_dim):
        alpha = tuple(2 if j == i else 0 for j in range(base_dim))
        coeffs[(0, alpha, (0,) * fibre_codim)] = 1.0
    for i in range(fibre_codim):
        beta = tuple(2 if j == i else 0 for j in range(fibre_codim))
        coeffs[(0, (0,) * base_dim, beta)] = 1.0
    return PolyMatrixSymbol(2, 1, base_dim, fibre_codim, coeffs)


def strip_laplacian(length=1.0):
    """P = (x^2 D_x)^2 + D_z^2 on the hyperbolic strip model."""
    return ModelOperator(2, 1, 0, Fibre("interval", length),
                         {(2, 0, 0): 1.0, (0, 0, 2): 1.0},
                         geometry="StripHyperbolic")


def halfline_toy(q=1.0):
    """P = (x^2 D_x)^2 + q = -d^2/ds^2 + q on the 1-D toy."""
    return ModelOperator(2, 1, 0, Fibre("point"),
                         {(2, 0, 0): 1.0, (0, 0, 0): q},
                         geometry="HalfLineToy")


def c01_dn_symbol(seed):
    """DN symbol of the Laplacian equals |xi'|."""
    tol = TOLERANCES["dn"]
    rng = np.random.default_rng(seed + 1)
    rows, worst = [], 0.0
    for i in range(50):
        b = int(rng.integers(0, 2))
        f1 = int(rng.integers(1, 3))
        sym = _laplace_symbol(b, f1)
        xi = rng.uniform(-3.0, 3.0, size=b + f1)
        while np.linalg.norm(xi) < 0.2:
            xi = rng.uniform(-3.0, 3.0, size=b + f1)
        dn = dn_symbol(sym, xi, 1)
        err = abs(dn - np.linalg.norm(xi))
        worst = max(worst, err)
        rows.append({"case": i, "norm_xi": np.linalg.norm(xi), "dn_re": dn.real,
                     "dn_im": dn.imag, "err": err})
    return worst <= tol, rows, f"max |dn - |xi'|| = {worst:.3e} (tol {tol:.0e})"


def c02_calderon_closed_form(seed):
    """Calderon symbol of tau^2+s^2 vs the closed form and the root oracle."""
    tol_closed = TOLERANCES["calderon_closed"]
    tol_oracle = TOLERANCES["calderon_oracle"]
    rows, worst_c, worst_o = [], 0.0, 0.0
    for s in (0.25, 1.0, 4.0):
        sym = _laplace_symbol(0, 1)
        c = calderon_symbol(sym, (s,))
        closed = 0.5 * np.array([[1.0, -1j / s], [1j * s, 1.0]])
        err_c = float(np.max(np.abs(c.matrix - closed)))
        oracle, roots = half_plane_projector_from_roots([s**2, 0.0, 1.0])
        err_o = float(np.max(np.abs(c.matrix - oracle.matrix)))
        worst_c, worst_o = max(worst_c, err_c), max(worst_o, err_o)
        rows.append({"s": s, "closed_form_err": err_c, "oracle_err": err_o,
                     "idem_defect": c.idem_defect,
                     "roots": ";".join(f"{r:.6g}" for r in roots)})
    ok = worst_c <= tol_closed and worst_o <= tol_oracle
    return ok, rows, (f"closed-form err {worst_c:.3e} (tol {tol_closed:.0e}), "
                      f"oracle err {worst_o:.3e} (tol {tol_oracle:.0e})")


def c03_complementarity(seed):
    """C+ + C- = I for 200 seeded random elliptic symbols."""
    tol = TOLERANCES["complementarity"]
    rows, worst = [], 0.0
    specs = [(m, n) for m in (1, 2, 3, 4) for n in (1, 2, 3)]
    rng = np.random.default_rng(seed + 3)
    for i in range(200):
        m, n = specs[i % len(specs)]
        sym = random_elliptic_symbol(np.random.default_rng(seed + 300 + i),
                                     order=m, system_size=n)
        t_dim = sym.base_dim + sym.fibre_codim
        xi = rng.standard_normal(t_dim)
        xi /= np.linalg.norm(xi)
        xi *= rng.uniform(0.5, 2.0)
        cp = calderon_symbol(sym, xi, idem_tol=1e-10)
        cm = complementary_symbol(sym, xi, idem_tol=1e-10)
        defect = float(np.max(np.abs(cp.matrix + cm.matrix - np.eye(m * n))))
        worst = max(worst, defect, cp.idem_defect, cm.idem_defect)
        rows.append({"case": i, "order": m, "size": n, "sum_defect": defect,
                     "idem_plus": cp.idem_defect, "idem_minus": cm.idem_defect})
    return worst <= tol, rows, f"max defect {worst:.3e} (tol {tol:.0e})"


def _random_projector(rng, n):
    """Seeded random oblique projector with a controlled range/kernel gap."""
    while True:
        k = int(rng.integers(1, n))
        r = SubspaceBasis.from_span(rng.standard_normal((n, k))
                                    + 1j * rng.standard_normal((n, k)))
        kk = SubspaceBasis.from_span(rng.standard_normal((n, n - k))
                                     + 1j * rng.standard_normal((n, n - k)))
        rep = direct_sum_check(r, kk)
        if rep.is_direct_sum and rep.gap > 0.15:
            return projector_from_pair(r, kk)


def c04_orthogonalize(seed):
    """C_o = C (I + C - C*)^-1: idempotent, gram-self-adjoint, range-equal."""
    tol = TOLERANCES["orthogonalize"]
    rows, worst = [], 0.0
    for i in range(100):
        rng = np.random.default_rng(seed + 400 + i)
        n = int(rng.integers(2, 9))
        c = _random_projector(rng, n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gram = a.conj().T @ a + 0.3 * np.eye(n)
        co = orthogonalize(c, gram)
        gc = gram @ co.matrix
        scale = max(1.0, fro(co.matrix))
        sa = fro(gc - gc.conj().T) / scale
        rng_eq = max(fro(co.matrix @ c.matrix - c.matrix),
                     fro(c.matrix @ co.matrix - co.matrix)) / scale
        defect = max(co.idem_defect, sa, rng_eq)
        worst = max(worst, defect)
        rows.append({"case": i, "n": n, "idem": co.idem_defect,
                     "gram_sa": sa, "range_eq": rng_eq})
    return worst <= tol, rows, f"max defect {worst:.3e} (tol {tol:.0e})"


def c05_proj_inversion(seed):
    """Both directions of the projection-perturbation lemma on 500 instances."""
    margin = TOLERANCES["proj_inversion_margin"]
    rows = []
    mis = 0
    for i in range(500):
        rng = np.random.default_rng(seed + 500 + i)
        kind = i % 5
        n = int(rng.integers(4, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        rt = int(rng.integers(1, n))
        d = rng.uniform(0.3, 2.0, rt) * rng.choice([-1.0, 1.0], rt)
        t = q[:, :rt] @ np.diag(d) @ q[:, :rt].conj().T
        if kind == 0:        # (a) direct sum: T + alpha Pi invertible
            pi = q[:, rt:] @ q[:, rt:].conj().T
            rep = perturb_real(t, pi, 1.0)
            expect = True
        elif kind == 1:      # (a) deficient: singular
            k = int(rng.integers(0, n - rt))
            pi = q[:, rt:rt + k] @ q[:, rt:rt + k].conj().T
            rep = perturb_real(t, pi, 1.0)
            expect = k == n - rt
        elif kind == 2:      # (b) covering sum (possibly non-direct): invertible
            extra = int(rng.integers(0, rt + 1))
            span = np.hstack([q[:, rt:], q[:, :extra]])
            pi = span @ span.conj().T
            rep = perturb_imag(t, pi, 1.0)
            expect = True
        elif kind == 3:      # (b) only-if: deficient sum is singular
            if n - rt - 1 <= 0:
                pi = np.zeros((n, n), dtype=complex)
            else:
                k = int(rng.integers(0, n - rt))
                pi = q[:, rt:rt + k] @ q[:, rt:rt + k].conj().T
            rep = perturb_imag(t, pi, 1.0)
            expect = np.linalg.matrix_rank(np.hstack([t, pi]), tol=1e-10) == n
        else:                # the T = Pi = id remark: non-direct sum, invertible
            t = np.eye(n, dtype=complex)
            pi = np.eye(n, dtype=complex)
            rep = perturb_imag(t, pi, 1.0)
            expect = True
        got = rep.min_sv > margin
        ok = got == expect
        mis += 0 if ok else 1
        rows.append({"case": i, "kind": kind, "n": n, "min_sv": rep.min_sv,
                     "expected_invertible": expect, "classified": got})
    return mis == 0, rows, f"misclassifications {mis}/500 (margin {margin:.0e})"


def _seeded_bvp(rng, n=10, d=3, shadow_dim=2, data_dim_kernel=2):
    """Hermitian T whose kernel splits into shadow vectors (zero boundary
    data) and data-carrying vectors; gamma kills exactly the shadows."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    kdim = shadow_dim + data_dim_kernel
    d_eigs = rng.uniform(0.4, 2.0, n - kdim)
    t = q[:, kdim:] @ np.diag(d_eigs) @ q[:, kdim:].conj().T
    shadows = q[:, :shadow_dim]
    gamma = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    gamma = gamma @ (np.eye(n) - shadows @ shadows.conj().T)
    gram = np.eye(n, dtype=complex)
    mask = np.zeros(n, dtype=bool)
    mask[: n // 2] = True
    return AbstractBVP(t, gamma, gram, mask)


def c06_s4_algebra(seed):
    """Augmentation, modification and minus-complement suites."""
    tol = TOLERANCES["s4_algebra"]
    rows, worst = [], 0.0
    for i in range(100):
        rng = np.random.default_rng(seed + 600 + i)
        n, d = 8, 3
        bvp = _seeded_bvp(rng, n=n, d=d, shadow_dim=1, data_dim_kernel=2)
        # augmentation: C = pi Cbar iota projects onto B_T
        tbar = augment(bvp.T, bvp.gram, bvp.gram)
        gbar = np.zeros((2 * d, 2 * n), dtype=complex)
        gbar[:d, :n] = bvp.gamma
        gbar[d:, n:] = bvp.gamma
        bvp_bar = AbstractBVP(tbar, gbar, np.eye(2 * n), np.tile(bvp.mask_plus, 2))
        bbar = boundary_space(bvp_bar)
        cbar = orth_projector(bbar, np.eye(2 * d)).matrix
        c = cbar[:d, :d]
        b_t = boundary_space(bvp)
        idem = idempotence_defect(c)
        rng_dist = subspace_distance(SubspaceBasis.from_span(c, sv_cut=0.5), b_t)
        # modification: boundary space preserved, no shadow kernel left
        mod = modify_shadow(bvp)
        mod_dist = subspace_distance(boundary_space(bvp),
                                     boundary_space(bvp, T=mod.T_mod))
        resid = nullspace(np.vstack([mod.T_mod, bvp.gamma])).shape[1]
        # complement: W = chi^2 K complements K-perp
        kdim = 2
        raw = rng.standard_normal((n, kdim)) + 1j * rng.standard_normal((n, kdim))
        raw[bvp.minus_indices()[:kdim], :] += 3.0 * np.eye(kdim)
        k = SubspaceBasis.from_span(raw)
        chi = (~bvp.mask_plus).astype(float)
        w = complement_in_minus(k, bvp, chi)
        gap = direct_sum_check(
            w, SubspaceBasis.from_span(nullspace(k.basis.conj().T @ bvp.gram))).gap
        defect = max(idem, rng_dist, mod_dist, float(resid))
        worst = max(worst, defect)
        rows.append({"case": i, "augment_idem": idem, "augment_range": rng_dist,
                     "modify_b_dist": mod_dist, "modify_shadow_left": resid,
                     "complement_gap": gap})
    return worst <= tol, rows, f"max defect {worst:.3e} (tol {tol:.0e})"


def c07_normal_closed_forms(seed):
    """Strip normal family: cosh/sinh data spaces, projector, bump behavior."""
    tol_space = TOLERANCES["normal_space"]
    tol_idem = TOLERANCES["normal_idem"]
    gap_min = TOLERANCES["normal_gap"]
    op = strip_laplacian()
    ext = FibreExtension.with_default_bump(1.0)
    rows, ok = [], True
    worst_space = 0.0
    for tau in (0.5, 1.0, 2.0):
        ode = normal_operator(op, (tau,))
        bp = boundary_data_space(ode)
        c, s = np.cosh(tau), np.sinh(tau)
        closed = np.array([
            [1.0, 0.0, c, tau * s / 1j],
            [0.0, 1.0 / 1j, s / tau, c / 1j],
        ]).T
        dist = subspace_distance(bp, SubspaceBasis.from_span(closed))
        worst_space = max(worst_space, dist)
        proj = normal_calderon(op, (tau,), ext)
        rows.append({"tau": tau, "space_dist": dist,
                     "idem_defect": proj.idem_defect})
        ok = ok and dist <= tol_space and proj.idem_defect <= tol_idem
    try:
        normal_calderon(op, (0.0,), FibreExtension(1.0))
        bump_off_detected = False
    except NotComplementary:
        bump_off_detected = True
    bp0 = boundary_data_space(normal_operator(op, (0.0,)))
    bm0 = minus_boundary_data_space(ext, op, (0.0,))
    gap0 = direct_sum_check(bp0, bm0).gap
    rows.append({"tau": 0.0, "space_dist": 0.0, "idem_defect": 0.0,
                 "bump_off_not_complementary": bump_off_detected,
                 "bump_on_gap": gap0})
    ok = ok and bump_off_detected and gap0 > gap_min
    return ok, rows, (f"max space dist {worst_space:.3e}, bump-off detected "
                      f"{bump_off_detected}, bump-on gap {gap0:.3f}")


def _random_fibre_operator(rng):
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 3))
    coeffs = {}
    for beta in range(m + 1):
        table = {}
        for dx in range(2):
            for dz in range(2):
                table[(dx, dz)] = 0.25 * (rng.standard_normal((n, n))
                                          + 1j * rng.standard_normal((n, n)))
        coeffs[(0, 0, beta)] = table
    coeffs[(0, 0, m)] = {(0, 0): (2.0 + rng.uniform(0, 1)) * np.eye(n),
                         (0, 1): 0.2 * rng.standard_normal((n, n))}
    coeffs[(m, 0, 0)] = np.eye(n)
    return ModelOperator(m, n, 0, Fibre("interval", 1.0), coeffs,
                         geometry="StripHyperbolic")


def c08_ucnf(seed):
    """dim_shadow = 0 for 50 seeded fibre ODEs and their formal adjoints."""
    rows, bad = [], 0
    for i in range(50):
        rng = np.random.default_rng(seed + 800 + i)
        op = _random_fibre_operator(rng)
        tau = float(rng.uniform(-2.0, 2.0))
        ode = normal_operator(op, (tau,))
        rep = ucp_check(ode)
        rep_adj = ucp_check(ode.formal_adjoint())
        bad += (rep.dim_shadow != 0) + (rep_adj.dim_shadow != 0)
        rows.append({"case": i, "order": op.order, "size": op.system_size,
                     "tau": tau, "dim_shadow": rep.dim_shadow,
                     "dim_shadow_adjoint": rep_adj.dim_shadow,
                     "min_sv": rep.min_sv})
    return bad == 0, rows, f"nonzero shadow dimensions: {bad}/100 checks"


def toy_path_row(opd, jump):
    """Paths A and B on the doubled grid of the discretized 1-D toy `opd`:
    the table row (ns, h, path_gap, idem_spaces, idem_jump) and both
    projectors."""
    grid = opd.grid
    dop = double_geometry(grid, opd)
    pa = calderon_path_spaces(dop).projector
    pb = calderon_path_jump(dop, jump)
    row = {"ns": grid.ns, "h": grid.hs, "path_gap": fro(pa.matrix - pb.matrix),
           "idem_spaces": pa.idem_defect, "idem_jump": pb.idem_defect}
    return row, pa, pb


def c09_path_agreement(seed):
    """1-D two-path agreement: slope >= 1.7, finest gap <= 1e-5."""
    gap_tol = TOLERANCES["path_gap"]
    slope_min = TOLERANCES["path_slope"]
    op = halfline_toy(q=1.0)
    jump = jump_operator(op)
    rows = [toy_path_row(discretize(op, PhiGrid("HalfLineToy", S=TOY_S, ns=ns)), jump)[0]
            for ns in TOY_GRIDS]
    gaps = [row["path_gap"] for row in rows]
    slope = float(np.polyfit(np.log([row["h"] for row in rows]), np.log(gaps), 1)[0])
    # default-grid idempotence bar for both discrete projectors (reported
    # alongside the asserted convergence figures)
    grid = PhiGrid("HalfLineToy", S=TOY_DEFAULT_S, ns=TOY_DEFAULT_NS)
    row, pa, pb = toy_path_row(discretize(op, grid), jump)
    rows.append({**row, "note": "default-grid"})
    idem_bar = TOLERANCES["discrete_idem"]
    idem_ok = max(pa.idem_defect, pb.idem_defect) <= idem_bar
    ok = slope >= slope_min and gaps[-1] <= gap_tol and idem_ok
    return ok, rows, (f"slope {slope:.2f} (>= {slope_min}), finest gap "
                      f"{gaps[-1]:.3e} (tol {gap_tol:.0e}), default-grid "
                      f"idem <= {idem_bar:.0e}: {idem_ok}")


def _gaussian_test_fn(rng):
    """A random cubic times exp(-1.5 rho^2), as jets (order + 1, 1)."""
    deg = 3
    coeffs = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))

    def fn(rho, order):
        jet_rho = Jet.variable(rho, order)
        poly = poly_on_jet(coeffs, jet_rho)
        gauss = (jet_rho * jet_rho * (-1.5)).exp()
        return (poly * gauss).derivatives()[:, None]

    return fn


def c10_green_identity(seed):
    """Jump-operator Green-identity oracle on 20 seeded smooth pairs."""
    tol = TOLERANCES["green_identity"]
    rows, worst = [], 0.0
    for i in range(20):
        rng = np.random.default_rng(seed + 1000 + i)
        m = 2 if i % 3 else 1
        coeffs = []
        for k in range(m + 1):
            table = 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            if k == m:
                table[0] = 1.5 + rng.uniform(0, 1)   # rho-dependent leading coeff
                table[1:] *= rng.uniform(0.3, 1.0)
            coeffs.append(PolyMat1(table[:, None, None].astype(complex), 1))
        jump = jump_from_collar(
            [c.jets_at(0.0, max(m - 1, 0)) for c in coeffs])
        u_fn = _gaussian_test_fn(rng)
        phi_fn = _gaussian_test_fn(rng)
        defect = green_identity_defect(coeffs, jump, u_fn, phi_fn, rho_max=4.5)
        worst = max(worst, defect)
        rows.append({"case": i, "order": m, "defect": defect})
    return worst <= tol, rows, f"max pairing defect {worst:.3e} (tol {tol:.0e})"


def c11_normal_probe(seed):
    """Strip probe vs the normal family: decreasing trend, final <= 5e-2."""
    tol = TOLERANCES["probe"]
    op = strip_laplacian()
    ext = FibreExtension.with_default_bump(1.0)
    rows, errs = [], []
    for n in STRIP_GRIDS:
        grid = PhiGrid("StripHyperbolic", S=STRIP_S, ns=n, L=1.0, nz=n)
        dop = double_geometry(grid, discretize(op, grid), bump=ext.bump)
        path = calderon_path_spaces(dop)
        rep = normal_probe(path, 1.0, (6.0, 11.0))
        errs.append(rep.error)
        rows.append({"n": n, "h": grid.hs, "probe_error": rep.error,
                     "tau_snapped": rep.details["tau_snapped"],
                     "idem": path.projector.idem_defect})
    trend = all(a > b for a, b in zip(errs[:-1], errs[1:]))
    ok = trend and errs[-1] <= tol
    return ok, rows, (f"errors {', '.join(f'{e:.2e}' for e in errs)}; "
                      f"monotone {trend}, final tol {tol:.0e}")


def c12_transmission(seed):
    """One-sided trace stability: h^m decay on smooth data, TraceUnstable on
    a manufactured interface jump."""
    rate_min = TOLERANCES["trace_rate"]
    rows, stabs, hs = [], [], []
    m, p = 2, 3
    for ns in (64, 128, 256):
        h = 4.0 / ns
        rho = h * np.arange(1, p + 3)
        vals = np.exp(-rho) * np.cos(2.0 * rho)
        _, stab = one_sided_trace(vals, h, +1, m, p)
        stabs.append(stab)
        hs.append(h)
        rows.append({"ns": ns, "h": h, "stability": stab})
    slope = float(np.polyfit(np.log(hs), np.log(stabs), 1)[0])
    rho = 0.05 * np.arange(1, p + 3)
    jump_vals = np.exp(-rho) + np.where(np.arange(1, p + 3) >= 3, 1.0, 0.0)
    try:
        one_sided_trace(jump_vals, 0.05, +1, m, p, stability_tol=1e-3)
        raised = False
    except TraceUnstable:
        raised = True
    rows.append({"ns": 0, "h": 0.05, "stability": -1.0, "jump_raised": raised})
    ok = slope >= rate_min and raised
    return ok, rows, f"stability slope {slope:.2f} (>= {rate_min}), jump raised {raised}"


def c13_determinism(seed):
    """Byte-identical CSV output for repeated verify runs (fast subset)."""
    import tempfile
    from pathlib import Path

    from .cli import write_suite_outputs

    fast = [1, 2, 5, 7]
    digests = []
    for _ in range(2):
        results = run_criteria(seed, fast)
        with tempfile.TemporaryDirectory() as tmp:
            write_suite_outputs(results, Path(tmp))
            blob = b"".join(
                p.read_bytes() for p in sorted(Path(tmp).glob("*.csv")))
        import hashlib
        digests.append(hashlib.sha256(blob).hexdigest())
    ok = digests[0] == digests[1]
    rows = [{"run": i, "sha256": d} for i, d in enumerate(digests)]
    return ok, rows, f"digests equal: {ok}"


CRITERIA = (
    (1, "dn-symbol-laplacian", c01_dn_symbol),
    (2, "calderon-symbol-closed-form", c02_calderon_closed_form),
    (3, "complementarity-random-symbols", c03_complementarity),
    (4, "orthogonalization", c04_orthogonalize),
    (5, "projection-perturbation-lemma", c05_proj_inversion),
    (6, "augment-modify-complement", c06_s4_algebra),
    (7, "normal-family-closed-forms", c07_normal_closed_forms),
    (8, "ucnf-check", c08_ucnf),
    (9, "discrete-path-agreement", c09_path_agreement),
    (10, "jump-green-identity", c10_green_identity),
    (11, "discrete-vs-normal-probe", c11_normal_probe),
    (12, "transmission-stability", c12_transmission),
    (13, "determinism", c13_determinism),
)


def run_criteria(seed, indices=None):
    """Run the requested criteria (all by default) in fixed order."""
    results = []
    for index, name, fn in CRITERIA:
        if indices is not None and index not in indices:
            continue
        t0 = time.time()
        passed, rows, message = fn(seed)
        results.append(SuiteResult(index, name, bool(passed), rows, message,
                                   time.time() - t0))
    return results
