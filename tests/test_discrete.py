from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cuspcal import discrete
from cuspcal._poly import PolyMat1
from cuspcal.discrete import (
    PhiGrid,
    calderon_path_jump,
    calderon_path_spaces,
    collar_jets,
    discretize,
    double_geometry,
    green_identity_defect,
    jump_from_collar,
    jump_operator,
    normal_probe,
    one_sided_trace,
    symbol_probe,
    _path_spaces_modes,
    _path_spaces_sweep,
)
from cuspcal.errors import GeometryMismatch, NotComplementary, SolveFailure, TraceUnstable
from cuspcal.fibre import Fibre, FibreExtension, ModelOperator, full_ellipticity_scan
from cuspcal.linalg import fro, idempotence_defect
from cuspcal.symbols import PolyMatrixSymbol, calderon_symbol


def halfline_toy(q=1.0):
    return ModelOperator(2, 1, 0, Fibre("point"),
                         {(2, 0, 0): 1.0, (0, 0, 0): q},
                         geometry="HalfLineToy")


def strip_laplacian(length=1.0):
    return ModelOperator(2, 1, 0, Fibre("interval", length),
                         {(2, 0, 0): 1.0, (0, 0, 2): 1.0},
                         geometry="StripHyperbolic")


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhiGrid("HalfLineToy", S=3.0, ns=64)
        with pytest.raises(ValueError):
            PhiGrid("HalfLineToy", S=8.0, ns=8)
        with pytest.raises(ValueError):
            PhiGrid("StripHyperbolic", S=8.0, ns=64)

    @pytest.mark.parametrize("S,L", [(np.nan, 1.0), (np.inf, 1.0), (6.0, 0.0),
                                     (6.0, -1.0), (6.0, np.nan)])
    def test_rejects_non_finite_truncation_and_length(self, S, L):
        # each used to be accepted; L = 0 assembled non-finite entries
        with pytest.raises(ValueError):
            PhiGrid("StripHyperbolic", S=S, ns=16, L=L, nz=16)

    @pytest.mark.parametrize("ns,nz", [(16.5, 16), (16.0, 16), (True, 16), ("16", 16),
                                       (16, 16.0), (16, False), (None, 16)])
    def test_rejects_non_integer_sizes(self, ns, nz):
        # ns = 16.5 used to be accepted and fail later with a bare TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            PhiGrid("StripHyperbolic", S=6.0, ns=ns, L=1.0, nz=nz)
        if ns != 16:
            with pytest.raises(ValueError, match="ns must be an integer"):
                PhiGrid("HalfLineToy", S=6.0, ns=ns)

    def test_accepts_numpy_integer_sizes(self):
        grid = PhiGrid("StripHyperbolic", S=6.0, ns=np.int64(16), L=1.0, nz=np.int32(16))
        assert grid.s_nodes().size == 17

    def test_doubled_toy_nodes(self):
        g = PhiGrid("HalfLineToy", S=6.0, ns=32).doubled_copy()
        s = g.s_nodes()
        assert s[0] == pytest.approx(-4.0)
        assert s[32] == pytest.approx(1.0)
        assert s[-1] == pytest.approx(6.0)


class TestDiscretize:
    def test_identity_operator(self):
        op = ModelOperator(0, 1, 0, Fibre("point"), {(0, 0, 0): 1.0},
                           geometry="HalfLineToy")
        gop = discretize(op, PhiGrid("HalfLineToy", S=6.0, ns=32))
        assert fro(gop.matrix.toarray() - np.eye(33)) <= 1e-14

    def test_toy_tridiagonal(self):
        gop = discretize(halfline_toy(), PhiGrid("HalfLineToy", S=6.0, ns=64))
        band = np.abs(gop.matrix.toarray())
        assert np.max(np.triu(band, 2)) == 0.0
        assert np.max(np.tril(band, -2)) == 0.0

    def test_toy_consistency_second_order(self):
        # apply to a smooth function: O(h^2) interior consistency
        op = halfline_toy(q=0.0)
        errs = []
        for ns in (64, 128):
            grid = PhiGrid("HalfLineToy", S=6.0, ns=ns)
            gop = discretize(op, grid)
            s = grid.s_nodes()
            u = np.sin(s)
            pu_exact = np.sin(s)  # -u'' = sin
            pu = gop.matrix @ u
            errs.append(np.max(np.abs(pu[2:-2] - pu_exact[2:-2])))
        assert errs[0] / errs[1] > 3.4

    def test_strip_five_point_laplacian(self):
        grid = PhiGrid("StripHyperbolic", S=6.0, ns=16, L=1.0, nz=16)
        gop = discretize(strip_laplacian(), grid)
        row = gop.matrix.getrow(8 * 17 + 8).toarray().ravel()
        hs2, hz2 = grid.hs**2, grid.hz**2
        assert row[8 * 17 + 8] == pytest.approx(2 / hs2 + 2 / hz2)
        assert np.count_nonzero(row) == 5

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryMismatch):
            discretize(strip_laplacian(), PhiGrid("HalfLineToy", S=6.0, ns=32))


class TestDoubleGeometry:
    def test_plus_restriction_identical(self):
        op = ModelOperator(2, 1, 0, Fibre("point"),
                           {(2, 0, 0): 1.0,
                            (0, 0, 0): {(0, 0): 1.0, (1, 0): 0.4}},
                           geometry="HalfLineToy")
        grid = PhiGrid("HalfLineToy", S=6.0, ns=32)
        single = discretize(op, grid)
        doubled = double_geometry(grid, single)
        a = doubled.matrix.toarray()
        b = single.matrix.toarray()
        # interior plus rows coincide (offset by ns in the doubled grid)
        for i in range(1, 32):
            np.testing.assert_allclose(a[32 + i, 32:], b[i, :], atol=1e-14)

    def test_doubled_strip_with_bump_positive(self):
        ext = FibreExtension.with_default_bump(1.0)
        grid = PhiGrid("StripHyperbolic", S=6.0, ns=24, L=1.0, nz=24)
        dop = double_geometry(grid, discretize(strip_laplacian(), grid),
                              bump=ext.bump)
        # interior block (Dirichlet rows removed) is Hermitian and positive
        keep = np.setdiff1d(np.arange(dop.matrix.shape[0]), dop.dirichlet)
        m = dop.matrix.toarray()[np.ix_(keep, keep)]
        assert fro(m - m.conj().T) <= 1e-10 * fro(m)
        assert np.linalg.eigvalsh(m)[0] > 0

    def test_fibre_slice_singular_without_bump(self):
        # zero-tau fibre mode of the doubled strip without bump is singular
        op = strip_laplacian()
        assert full_ellipticity_scan(op, [(0.0,)]).rows[0].min_sv <= 1e-8
        ext = FibreExtension.with_default_bump(1.0)
        assert full_ellipticity_scan(op, [(0.0,)], ext).rows[0].min_sv > 1e-3


class TestJumpOperator:
    def test_constant_second_order(self):
        jump = jump_operator(halfline_toy(q=2.25))
        np.testing.assert_allclose(jump.matrix(),
                                   -1j * np.array([[0.0, 1.0], [1.0, 0.0]]),
                                   atol=1e-14)

    def test_first_order(self):
        # collar operator of -(x^2 D_x) + 1 is +D_rho + 1: single jump -i
        op = ModelOperator(1, 1, 0, Fibre("point"),
                           {(1, 0, 0): -1.0, (0, 0, 0): 1.0},
                           geometry="HalfLineToy")
        jump = jump_operator(op)
        np.testing.assert_allclose(jump.matrix(), [[-1j]])
        # and directly from collar coefficients A1 = 1, A0 = 1
        direct = jump_from_collar([
            np.ones((1, 1, 1), dtype=complex),
            np.ones((1, 1, 1), dtype=complex),
        ])
        np.testing.assert_allclose(direct.matrix(), [[-1j]])

    def test_rho_dependent_leading_coefficient(self):
        # A2(rho) = (-1)^2 a2(1/(1+rho)): a2 = 1 + x gives A2'(0) = -1
        op = ModelOperator(2, 1, 0, Fibre("point"),
                           {(2, 0, 0): {(0, 0): 1.0, (1, 0): 1.0},
                            (0, 0, 0): 1.0},
                           geometry="HalfLineToy")
        jets = collar_jets(op, 1)
        assert jets[2][0][0, 0] == pytest.approx(2.0)
        assert jets[2][1][0, 0] == pytest.approx(-1.0)
        jump = jump_operator(op)
        # (1,1)-entry picks up A2'(0)
        assert jump.blocks[0, 0][0, 0] == pytest.approx(-1.0)
        assert jump.blocks[0, 1][0, 0] == pytest.approx(-2j)

    def test_green_identity_seeded(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            coeffs = [
                PolyMat1((0.4 * rng.standard_normal(3)
                          + 0.4j * rng.standard_normal(3))[:, None, None], 1)
                for _ in range(2)
            ]
            lead = 0.3 * rng.standard_normal(3)
            lead[0] = 2.0
            coeffs.append(PolyMat1(lead.astype(complex)[:, None, None], 1))
            jump = jump_from_collar([c.jets_at(0.0, 1) for c in coeffs])
            from cuspcal.suites import _gaussian_test_fn

            defect = green_identity_defect(coeffs, jump,
                                           _gaussian_test_fn(rng),
                                           _gaussian_test_fn(rng), 4.5)
            assert defect <= 1e-8

    def test_strip_rejected(self):
        with pytest.raises(GeometryMismatch):
            jump_operator(strip_laplacian())


class TestOneSidedTrace:
    def test_polynomial_exact(self):
        h = 0.1
        rho = h * np.arange(1, 6)
        vals = 2.0 + 3.0 * rho + 0.5 * rho**2
        jet, stab = one_sided_trace(vals, h, +1, 3, 3)
        assert jet[0] == pytest.approx(2.0)
        assert jet[1] * 1j == pytest.approx(3.0)   # D_rho = (1/i) d/drho
        assert jet[2] * (1j**2) == pytest.approx(1.0)
        assert stab <= 1e-12

    def test_minus_side(self):
        h = 0.05
        rho = -h * np.arange(1, 6)
        vals = np.exp(rho)
        jet, _ = one_sided_trace(vals, h, -1, 2, 3)
        assert jet[0] == pytest.approx(1.0, abs=1e-4)
        assert jet[1] == pytest.approx(1.0 / 1j, abs=1e-3)

    def test_stability_decay_rate(self):
        stabs = []
        for h in (0.1, 0.05, 0.025):
            rho = h * np.arange(1, 6)
            vals = np.exp(-rho) * np.cos(rho)
            _, stab = one_sided_trace(vals, h, +1, 2, 3)
            stabs.append(stab)
        slope = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(stabs), 1)[0]
        assert slope >= 2.0

    def test_jump_raises(self):
        vals = np.array([1.0, 1.0, 5.0, 5.0, 5.0, 5.0])
        with pytest.raises(TraceUnstable):
            one_sided_trace(vals, 0.1, +1, 2, 3, stability_tol=1e-3)


class TestPathAgreement:
    def test_two_paths_agree_and_converge(self):
        op = halfline_toy(q=1.0)
        jump = jump_operator(op)
        gaps, hs = [], []
        for ns in (128, 256, 512):
            grid = PhiGrid("HalfLineToy", S=8.0, ns=ns)
            dop = double_geometry(grid, discretize(op, grid))
            pa = calderon_path_spaces(dop)
            pb = calderon_path_jump(dop, jump)
            assert pa.projector.idem_defect <= 1e-12
            gaps.append(fro(pa.projector.matrix - pb.matrix))
            hs.append(grid.hs)
        slope = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
        assert slope >= 1.7

    def test_default_grid_idempotence(self):
        # both discrete projectors meet the 1e-6 idempotence bar at the
        # default toy grid
        op = halfline_toy(q=1.0)
        grid = PhiGrid("HalfLineToy", S=6.0, ns=2048)
        dop = double_geometry(grid, discretize(op, grid))
        pa = calderon_path_spaces(dop)
        pb = calderon_path_jump(dop, jump_operator(op))
        assert pa.projector.idem_defect <= 1e-6
        assert pb.idem_defect <= 1e-6

    def test_jump_projector_reproduces_own_columns(self):
        op = halfline_toy(q=1.0)
        grid = PhiGrid("HalfLineToy", S=6.0, ns=1024)
        dop = double_geometry(grid, discretize(op, grid))
        pb = calderon_path_jump(dop, jump_operator(op))
        col = pb.matrix[:, 0]
        assert np.linalg.norm(pb.matrix @ col - col) <= 1e-4 * np.linalg.norm(col)

    def test_manufactured_decaying_solution(self):
        # boundary data of e^{-kappa rho} is reproduced by the projector
        q = 1.0
        op = halfline_toy(q=q)
        grid = PhiGrid("HalfLineToy", S=8.0, ns=1024)
        dop = double_geometry(grid, discretize(op, grid))
        pa = calderon_path_spaces(dop)
        kappa = np.sqrt(q)
        data = np.array([1.0, 1j * kappa])
        err = np.linalg.norm(pa.projector.matrix @ data - data)
        assert err <= 1e-3

    def test_variable_coefficient_toy(self):
        op = ModelOperator(2, 1, 0, Fibre("point"),
                           {(2, 0, 0): 1.0,
                            (0, 0, 0): {(0, 0): 1.0, (1, 0): 0.3}},
                           geometry="HalfLineToy")
        jump = jump_operator(op)
        grid = PhiGrid("HalfLineToy", S=8.0, ns=512)
        dop = double_geometry(grid, discretize(op, grid))
        pa = calderon_path_spaces(dop)
        pb = calderon_path_jump(dop, jump)
        assert fro(pa.projector.matrix - pb.matrix) <= 2e-4

    def test_block_decoupled_operator(self):
        # N = 2 decoupled system: projector is block-diagonal
        op = ModelOperator(2, 2, 0, Fibre("point"),
                           {(2, 0, 0): np.eye(2),
                            (0, 0, 0): np.diag([1.0, 2.0])},
                           geometry="HalfLineToy")
        grid = PhiGrid("HalfLineToy", S=8.0, ns=256)
        dop = double_geometry(grid, discretize(op, grid))
        pa = calderon_path_spaces(dop)
        c = pa.projector.matrix  # slots (v_1, v_2, Dv_1, Dv_2)
        coupling = max(abs(c[0, 1]), abs(c[1, 0]), abs(c[2, 3]), abs(c[3, 2]),
                       abs(c[0, 3]), abs(c[3, 0]))
        assert coupling <= 1e-8
        # each block matches its own scalar toy
        for comp, q in ((0, 1.0), (1, 2.0)):
            sub = c[np.ix_([comp, comp + 2], [comp, comp + 2])]
            kappa = np.sqrt(q)
            expect = 0.5 * np.array([[1.0, -1j / kappa], [1j * kappa, 1.0]])
            assert fro(sub - expect) <= 1e-3


class TestToyPath:
    @pytest.mark.parametrize("coefficients,dtype", [
        ({(2, 0, 0): 1.0, (0, 0, 0): 1.0}, np.float64),
        ({(2, 0, 0): 1.0, (1, 0, 0): 0.3, (0, 0, 0): 1.0}, np.complex128),
    ])
    def test_body_factor_dtype(self, coefficients, dtype, monkeypatch):
        op = ModelOperator(2, 1, 0, Fibre("point"), coefficients, geometry="HalfLineToy")
        grid = PhiGrid("HalfLineToy", S=6.0, ns=64)
        dop = double_geometry(grid, discretize(op, grid))
        seen = recording_splu(monkeypatch)
        calderon_path_spaces(dop)
        assert seen == [dtype, dtype]  # one factorization per body


class TestShadowSolutions:
    def test_plus_side_dirichlet_kernel_trivial(self):
        # discrete plus-side problem with zero interface and truncation data
        # has no kernel (no discrete shadow solutions)
        op = halfline_toy(q=1.0)
        grid = PhiGrid("HalfLineToy", S=6.0, ns=128)
        dop = double_geometry(grid, discretize(op, grid))
        nodes = np.arange(128, 257)
        msub = dop.matrix[nodes][:, nodes].toarray()
        msub[[0, -1]] = 0.0
        msub[0, 0] = msub[-1, -1] = 1.0  # Dirichlet rows: interface, truncated end
        sv = np.linalg.svd(msub, compute_uv=False)
        assert sv[-1] > 1e-6


def doubled_strip(coefficients, n, nz=None):
    op = ModelOperator(2, 1, 0, Fibre("interval", 1.0), coefficients,
                       geometry="StripHyperbolic")
    ext = FibreExtension.with_default_bump(1.0)
    grid = PhiGrid("StripHyperbolic", S=6.0, ns=n, L=1.0, nz=nz or n)
    return double_geometry(grid, discretize(op, grid), bump=ext.bump)


def lu_oracle(dop, trace_degree=None, rank_tol=1e-10):
    """Strip path A by a complex sparse LU of each whole body, solving for
    every unknown: the oracle of the sweep and of the mode route."""
    m, p, layout = discrete._strip_setup(dop, trace_degree)
    grid = dop.grid
    ns, nj = grid.ns, grid.nz + 1
    ii, jl = np.meshgrid(np.arange(ns + 1), np.arange(nj), indexing="ij")
    interior = ((ii != 0) & (ii != ns) & (jl != 0) & (jl != nj - 1)).ravel()
    lines = np.arange(1, ns) * nj
    data = np.concatenate([lines, lines + nj - 1])  # unit data at jl = 0, then nj - 1

    def side_span(side):
        gidx = (ii * 2 * grid.nz + discrete._body_lines(grid, side)[jl]).ravel()
        mat = (sp.diags(interior.astype(float)) @ dop.matrix[gidx][:, gidx]
               + sp.diags(1.0 - interior)).tocsc()
        rhs = np.zeros((gidx.size, data.size), dtype=complex)
        rhs[data, np.arange(data.size)] = 1.0
        u = spla.splu(mat).solve(rhs)
        u = u.reshape(ns + 1, nj, -1)[1:ns].transpose(1, 0, 2)
        return np.concatenate(discrete._jet_rows(u, grid.hz, m, p, side))

    return discrete._path_from_spans(dop, side_span, layout, rank_tol)


# s-separable: x-independent coefficients, even powers of x^2 D_x only
SEPARABLE = {
    "laplacian": {(2, 0, 0): 1.0, (0, 0, 2): 1.0},
    "anisotropic": {(2, 0, 0): 1.0, (0, 0, 2): 2.0, (0, 0, 0): 0.25},
    "complex": {(2, 0, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 1): 0.3},
}
NOT_SEPARABLE = {
    "x-dependent": {(2, 0, 0): 1.0, (0, 0, 2): {(0, 0): 1.0, (1, 0): 0.5}},
    "odd-k": {(2, 0, 0): 1.0, (0, 0, 2): 1.0, (1, 0, 0): 0.2},
    # x^2 D_x D_z: a 9-point stencil, so the line blocks couple s neighbours
    "cross": {(2, 0, 0): 1.0, (0, 0, 2): 1.0, (1, 0, 1): 0.3},
}


def trace_degree_routes():
    """(route, doubled operator, grid size in the error) on the smallest grids:
    16 z lines per strip body, 16 s nodes per toy body."""
    grid = PhiGrid("HalfLineToy", S=6.0, ns=16)
    return [("modes", doubled_strip(SEPARABLE["laplacian"], 16), "nz = 16"),
            ("sweep", doubled_strip(NOT_SEPARABLE["x-dependent"], 16), "nz = 16"),
            ("toy", double_geometry(grid, discretize(halfline_toy(), grid)), "ns = 16")]


def recording_splu(monkeypatch):
    """Route discrete.spla.splu through a recorder of the matrix dtypes."""
    seen, splu = [], discrete.spla.splu
    monkeypatch.setattr(discrete, "spla", SimpleNamespace(
        splu=lambda a: seen.append(a.dtype) or splu(a)))
    return seen


def relative_gap(a, b):
    return fro(a.projector.matrix - b.projector.matrix) / fro(b.projector.matrix)


class TestStripRoutes:
    @pytest.mark.parametrize("n", (24, 48))
    @pytest.mark.parametrize("name", sorted(SEPARABLE))
    def test_mode_route_matches_lu_route(self, name, n):
        dop = doubled_strip(SEPARABLE[name], n)
        assert bool(np.any(dop.matrix.data.imag)) == (name == "complex")
        modes = _path_spaces_modes(dop, None, 1e-10)
        sweep = _path_spaces_sweep(dop, None, 1e-10)
        assert relative_gap(modes, sweep) <= 1e-11
        assert relative_gap(modes, lu_oracle(dop)) <= 1e-11
        assert modes.layout["n_int"] == sweep.layout["n_int"] == n - 1
        np.testing.assert_array_equal(modes.layout["s_interior"], sweep.layout["s_interior"])
        assert modes.b_plus.dim == modes.b_minus.dim == 2 * (n - 1)

    @pytest.mark.parametrize("name,ns,nz,degree", [
        ("x-dependent", 24, 24, None), ("odd-k", 24, 24, None), ("cross", 24, 24, None),
        ("x-dependent", 40, 24, None), ("cross", 24, 40, None),
        # the jets read 9 of the 16 lines next to each interface: the kept lines overlap
        ("x-dependent", 16, 16, 7)])
    def test_sweep_matches_lu_oracle(self, name, ns, nz, degree):
        dop = doubled_strip(NOT_SEPARABLE[name], ns, nz)
        sweep = _path_spaces_sweep(dop, degree, 1e-10)
        assert relative_gap(sweep, lu_oracle(dop, degree)) <= 1e-11
        assert sweep.b_plus.dim == sweep.b_minus.dim == 2 * (ns - 1)

    def test_sweep_needs_enough_lines(self):
        for route, dop, size in trace_degree_routes():
            for degree in (15, 0, -1, 2.0, True, "3"):
                with pytest.raises(ValueError, match=rf"trace_degree must be an integer in "
                                                     rf"\[1, 14\] for order 2 on a grid with "
                                                     rf"{size}, got {degree!r}"):
                    calderon_path_spaces(dop, trace_degree=degree)

    def test_trace_degree_edges_accepted(self):
        # p = m - 1 and p + 2 = layers per body are the ends of the range
        for route, dop, _ in trace_degree_routes():
            for degree in (1, np.int64(14)):
                path = calderon_path_spaces(dop, trace_degree=degree)
                assert path.b_plus.dim == path.b_minus.dim, (route, degree)

    @pytest.mark.parametrize("name,dtype", [("x-dependent", np.float64),
                                            ("odd-k", np.complex128)])
    def test_route_guard(self, name, dtype, monkeypatch):
        dop = doubled_strip(NOT_SEPARABLE[name], 24)
        seen = recording_splu(monkeypatch)
        bodies, body_blocks = [], discrete._body_blocks

        def recording_blocks(*args):
            blocks = body_blocks(*args)
            bodies.append(blocks.dtype)
            return blocks

        monkeypatch.setattr(discrete, "_body_blocks", recording_blocks)
        c = calderon_path_spaces(dop).projector.matrix
        assert seen == []  # the strip factors nothing
        assert bodies == [dtype, dtype]  # one sweep per body
        sweep = _path_spaces_sweep(dop, None, 1e-10).projector.matrix
        np.testing.assert_array_equal(c, sweep)
        # the mode formula is wrong for these operators
        forced = _path_spaces_modes(dop, None, 1e-10).projector.matrix
        assert fro(forced - sweep) > 1e-6 * fro(sweep)

    def test_separable_operator_factors_nothing(self, monkeypatch):
        seen = recording_splu(monkeypatch)
        calderon_path_spaces(doubled_strip(SEPARABLE["laplacian"], 24))
        assert seen == []

    def test_sweep_certified(self):
        n = 48
        dop = doubled_strip(NOT_SEPARABLE["x-dependent"], n)
        proj = calderon_path_spaces(dop).projector
        assert 0.0 < proj.certs["line_backward_error"] <= discrete.SWEEP_TOL
        assert idempotence_defect(proj.matrix) <= 1e-9
        assert abs(np.trace(proj.matrix) - 2 * (n - 1)) <= 1e-9

    def test_singular_line_block_raises(self, monkeypatch):
        calls, inv = [], discrete.sla.inv

        def singular_at_fifth(a, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise np.linalg.LinAlgError("singular matrix")
            return inv(a, **kwargs)

        monkeypatch.setattr(discrete, "sla", SimpleNamespace(inv=singular_at_fifth))
        dop = doubled_strip(NOT_SEPARABLE["x-dependent"], 24)
        # the sweep runs down from line nz - 1 = 23 of the plus body
        with pytest.raises(SolveFailure, match=r"side \+1, line 19: singular matrix"):
            calderon_path_spaces(dop)

    def test_backward_error_above_bound_raises(self, monkeypatch):
        monkeypatch.setattr(discrete, "SWEEP_TOL", 1e-30)
        dop = doubled_strip(NOT_SEPARABLE["x-dependent"], 24)
        with pytest.raises(SolveFailure, match=r"side \+1, line 1: backward error .* exceeds"):
            calderon_path_spaces(dop)

    @pytest.mark.parametrize("rank_tol,reason", [
        (0.5, r"range dim 32 \+ kernel dim 32 != ambient dim 92"),
        # at n = 24 the sv ratios are 0.113 (B+), 0.115 (B-), 0.111 ([B+|B-])
        (0.112, "numerically singular"),
    ])
    def test_certificates_match_lu_route(self, rank_tol, reason):
        dop = doubled_strip(SEPARABLE["laplacian"], 24)
        errs = []
        for route in (_path_spaces_modes, _path_spaces_sweep, lu_oracle):
            with pytest.raises(NotComplementary, match=reason) as info:
                route(dop, None, rank_tol)
            errs.append(info.value)
        assert str(errs[0]) == str(errs[1])
        for err in errs[1:]:
            assert err.gap == pytest.approx(errs[0].gap, rel=1e-10, abs=0.0)


@pytest.fixture(scope="module")
def strip_path():
    op = strip_laplacian()
    ext = FibreExtension.with_default_bump(1.0)
    grid = PhiGrid("StripHyperbolic", S=12.0, ns=96, L=1.0, nz=96)
    dop = double_geometry(grid, discretize(op, grid), bump=ext.bump)
    return calderon_path_spaces(dop), ext


class TestProbes:

    def test_normal_probe_small_error(self, strip_path):
        path, ext = strip_path
        rep = normal_probe(path, ext, 1.0, (6.0, 11.0))
        assert rep.error <= 5e-2
        assert abs(rep.details["tau_snapped"] - 1.0) < 0.3

    def test_normal_probe_tau_zero_reported(self, strip_path):
        path, ext = strip_path
        rep = normal_probe(path, ext, 0.0, (6.0, 11.0))
        assert np.isfinite(rep.error)

    def test_normal_probe_outside_cusp_larger(self, strip_path):
        path, ext = strip_path
        deep = normal_probe(path, ext, 1.0, (6.0, 11.0))
        near = normal_probe(path, ext, 1.0, (1.2, 3.0))
        assert np.isfinite(near.error)
        # reported, not asserted: the deep-cusp window is the good regime
        assert deep.error <= near.error * 50

    def test_symbol_probe_strip(self, strip_path):
        path, _ = strip_path
        rep = symbol_probe(path, xi=8.0, point=6.0, width=2.0)
        assert rep.error <= 0.2
        assert rep.details["leakage"] <= 0.05

    @pytest.mark.parametrize("probe", ["normal", "symbol"])
    def test_window_off_grid_raises(self, probe):
        # the symbol probe used to compare over the whole grid instead
        op = strip_laplacian()
        ext = FibreExtension.with_default_bump(1.0)
        grid = PhiGrid("StripHyperbolic", S=6.0, ns=32, L=1.0, nz=32)
        path = calderon_path_spaces(double_geometry(grid, discretize(op, grid), bump=ext.bump))
        with pytest.raises(ValueError, match="does not meet the grid"):
            if probe == "normal":
                normal_probe(path, ext, 1.0, (49.0, 51.0))
            else:
                symbol_probe(path, xi=8.0, point=50.0, width=1.0)

    @pytest.mark.parametrize("probe", ["normal", "symbol"])
    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, np.nan])
    def test_eval_fraction_range(self, probe, fraction, strip_path):
        # 1.5 used to select no point and fail inside numpy ("zero-size array")
        path, ext = strip_path
        with pytest.raises(ValueError, match=r"eval_fraction must lie in \(0, 1\]"):
            if probe == "normal":
                normal_probe(path, ext, 1.0, (6.0, 11.0), eval_fraction=fraction)
            else:
                symbol_probe(path, xi=8.0, point=6.0, eval_fraction=fraction)

    def test_eval_fraction_one_accepted(self, strip_path):
        path, ext = strip_path
        rep = normal_probe(path, ext, 1.0, (6.0, 11.0), eval_fraction=1.0)
        assert np.isfinite(rep.error)

    def test_symbol_probe_zero_data(self, strip_path):
        path, _ = strip_path
        d = np.zeros(path.layout["data_dim"], dtype=complex)
        assert np.linalg.norm(path.projector.matrix @ d) == 0.0

    def test_symbol_probe_toy(self):
        op = halfline_toy(q=1.0)
        grid = PhiGrid("HalfLineToy", S=6.0, ns=1024)
        dop = double_geometry(grid, discretize(op, grid))
        pa = calderon_path_spaces(dop)
        # the frozen-coefficient collar symbol projector at s = 1
        jets = collar_jets(op, 0)
        sym = PolyMatrixSymbol(2, 1, 0, 1, {(k, (), (0,)): jets[k][0] for k in range(3)})
        csym = calderon_symbol(sym, (1.0,)).matrix
        assert fro(pa.projector.matrix - csym) <= 1e-3 * fro(csym)

    def test_normal_probe_anisotropic_operator(self):
        # (x^2 D_x)^2 + 2 D_z^2 + 1/4: separation in s still exact, so the
        # probe measures pure fibre discretization error
        op = ModelOperator(2, 1, 0, Fibre("interval", 1.0),
                           {(2, 0, 0): 1.0, (0, 0, 2): 2.0, (0, 0, 0): 0.25},
                           geometry="StripHyperbolic")
        ext = FibreExtension.with_default_bump(1.0)
        grid = PhiGrid("StripHyperbolic", S=12.0, ns=64, L=1.0, nz=64)
        dop = double_geometry(grid, discretize(op, grid), bump=ext.bump)
        path = calderon_path_spaces(dop)
        rep = normal_probe(path, ext, 1.0, (6.0, 11.0))
        assert rep.error <= 2e-2

    def test_symbol_probe_refinement_trend(self):
        op = strip_laplacian()
        ext = FibreExtension.with_default_bump(1.0)
        errs = []
        for ns, nz in ((160, 40), (320, 80)):
            grid = PhiGrid("StripHyperbolic", S=6.0, ns=ns, L=1.0, nz=nz)
            dop = double_geometry(grid, discretize(op, grid), bump=ext.bump)
            path = calderon_path_spaces(dop)
            rep = symbol_probe(path, xi=8.0, point=3.5, width=1.5)
            errs.append(rep.error)
        assert errs[1] < errs[0]
        assert errs[1] <= 1e-2
