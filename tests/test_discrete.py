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
from cuspcal.fibre import Bump, Fibre, FibreExtension, ModelOperator, normal_calderon
from cuspcal.linalg import SubspaceBasis, direct_sum_check, fro, idempotence_defect
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

    def test_doubled_strip_reference_rows(self):
        # P = (x^2 D_x)^2 + (1 + z/2) D_z^2 + 0.3i D_z with the default bump,
        # built from 1-D stencils: -d^2/ds^2 in s; in z on the circle of 2nz
        # nodes, the minus side (z > L) takes (-1)^beta a(2L - z) and the bump
        op = ModelOperator(2, 1, 0, Fibre("interval", 1.0),
                           {(2, 0, 0): 1.0, (0, 0, 2): {(0, 0): 1.0, (0, 1): 0.5},
                            (0, 0, 1): 0.3j},
                           geometry="StripHyperbolic")
        ext = FibreExtension.with_default_bump(1.0)
        ns, nz = 16, 16
        grid = PhiGrid("StripHyperbolic", S=6.0, ns=ns, L=1.0, nz=nz)
        single = discretize(op, grid)
        dop = double_geometry(grid, single, bump=ext.bump)
        hs, hz, nzz = grid.hs, grid.hz, 2 * nz
        z = hz * np.arange(nzz)
        minus = np.arange(nzz) > nz
        zc = np.where(minus, 2.0 - z, z)
        sign = np.where(minus, -1.0, 1.0)  # (-1)^beta for beta = 1
        d2s = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(ns + 1, ns + 1)) / hs**2
        d2z = (np.roll(np.eye(nzz), 1, axis=1) - 2 * np.eye(nzz)
               + np.roll(np.eye(nzz), -1, axis=1)) / hz**2
        d1z = (np.roll(np.eye(nzz), 1, axis=1) - np.roll(np.eye(nzz), -1, axis=1)) / (2 * hz)
        bump = np.where(minus, ext.bump(z), 0.0)
        pz = (-(1 + zc / 2)[:, None] * d2z + (sign * 0.3j * -1j)[:, None] * d1z
              + np.diag(bump))
        expect = -sp.kron(d2s, np.eye(nzz)).toarray() + np.kron(np.eye(ns + 1), pz)
        expect[:nzz] = expect[-nzz:] = 0.0
        expect[np.r_[:nzz, (ns + 1) * nzz - nzz : (ns + 1) * nzz],
               np.r_[:nzz, (ns + 1) * nzz - nzz : (ns + 1) * nzz]] = 1.0
        got = dop.matrix.toarray()
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())
        row = 5 * nzz  # the s line i = 5
        j = nz + 3  # a minus-side node: D_z^2 carries a(2L - z), D_z flips sign
        assert got[row + j, row + j + 1] == pytest.approx(-(1 + (2.0 - z[j]) / 2) / hz**2
                                                          - 0.3 / (2 * hz))
        assert got[row + j, row + j - 1] == pytest.approx(-(1 + (2.0 - z[j]) / 2) / hz**2
                                                          + 0.3 / (2 * hz))
        # the bump enters only on the minus side
        bare = double_geometry(grid, single).matrix.toarray()
        np.testing.assert_allclose(np.diag(got - bare)[row : row + nzz], bump, rtol=0, atol=1e-10)
        assert np.all(bump[~minus] == 0.0) and bump[minus].max() > 0.1
        # the row at z = 2L - hz couples to z = 0 across the closed circle
        assert got[row + nzz - 1, row] == pytest.approx(-(1 + hz / 2) / hz**2 - 0.3 / (2 * hz))

    def test_point_base_only(self):
        # (x D_y)^alpha has no discrete stencil (the toy's point base rejects
        # it in ModelOperator already)
        op = ModelOperator(2, 1, 1, Fibre("interval", 1.0),
                           {(2, 0, 0): 1.0, (0, 2, 0): 5.0, (0, 0, 2): 1.0})
        grid = PhiGrid("StripHyperbolic", S=6.0, ns=16, L=1.0, nz=16)
        with pytest.raises(ValueError, match="point base"):
            discretize(op, grid)

    def test_strip_system_assembles_but_path_needs_scalar(self):
        op = ModelOperator(2, 2, 0, Fibre("interval", 1.0),
                           {(2, 0, 0): np.eye(2), (0, 0, 2): np.diag([1.0, 2.0])})
        grid = PhiGrid("StripHyperbolic", S=6.0, ns=16, L=1.0, nz=16)
        dop = double_geometry(grid, discretize(op, grid))
        scalar = double_geometry(grid, discretize(strip_laplacian(), grid))
        # component 0 of the decoupled system is the strip Laplacian
        np.testing.assert_array_equal(dop.matrix[::2, ::2].toarray(), scalar.matrix.toarray())
        with pytest.raises(ValueError, match="scalar order-2"):
            calderon_path_spaces(dop)

    def test_fibre_slice_singular_without_bump(self):
        # zero-tau fibre mode of the doubled strip without bump is singular
        op = strip_laplacian()
        with pytest.raises(NotComplementary) as info:
            normal_calderon(op, (0.0,), FibreExtension(1.0))
        assert info.value.gap <= 1e-8
        ext = FibreExtension.with_default_bump(1.0)
        assert normal_calderon(op, (0.0,), ext).certs["gap"] > 1e-3

    def test_grid_must_be_the_operators(self):
        # both used to assemble on the second grid (ns 32 -> 64, S 6 -> 9)
        op = strip_laplacian()
        g1 = PhiGrid("StripHyperbolic", S=6.0, ns=32, L=1.0, nz=16)
        g2 = PhiGrid("StripHyperbolic", S=9.0, ns=64, L=1.0, nz=16)
        with pytest.raises(GeometryMismatch, match="is not the grid of the operator"):
            double_geometry(g2, discretize(op, g1))
        toy = PhiGrid("HalfLineToy", S=6.0, ns=32)
        with pytest.raises(GeometryMismatch, match="is not the grid of the operator"):
            double_geometry(PhiGrid("HalfLineToy", S=6.0, ns=64), discretize(halfline_toy(), toy))

    @pytest.mark.parametrize("support", [(0.5, 1.5), (1.5, 2.5), (0.2, 0.8)])
    def test_strip_bump_must_lie_in_the_minus_side(self, support):
        # the assembler used to clip such a bump at z = L or 2L, silently
        grid = PhiGrid("StripHyperbolic", S=6.0, ns=16, L=1.0, nz=16)
        single = discretize(strip_laplacian(), grid)
        with pytest.raises(ValueError, match="bump support must lie inside the minus side"):
            double_geometry(grid, single, bump=Bump(1.0, support))
        assert single.bump is None
        assert double_geometry(grid, single, bump=DEFAULT_BUMP).bump == DEFAULT_BUMP

    def test_strip_grid_must_span_the_fibre(self):
        # L = 2 on a fibre of length 1 used to assemble, and path A returned
        # a projector for it
        grid = PhiGrid("StripHyperbolic", S=6.0, ns=16, L=2.0, nz=16)
        with pytest.raises(GeometryMismatch, match=r"grid length L = 2.0 != fibre length 1.0"):
            discretize(strip_laplacian(), grid)


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
        assert jet.dtype == np.float64  # derivatives d^r/drho^r
        assert jet == pytest.approx([2.0, 3.0, 1.0])
        djet = discrete._dz_jet(jet)
        assert djet[0] == pytest.approx(2.0)
        assert djet[1] * 1j == pytest.approx(3.0)   # D_rho = (1/i) d/drho
        assert djet[2] * (1j**2) == pytest.approx(1.0)
        assert stab <= 1e-12
        cjet, cstab = one_sided_trace(vals.astype(complex), h, +1, 3, 3)
        assert cjet.dtype == np.complex128
        np.testing.assert_allclose(cjet, jet, rtol=1e-12)
        assert cstab <= 1e-12

    def test_minus_side(self):
        h = 0.05
        rho = -h * np.arange(1, 6)
        vals = np.exp(rho)
        jet, _ = one_sided_trace(vals, h, -1, 2, 3)
        assert jet[0] == pytest.approx(1.0, abs=1e-4)
        assert jet[1] == pytest.approx(1.0, abs=1e-3)
        assert discrete._dz_jet(jet)[1] == pytest.approx(1.0 / 1j, abs=1e-3)

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


DEFAULT_BUMP = FibreExtension.with_default_bump(1.0).bump  # support (1.15, 1.85)


def doubled_strip(coefficients, n, nz=None, bump=DEFAULT_BUMP):
    op = ModelOperator(2, 1, 0, Fibre("interval", 1.0), coefficients,
                       geometry="StripHyperbolic")
    grid = PhiGrid("StripHyperbolic", S=6.0, ns=n, L=1.0, nz=nz or n)
    return double_geometry(grid, discretize(op, grid), bump=bump)


def lu_body_data(dop, side):
    """Boundary jets (v0, dv0, vL, dvL) of one strip body's unit-data
    solutions by a complex sparse LU of the whole body, solving for every
    unknown: columns 0..n-1 have g_lo = e_c, columns n..2n-1 g_hi = e_c.
    Also returns the larger trace stability."""
    m, p, _ = discrete._strip_setup(dop)
    grid = dop.grid
    ns, nj = grid.ns, grid.nz + 1
    ii, jl = np.meshgrid(np.arange(ns + 1), np.arange(nj), indexing="ij")
    interior = ((ii != 0) & (ii != ns) & (jl != 0) & (jl != nj - 1)).ravel()
    lines = np.arange(1, ns) * nj
    data = np.concatenate([lines, lines + nj - 1])  # unit data at jl = 0, then nj - 1
    gidx = (ii * 2 * grid.nz + discrete._body_lines(grid, side)[jl]).ravel()
    mat = (sp.diags(interior.astype(float)) @ dop.matrix[gidx][:, gidx]
           + sp.diags(1.0 - interior)).tocsc()
    rhs = np.zeros((gidx.size, data.size), dtype=complex)
    rhs[data, np.arange(data.size)] = 1.0
    u = spla.splu(mat).solve(rhs)
    u = u.reshape(ns + 1, nj, -1)[1:ns].transpose(1, 0, 2)
    rows, stability = discrete._jet_rows(u, grid.hz, m, p, side)
    return np.concatenate(rows), stability


def lu_oracle(dop):
    """Strip path A from `lu_body_data` of each body: the oracle of the
    sweep and of the mode route."""
    def side_span(side):
        data, stability = lu_body_data(dop, side)
        return data, {"trace_stability": stability}

    return discrete._path_from_spans(dop, side_span, discrete._strip_setup(dop)[2])


# s-separable: x-independent coefficients, even powers of x^2 D_x only
SEPARABLE = {
    "laplacian": {(2, 0, 0): 1.0, (0, 0, 2): 1.0},
    "anisotropic": {(2, 0, 0): 1.0, (0, 0, 2): 2.0, (0, 0, 0): 0.25},
    "complex": {(2, 0, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 1): 0.3},
    # (1 + z/2) D_z^2: a z-dependent coefficient keeps the DST-I in s exact
    "z-dependent": {(2, 0, 0): 1.0, (0, 0, 2): {(0, 0): 1.0, (0, 1): 0.5}},
}
NOT_SEPARABLE = {
    "x-dependent": {(2, 0, 0): 1.0, (0, 0, 2): {(0, 0): 1.0, (1, 0): 0.5}},
    "x-dependent complex": {(2, 0, 0): 1.0, (0, 0, 2): {(0, 0): 1.0, (1, 0): 0.5},
                            (0, 0, 0): 0.2j},
    "odd-k": {(2, 0, 0): 1.0, (0, 0, 2): 1.0, (1, 0, 0): 0.2},
    # x^2 D_x D_z: a 9-point stencil, so the line blocks couple s neighbours
    "cross": {(2, 0, 0): 1.0, (0, 0, 2): 1.0, (1, 0, 1): 0.3},
    # (1 + x/2 + z/2) D_z^2: no body has the same blocks on every line or is
    # its own mirror
    "xz-dependent": {(2, 0, 0): 1.0, (0, 0, 2): {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5}},
}


def recording_splu(monkeypatch):
    """Route discrete.spla.splu through a recorder of the matrix dtypes."""
    seen, splu = [], discrete.spla.splu
    monkeypatch.setattr(discrete, "spla", SimpleNamespace(
        splu=lambda a: seen.append(a.dtype) or splu(a)))
    return seen


def relative_gap(a, b):
    return fro(a.projector.matrix - b.projector.matrix) / fro(b.projector.matrix)


def recording_routes(monkeypatch):
    """(solver, what it solves) of each strip body solve, in order: the
    solver is "z modes" or "sweep"; it solves the "body", or its "flip",
    whose g_lo solutions give the body's g_hi data on the two-span route."""
    seen = []
    for name, solver in (("_dst_body", "z modes"), ("_sweep_body", "sweep")):
        def record(blocks, kept, where, solve=getattr(discrete, name), solver=solver):
            seen.append((solver, "flip" if where.endswith("flipped") else "body"))
            return solve(blocks, kept, where)

        monkeypatch.setattr(discrete, name, record)
    return seen


def two_spans(dop):
    """_path_spaces_sweep with no body taken for its own mirror: every body
    also solves its flip, and C comes from the whole spans."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discrete, "_mirrored", lambda blocks: False)
        return _path_spaces_sweep(dop)


def reflection(n_int):
    """R (v0, Dv0, vL, DvL) = (vL, -DvL, v0, -Dv0): the data map of the
    reflection that swaps the two interfaces."""
    eye, zero = np.eye(n_int), np.zeros((n_int, n_int))
    return np.block([[zero, zero, eye, zero], [zero, zero, zero, -eye],
                     [eye, zero, zero, zero], [zero, -eye, zero, zero]])


CERTIFICATE_OPERATORS = {"laplacian": SEPARABLE["laplacian"],
                         "x-dependent": NOT_SEPARABLE["x-dependent"]}
# each operator's routes at n = 24, compared with the first: the s modes,
# the parity halves (`_path_spaces_sweep`), the two spans and the whole-body LU
CERTIFICATE_ROUTES = {"laplacian": (_path_spaces_modes, _path_spaces_sweep, two_spans, lu_oracle),
                      "x-dependent": (_path_spaces_sweep, two_spans, lu_oracle)}


def certificate_case(name, rank_tol, reason):
    prefix = "" if name == "laplacian" else f"{name}-"  # the Laplacian's cases keep short ids
    return pytest.param(name, rank_tol, reason, id=f"{prefix}{rank_tol}-{reason}")


def failing_at(call, name, message):
    """discrete.sla with `name` raising LinAlgError(message) at its call-th call."""
    calls, real = [], getattr(discrete.sla, name)

    def fail(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            raise np.linalg.LinAlgError(message)
        return real(*args, **kwargs)

    sla = SimpleNamespace(inv=discrete.sla.inv, solve_banded=discrete.sla.solve_banded)
    setattr(sla, name, fail)
    return sla


class TestStripRoutes:
    @pytest.mark.parametrize("n", (24, 48))
    @pytest.mark.parametrize("name", sorted(SEPARABLE))
    def test_mode_route_matches_lu_route(self, name, n):
        dop = doubled_strip(SEPARABLE[name], n)
        assert bool(np.any(dop.matrix.data.imag)) == (name == "complex")
        modes = _path_spaces_modes(dop)
        sweep = _path_spaces_sweep(dop)
        assert relative_gap(modes, sweep) <= 1e-11
        assert relative_gap(modes, lu_oracle(dop)) <= 1e-11
        assert modes.layout["n_int"] == sweep.layout["n_int"] == n - 1
        np.testing.assert_array_equal(modes.layout["s_interior"], sweep.layout["s_interior"])
        proj = modes.projector
        assert proj.range_basis.dim == proj.kernel_basis.dim == 2 * (n - 1)

    @pytest.mark.parametrize("name,ns,nz", [
        ("x-dependent", 24, 24), ("odd-k", 24, 24), ("cross", 24, 24),
        ("x-dependent", 40, 24), ("cross", 24, 40)])
    def test_sweep_matches_lu_oracle(self, name, ns, nz):
        dop = doubled_strip(NOT_SEPARABLE[name], ns, nz)
        sweep = _path_spaces_sweep(dop)
        assert relative_gap(sweep, lu_oracle(dop)) <= 1e-11
        proj = sweep.projector
        assert proj.range_basis.dim == proj.kernel_basis.dim == 2 * (ns - 1)

    @pytest.mark.parametrize("name,dtype", [("x-dependent", np.float64),
                                            ("cross", np.float64),
                                            ("odd-k", np.complex128)])
    def test_route_guard(self, name, dtype, monkeypatch):
        dop = doubled_strip(NOT_SEPARABLE[name], 24)
        seen = recording_splu(monkeypatch)
        bodies, body_blocks = [], discrete._body_blocks
        spans, from_span, blocked = [], SubspaceBasis.from_span.__func__, discrete._blocked_projector

        def recording_blocks(*args):
            blocks = body_blocks(*args)
            bodies.append(blocks.dtype)
            return blocks

        def recording_span(cls, vectors, **kwargs):
            spans.append(vectors.dtype)
            return from_span(cls, vectors, **kwargs)

        def recording_halves(halves):
            spans.extend(h.dtype for h in halves)
            return blocked(halves)

        monkeypatch.setattr(discrete, "_body_blocks", recording_blocks)
        monkeypatch.setattr(SubspaceBasis, "from_span", classmethod(recording_span))
        monkeypatch.setattr(discrete, "_blocked_projector", recording_halves)
        path = calderon_path_spaces(dop)
        c = path.projector.matrix
        assert seen == []  # the strip factors nothing
        assert bodies == [dtype, dtype]  # one solve per body
        # the spans, or their parity halves, stay in the body's dtype
        assert spans == [dtype, dtype]
        assert c.dtype == np.complex128  # the D_z phase is applied to the result
        assert path.projector.range_basis.basis.dtype == np.complex128
        assert path.projector.kernel_basis.basis.dtype == np.complex128
        assert relative_gap(path, lu_oracle(dop)) <= 1e-11
        sweep = _path_spaces_sweep(dop).projector.matrix
        np.testing.assert_array_equal(c, sweep)
        # the mode formula is wrong for these operators
        forced = _path_spaces_modes(dop).projector.matrix
        assert fro(forced - sweep) > 1e-6 * fro(sweep)

    @pytest.mark.parametrize("route,traces", [("modes", 4), ("sweep", 4), ("toy", 2)])
    def test_trace_stability_reported(self, route, traces, monkeypatch):
        if route == "toy":
            grid = PhiGrid("HalfLineToy", S=6.0, ns=48)
            dop = double_geometry(grid, discretize(halfline_toy(), grid))
        elif route == "modes":
            dop = doubled_strip(SEPARABLE["laplacian"], 48)
        else:
            dop = doubled_strip(NOT_SEPARABLE["x-dependent"], 48)
        reports, trace = [], discrete.one_sided_trace

        def recording_trace(*args):
            jet, stability = trace(*args)
            reports.append(stability)
            return jet, stability

        monkeypatch.setattr(discrete, "one_sided_trace", recording_trace)
        certs = calderon_path_spaces(dop).projector.certs
        assert len(reports) == traces  # one per interface of each body
        assert certs["trace_stability"] == max(reports)
        assert np.isfinite(certs["trace_stability"]) and certs["trace_stability"] > 0.0

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
        # the sweep runs down from line nz - 1 = 23 of the first body that
        # sweeps: the plus body of the xz-dependent operator (before its
        # flip), the minus body of the x-dependent one (parity halves)
        for name, side in (("xz-dependent", r"\+1"), ("x-dependent", "-1")):
            monkeypatch.setattr(discrete, "sla", failing_at(5, "inv", "singular matrix"))
            dop = doubled_strip(NOT_SEPARABLE[name], 24)
            with pytest.raises(SolveFailure,
                               match=rf"^strip sweep, side {side}, line 19: singular matrix$"):
                calderon_path_spaces(dop)

    def test_singular_line_block_in_flip_raises(self, monkeypatch):
        # the plus body of the xz-dependent operator takes 23 inverses, then
        # its flip sweeps down from its line 23: the 28th inverse is line 19
        monkeypatch.setattr(discrete, "sla", failing_at(28, "inv", "singular matrix"))
        dop = doubled_strip(NOT_SEPARABLE["xz-dependent"], 24)
        with pytest.raises(SolveFailure,
                           match=r"^strip sweep, side \+1, flipped, line 19: singular matrix$"):
            calderon_path_spaces(dop)

    def test_backward_error_above_bound_raises(self, monkeypatch):
        monkeypatch.setattr(discrete, "SWEEP_TOL", 1e-30)
        dop = doubled_strip(NOT_SEPARABLE["xz-dependent"], 24)
        with pytest.raises(SolveFailure, match=r"sweep, side \+1, line 1: backward error .* exceeds"):
            calderon_path_spaces(dop)

    # the s modes of an s-separable operator; the z modes of the plus body,
    # under the parity halves
    MODE_ROUTES = [("strip s modes", SEPARABLE["laplacian"]),
                   ("strip z modes", NOT_SEPARABLE["x-dependent"])]

    @pytest.mark.parametrize("route,coefficients", MODE_ROUTES)
    def test_singular_mode_raises(self, route, coefficients, monkeypatch):
        monkeypatch.setattr(discrete, "sla", failing_at(5, "solve_banded", "singular matrix"))
        with pytest.raises(SolveFailure, match=rf"^{route}, side \+1, mode 5: singular matrix$"):
            calderon_path_spaces(doubled_strip(coefficients, 24))

    @pytest.mark.parametrize("route,coefficients", MODE_ROUTES)
    def test_mode_backward_error_above_bound_raises(self, route, coefficients, monkeypatch):
        monkeypatch.setattr(discrete, "SWEEP_TOL", 1e-30)
        with pytest.raises(SolveFailure, match=rf"^{route}, side \+1, mode \d+: "
                                               rf"backward error .* exceeds 1e-30$"):
            calderon_path_spaces(doubled_strip(coefficients, 24))

    @pytest.mark.parametrize("route,coefficients", MODE_ROUTES)
    def test_mode_backward_error_reported(self, route, coefficients):
        certs = calderon_path_spaces(doubled_strip(coefficients, 48)).projector.certs
        assert 0.0 < certs["mode_backward_error"] <= discrete.SWEEP_TOL

    @pytest.mark.parametrize("n", (24, 48))
    @pytest.mark.parametrize("name,bump,routes", [
        ("x-dependent", DEFAULT_BUMP, (("z modes", "body"), ("sweep", "body"))),
        ("x-dependent complex", DEFAULT_BUMP, (("z modes", "body"), ("sweep", "body"))),
        # asymmetric about 3L/2: the minus body is not its own mirror
        ("x-dependent", Bump(1.0, (1.1, 1.7)),
         (("z modes", "body"), ("sweep", "body"), ("sweep", "flip"))),
        ("x-dependent complex", Bump(1.0, (1.1, 1.7)),
         (("z modes", "body"), ("sweep", "body"), ("sweep", "flip"))),
        ("x-dependent", None, (("z modes", "body"), ("z modes", "body"))),
        ("cross", DEFAULT_BUMP, (("sweep", "body"), ("sweep", "flip")) * 2),
        ("xz-dependent", DEFAULT_BUMP, (("sweep", "body"), ("sweep", "flip")) * 2),
    ])
    def test_body_routes_match_lu_oracle(self, name, bump, routes, n, monkeypatch):
        dop = doubled_strip(NOT_SEPARABLE[name], n, bump=bump)
        assert bool(np.any(dop.matrix.data.imag)) == (name == "x-dependent complex")
        seen = recording_routes(monkeypatch)
        path = calderon_path_spaces(dop)
        assert tuple(seen) == routes
        certs = path.projector.certs
        solvers = [solver for solver, _ in routes]
        names = {"mode_backward_error": "z modes" in solvers,
                 "line_backward_error": "sweep" in solvers}
        for cert, ran in names.items():
            assert (cert in certs) == ran
            assert not ran or 0.0 < certs[cert] <= discrete.SWEEP_TOL
        assert relative_gap(path, lu_oracle(dop)) <= 1e-11

    # every operator whose bodies are both their own mirror: no z-dependent
    # coefficient and no odd power of D_z, under a symmetric bump or none
    @pytest.mark.parametrize("ns,nz", [(24, 24), (48, 48), (24, 25)])
    @pytest.mark.parametrize("name,bump", [
        ("x-dependent", DEFAULT_BUMP), ("x-dependent complex", DEFAULT_BUMP),
        ("odd-k", DEFAULT_BUMP), ("x-dependent", None)])
    def test_parity_route_matches_two_spans(self, name, bump, ns, nz, monkeypatch):
        dop = doubled_strip(NOT_SEPARABLE[name], ns, nz, bump=bump)
        seen = recording_routes(monkeypatch)
        path = calderon_path_spaces(dop)
        spans = two_spans(dop)
        # two bodies alone, then every body and its flip
        assert [solve for _, solve in seen] == ["body"] * 2 + ["body", "flip"] * 2
        assert relative_gap(path, spans) <= 1e-12
        assert relative_gap(path, lu_oracle(dop)) <= 1e-11
        bases = (path.projector.range_basis, path.projector.kernel_basis)
        assert bases[0].dim == bases[1].dim == 2 * (ns - 1)
        for basis in bases:
            q = basis.orthonormal()
            assert fro(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-13 * q.shape[1]
        certs, ref = path.projector.certs, spans.projector.certs
        assert certs.keys() == ref.keys()
        assert certs["gap"] == pytest.approx(ref["gap"], rel=1e-10, abs=0.0)
        assert path.projector.idem_defect <= 1e-12

    @pytest.mark.parametrize("bump,route", [(DEFAULT_BUMP, "halves"),
                                            (Bump(1.0, (1.1, 1.7)), "spans")])
    def test_projector_commutes_with_the_reflection(self, bump, route, monkeypatch):
        # the negative control: an asymmetric bump breaks the symmetry
        n = 24
        seen = recording_routes(monkeypatch)
        c = calderon_path_spaces(
            doubled_strip(NOT_SEPARABLE["x-dependent"], n, bump=bump)).projector.matrix
        assert ("flip" in {solve for _, solve in seen}) == (route == "spans")
        r = reflection(n - 1)
        defect = fro(r @ c - c @ r) / fro(c)
        assert defect <= 1e-13 if route == "halves" else defect > 1e-6

    @pytest.mark.parametrize("name,side", [("x-dependent", -1), ("cross", +1)])
    def test_flip_gives_the_far_data(self, name, side):
        # R on the jets of the flipped body's g_lo solutions against the g_hi
        # columns of a whole-body LU, on a body that is not its own mirror;
        # A_j is diagonal for the x-dependent operator, tridiagonal for the
        # cross term
        dop = doubled_strip(NOT_SEPARABLE[name], 24, bump=Bump(1.0, (1.1, 1.7)))
        blocks = discrete._body_blocks(dop, side)
        assert not discrete._mirrored(blocks)
        assert bool(blocks[1:-1, 0, [0, 2]].any()) == (name == "cross")
        m, p, _ = discrete._strip_setup(dop)
        u, err = discrete._sweep_body(discrete._flip(blocks), np.r_[0:6, 19:25], "flip")
        (v0, dv0, vl, dvl), _ = discrete._jet_rows(u, dop.grid.hz, m, p, side)
        far = np.concatenate([vl, -dvl, v0, -dv0])
        ref = lu_body_data(dop, side)[0][:, 23:]
        assert fro(far - ref) <= 1e-12 * fro(ref)
        assert 0.0 < err <= discrete.SWEEP_TOL

    @pytest.mark.parametrize("name,rank_tol,reason", [certificate_case(*case) for case in [
        ("laplacian", 0.5, r"range dim 32 \+ kernel dim 32 != ambient dim 92"),
        # at n = 24 the sv ratios are 0.113 (B+), 0.115 (B-), 0.111 ([B+|B-])
        ("laplacian", 0.112, "numerically singular"),
        ("x-dependent", 0.5, r"range dim 32 \+ kernel dim 32 != ambient dim 92"),
        # and 0.118 (B+), 0.120 (B-), 0.116 ([B+|B-])
        ("x-dependent", 0.117, "numerically singular"),
    ]])
    def test_certificates_match_lu_route(self, name, rank_tol, reason, monkeypatch):
        monkeypatch.setattr(discrete, "PATH_RANK_TOL", rank_tol)
        dop = doubled_strip(CERTIFICATE_OPERATORS[name], 24)
        errs = []
        for route in CERTIFICATE_ROUTES[name]:
            with pytest.raises(NotComplementary, match=reason) as info:
                route(dop)
            errs.append(info.value)
        for err in errs[1:]:
            assert str(err) == str(errs[0])
            assert err.gap == pytest.approx(errs[0].gap, rel=1e-10, abs=0.0)

    def test_every_route_reports_the_gap(self):
        # the mode route's gap is the smallest over the modes, the parity
        # route's over the halves; the others take it from the SVD of the
        # whole pair
        for name, routes in CERTIFICATE_ROUTES.items():
            dop = doubled_strip(CERTIFICATE_OPERATORS[name], 24)
            gaps = [route(dop).projector.certs["gap"] for route in routes]
            assert 0.0 < gaps[0] < 1.0
            for gap in gaps[1:]:
                assert gap == pytest.approx(gaps[0], rel=1e-10, abs=0.0)
        grid = PhiGrid("HalfLineToy", S=6.0, ns=48)
        toy = calderon_path_spaces(double_geometry(grid, discretize(halfline_toy(), grid)))
        assert toy.projector.certs["gap"] == pytest.approx(
            direct_sum_check(toy.projector.range_basis, toy.projector.kernel_basis).gap,
            rel=1e-10, abs=0.0)


@pytest.fixture(scope="module")
def strip_path():
    op = strip_laplacian()
    grid = PhiGrid("StripHyperbolic", S=12.0, ns=96, L=1.0, nz=96)
    dop = double_geometry(grid, discretize(op, grid), bump=DEFAULT_BUMP)
    return calderon_path_spaces(dop)


class TestProbes:

    def test_normal_probe_small_error(self, strip_path):
        rep = normal_probe(strip_path, 1.0, (6.0, 11.0))
        assert rep.error <= 5e-2
        assert abs(rep.details["tau_snapped"] - 1.0) < 0.3

    def test_normal_probe_tau_zero_reported(self, strip_path):
        rep = normal_probe(strip_path, 0.0, (6.0, 11.0))
        assert np.isfinite(rep.error)

    def test_normal_probe_outside_cusp_larger(self, strip_path):
        deep = normal_probe(strip_path, 1.0, (6.0, 11.0))
        near = normal_probe(strip_path, 1.0, (1.2, 3.0))
        assert np.isfinite(near.error)
        # reported, not asserted: the deep-cusp window is the good regime
        assert deep.error <= near.error * 50

    def test_symbol_probe_strip(self, strip_path):
        rep = symbol_probe(strip_path, xi=8.0, point=6.0, width=2.0)
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
                normal_probe(path, 1.0, (49.0, 51.0))
            else:
                symbol_probe(path, xi=8.0, point=50.0, width=1.0)

    def test_symbol_probe_zero_data(self, strip_path):
        d = np.zeros(strip_path.layout["data_dim"], dtype=complex)
        assert np.linalg.norm(strip_path.projector.matrix @ d) == 0.0

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
        rep = normal_probe(path, 1.0, (6.0, 11.0))
        assert rep.error <= 2e-2

    @pytest.mark.parametrize("bump", [Bump(50.0, (1.15, 1.85)), Bump(1.0, (1.1, 1.3))])
    def test_normal_probe_uses_the_assembled_bump(self, bump, monkeypatch):
        # the probe used to take the extension as an argument; against the
        # default bump's normal family these paths read 0.41 and 0.032, and
        # against their own 0.0010 and 0.0025
        grid = PhiGrid("StripHyperbolic", S=12.0, ns=64, L=1.0, nz=32)
        dop = double_geometry(grid, discretize(strip_laplacian(), grid), bump=bump)
        assert dop.bump == bump
        exts, normal = [], discrete.normal_calderon
        monkeypatch.setattr(discrete, "normal_calderon",
                            lambda op, mu, ext: exts.append(ext) or normal(op, mu, ext))
        rep = normal_probe(calderon_path_spaces(dop), 1.0, (5.4, 10.9))
        assert exts == [FibreExtension(1.0, bump)]
        assert rep.error <= 1e-2

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
