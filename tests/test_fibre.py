import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cuspcal import fibre
from cuspcal.errors import NotComplementary, PointFibre, SolveFailure
from cuspcal.fibre import (
    CHEB_P,
    MU_CAP,
    Bump,
    Fibre,
    FibreExtension,
    FibreODE,
    ModelOperator,
    boundary_data_space,
    fundamental_matrix,
    minus_boundary_data_space,
    normal_calderon,
    normal_operator,
    propagate_jet,
    range_solution_residual,
    ucp_check,
    _collocated_jets,
    _panel_breaks,
    _panel_solutions,
)
from cuspcal.linalg import (
    SubspaceBasis,
    direct_sum_check,
    fro,
    subspace_distance,
)
from cuspcal.suites import _random_fibre_operator
from cuspcal._poly import PolyMat1, block_companion


def strip_laplacian(length=1.0):
    return ModelOperator(2, 1, 0, Fibre("interval", length),
                         {(2, 0, 0): 1.0, (0, 0, 2): 1.0},
                         geometry="StripHyperbolic")


def c08_system(seed):
    """A seeded fibre operator of the c08 family with system size N = 2."""
    op = _random_fibre_operator(np.random.default_rng(seed))
    assert op.system_size == 2
    return op


def closed_form_basis(tau, length=1.0):
    """gamma-data of cosh(tau z) and sinh(tau z)/tau on [0, L]."""
    c, s = np.cosh(tau * length), np.sinh(tau * length)
    return SubspaceBasis.from_span(np.array([
        [1.0, 0.0, c, tau * s / 1j],
        [0.0, 1.0 / 1j, s / tau, c / 1j],
    ]).T)


def exp_basis(tau, length=1.0):
    """gamma-data of e^{tau (z - L)} and e^{-tau z} on [0, L]; unlike the
    cosh/sinh form it stays well conditioned at large tau."""
    e = np.exp(-tau * length)
    return np.array([
        [e, -1j * tau * e, 1.0, -1j * tau],
        [1.0, 1j * tau, e, 1j * tau * e],
    ]).T


class TestNormalOperator:
    def test_strip_normal_family(self):
        op = strip_laplacian()
        ode = normal_operator(op, (1.0,))
        # tau^2 - d^2/dz^2: coefficient of D_z^2 is 1, zeroth is tau^2
        vals = ode.coeff_values(0.3)
        assert vals[0][0, 0] == pytest.approx(1.0)
        assert vals[2][0, 0] == pytest.approx(1.0)
        assert vals[1][0, 0] == pytest.approx(0.0)

    def test_tau_zero(self):
        ode = normal_operator(strip_laplacian(), (0.0,))
        assert ode.coeff_values(0.5)[0][0, 0] == pytest.approx(0.0)

    def test_order_x_terms_vanish(self):
        op = ModelOperator(
            2, 1, 0, Fibre("interval", 1.0),
            {(2, 0, 0): 1.0, (0, 0, 2): 1.0,
             (0, 0, 0): {(1, 1): 3.0}},   # a0 = 3 x z contributes nothing
            geometry="StripHyperbolic")
        ode = normal_operator(op, (1.0,))
        assert ode.coeff_values(0.7)[0][0, 0] == pytest.approx(1.0)

    def test_point_fibre_rejected(self):
        op = ModelOperator(2, 1, 0, Fibre("point"),
                           {(2, 0, 0): 1.0, (0, 0, 0): 1.0},
                           geometry="HalfLineToy")
        with pytest.raises(PointFibre):
            normal_operator(op, (1.0,))

    def test_frequency_cap(self):
        op = strip_laplacian()
        with pytest.raises(ValueError, match="cap"):
            normal_operator(op, (17.0,))
        assert normal_operator(op, (17.0,), mu_cap=None) is not None


class TestFibreLength:
    @pytest.mark.parametrize("length", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_finite_positive_length_required(self, length):
        with pytest.raises(ValueError, match="finite positive length"):
            Fibre("interval", length)


class TestNonFiniteMu:
    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
    def test_normal_operator(self, tau):
        with pytest.raises(ValueError, match=rf"mu=\({tau},\) is not finite"):
            normal_operator(strip_laplacian(), (tau,))
        with pytest.raises(ValueError, match="is not finite"):
            normal_operator(strip_laplacian(), (tau,), mu_cap=None)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
    def test_normal_calderon(self, tau):
        with pytest.raises(ValueError, match=rf"mu=\({tau},\) is not finite"):
            normal_calderon(strip_laplacian(), (tau,), FibreExtension.with_default_bump(1.0))

    def test_eta(self):
        op = ModelOperator(2, 1, 1, Fibre("interval", 1.0),
                           {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
        ext = FibreExtension.with_default_bump(1.0)
        assert normal_calderon(op, (1.0, 0.5), ext).range_basis.dim == 2
        with pytest.raises(ValueError, match=r"mu=\(1.0, nan\) is not finite"):
            normal_operator(op, (1.0, float("nan")))


class TestNormalFamily:
    """normal_operator and minus_ode bind mu to tables built once per
    operator (and extension)."""

    @pytest.mark.parametrize("seed", [None, 802, 803])  # Laplacian; N = 2 with m = 2, 3
    def test_warm_calls_equal_cold_calls(self, seed):
        make = strip_laplacian if seed is None else (lambda: c08_system(seed))
        ext = FibreExtension.with_default_bump(1.0)
        warm_op = make()
        for tau in (2.0, 0.5, 8.0, 15.9):
            normal_calderon(warm_op, (tau,), ext)
        for tau in (0.5, 8.0, 15.9):
            cold = normal_calderon(make(), (tau,), FibreExtension.with_default_bump(1.0))
            warm = normal_calderon(warm_op, (tau,), ext)
            assert np.array_equal(warm.matrix, cold.matrix)
            assert warm.certs == cold.certs

    def test_bump_off_after_bump_on(self):
        op = strip_laplacian()
        normal_calderon(op, (0.0,), FibreExtension.with_default_bump(1.0))
        with pytest.raises(NotComplementary) as err:
            normal_calderon(op, (0.0,), FibreExtension(1.0))
        assert err.value.mu == (0.0,)

    def test_bump_height_is_part_of_the_family(self):
        op = strip_laplacian()
        b1, b2 = (minus_boundary_data_space(FibreExtension.with_default_bump(1.0, h), op, (1.0,))
                  for h in (1.0, 2.0))
        assert subspace_distance(b1, b2) > 1e-3

    def test_leading_coefficient_checked_once(self, monkeypatch):
        calls = []
        check = fibre._check_leading
        monkeypatch.setattr(fibre, "_check_leading", lambda *a: (calls.append(1), check(*a)))
        op, ext = c08_system(802), FibreExtension.with_default_bump(1.0)
        for tau in np.linspace(0.25, 15.0, 20):
            normal_calderon(op, (tau,), ext)
        assert len(calls) == 1

    def test_singular_leading_coefficient_raises_every_call(self):
        op = ModelOperator(2, 1, 0, Fibre("interval", 1.0), {(2, 0, 0): 1.0, (0, 0, 0): 1.0})
        for _ in range(2):
            with pytest.raises(ValueError, match="leading ODE coefficient is singular"):
                normal_operator(op, (1.0,))
            with pytest.raises(ValueError, match="leading ODE coefficient is singular"):
                normal_calderon(op, (1.0,), FibreExtension.with_default_bump(1.0))

    def test_family_freed_with_operator(self):
        import gc
        import weakref

        op = strip_laplacian()
        ext = FibreExtension.with_default_bump(1.0)
        normal_calderon(op, (1.0,), ext)
        refs = [weakref.ref(normal_operator(op, (1.0,)).family),
                weakref.ref(ext.minus_ode(op, (1.0,)).family)]
        del op
        gc.collect()
        assert [r() for r in refs] == [None, None]

    @pytest.mark.parametrize("seed", [None, 802, 803])
    def test_companion_matches_coefficients(self, seed):
        # the tables and the lazily summed (and mirrored) coefficients agree
        op = strip_laplacian() if seed is None else c08_system(seed)
        ext = FibreExtension.with_default_bump(1.0)
        for ode in (normal_operator(op, (3.0,)), ext.minus_ode(op, (3.0,))):
            z = np.linspace(*ode.interval, 11)
            np.testing.assert_allclose(ode.companion(z), block_companion(ode.coeff_values(z)),
                                       rtol=1e-13, atol=1e-13)


class TestFundamentalMatrix:
    def test_cosh_sinh_jets(self):
        tau = 1.0
        ode = normal_operator(strip_laplacian(), (tau,))
        f = fundamental_matrix(ode)
        # D_z-canonical frame: column 0 is cosh, column 1 is (i/tau) sinh
        c, s = np.cosh(tau), np.sinh(tau)
        np.testing.assert_allclose(f.jet_hi,
                                   np.array([[c, 1j * s], [-1j * s, c]]),
                                   atol=1e-10)
        assert f.residual <= 1e-9

    def test_polynomial_solutions_at_tau_zero(self):
        ode = normal_operator(strip_laplacian(), (0.0,))
        f = fundamental_matrix(ode)
        # solutions 1 and i z: jets at z=1: values (1, i), D_z rows preserved
        np.testing.assert_allclose(f.jet_hi, np.array([[1.0, 1j], [0.0, 1.0]]),
                                   atol=1e-11)

    def test_first_order_exponential(self):
        # D_z v - c v = 0 -> v = e^{i c z}
        c = 0.8
        ode = FibreODE(1, 1, (0.0, 1.0),
                       [PolyMat1({0: -c}, 1), PolyMat1({0: 1.0}, 1)])
        f = fundamental_matrix(ode)
        assert abs(f.jet_hi[0, 0] - np.exp(1j * c)) <= 1e-11

    def test_large_tau_checkpointing(self):
        ode = normal_operator(strip_laplacian(), (16.0,))
        f = fundamental_matrix(ode)
        assert np.isfinite(f.jet_hi).all()
        assert abs(f.jet_hi[0, 0] - np.cosh(16.0)) <= 1e-7 * np.cosh(16.0)


class TestBoundaryDataSpaces:
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_plus_space_closed_form(self, tau):
        ode = normal_operator(strip_laplacian(), (tau,))
        bp = boundary_data_space(ode)
        assert bp.dim == 2
        assert subspace_distance(bp, closed_form_basis(tau)) <= 1e-8

    def test_minus_space_closed_form_no_bump(self):
        # on [L, 2L] with a=0 the solutions are cosh/sinh(tau(z-2L)) read
        # at (2L, L): closed-form data in the (jet@0, jet@L) ordering
        tau, L = 1.0, 1.0
        op = strip_laplacian(L)
        ext = FibreExtension(L)
        bm = minus_boundary_data_space(ext, op, (tau,))
        c, s = np.cosh(tau * L), np.sinh(tau * L)
        closed = SubspaceBasis.from_span(np.array([
            [1.0, 0.0, c, -tau * s / 1j],
            [0.0, 1.0 / 1j, -s / tau, c / 1j],
        ]).T)
        assert subspace_distance(bm, closed) <= 1e-8

    def test_shared_constant_breaks_direct_sum(self):
        op = strip_laplacian()
        ext = FibreExtension(1.0)
        bp = boundary_data_space(normal_operator(op, (0.0,)))
        bm = minus_boundary_data_space(ext, op, (0.0,))
        rep = direct_sum_check(bp, bm)
        assert not rep.is_direct_sum
        gamma_const = np.array([1.0, 0.0, 1.0, 0.0])
        for basis in (bp, bm):
            q = basis.orthonormal()
            resid = gamma_const - q @ (q.conj().T @ gamma_const)
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(gamma_const)

    def test_bump_restores_direct_sum(self):
        op = strip_laplacian()
        ext = FibreExtension.with_default_bump(1.0)
        bp = boundary_data_space(normal_operator(op, (0.0,)))
        bm = minus_boundary_data_space(ext, op, (0.0,))
        rep = direct_sum_check(bp, bm)
        assert rep.is_direct_sum
        assert rep.gap > 0.05


class TestUcp:
    def test_strip_ucp(self):
        ode = normal_operator(strip_laplacian(), (1.0,))
        rep = ucp_check(ode)
        assert rep.dim_shadow == 0
        # sigma_min of the z = 0 rows of an orthonormal basis of the
        # cosh/sinh boundary data
        q = closed_form_basis(1.0).orthonormal()
        expect = np.linalg.svd(q[:2], compute_uv=False)[-1]
        assert abs(rep.min_sv - expect) <= 1e-9

    def test_adjoint_ucp(self):
        ode = normal_operator(strip_laplacian(), (1.0,)).formal_adjoint()
        assert ucp_check(ode).dim_shadow == 0

    def test_adjoint_of_variable_coefficients(self):
        # adjoint of A2(z) D^2 has Leibniz corrections; D_z stays formally
        # self-adjoint, so adjoint twice returns the original coefficients
        a2 = PolyMat1({0: 2.0, 1: 0.5, 2: -0.25}, 1)
        a0 = PolyMat1({0: 1.0 + 0.3j}, 1)
        ode = FibreODE(2, 1, (0.0, 1.0), [a0, PolyMat1.zero(1), a2])
        twice = ode.formal_adjoint().formal_adjoint()
        for c1, c2 in zip(ode.coeffs, twice.coeffs):
            n = max(c1.coeffs.shape[0], c2.coeffs.shape[0])
            p1 = np.zeros(n, dtype=complex)
            p2 = np.zeros(n, dtype=complex)
            p1[: c1.coeffs.shape[0]] = c1.coeffs[:, 0, 0]
            p2[: c2.coeffs.shape[0]] = c2.coeffs[:, 0, 0]
            np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_adjoint_pairing_identity(self):
        # <T u, v> = <u, T* v> for compactly supported smooth u, v
        ode = normal_operator(strip_laplacian(), (0.7,))
        adj = ode.formal_adjoint()
        z = np.linspace(0.0, 1.0, 4001)
        bump = Bump(1.0, (0.15, 0.85))
        u = bump(z)
        v = bump(z + 0.05)
        h = z[1] - z[0]

        def apply(o, f):
            # direct application via finite differences (constant coeffs)
            d1 = np.gradient(f, h, edge_order=2)
            d2 = np.gradient(d1, h, edge_order=2)
            a = [o.coeff_values(0.5)[b][0, 0] for b in range(3)]
            return a[0] * f + a[1] * (d1 / 1j) + a[2] * (-d2)

        lhs = np.trapezoid(apply(ode, u) * np.conj(v), z)
        rhs = np.trapezoid(u * np.conj(apply(adj, v)), z)
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))

    def test_seeded_model_class(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            op = _random_fibre_operator(rng)
            ode = normal_operator(op, (0.5,))
            assert ucp_check(ode).dim_shadow == 0
            assert ucp_check(ode.formal_adjoint()).dim_shadow == 0


class TestNormalCalderon:
    def test_projector_reproduces_cosh_data(self):
        tau = 1.0
        op = strip_laplacian()
        ext = FibreExtension.with_default_bump(1.0)
        proj = normal_calderon(op, (tau,), ext)
        assert proj.range_basis.dim == 2
        assert proj.idem_defect <= 1e-8
        gcosh = np.array([1.0, 0.0, np.cosh(tau), np.sinh(tau) / 1j])
        np.testing.assert_allclose(proj.matrix @ gcosh, gcosh, atol=1e-9)

    def test_mirror_complement(self):
        op = strip_laplacian()
        ext = FibreExtension.with_default_bump(1.0)
        tau = 0.8
        proj = normal_calderon(op, (tau,), ext)
        from cuspcal.linalg import projector_from_pair

        bp = boundary_data_space(normal_operator(op, (tau,)))
        bm = minus_boundary_data_space(ext, op, (tau,))
        mirror = projector_from_pair(bm, bp)
        assert fro(proj.matrix + mirror.matrix - np.eye(4)) <= 1e-8

    def test_not_complementary_reports_mu(self):
        op = strip_laplacian()
        with pytest.raises(NotComplementary) as err:
            normal_calderon(op, (0.0,), FibreExtension(1.0))
        assert err.value.mu == (0.0,)
        # the gap of the one SVD in projector_from_pair
        bp = boundary_data_space(normal_operator(op, (0.0,)))
        bm = minus_boundary_data_space(FibreExtension(1.0), op, (0.0,))
        assert err.value.gap == direct_sum_check(bp, bm).gap

    def test_range_residual(self):
        op = strip_laplacian()
        ext = FibreExtension.with_default_bump(1.0)
        proj = normal_calderon(op, (1.0,), ext)
        ode = normal_operator(op, (1.0,))
        assert range_solution_residual(ode, proj) <= 1e-7

    @pytest.mark.parametrize("tau", [12.0, 13.0, 14.0, 15.0, 15.9, MU_CAP])
    def test_certified_up_to_mu_cap(self, tau):
        # the solutions grow like e^{tau z}; the collocated basis is
        # orthonormal over the whole fibre, so the growth does no harm
        proj = normal_calderon(strip_laplacian(), (tau,),
                               FibreExtension.with_default_bump(1.0))
        c = proj.matrix
        q, _ = np.linalg.qr(exp_basis(tau))
        assert fro(c @ q - q) <= 1e-8
        assert proj.idem_defect <= 1e-8
        assert abs(np.trace(c) - 2.0) <= 1e-8
        assert proj.certs["tail"] <= 1e-10

    def test_coarse_layout_trips_tail_certificate(self):
        # one 9-point panel cannot resolve the bump on the minus side
        ext = FibreExtension.with_default_bump(1.0)
        ode = ext.minus_ode(strip_laplacian(), (0.3,))
        with pytest.raises(SolveFailure, match="tail .* on panel 0"):
            _collocated_jets(ode, "minus", p=8, breaks=ode.interval)

    def test_first_order_toy(self):
        # m=1 scalar: D_z - i on the fibre, minus side mirrored
        op = ModelOperator(1, 1, 0, Fibre("interval", 1.0),
                           {(1, 0, 0): 1.0, (0, 0, 1): 1.0,
                            (0, 0, 0): 0.5j},
                           geometry="StripHyperbolic")
        ext = FibreExtension.with_default_bump(1.0)
        proj = normal_calderon(op, (1.3,), ext)
        assert proj.matrix.shape == (2, 2)
        assert proj.range_basis.dim == 1

    def test_mu_continuity(self):
        op = strip_laplacian()
        ext = FibreExtension.with_default_bump(1.0)
        taus = np.linspace(0.5, 2.0, 7)
        mats = [normal_calderon(op, (t,), ext).matrix for t in taus]
        coarse = max(fro(a - b) / (taus[1] - taus[0])
                     for a, b in zip(mats[:-1], mats[1:]))
        taus_f = np.linspace(0.5, 2.0, 13)
        mats_f = [normal_calderon(op, (t,), ext).matrix for t in taus_f]
        fine = max(fro(a - b) / (taus_f[1] - taus_f[0])
                   for a, b in zip(mats_f[:-1], mats_f[1:]))
        # Lipschitz ratio stabilizes under grid refinement
        assert fine <= 1.5 * coarse


class TestFullEllipticityScan:
    def test_strip_fails_exactly_at_tau_zero(self):
        # the doubled strip Laplacian without a bump: N(P)(0) has the
        # constants as a kernel, so B+ and B- meet; the bump lifts it
        op = strip_laplacian()
        bare, bumped = FibreExtension(1.0), FibreExtension.with_default_bump(1.0)
        with pytest.raises(NotComplementary) as info:
            normal_calderon(op, (0.0,), bare)
        assert info.value.gap <= 1e-8
        assert normal_calderon(op, (0.0,), bumped).certs["gap"] > 1e-3
        for tau in (-1.0, -0.5, 0.5, 1.0):
            for ext in (bare, bumped):
                assert normal_calderon(op, (tau,), ext).certs["gap"] > 1e-3


class TestExtensionValidation:
    def test_bump_support_must_be_minus_side(self):
        with pytest.raises(ValueError):
            FibreExtension(1.0, Bump(1.0, (0.5, 1.5)))

    def test_bump_support_given_as_list(self):
        ext = FibreExtension(1.0, Bump(1.0, [1.15, 1.85]))
        assert ext == FibreExtension.with_default_bump(1.0)
        assert normal_calderon(strip_laplacian(), (1.0,), ext).range_basis.dim == 2

    def test_extension_length_must_match_fibre(self):
        with pytest.raises(ValueError, match="extension length 2.0 differs"):
            FibreExtension.with_default_bump(2.0).minus_ode(strip_laplacian(), (1.0,))

    def test_bump_nonnegative(self):
        with pytest.raises(ValueError):
            Bump(-1.0, (0.0, 1.0))

    @pytest.mark.parametrize("height,support,field", [
        (float("nan"), (1.15, 1.85), "height"), (float("inf"), (1.15, 1.85), "height"),
        (1.0, (1.15, float("nan")), "support"), (1.0, (-float("inf"), 1.85), "support"),
    ])
    def test_bump_finite(self, height, support, field):
        # a nan or inf height used to reach the collocation and fail there
        # as "Chebyshev tail nan"
        with pytest.raises(ValueError, match=f"bump {field} must be finite"):
            Bump(height, support)


class TestGeometry:
    """Each geometry fixes its fibre kind, and the toy its point base."""

    @pytest.mark.parametrize("geometry,base_dim,fibre,coefficients", [
        # the toy's assembly read only (k, 0, 0) and dropped these terms
        ("HalfLineToy", 1, Fibre("point"), {(2, 0, 0): 1.0, (0, 2, 0): 5.0}),
        ("HalfLineToy", 0, Fibre("interval", 1.0), {(2, 0, 0): 1.0, (0, 0, 2): 1.0}),
        # ExteriorToy and CuspDomain name no geometry
        ("ExteriorToy", 1, Fibre("interval", 1.0), {(2, 0, 0): 1.0, (0, 2, 0): 1.0}),
        ("StripHyperbolic", 0, Fibre("point"), {(2, 0, 0): 1.0}),
        ("CuspDomain", 0, Fibre("interval", 1.0), {(2, 0, 0): 1.0, (0, 0, 2): 1.0}),
    ])
    def test_geometry_rejects_other_fibres(self, geometry, base_dim, fibre, coefficients):
        with pytest.raises(ValueError, match=rf"{geometry} needs|unknown geometry"):
            ModelOperator(2, 1, base_dim, fibre, coefficients, geometry=geometry)


def test_propagate_jet_matches_fundamental():
    ode = normal_operator(strip_laplacian(), (1.2,))
    f = fundamental_matrix(ode)
    jet = propagate_jet(ode, np.array([1.0, 0.5j]))
    np.testing.assert_allclose(jet, f.jet_hi @ np.array([1.0, 0.5j]), atol=1e-9)


def shooting_space(ode, side):
    """B+ (plus) or B- (minus: data ordered (jet at 2L, jet at L)) from one
    DOP853 shot of the fundamental matrix from the left end. One
    propagate_jet shot per unit jet, at its default tolerances, is itself
    off by 3.3e-9 on the minus side of the strip Laplacian at tau = 8 (a
    refined collocation moves by 4e-15); this shot agrees with the
    collocated spaces to 8e-13 on every case below."""
    d = ode.dim
    sol = solve_ivp(lambda z, v: 1j * (ode.companion(z) @ v.reshape(d, d)).ravel(),
                    ode.interval, np.eye(d, dtype=complex).ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-16)
    assert sol.success
    eye, shots = np.eye(d), sol.y[:, -1].reshape(d, d)
    return SubspaceBasis.from_span(np.vstack([eye, shots] if side == "plus" else [shots, eye]))


def assert_matches_shooting(op, mu, ext):
    ode = normal_operator(op, mu)
    assert subspace_distance(boundary_data_space(ode), shooting_space(ode, "plus")) <= 1e-9
    bm = minus_boundary_data_space(ext, op, mu)
    assert subspace_distance(bm, shooting_space(ext.minus_ode(op, mu), "minus")) <= 1e-9


def test_collocation_matches_shooting():
    # B+ and B- (default bump) from the collocated bases against shooting
    ext = FibreExtension.with_default_bump(1.0)
    for seed in range(10):
        rng = np.random.default_rng(800 + seed)
        op = _random_fibre_operator(rng)
        assert_matches_shooting(op, (float(rng.uniform(-2.0, 2.0)),), ext)


@pytest.mark.parametrize("tau", [1.0, 4.0, 8.0])
@pytest.mark.parametrize("seed", [None, 802, 803])  # Laplacian; N = 2 with m = 2, 3
def test_collocation_matches_shooting_at_larger_tau(seed, tau):
    op = strip_laplacian() if seed is None else c08_system(seed)
    assert_matches_shooting(op, (tau,), FibreExtension.with_default_bump(1.0))


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_panel_bases_orthonormal(side):
    ext = FibreExtension.with_default_bump(1.0)
    for op in (strip_laplacian(), c08_system(802), c08_system(803)):
        for tau in (0.5, 8.0, 15.9):
            ode = normal_operator(op, (tau,)) if side == "plus" else ext.minus_ode(op, (tau,))
            null, _ = _panel_solutions(ode, side, CHEB_P, _panel_breaks(ode))
            v = null.reshape(null.shape[0], -1, ode.dim)
            gram = v.conj().swapaxes(1, 2) @ v
            assert np.abs(gram - np.eye(ode.dim)).max() <= 1e-13


@pytest.mark.parametrize("tau", [0.5, 8.0, 15.9])
@pytest.mark.parametrize("seed", [None, 802])  # Laplacian; N = 2
def test_panel_residual_reported(seed, tau):
    op = strip_laplacian() if seed is None else c08_system(seed)
    certs = normal_calderon(op, (tau,), FibreExtension.with_default_bump(1.0)).certs
    assert np.isfinite(certs["panel_residual"])
    assert 0.0 <= certs["panel_residual"] <= 1e-13


def test_singular_panel_block_raises(monkeypatch):
    ode = FibreExtension.with_default_bump(1.0).minus_ode(strip_laplacian(), (2.0,))
    solve = np.linalg.solve

    def singular_panel_block(a, b):  # the companion's own solves still run
        if a.shape[-1] == CHEB_P * ode.dim:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_panel_block)
    with pytest.raises(SolveFailure, match=r"minus side at mu=\(2\.0, 0\.0\): collocation "
                       r"block of panel \d+ \[[\d.]+, [\d.]+\] is singular \(Singular matrix\)"):
        _collocated_jets(ode, "minus")


def test_nan_tail_is_not_certified(monkeypatch):
    # a NaN Chebyshev coefficient makes a NaN tail, which must not pass TAIL_TOL
    monkeypatch.setattr(fibre, "dct", lambda a, **kw: np.full(a.shape, np.nan))
    with pytest.raises(SolveFailure, match="Chebyshev tail nan exceeds"):
        normal_calderon(strip_laplacian(), (2.0,), FibreExtension.with_default_bump(1.0))


def test_cusp_domain_variable_coefficients():
    # interval-fibre operator with x-dependent coefficients: the normal
    # family sees only the x = 0 jets, and the doubled extension still
    # yields a rank-2 projector
    op = ModelOperator(
        2, 1, 0, Fibre("interval", 1.0),
        {(2, 0, 0): {(0, 0): 1.0, (1, 0): 0.5},
         (0, 0, 2): {(0, 0): 1.0, (1, 1): -0.3},
         (0, 0, 1): {(1, 0): 2.0},            # vanishes in the normal family
         (0, 0, 0): {(0, 1): 0.25}},
        geometry="StripHyperbolic")
    ode = normal_operator(op, (0.9,))
    assert np.max(np.abs(ode.coeff_values(0.4)[1])) <= 1e-14
    ext = FibreExtension.with_default_bump(1.0)
    proj = normal_calderon(op, (0.9,), ext)
    assert proj.range_basis.dim == 2
    assert proj.idem_defect <= 1e-8
