import numpy as np
import pytest

from cuspcal.errors import SideConditionViolated, UCPViolated
from cuspcal.extension_lab import (
    AbstractBVP,
    augment,
    boundary_space,
    complement_in_minus,
    modify_shadow,
    perturb_imag,
    perturb_real,
)
from cuspcal.linalg import (
    SubspaceBasis,
    direct_sum_check,
    fro,
    nullspace,
    subspace_distance,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def simple_bvp(t, gamma, plus=None):
    t = np.asarray(t, dtype=complex)
    n = t.shape[0]
    if plus is None:
        plus = np.arange(n) < n // 2
    return AbstractBVP(t, np.atleast_2d(np.asarray(gamma, dtype=complex)),
                       np.eye(n), plus)


class TestBoundarySpace:
    def test_zero_operator_gives_full_space(self):
        b = simple_bvp(np.zeros((3, 3)), np.eye(3)[:1])
        assert boundary_space(b).dim == 1

    def test_invertible_gives_zero_space(self):
        b = simple_bvp(np.diag([1.0, 2.0, 3.0]), np.eye(3)[:1])
        assert boundary_space(b).dim == 0

    def test_partial_kernel(self):
        b = simple_bvp(np.diag([0.0, 1.0, 1.0]), np.array([[1.0, 0.0, 0.0]]))
        bs = boundary_space(b)
        assert bs.dim == 1
        assert abs(abs(bs.basis[0, 0]) - 1.0) <= 1e-12


class TestAugment:
    def test_zero(self):
        np.testing.assert_allclose(augment(np.zeros((2, 2))), np.zeros((4, 4)))

    def test_scalar_eigenvalues(self):
        t = augment(np.array([[1.0]]))
        np.testing.assert_allclose(t, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(t)), [-1.0, 1.0])

    def test_rectangular_intertwining(self):
        rng = np.random.default_rng(2)
        t = random_complex(rng, 3, 2)
        tbar = augment(t)
        nd, nc = 2, 3
        iota = np.zeros((nd + nc, nd)); iota[:nd] = np.eye(nd)
        iota_p = np.zeros((nd + nc, nc)); iota_p[nd:] = np.eye(nc)
        pi = iota.T
        pi_p = iota_p.T
        np.testing.assert_allclose(pi_p @ tbar, t @ pi, atol=1e-14)
        np.testing.assert_allclose(tbar @ iota, iota_p @ t, atol=1e-14)

    def test_hermitian_for_doubled_gram(self):
        rng = np.random.default_rng(3)
        t = random_complex(rng, 3, 3)
        a = random_complex(rng, 3, 3)
        g = a.conj().T @ a + np.eye(3)
        tbar = augment(t, g, g)
        gbar = np.block([[g, np.zeros((3, 3))], [np.zeros((3, 3)), g]])
        m = gbar @ tbar
        assert fro(m - m.conj().T) <= 1e-10 * fro(m)


class TestModifyShadow:
    def test_no_shadow_is_identity(self):
        t = np.diag([1.0, 2.0])
        b = simple_bvp(t, np.array([[1.0, 0.0]]))
        res = modify_shadow(b)
        np.testing.assert_allclose(res.T_mod, t)
        assert fro(res.Pi_sh) == 0.0

    def test_2x2_hand_example(self):
        # T = diag(0, 1), gamma = (0, 1): shadow = span{e1}
        b = simple_bvp(np.diag([0.0, 1.0]), np.array([[0.0, 1.0]]))
        res = modify_shadow(b)
        np.testing.assert_allclose(res.T_mod, np.eye(2), atol=1e-14)
        assert boundary_space(b).dim == 0
        assert boundary_space(b, T=res.T_mod).dim == 0

    def test_seeded_hermitian_with_2dim_shadow(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n, d = 6, 2
            q, _ = np.linalg.qr(random_complex(rng, n, n))
            shadows = q[:, :2]
            data_kernel = q[:, 2:3]
            eigs = rng.uniform(0.5, 2.0, n - 3)
            t = q[:, 3:] @ np.diag(eigs) @ q[:, 3:].conj().T
            gamma = random_complex(rng, d, n)
            gamma = gamma @ (np.eye(n) - shadows @ shadows.conj().T)
            b = AbstractBVP(t, gamma, np.eye(n), np.arange(n) < 3)
            res = modify_shadow(b)
            assert res.shadow.dim == 2
            d1 = boundary_space(b)
            d2 = boundary_space(b, T=res.T_mod)
            assert d1.dim == d2.dim == 1
            assert subspace_distance(d1, d2) <= 1e-10
            assert nullspace(np.vstack([res.T_mod, gamma])).shape[1] == 0

    def test_side_condition_violation_detected(self):
        # non-self-adjoint T whose range meets the shadow space
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = simple_bvp(t, np.array([[0.0, 1.0]]))
        # ker T = span{e1} = rg T and gamma e1 = 0: proposition hypotheses fail
        with pytest.raises(SideConditionViolated):
            modify_shadow(b)


class TestPerturbations:
    def test_direct_sum_case(self):
        t = np.diag([1.0, 0.0])
        pi = np.diag([0.0, 1.0])
        assert perturb_real(t, pi, 1.0).min_sv > 0.5
        assert perturb_imag(t, pi, 1.0).min_sv > 0.5

    def test_identity_remark(self):
        # T = Pi = I: sum of ranges is everything but not direct
        n = 3
        rep = perturb_imag(np.eye(n), np.eye(n), 1.0)
        assert rep.min_sv > 1.0  # |1 + i| = sqrt(2)

    def test_only_if_direction(self):
        t = np.diag([1.0, 0.0, 0.0])
        pi = np.diag([0.0, 1.0, 0.0])
        rep = perturb_imag(t, pi, 1.0)
        assert rep.min_sv <= 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            perturb_real(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), 1.0)
        with pytest.raises(ValueError):
            perturb_real(np.eye(2), 0.5 * np.eye(2), 1.0)
        with pytest.raises(ValueError):
            perturb_real(np.eye(2), np.eye(2), -1.0)


class TestComplementInMinus:
    def test_fully_minus_supported(self):
        b = simple_bvp(np.zeros((2, 2)), np.array([[1.0, 0.0]]),
                       plus=np.array([True, False]))
        k = SubspaceBasis(2, np.array([[0.0], [1.0]]))
        chi = np.array([0.0, 1.0])
        w = complement_in_minus(k, b, chi)
        assert subspace_distance(w, k) <= 1e-12

    def test_straddling_vector(self):
        b = simple_bvp(np.zeros((2, 2)), np.array([[1.0, 0.0]]),
                       plus=np.array([True, False]))
        k = SubspaceBasis(2, np.array([[1.0], [1.0]]))
        chi = np.array([0.0, 1.0])
        w = complement_in_minus(k, b, chi)
        np.testing.assert_allclose(np.abs(w.basis[:, 0]), [0.0, 1.0], atol=1e-14)
        kperp = SubspaceBasis.from_span(nullspace(k.basis.conj().T))
        assert direct_sum_check(w, kperp).is_direct_sum

    def test_plus_supported_raises(self):
        b = simple_bvp(np.zeros((2, 2)), np.array([[1.0, 0.0]]),
                       plus=np.array([True, False]))
        k = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        with pytest.raises(UCPViolated):
            complement_in_minus(k, b, np.array([0.0, 1.0]))

    def test_cutoff_must_vanish_on_plus(self):
        b = simple_bvp(np.zeros((2, 2)), np.array([[1.0, 0.0]]),
                       plus=np.array([True, False]))
        k = SubspaceBasis(2, np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            complement_in_minus(k, b, np.array([1.0, 1.0]))
