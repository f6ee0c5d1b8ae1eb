import numpy as np
import pytest

from cuspcal.errors import (
    ContourTooClose,
    GramNotPD,
    NotComplementary,
    RankDeficient,
)
from cuspcal.linalg import (
    ContourSpec,
    SubspaceBasis,
    direct_sum_check,
    fro,
    gram_adjoint,
    idempotence_defect,
    orth_projector,
    projector_from_pair,
    riesz_projector,
    subspace_distance,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSubspaceBasis:
    def test_rank_certificate(self):
        with pytest.raises(RankDeficient):
            SubspaceBasis(3, np.array([[1.0, 1.0], [0.0, 1e-12], [0.0, 0.0]]))

    def test_from_span_trims(self):
        v = np.array([[1.0, 2.0], [0.0, 0.0]])
        b = SubspaceBasis.from_span(v)
        assert b.dim == 1

    def test_zero_dim(self):
        b = SubspaceBasis(4, np.zeros((4, 0)))
        assert b.dim == 0

    def test_from_span_is_orthonormal_without_recertification(self, monkeypatch):
        rng = np.random.default_rng(3)
        v = random_complex(rng, 8, 3) @ random_complex(rng, 3, 5)  # rank 3
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        b = SubspaceBasis.from_span(v)
        assert (b.dim, len(calls)) == (3, 1)  # the rank SVD only
        q = b.orthonormal()
        assert q is b.basis  # no QR
        np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-14)


class TestRieszProjector:
    def test_diagonal_split(self):
        a = np.diag([1j, -1j])
        c = riesz_projector(a, ContourSpec.circle(1j, 0.5))
        np.testing.assert_allclose(c.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_companion_upper_rectangle(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        c = riesz_projector(a, ContourSpec.rectangle(-2, 2, 0.25, 2))
        expect = 0.5 * np.array([[1.0, -1j], [1j, 1.0]])
        np.testing.assert_allclose(c.matrix, expect, atol=1e-11)

    def test_full_spectrum_gives_identity(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 5, 5)
        r = 1.0 + np.linalg.norm(a, 2)
        c = riesz_projector(a, ContourSpec.circle(0.0, r))
        np.testing.assert_allclose(c.matrix, np.eye(5), atol=1e-10)

    def test_contour_through_eigenvalue(self):
        a = np.diag([1.0 + 1e-9j, -1.0 + 0j])
        with pytest.raises(ContourTooClose):
            riesz_projector(a, ContourSpec.circle(0.0, 1.0), node_cap=256)

    def test_upper_plus_lower_and_commutation(self):
        # random 6x6 with |Im lambda| >= 0.3 by construction (moderately
        # conditioned similarity keeps the quadrature roundoff floor low)
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            lam = (rng.uniform(-2, 2, 6)
                   + 1j * rng.choice([-1, 1], 6) * rng.uniform(0.3, 2.0, 6))
            s = np.eye(6) + 0.25 * random_complex(rng, 6, 6)
            a = s @ np.diag(lam) @ np.linalg.inv(s)
            r = 1.0 + np.linalg.norm(a, 2)
            upper = riesz_projector(a, ContourSpec.rectangle(-r, r, 0.15, r),
                                    idem_tol=1e-11)
            lower = riesz_projector(a, ContourSpec.rectangle(-r, r, -r, -0.15),
                                    idem_tol=1e-11)
            assert fro(upper.matrix + lower.matrix - np.eye(6)) <= 1e-10
            comm = fro(upper.matrix @ a - a @ upper.matrix)
            assert comm <= 1e-9 * fro(a)


class TestProjectorFromPair:
    def test_coordinate_split(self):
        r = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        k = SubspaceBasis(2, np.array([[0.0], [1.0]]))
        c = projector_from_pair(r, k)
        np.testing.assert_allclose(c.matrix, np.diag([1.0, 0.0]))

    def test_oblique_pair_closed_form(self):
        for s in (0.5, 1.0, 3.0):
            r = SubspaceBasis(2, np.array([[1.0], [1j * s]]))
            k = SubspaceBasis(2, np.array([[1.0], [-1j * s]]))
            c = projector_from_pair(r, k)
            expect = 0.5 * np.array([[1.0, -1j / s], [1j * s, 1.0]])
            np.testing.assert_allclose(c.matrix, expect, atol=1e-13)

    def test_degenerate_raises(self):
        e1 = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        with pytest.raises(NotComplementary):
            projector_from_pair(e1, e1)

    def test_gap_certificate_is_the_direct_sum_gap(self):
        rng = np.random.default_rng(6)
        r = SubspaceBasis.from_span(random_complex(rng, 5, 2))
        k = SubspaceBasis.from_span(random_complex(rng, 5, 3))
        assert projector_from_pair(r, k).certs["gap"] == direct_sum_check(r, k).gap
        e1 = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        with pytest.raises(NotComplementary) as err:
            projector_from_pair(e1, e1)
        assert err.value.gap == 0.0
        empty, whole = SubspaceBasis(2, np.zeros((2, 0))), SubspaceBasis(2, np.eye(2))
        assert projector_from_pair(empty, whole).certs == {"gap": 1.0}
        assert projector_from_pair(whole, empty).certs == {"gap": 1.0}

    def test_rank_and_identity_on_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            r = SubspaceBasis.from_span(random_complex(rng, n, k))
            kk = SubspaceBasis.from_span(random_complex(rng, n, n - k))
            if not direct_sum_check(r, kk).is_direct_sum:
                continue
            c = projector_from_pair(r, kk)
            sv = np.linalg.svd(c.matrix, compute_uv=False)
            assert int(np.sum(sv > 0.5)) == k
            assert fro(c.matrix @ r.basis - r.basis) <= 1e-10 * max(1, fro(r.basis))


class TestDirectSum:
    def test_coordinate_axes(self):
        u = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        v = SubspaceBasis(2, np.array([[0.0], [1.0]]))
        rep = direct_sum_check(u, v)
        assert rep.is_direct_sum
        assert abs(rep.gap - 1.0) <= 1e-14

    def test_equal_lines_fail(self):
        u = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        rep = direct_sum_check(u, u)
        assert not rep.is_direct_sum

    def test_oblique_lines(self):
        u = SubspaceBasis(2, np.array([[1.0], [1j]]))
        v = SubspaceBasis(2, np.array([[1.0], [-1j]]))
        rep = direct_sum_check(u, v)
        assert rep.is_direct_sum and rep.gap > 0


class TestOrthProjector:
    def test_axis(self):
        u = SubspaceBasis(3, np.eye(3)[:, :1])
        c = orth_projector(u, np.eye(3))
        np.testing.assert_allclose(c.matrix, np.diag([1.0, 0, 0]))

    def test_symmetric_rank_one(self):
        u = SubspaceBasis(2, np.array([[1.0], [1.0]]))
        c = orth_projector(u, np.eye(2))
        np.testing.assert_allclose(c.matrix, 0.5 * np.ones((2, 2)))

    def test_weighted_gram(self):
        u = SubspaceBasis(2, np.array([[1.0], [1.0]]))
        g = np.diag([1.0, 4.0])
        c = orth_projector(u, g)
        assert c.idem_defect <= 1e-12
        gc = g @ c.matrix
        assert fro(gc - gc.conj().T) <= 1e-12

    def test_gram_checks(self):
        u = SubspaceBasis(2, np.array([[1.0], [0.0]]))
        with pytest.raises(GramNotPD):
            orth_projector(u, np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(GramNotPD):
            orth_projector(u, -np.eye(2))

    def test_idempotent_and_gram_sa_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n))
            u = SubspaceBasis.from_span(random_complex(rng, n, k))
            a = random_complex(rng, n, n)
            g = a.conj().T @ a + 0.5 * np.eye(n)
            c = orth_projector(u, g)
            assert c.idem_defect <= 1e-10
            gc = g @ c.matrix
            assert fro(gc - gc.conj().T) <= 1e-10 * max(1.0, fro(gc))


def test_gram_adjoint_property():
    rng = np.random.default_rng(21)
    n = 5
    a = random_complex(rng, n, n)
    g = a.conj().T @ a + np.eye(n)
    m = random_complex(rng, n, n)
    u = random_complex(rng, n)
    v = random_complex(rng, n)
    lhs = np.vdot(v, g @ (m @ u))
    rhs = np.vdot(gram_adjoint(m, g) @ v, g @ u)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_subspace_distance_orthogonal_lines():
    u = SubspaceBasis(2, np.array([[1.0], [0.0]]))
    v = SubspaceBasis(2, np.array([[0.0], [1.0]]))
    assert abs(subspace_distance(u, v) - 1.0) <= 1e-14
    assert subspace_distance(u, u) <= 1e-14


def test_idempotence_defect_scale():
    c = np.diag([1.0, 0.0])
    assert idempotence_defect(c) == 0.0


class TestRealArithmetic:
    """A real operand stays float64 and gives the result of its complex cast."""

    def test_from_span_keeps_dtype(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((9, 4)) @ rng.standard_normal((4, 6))  # rank 4
        real, cplx = SubspaceBasis.from_span(v), SubspaceBasis.from_span(v.astype(complex))
        assert real.basis.dtype == np.float64 and cplx.basis.dtype == np.complex128
        assert real.dim == cplx.dim == 4
        assert subspace_distance(real, cplx) <= 1e-13
        assert SubspaceBasis.from_span(np.zeros((3, 2))).basis.dtype == np.float64

    def test_projector_from_pair_keeps_dtype(self):
        rng = np.random.default_rng(8)
        r, k = rng.standard_normal((7, 3)), rng.standard_normal((7, 4))
        real = projector_from_pair(SubspaceBasis.from_span(r), SubspaceBasis.from_span(k))
        cplx = projector_from_pair(SubspaceBasis.from_span(r.astype(complex)),
                                   SubspaceBasis.from_span(k.astype(complex)))
        assert real.matrix.dtype == np.float64 and cplx.matrix.dtype == np.complex128
        assert fro(real.matrix - cplx.matrix) <= 1e-13 * fro(cplx.matrix)
        assert abs(real.idem_defect - cplx.idem_defect) <= 1e-13
        for empty, full in ((r[:, :0], r), (r, r[:, :0])):
            pair = projector_from_pair(SubspaceBasis.from_span(empty[:3]),
                                       SubspaceBasis.from_span(full[:3]))
            assert pair.matrix.dtype == np.float64

    def test_idempotence_defect_keeps_dtype(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal((6, 6))
        assert abs(idempotence_defect(c) - idempotence_defect(c.astype(complex))) <= 1e-13
        assert idempotence_defect(np.eye(3, dtype=int)) == 0.0
