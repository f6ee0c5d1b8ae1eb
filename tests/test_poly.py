import numpy as np
import pytest

from cuspcal._poly import Jet, PolyMat1, PolyMat2, compose_affine, poly_on_jet


class TestPolyMat1:
    def test_eval_and_deriv(self):
        p = PolyMat1({0: 1.0, 2: 3.0}, 1)
        assert p.eval(2.0)[0, 0] == pytest.approx(13.0)
        assert p.deriv().eval(2.0)[0, 0] == pytest.approx(12.0)

    def test_compose_affine(self):
        p = PolyMat1({0: 1.0, 1: 2.0, 2: 1.0}, 1)  # (1 + z)^2
        q = PolyMat1(compose_affine(p.coeffs, 2.0, -1.0), 1)  # (3 - z)^2
        for z in (0.0, 0.5, 1.7):
            assert q.eval(z)[0, 0] == pytest.approx((3.0 - z) ** 2)

    def test_adjoint(self):
        m = np.array([[1.0 + 1j, 2.0], [0.0, -1j]])
        p = PolyMat1({1: m}, 2)
        np.testing.assert_allclose(p.adjoint().coeffs[1], m.conj().T)

    def test_jets(self):
        p = PolyMat1({0: 1.0, 3: 2.0}, 1)
        jets = p.jets_at(1.0, 3)
        np.testing.assert_allclose(jets[:, 0, 0], [3.0, 6.0, 12.0, 12.0])


class TestPolyMat2:
    def test_eval(self):
        p = PolyMat2({(1, 1): 2.0, (0, 0): 1.0}, 1)
        assert p.eval(2.0, 3.0)[0, 0] == pytest.approx(13.0)

    def test_freeze_x(self):
        p = PolyMat2({(0, 2): 1.0, (1, 0): 7.0}, 1)
        q = p.at_x0()
        assert q.eval(2.0)[0, 0] == pytest.approx(4.0)


class TestJet:
    def test_reciprocal(self):
        # 1/(1+eps) = 1 - eps + eps^2 - ...
        j = Jet.variable(1.0, 4).reciprocal()
        np.testing.assert_allclose(j.coeffs, [1, -1, 1, -1, 1])

    def test_poly_on_jet_matches_chain_rule(self):
        # d/drho [a(1/(1+rho))] at 0 for a(x) = x^2: -2
        j = Jet.variable(1.0, 2).reciprocal()
        val = poly_on_jet([0.0, 0.0, 1.0], j)
        derivs = val.derivatives()
        assert derivs[0] == pytest.approx(1.0)
        assert derivs[1] == pytest.approx(-2.0)
        assert derivs[2] == pytest.approx(6.0)

    def test_exp(self):
        j = Jet.variable(0.5, 5)
        e = (j * j * (-1.0)).exp()
        # derivatives of exp(-rho^2) at 0.5
        import math

        f0 = math.exp(-0.25)
        assert e.derivatives()[0] == pytest.approx(f0)
        assert e.derivatives()[1] == pytest.approx(-2 * 0.5 * f0)
        assert e.derivatives()[2] == pytest.approx((4 * 0.25 - 2) * f0)
