"""The benchmark's reference computations and seeded inputs, checked against
closed forms (no cuspcal calls on the reference side)."""

import math

import numpy as np
import pytest

from perfbench import inputs, refs


def projector_onto(basis):
    q, _ = np.linalg.qr(basis)
    return q @ q.conj().T


class TestSymbolReferences:
    @pytest.mark.parametrize("xi", [0.25, 1.0, 4.0])
    def test_laplace_companion_matches_closed_form(self, xi):
        a = refs.companion([np.array([[xi * xi]]), np.zeros((1, 1)), np.eye(1)])
        up, low, n_up = refs.half_plane_projectors(a)
        assert n_up == 1
        assert np.allclose(up, refs.laplace_projector(xi), atol=1e-12)
        assert np.allclose(up + low, np.eye(2), atol=1e-12)

    def test_cases_are_reproducible_and_seeded(self):
        a, b, c = inputs.symbol_cases(5), inputs.symbol_cases(5), inputs.symbol_cases(6)
        assert len(a) == 96
        assert all(np.array_equal(x.xi, y.xi) for x, y in zip(a, b))
        assert not np.array_equal(a[0].xi, c[0].xi)

    def test_cases_cover_the_specs_and_norms(self):
        cases = inputs.symbol_cases(3)
        assert {(c.order, c.size) for c in cases} == {(m, n) for m in range(1, 5) for n in range(1, 4)}
        assert {c.xi.size for c in cases} == {1, 2, 3}
        norms = [np.linalg.norm(c.xi) for c in cases]
        assert 0.25 <= min(norms) and max(norms) <= 4.0

    def test_root_counts_agree_with_eig(self):
        for case in inputs.symbol_cases(7)[:48]:
            a = refs.companion(refs.tau_coefficients(case))
            up, _, n_up = refs.half_plane_projectors(a)
            assert n_up == case.upper_roots, case.label
            assert abs(np.trace(up) - n_up) < 1e-8

    def test_symbol_vanishes_on_constructed_roots(self):
        case = inputs.symbol_cases(2)[1]  # order 1, size 2
        coeffs = refs.tau_coefficients(case)
        for w in np.linalg.eigvals(refs.companion(coeffs)):
            sigma = sum(c * w**k for k, c in enumerate(coeffs))
            assert abs(np.linalg.det(sigma)) < 1e-9

    def test_near_axis_roots(self):
        for eps, case in zip(inputs.NEAR_AXIS_EPS, inputs.near_axis_cases()):
            w = np.sort_complex(np.linalg.eigvals(refs.companion(refs.tau_coefficients(case))))
            assert np.allclose(w, [-0.3 - 1j, 0.537 + 1j * eps], atol=1e-12)


class TestFibreReferences:
    def test_bump_shape(self):
        assert refs.bump(1.15, 1.0) == 0.0 and refs.bump(1.9, 1.0) == 0.0
        assert refs.bump(1.5, 1.0) == pytest.approx(math.exp(-1.0))

    @pytest.mark.parametrize("tau", [0.0, 1.5, 6.0])
    def test_integrated_bplus_matches_cosh_sinh(self, tau):
        def coeff(b, z):
            return np.eye(1) if b == 2 else np.zeros((1, 1))

        bp, bm = refs.fibre_data_spaces(coeff, tau)
        closed = refs.laplace_bplus(tau)
        assert bp.shape == (4, 2) and bm.shape == (4, 2)
        assert np.linalg.norm(projector_onto(bp) - projector_onto(closed)) < 1e-9
        assert refs.fixes(projector_onto(closed), bp) < 1e-9
        assert refs.annihilates(np.eye(4) - projector_onto(closed), bp) < 1e-9

    def test_minus_side_without_potential_mirrors_plus(self):
        # with A_b constant and no first-order term the mirrored problem is
        # the same ODE, so B- carries the cosh/sinh data read from z = 2L
        tau = 1.0
        bp, bm = refs.fibre_data_spaces(
            lambda b, z: np.eye(1) if b == 2 else np.zeros((1, 1)), tau)
        assert np.linalg.matrix_rank(np.hstack([bp, bm]), tol=1e-8) == 4


class TestDiscreteReferences:
    def test_cauchy_data_closed_form(self):
        s = np.linspace(1.0, 6.0, 11)[1:-1]
        cosh_d, sinh_d = refs.strip_cauchy_data(s, 6.0, 2)
        tk = 2 * math.pi / 5.0
        w = np.sin(tk * (s - 1.0))
        n = s.size
        assert np.allclose(cosh_d[:n], w) and np.allclose(cosh_d[n:2 * n], 0.0)
        assert np.allclose(sinh_d[n:2 * n], -1j * tk * w)
        assert np.allclose(cosh_d[3 * n:], -1j * tk * math.sinh(tk) * w)

    def test_probe_is_zero_for_the_exact_frozen_projector(self):
        S, k, a0 = 6.0, 13, 1.2
        s = np.linspace(1.0, S, 129)[1:-1]
        n = s.size
        csym = refs.laplace_projector(k * math.pi / (S - 1.0) / math.sqrt(a0))
        c = np.zeros((4 * n, 4 * n), dtype=complex)
        for r in range(2):
            for q in range(2):
                c[r * n:(r + 1) * n, q * n:(q + 1) * n] = csym[r, q] * np.eye(n)
        assert refs.frozen_probe_error(c, s, S, k, a0, 4.75, 1.0) < 1e-14
        assert refs.frozen_probe_error(0.9 * c, s, S, k, a0, 4.75, 1.0) == pytest.approx(0.1)

    def test_window(self):
        s = np.linspace(0.0, 10.0, 101)
        w = refs.window(s, 5.0, 1.0)
        assert w.max() == pytest.approx(math.exp(-1.0))
        assert np.all(w[np.abs(s - 5.0) >= 1.0] == 0.0)


class TestOutputReaders:
    def test_csv_and_matrix_round_trip(self, tmp_path):
        (tmp_path / "a.csv").write_text(
            "xi,dn,build\n0.5,5.0e-01+0.0e+00j,abc\n2,2.0e+00-1.0e-16j,abc\n")
        rows = refs.read_csv(tmp_path / "a.csv")
        assert [complex(r["dn"]) for r in rows] == [0.5, 2.0 - 1e-16j]
        m = np.array([[1 + 2j, 3.0], [0.5j, -1.0]])
        lines = ["# cuspcal projector 2 2 test"] + [f"{v.real:.17e} {v.imag:.17e}" for v in m.ravel()]
        (tmp_path / "p.txt").write_text("\n".join(lines) + "\n")
        assert np.array_equal(refs.read_matrix(tmp_path / "p.txt"), m)


def test_stratified_draws_stay_in_their_strata():
    rng = np.random.default_rng(0)
    values = inputs.stratified(rng, 0.0, 12.0, 12)
    for k, v in enumerate(values):
        assert k + 0.35 <= v <= k + 0.65
