import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tclgrid.grid_model import (
    GenDynamics,
    GridModelError,
    StateSpace,
    TransitionCache,
    build_combined_system,
    default_gen_dynamics,
    default_grid,
    equilibrium_frequency,
    is_hurwitz,
    one_norm,
    propagate,
    spectral_abscissa,
    transition,
)


def pure_damping(m: float, d: float) -> StateSpace:
    """Swing equation with no generation states (n = 0)."""
    gen = GenDynamics(a_hat=np.zeros((0, 0)), b_hat=np.zeros(0), c_hat=np.zeros(0))
    return build_combined_system(gen, m, d)


class TestConstruction:
    def test_default_grid_block_structure(self):
        ss = default_grid(m=10.0, d=1.0, t_g=5.0, k_p=20.0, k_i=1.0)
        assert ss.n == 2
        expected_a = np.array(
            [
                [-0.1, 0.1, 0.0],
                [-4.0, -0.2, 0.2],
                [-1.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(ss.a, expected_a)
        np.testing.assert_allclose(ss.b, [-0.1, 0.0, 0.0])
        np.testing.assert_allclose(ss.c, [1.0, 0.0, 0.0])

    def test_default_grid_is_hurwitz(self):
        assert is_hurwitz(default_grid())
        assert spectral_abscissa(default_grid()) < -0.01

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GridModelError):
            GenDynamics(a_hat=np.zeros((2, 2)), b_hat=np.zeros(3), c_hat=np.zeros(2))
        with pytest.raises(GridModelError):
            StateSpace(a=np.zeros((2, 2)), b=np.zeros(2), c=np.zeros(2), m=1, d=1, n=2)

    def test_nonpositive_physical_params_rejected(self):
        gen = default_gen_dynamics()
        with pytest.raises(GridModelError):
            build_combined_system(gen, m=0.0, d=1.0)
        with pytest.raises(GridModelError):
            build_combined_system(gen, m=1.0, d=-1.0)

    def test_matrices_are_read_only(self):
        ss = default_grid()
        with pytest.raises(ValueError):
            ss.a[0, 0] = 99.0


class TestEquilibrium:
    def test_integral_action_restores_zero_frequency(self):
        ss = default_grid()
        assert equilibrium_frequency(ss, u_const=2.0) == pytest.approx(0.0, abs=1e-12)

    def test_pure_damping_equilibrium_is_minus_u_over_d(self):
        for d in (0.5, 1.0, 4.0):
            ss = pure_damping(m=3.0, d=d)
            assert equilibrium_frequency(ss, 1.0) == pytest.approx(-1.0 / d, rel=1e-12)


class TestOneNorm:
    def test_pure_damping_analytic(self):
        # impulse response -(1/m) e^{-d t / m} integrates in magnitude to 1/d
        for d in (0.1, 1.0, 10.0):
            result = one_norm(pure_damping(m=5.0, d=d))
            assert result.value == pytest.approx(1.0 / d, rel=1e-7)
            assert result.tail_bound <= 1e-8

    def test_first_order_lag_analytic(self):
        # a = -p, b = 1, c = 1: integral of e^{-p t} is 1/p
        for p in (0.2, 2.0):
            ss = StateSpace(
                a=np.array([[-p]]), b=np.array([1.0]), c=np.array([1.0]),
                m=1.0, d=p, n=0,
            )
            assert one_norm(ss).value == pytest.approx(1.0 / p, rel=1e-7)

    def test_oscillatory_case_against_dense_quadrature(self):
        # underdamped 2nd order system, |g| integral from brute-force Riemann
        ss = default_grid()
        lam, v = np.linalg.eig(ss.a)
        coeff = (ss.c @ v) * np.linalg.solve(v, ss.b.astype(complex))
        ts = np.linspace(0, 400, 400_001)
        g = np.abs(np.real(np.exp(np.outer(ts, lam)) @ coeff))
        brute = np.trapezoid(g, ts)
        assert one_norm(ss).value == pytest.approx(brute, rel=1e-4)

    def test_unstable_system_rejected(self):
        ss = StateSpace(
            a=np.array([[0.1]]), b=np.array([1.0]), c=np.array([1.0]),
            m=1.0, d=1.0, n=0,
        )
        with pytest.raises(GridModelError):
            one_norm(ss)

    def test_float_conversion(self):
        result = one_norm(pure_damping(2.0, 1.0))
        assert float(result) == result.value


class TestTransition:
    def test_matches_eigendecomposition(self):
        ss = default_grid()
        phi, psi = transition(ss, 0.7)
        np.testing.assert_allclose(phi, expm(ss.a * 0.7), rtol=1e-12)
        # psi = A^{-1} (phi - I) b for invertible A
        psi_ref = np.linalg.solve(ss.a, (phi - np.eye(ss.dim)) @ ss.b)
        np.testing.assert_allclose(psi, psi_ref, rtol=1e-9)

    @pytest.mark.parametrize("dt", np.geomspace(1e-7, 5.0, 25))
    def test_modal_matches_expm(self, dt):
        ss = default_grid()
        assert ss.modes is not None
        phi, psi = transition(ss, dt)
        dim = ss.dim
        aug = np.zeros((dim + 1, dim + 1))
        aug[:dim, :dim] = ss.a
        aug[:dim, dim] = ss.b
        ref = expm(aug * dt)
        # entries of phi near zero at small dt carry no relative precision,
        # so the relative error is measured in norm
        assert np.linalg.norm(phi - ref[:dim, :dim]) <= 1e-12 * np.linalg.norm(ref[:dim, :dim])
        assert np.max(np.abs(psi - ref[:dim, dim])) <= 1e-13

    def test_defective_a_falls_back_to_expm(self):
        # Jordan block: a has one eigenvector, so there is no modal form
        ss = StateSpace(
            a=np.array([[-1.0, 1.0], [0.0, -1.0]]), b=np.array([0.0, 1.0]),
            c=np.array([1.0, 0.0]), m=1.0, d=1.0, n=1,
        )
        assert ss.modes is None
        dt = 0.8
        phi, psi = transition(ss, dt)
        decay = math.exp(-dt)
        np.testing.assert_allclose(phi, decay * np.array([[1.0, dt], [0.0, 1.0]]), rtol=1e-13)
        np.testing.assert_allclose(psi, [1.0 - decay * (1.0 + dt), 1.0 - decay], rtol=1e-13)

    def test_one_decomposition_per_state_space(self, monkeypatch):
        calls = 0
        eig = np.linalg.eig

        def counted(a):
            nonlocal calls
            calls += 1
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counted)
        ss = default_grid()
        one_norm(ss)
        transition(ss, 0.3)
        transition(ss, 1.7)
        assert calls == 1

    def test_zero_step_is_identity(self):
        ss = default_grid()
        phi, psi = transition(ss, 0.0)
        np.testing.assert_allclose(phi, np.eye(ss.dim))
        np.testing.assert_allclose(psi, np.zeros(ss.dim))

    def test_singular_a_handled(self):
        # integrator: a = 0, psi must equal b * dt without inverting a
        ss = StateSpace(
            a=np.array([[0.0]]), b=np.array([2.0]), c=np.array([1.0]),
            m=1.0, d=1.0, n=0,
        )
        phi, psi = transition(ss, 3.0)
        assert phi[0, 0] == pytest.approx(1.0)
        assert psi[0] == pytest.approx(6.0)

    @settings(max_examples=25, deadline=None)
    @given(
        dt1=st.floats(0.001, 5.0),
        dt2=st.floats(0.001, 5.0),
        u=st.floats(-3.0, 3.0),
    )
    def test_semigroup_property(self, dt1, dt2, u):
        ss = default_grid()
        x0 = np.array([0.3, -0.2, 0.5])
        one_go = propagate(ss, x0, u, dt1 + dt2)
        two_steps = propagate(ss, propagate(ss, x0, u, dt1), u, dt2)
        np.testing.assert_allclose(one_go, two_steps, rtol=1e-9, atol=1e-12)

    def test_propagation_linearity_in_input(self):
        ss = default_grid()
        x0 = np.zeros(3)
        a = propagate(ss, x0, 1.0, 2.0)
        b = propagate(ss, x0, 2.0, 2.0)
        np.testing.assert_allclose(2 * a, b, rtol=1e-12)

    def test_cache_returns_same_result(self):
        ss = default_grid()
        cache = TransitionCache(ss)
        phi1, psi1 = cache.get(0.01)
        phi2, psi2 = cache.get(0.01)
        assert phi1 is phi2 and psi1 is psi2
        phi_direct, psi_direct = transition(ss, 0.01)
        np.testing.assert_array_equal(phi1, phi_direct)
        np.testing.assert_array_equal(psi1, psi_direct)

    def test_negative_step_rejected(self):
        with pytest.raises(GridModelError):
            transition(default_grid(), -0.1)


class TestStepResponse:
    def test_frequency_dip_and_recovery(self):
        # 1 pu step of net demand: omega dips negative, then integral action
        # brings it back toward zero
        ss = default_grid()
        x = np.zeros(3)
        dips = []
        for _ in range(int(200 / 0.05)):
            x = propagate(ss, x, 1.0, 0.05)
            dips.append(x[0])
        dips = np.array(dips)
        assert dips.min() < -0.05
        assert abs(dips[-1]) < 0.02
