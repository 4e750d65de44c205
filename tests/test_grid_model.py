import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from tclgrid import grid_model
from tclgrid.grid_model import (
    CrossingWalk,
    GenDynamics,
    GridModelError,
    ModalFlow,
    StateSpace,
    TransitionCache,
    build_combined_system,
    default_gen_dynamics,
    default_grid,
    is_hurwitz,
    one_norm,
    spectral_abscissa,
    transition,
)


def propagate(ss: StateSpace, x: np.ndarray, u: float, dt: float) -> np.ndarray:
    """x after dt with the input held at u, by the shipped transition."""
    phi, psi = transition(ss, dt)
    return phi @ x + psi * u


def pure_damping(m: float, d: float) -> StateSpace:
    """Swing equation with no generation states (n = 0)."""
    gen = GenDynamics(a_hat=np.zeros((0, 0)), b_hat=np.zeros(0), c_hat=np.zeros(0))
    return build_combined_system(gen, m, d)


def dense_one_norm(ss: StateSpace, t_end: float) -> float:
    """Reference integral of |c expm(a t) b| over [0, t_end], independent of
    the closed form: the sign changes of the response are found by sampling
    128 times per period of the fastest mode over the whole range and brentq,
    then |g| is integrated by 16-point Gauss-Legendre on panels of at most
    1/8 of that period, split at the sign changes."""
    lam, v = np.linalg.eig(ss.a)
    coeff = (ss.c @ v) * np.linalg.solve(v, ss.b.astype(complex))

    def g(t):
        return (np.exp(np.multiply.outer(t, lam)) @ coeff).real

    periods = t_end * np.max(np.abs(lam)) / (2 * np.pi)
    samples = np.linspace(0.0, t_end, int(np.ceil(periods * 128)) + 1)
    roots = []
    for first in range(0, samples.size - 1, 1 << 16):
        ts = samples[first:first + (1 << 16) + 1]
        values = g(ts)
        roots += [
            brentq(lambda t: float(g(t)), ts[i], ts[i + 1], xtol=1e-15, rtol=1e-15)
            for i in np.flatnonzero(values[:-1] * values[1:] < 0)
        ]
    edges = np.union1d(np.linspace(0.0, t_end, int(np.ceil(periods * 8)) + 1), roots)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    total = 0.0
    for first in range(0, edges.size - 1, 1 << 12):
        panel = edges[first:first + (1 << 12) + 1]
        half = np.diff(panel) / 2
        points = (panel[:-1] + half)[:, None] + half[:, None] * nodes
        total += float(np.sum(np.abs(g(points)) @ weights * half))
    return total


def governor_grids():
    return st.builds(
        default_grid,
        m=st.floats(2.0, 20.0),
        d=st.floats(0.2, 3.0),
        t_g=st.floats(0.5, 10.0),
        k_p=st.floats(1.0, 40.0),
        k_i=st.floats(0.05, 3.0),
    )


@st.composite
def modal_grids(draw):
    """A Hurwitz grid of dimension 1-6 with a modal form: a = T J T^-1 for a
    real block-diagonal J of distinct real eigenvalues and conjugate pairs
    (all real, mixed or all pairs) and a well-conditioned T, with b and c
    drawn."""
    dim, n_pairs = draw(st.sampled_from([(d, p) for d in range(1, 7) for p in range(d // 2 + 1)]))
    reals = [draw(st.floats(-4.0, -0.05)) for _ in range(dim - 2 * n_pairs)]
    pairs = [complex(draw(st.floats(-3.0, -0.05)), draw(st.floats(0.05, 8.0)))
             for _ in range(n_pairs)]
    spectrum = np.array(reals + pairs + [p.conjugate() for p in pairs])
    gaps = np.abs(np.subtract.outer(spectrum, spectrum)) + np.eye(dim)
    assume(gaps.min() > 0.05)
    j = np.diag(np.array(reals + [p.real for p in pairs for _ in (0, 1)]))
    for i, p in enumerate(pairs):
        k = len(reals) + 2 * i
        j[k, k + 1], j[k + 1, k] = p.imag, -p.imag
    entries = st.floats(-1.0, 1.0)
    t = np.eye(dim) + 0.5 * np.array([[draw(entries) for _ in range(dim)] for _ in range(dim)])
    assume(np.linalg.cond(t) < 1e3)
    vector = lambda: np.array([draw(st.floats(-2.0, 2.0)) for _ in range(dim)])
    ss = StateSpace(a=t @ j @ np.linalg.inv(t), b=vector(), c=vector())
    assume(ss.modes is not None)
    return ss


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

    def test_one_norm_takes_the_hurwitz_test(self):
        # abscissa -5e-10, inside the margin: no 1-norm (it would be 2e9),
        # as simulate and certify refuse the grid
        gen = GenDynamics(a_hat=[[-1.0]], b_hat=[0.0], c_hat=[0.0])
        marginal = build_combined_system(gen, m=1.0, d=5e-10)
        assert spectral_abscissa(marginal) == pytest.approx(-5e-10)
        assert not is_hurwitz(marginal)
        with pytest.raises(GridModelError, match="not Hurwitz"):
            one_norm(marginal)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GridModelError):
            GenDynamics(a_hat=np.zeros((2, 2)), b_hat=np.zeros(3), c_hat=np.zeros(2))
        with pytest.raises(GridModelError):
            StateSpace(a=np.zeros((2, 2)), b=np.zeros(3), c=np.zeros(2))

    def test_nonpositive_physical_params_rejected(self):
        gen = default_gen_dynamics()
        with pytest.raises(GridModelError):
            build_combined_system(gen, m=0.0, d=1.0)
        with pytest.raises(GridModelError):
            build_combined_system(gen, m=1.0, d=-1.0)

    def test_overflowing_swing_row_names_its_field(self):
        # with finite parameters, the row ((d_hat - d)/m, c_hat/m) of a
        # overflows through d_hat - d, which names d, or through the division,
        # which names m
        gen = GenDynamics(a_hat=[[-1.0]], b_hat=[-1.0], c_hat=[1.0], d_hat=-1.5e308)
        with pytest.raises(GridModelError, match="^d_hat - d overflows") as info:
            build_combined_system(gen, m=1.0, d=1.5e308)
        assert info.value.field == "d"
        gen = GenDynamics(a_hat=[[-1.0]], b_hat=[-1.0], c_hat=[1e10])
        with np.errstate(all="raise"):
            with pytest.raises(GridModelError, match="^inertia m is so small") as info:
                build_combined_system(gen, m=1e-300, d=1.0)
        assert info.value.field == "m"

    def test_matrices_are_read_only(self):
        ss = default_grid()
        with pytest.raises(ValueError):
            ss.a[0, 0] = 99.0


class TestEquilibrium:
    # omega long after a held input is applied from rest: every mode has
    # decayed by 1e3 s
    def test_integral_action_restores_zero_frequency(self):
        ss = default_grid()
        assert propagate(ss, np.zeros(ss.dim), 2.0, 1e3)[0] == pytest.approx(0.0, abs=1e-12)

    def test_pure_damping_equilibrium_is_minus_u_over_d(self):
        for d in (0.5, 1.0, 4.0):
            ss = pure_damping(m=3.0, d=d)
            omega = propagate(ss, np.zeros(ss.dim), 1.0, 1e3)[0]
            assert omega == pytest.approx(-1.0 / d, rel=1e-12)


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

    @settings(max_examples=30, deadline=None)
    @given(ss=governor_grids())
    def test_modal_matches_dense_reference(self, ss):
        assume(is_hurwitz(ss) and ss.modes is not None)
        result = one_norm(ss)
        assert abs(result.value - dense_one_norm(ss, result.t_max)) <= 1e-9
        assert result.tail_bound <= 0.5e-8

    def test_lightly_damped_example(self):
        # the old adaptive quadrature returned 2.6387105 here, 3.6e-5 low
        # against its own epsabs of 5e-9
        ss = default_grid(m=13.5, d=0.955, t_g=0.889, k_p=1.64, k_i=2.45)
        result = one_norm(ss)
        assert result.value == pytest.approx(2.6387460326, abs=1e-9)
        assert abs(result.value - dense_one_norm(ss, result.t_max)) <= 1e-9

    def test_shipped_grid(self, shipped_file):
        # the old adaptive quadrature returned 0.52606869229
        ss = shipped_file.build_grid()
        result = one_norm(ss)
        assert result.value == pytest.approx(0.52606870553, abs=1e-11)
        assert abs(result.value - dense_one_norm(ss, result.t_max)) <= 1e-9

    def test_real_spectrum_with_sign_change(self):
        # g(t) = e^-t - 2 e^-3t: negative until t = ln(2)/2, positive after
        ss = StateSpace(
            a=np.diag([-1.0, -3.0]), b=np.array([1.0, 1.0]), c=np.array([1.0, -2.0]),
        )
        result = one_norm(ss)

        def antiderivative(t):
            return -math.exp(-t) + 2 * math.exp(-3 * t) / 3

        root = math.log(2.0) / 2
        exact = (
            antiderivative(result.t_max) - 2 * antiderivative(root) + antiderivative(0.0)
        )
        assert result.value == pytest.approx(exact, abs=1e-14)
        full = exact - antiderivative(result.t_max)  # over [0, inf)
        assert result.value <= full <= result.value + result.tail_bound

    @settings(max_examples=30, deadline=None)
    @given(ss=governor_grids())
    @example(ss=default_grid(m=13.5, d=0.955, t_g=0.889, k_p=1.64, k_i=2.45))
    def test_walk_finds_every_sign_change(self, ss):
        # the crossing walk over the impulse response g = c expm(a t) b on
        # [0, t_max], sampled 64 times per period of the fastest mode: its
        # zeros come in order, g has the sign they predict at every sample
        # it resolves (|g| above the search's window), and no sign change
        # between samples is missed, however small g has decayed
        assume(is_hurwitz(ss) and ss.modes is not None)
        t_max = one_norm(ss).t_max
        flow = ModalFlow(ss, t_max)
        z = flow.enter(ss.b, 0.0)
        g0, z_end = flow.omega(z), flow.advance(z, t_max)
        walk = CrossingWalk(flow, (lambda g: -g) if g0 > 0 else (lambda g: g))
        e_start, e_end = walk.excess(g0), walk.excess(flow.omega(z_end))
        zeros = np.array([tau for tau, _ in walk.crossings(z, e_start, t_max, e_end, z_end)])
        assert np.all(np.diff(zeros) > 0)

        # g = Re sum_k r_k exp(lam_k t) with r = (c V) * (V^-1 b)
        lam, v, _, v_inv_b = ss.modes
        r = (ss.c @ v) * v_inv_b
        periods = t_max * np.max(np.abs(lam)) / (2 * np.pi)
        ts = np.linspace(0.0, t_max, int(np.ceil(periods * 64)) + 1)
        g = np.concatenate([
            (np.exp(np.multiply.outer(chunk, lam)) @ r).real
            for chunk in np.array_split(ts, ts.size // 65536 + 1)
        ])
        predicted = np.sign(g0) * (-1.0) ** np.searchsorted(zeros, ts, side="right")
        resolved = np.abs(g) > 2 * grid_model._OVERSHOOT
        np.testing.assert_array_equal(np.sign(g[resolved]), predicted[resolved])
        signs = np.sign(g[g != 0])
        assert zeros.size >= np.count_nonzero(signs[1:] != signs[:-1])

    def test_governor_grid_with_real_spectrum(self):
        ss = default_grid(m=2.0, d=3.0, t_g=10.0, k_p=1.0, k_i=0.05)
        assert np.all(ss.modes.lam.imag == 0)
        result = one_norm(ss)
        assert abs(result.value - dense_one_norm(ss, result.t_max)) <= 1e-9

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    def test_tail_bound_holds(self, tol, monkeypatch):
        # the integral past t_max, taken by a run to a longer t_max, is
        # within the tail bound; each doubling of t_max cuts this grid's tail
        # by 1e-8 or more, so tol / 1000 would keep t_max and compare the run
        # with itself
        ss = default_grid(m=13.5, d=0.955, t_g=0.889, k_p=1.64, k_i=2.45)
        monkeypatch.setattr(grid_model, "ONE_NORM_TOL", tol)
        result = one_norm(ss)
        assert result.tail_bound <= tol / 2
        monkeypatch.setattr(grid_model, "ONE_NORM_TOL", tol * 1e-9)
        finer = one_norm(ss)
        assert finer.t_max > result.t_max
        beyond = finer.value - result.value
        assert -1e-14 <= beyond <= result.tail_bound + 1e-14  # rounding of the sums

    def test_unstable_system_rejected(self):
        ss = StateSpace(
            a=np.array([[0.1]]), b=np.array([1.0]), c=np.array([1.0]),
        )
        with pytest.raises(GridModelError):
            one_norm(ss)


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
        # ModalFlow's step from each unit state with the input at 0 gives
        # the columns of phi, and from rest with the input at 1 gives psi;
        # transition is the augmented-matrix exponential
        ss = default_grid()
        flow = ModalFlow(ss, 0.01)
        dim = ss.dim
        starts = [(x, 0.0) for x in np.eye(dim)] + [(np.zeros(dim), 1.0)]
        zs = [flow.advance(flow.enter(x, u), dt) for x, u in starts]
        states = flow.states(zs, [u for _, u in starts])
        phi, psi = states[:dim].T, states[dim]
        phi_ref, psi_ref = transition(ss, dt)
        # entries of phi near zero at small dt carry no relative precision,
        # so the relative error is measured in norm
        assert np.linalg.norm(phi - phi_ref) <= 1e-12 * np.linalg.norm(phi_ref)
        assert np.max(np.abs(psi - psi_ref)) <= 1e-13

    def test_defective_a_falls_back_to_expm(self):
        # Jordan block: a has one eigenvector, so there is no modal form;
        # transition, the augmented-matrix exponential, still gives its
        # closed form, and the modal propagator and 1-norm refuse it
        ss = StateSpace(
            a=np.array([[-1.0, 1.0], [0.0, -1.0]]), b=np.array([0.0, 1.0]),
            c=np.array([1.0, 0.0]),
        )
        assert ss.modes is None and is_hurwitz(ss)
        dt = 0.8
        phi, psi = transition(ss, dt)
        decay = math.exp(-dt)
        np.testing.assert_allclose(phi, decay * np.array([[1.0, dt], [0.0, 1.0]]), rtol=1e-13)
        np.testing.assert_allclose(psi, [1.0 - decay * (1.0 + dt), 1.0 - decay], rtol=1e-13)
        for refused in (lambda: ModalFlow(ss, dt), lambda: one_norm(ss)):
            with pytest.raises(GridModelError, match="no well-conditioned modal form"):
                refused()

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

    @settings(max_examples=50, deadline=None)
    @given(
        ss=governor_grids(),
        steps=st.lists(
            st.tuples(st.one_of(st.just(0.01), st.floats(0.0, 2.0)), st.floats(-3.0, 3.0)),
            min_size=1, max_size=12,
        ),
    )
    def test_modal_flow_matches_transition(self, ss, steps):
        # the event loop's propagator keeps the state in modal coordinates
        # over held inputs; over any sequence of inputs and steps (the
        # cadence step 0.01 among them) its states and omega are transition's
        x = np.array([0.3, -0.2, 0.5])
        flow = ModalFlow(ss, 0.01)
        z = flow.enter(x, 0.0)
        zs, us, xs = [z], [0.0], [x]
        for dt, u in steps:
            z = flow.advance(flow.hold(z, u), dt)
            x = propagate(ss, x, u, dt)
            zs.append(z)
            us.append(u)
            xs.append(x)
            assert flow.omega(z) == pytest.approx(x[0], rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(flow.states(zs, us), xs, rtol=1e-9, atol=1e-12)

    def test_propagation_linearity_in_input(self):
        ss = default_grid()
        x0 = np.zeros(3)
        a = propagate(ss, x0, 1.0, 2.0)
        b = propagate(ss, x0, 2.0, 2.0)
        np.testing.assert_allclose(2 * a, b, rtol=1e-12)

    def test_cache_returns_same_result(self):
        ss = default_grid()
        cache = TransitionCache(ss, 0.01)
        phi1, psi1 = cache.get(0.01)
        phi2, psi2 = cache.get(0.01)
        assert phi1 is phi2 and psi1 is psi2
        phi_direct, psi_direct = transition(ss, 0.01)
        np.testing.assert_array_equal(phi1, phi_direct)
        np.testing.assert_array_equal(psi1, psi_direct)

    def test_cache_computes_other_steps_exactly(self):
        ss = default_grid()
        cache = TransitionCache(ss, 0.01)
        phi, psi = cache.get(0.0037)
        phi_direct, psi_direct = transition(ss, 0.0037)
        np.testing.assert_array_equal(phi, phi_direct)
        np.testing.assert_array_equal(psi, psi_direct)

    def test_negative_step_rejected(self):
        with pytest.raises(GridModelError):
            transition(default_grid(), -0.1)


class TestModalFlow:
    @settings(max_examples=60, deadline=None)
    @given(
        ss=modal_grids(),
        x=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        steps=st.lists(
            st.tuples(st.one_of(st.just(0.01), st.floats(0.0, 2.0)), st.floats(-3.0, 3.0)),
            min_size=1, max_size=12,
        ),
    )
    @example(
        ss=StateSpace(a=np.array([[-1.0]]), b=np.array([1.0]), c=np.array([0.0])),
        x=[2.789e-114], steps=[(0.0, 1.0)],
    )
    def test_matches_transition_on_any_spectrum(self, ss, x, steps):
        # one complex number per conjugate pair and one float per real mode
        # carry the state over any sequence of held inputs and steps (the
        # cadence step 0.01 among them) as transition does
        x = np.array(x[: ss.dim])
        flow = ModalFlow(ss, 0.01)
        z = flow.enter(x, 0.0)
        lam = ss.modes.lam
        assert len(z) == np.count_nonzero(lam.imag >= 0)
        assert [type(zk) for zk in z] == [
            float if lk.imag == 0 else complex for lk in lam[lam.imag >= 0]
        ]
        zs, us, xs, omegas = [z], [0.0], [x], [flow.omega(z)]
        for dt, u in steps:
            z = flow.advance(flow.hold(z, u), dt)
            x = propagate(ss, x, u, dt)
            zs.append(z)
            us.append(u)
            xs.append(x)
            omegas.append(flow.omega(z))
        xs = np.array(xs)
        # z carries x - u * x_unit, so the error scales with the larger of
        # |x| and |u| |x_unit|
        scale = max(np.max(np.abs(xs)), np.max(np.abs(us)) * np.max(np.abs(flow.x_unit)))
        np.testing.assert_allclose(flow.states(zs, us), xs, rtol=1e-9, atol=1e-9 * scale)
        np.testing.assert_allclose(omegas, xs @ ss.c, rtol=1e-9, atol=1e-9 * scale)

    @settings(max_examples=40, deadline=None)
    @given(
        ss=modal_grids(),
        x=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        u=st.floats(-3.0, 3.0),
    )
    @example(
        # eig drops the 5.9e-39 entry: omega's modal weights are 0, its
        # second derivative from the state is 1.8e-38
        ss=StateSpace(a=np.array([[-1.0, -0.5], [5.877471754111438e-39, -2.0]]),
                      b=np.array([0.0, 0.0]), c=np.array([0.0, 1.0])),
        x=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0], u=0.0,
    )
    def test_bounds_hold_over_a_pass(self, ss, x, u):
        # sampled densely over a held pass, |omega| stays within the envelope
        # and |omega''| within the curvature bound taken at its start; omega''
        # = c a (a x + b u) comes from the state, not from the modal weights
        flow = ModalFlow(ss, 0.01)
        z = flow.enter(np.array(x[: ss.dim]), u)
        envelope, curvature = flow.envelope(z), flow.curvature(z)
        decay = -np.max(ss.modes.lam.real)
        ts = np.concatenate((np.linspace(0.0, 1.0, 201), np.linspace(1.0, 10.0 / decay, 400)))
        zs = [flow.advance(z, t) for t in ts]
        omega = np.array([flow.omega(zt) for zt in zs])
        xs = flow.states(zs, [u] * len(zs))
        second = (xs @ ss.a.T + u * ss.b) @ (ss.c @ ss.a)
        assert np.all(np.abs(omega) <= envelope * (1 + 1e-12) + 1e-12)
        assert np.all(np.abs(second) <= curvature * (1 + 1e-9) + 1e-9 * np.max(np.abs(second)))

    def test_bounds_of_an_overflowing_state_are_inf(self):
        # abs() of a finite complex beyond the largest double raises
        # OverflowError; the bounds on such a state are inf instead
        flow = ModalFlow(default_grid(), 0.01)
        z = tuple(1.0 if real else complex(1.7e308, 1.7e308) for real in flow.real)
        with pytest.raises(OverflowError):
            abs(complex(1.7e308, 1.7e308))
        assert flow.envelope(z) == math.inf
        assert flow.curvature(z) == math.inf


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
