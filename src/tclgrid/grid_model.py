"""Linear grid frequency dynamics: swing equation plus generation state space.

State convention: x = (omega, x_hat) with omega the frequency deviation in Hz
and x_hat the generation states. Power quantities are per-unit on the
scenario-declared base; M and D carry matching units (pu*s/Hz and pu/Hz).

Over a pass of held input the state flows exactly in the real modal form
(ModalFlow); a grid whose a has no well-conditioned modal form is refused.
CrossingWalk finds where a function of the output changes sign along that
flow, in time order and certified between probes: it is the simulator's
search for frequency-level crossings, and one_norm's for the zeros of the
impulse response.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import chain
from typing import NamedTuple

import numpy as np


class GridModelError(ValueError):
    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field  # the parameter a failed rule is about, if one


# Largest cond(V) for which the modal forms are used; above it the rounding
# error of V^-1, amplified by cond(V), is no longer negligible.
_MODAL_COND_MAX = 1e8


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise GridModelError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class GenDynamics:
    """Generation dynamics p_m = c_hat @ x_hat + d_hat * omega,
    x_hat' = a_hat @ x_hat + b_hat * omega."""

    a_hat: np.ndarray  # (n, n)
    b_hat: np.ndarray  # (n,)
    c_hat: np.ndarray  # (n,)
    d_hat: float = 0.0

    def __post_init__(self):
        a = _as_matrix(self.a_hat, "a_hat")
        if a.shape[0] != a.shape[1]:
            raise GridModelError(f"a_hat must be square, got shape {np.shape(self.a_hat)}")
        n = a.shape[0]
        b = np.asarray(self.b_hat, dtype=float).reshape(-1)
        c = np.asarray(self.c_hat, dtype=float).reshape(-1)
        if b.shape != (n,):
            raise GridModelError(f"b_hat must have length {n}, got {b.shape[0]}")
        if c.shape != (n,):
            raise GridModelError(f"c_hat must have length {n}, got {c.shape[0]}")
        object.__setattr__(self, "a_hat", a)
        object.__setattr__(self, "b_hat", b)
        object.__setattr__(self, "c_hat", c)
        object.__setattr__(self, "d_hat", float(self.d_hat))
        for arr in (self.a_hat, self.b_hat, self.c_hat):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.a_hat.shape[0]


@dataclass(frozen=True)
class StateSpace:
    """Combined model x' = a x + b u, omega = c x, with u the net demand
    channel (uncontrollable load plus aggregate TCL demand)."""

    a: np.ndarray  # (dim, dim)
    b: np.ndarray  # (dim,)
    c: np.ndarray  # (dim,)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=float).reshape(-1)
        if a.shape != (b.size, b.size) or c.shape != b.shape:
            raise GridModelError(
                f"inconsistent state-space dimensions: a {a.shape}, b {b.shape}, c {c.shape}"
            )
        for name, arr in (("a", a), ("b", b), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:  # generation states
        return self.dim - 1

    @cached_property
    def modes(self) -> Modes | None:
        """Modal decomposition of a, computed once. None where the modal forms
        do not apply: a is defective, its eigenvectors are too ill-conditioned,
        or it has a zero eigenvalue (ModalFlow and one_norm divide by each)."""
        try:
            lam, v = np.linalg.eig(self.a)
            if not np.linalg.cond(v) < _MODAL_COND_MAX or np.any(lam == 0):
                return None
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            return None
        modes = Modes(lam=lam, v=v, v_inv=v_inv, v_inv_b=v_inv @ self.b)
        for arr in modes:
            arr.setflags(write=False)
        return modes


class Modes(NamedTuple):
    """a = v @ diag(lam) @ v_inv, so expm(a t) = v @ diag(exp(lam t)) @ v_inv."""

    lam: np.ndarray      # eigenvalues
    v: np.ndarray        # eigenvectors, one per column
    v_inv: np.ndarray
    v_inv_b: np.ndarray  # input vector b in modal coordinates


NO_MODAL_FORM = (
    "the grid has no well-conditioned modal form: its combined a is defective, has a zero "
    f"eigenvalue or eigenvectors of condition number {_MODAL_COND_MAX:g} or more"
)


def require_modes(ss: StateSpace) -> Modes:
    """ss.modes, which ModalFlow and one_norm need; GridModelError without."""
    if ss.modes is None:
        raise GridModelError(NO_MODAL_FORM)
    return ss.modes


def build_combined_system(gen: GenDynamics, m: float, d: float) -> StateSpace:
    """Assemble the combined (omega, x_hat) system from generation dynamics
    and the swing equation parameters.

    Block structure: a = [[(d_hat - d)/m, c_hat/m], [b_hat, a_hat]],
    b = [-1/m, 0...], c = [1, 0...].
    """
    if m <= 0:
        raise GridModelError(f"inertia m must be positive, got {m}", "m")
    if 1.0 / float(m) == math.inf:
        raise GridModelError(f"inertia m is so small that 1/m overflows, got {m}", "m")
    if d <= 0:
        raise GridModelError(f"damping d must be positive, got {d}", "d")
    if math.isinf(gen.d_hat - d):
        raise GridModelError(f"d_hat - d overflows, got d={d} and d_hat={gen.d_hat}", "d")
    n = gen.n
    a = np.zeros((n + 1, n + 1))
    with np.errstate(over="ignore"):
        a[0, 0] = (gen.d_hat - d) / m
        a[0, 1:] = gen.c_hat / m
    if not np.isfinite(a[0]).all():
        raise GridModelError(f"inertia m is so small that c_hat/m or (d_hat-d)/m overflows, got {m}", "m")
    a[1:, 0] = gen.b_hat
    a[1:, 1:] = gen.a_hat
    b = np.zeros(n + 1)
    b[0] = -1.0 / m
    c = np.zeros(n + 1)
    c[0] = 1.0
    return StateSpace(a=a, b=b, c=c)


def default_gen_dynamics(
    t_g: float = 5.0, k_p: float = 20.0, k_i: float = 1.0
) -> GenDynamics:
    """Two-state turbine-governor with integral secondary control.

    x_hat = (p_g, p_i) with p_m = p_g:
        p_g' = (-p_g - k_p * omega + p_i) / t_g
        p_i' = -k_i * omega
    Droop feedback k_p plus integral action k_i, so every equilibrium with
    constant net demand has omega* = 0.
    """
    a_hat = np.array([[-1.0 / t_g, 1.0 / t_g], [0.0, 0.0]])
    b_hat = np.array([-k_p / t_g, -k_i])
    c_hat = np.array([1.0, 0.0])
    return GenDynamics(a_hat=a_hat, b_hat=b_hat, c_hat=c_hat, d_hat=0.0)


def default_grid(m: float = 10.0, d: float = 1.0, **gen) -> StateSpace:
    """The combined system of default_gen_dynamics, given its keywords."""
    return build_combined_system(default_gen_dynamics(**gen), m, d)


def spectral_abscissa(ss: StateSpace) -> float:
    return float(np.max(np.linalg.eigvals(ss.a).real))


HURWITZ_ABSCISSA = -1e-9  # every eigenvalue of a Hurwitz grid has real part below it


def is_hurwitz(ss: StateSpace) -> bool:
    """True iff every eigenvalue of a has real part below HURWITZ_ABSCISSA:
    the one stability test of one_norm, simulate and certify."""
    return spectral_abscissa(ss) < HURWITZ_ABSCISSA


class OneNormResult(NamedTuple):
    value: float
    tail_bound: float
    t_max: float


ONE_NORM_TOL = 1e-8  # one_norm's error bound: the tail beyond t_max is at most half of it


def one_norm(ss: StateSpace) -> OneNormResult:
    """Integral of |g(t)| = |c expm(a t) b| over [0, inf).

    In the modal form (ss.modes), g(t) = Re sum_k r_k exp(lam_k t) with
    r = (c V) * (V^-1 b), so g integrates exactly: over [s, s + w],
    Re sum_k r_k exp(lam_k s) expm1(lam_k w) / lam_k. The value on
    [0, t_max] is the sum of the absolute integrals between consecutive sign
    changes of g. g is the output c x of the held flow from x = b with the
    input at 0 (ModalFlow), so CrossingWalk finds the sign changes with the
    certificate of the event search, negating its excess at each one. The
    tail beyond t_max is bounded by sum_k |r_k| exp(Re lam_k t_max) /
    |Re lam_k|; t_max, from 10 / |max Re eigenvalue|, is doubled until that
    bound is at most ONE_NORM_TOL / 2 (read at each call).
    """
    tol = ONE_NORM_TOL
    alpha = spectral_abscissa(ss)
    if not is_hurwitz(ss):
        raise GridModelError(f"system is not Hurwitz (spectral abscissa {alpha:.3e})")
    modes = require_modes(ss)
    lam = modes.lam
    r = (ss.c @ modes.v) * modes.v_inv_b
    weight = np.abs(r) / -lam.real  # 1-norm of mode k from 0 on
    t_max = 10.0 / -alpha
    for _ in range(80):
        tail = float(np.sum(weight * np.exp(lam.real * t_max)))
        if tail <= tol / 2:
            break
        t_max *= 2.0
    else:
        raise GridModelError("tail bound did not reach tol/2; system too weakly damped")
    flow = ModalFlow(ss, t_max)
    z = flow.enter(ss.b, 0.0)
    z_end = flow.advance(z, t_max)
    # excess -|g| at 0, so the walk starts disabled
    sign = -1.0 if flow.omega(z) > 0 else 1.0
    walk = CrossingWalk(flow, lambda g: sign * g)
    e_start, e_end = walk.excess(flow.omega(z)), walk.excess(flow.omega(z_end))
    zeros = [tau for tau, _ in walk.crossings(z, e_start, t_max, e_end, z_end)]
    edges = np.concatenate(([0.0], zeros, [t_max]))
    pieces = np.exp(np.outer(edges[:-1], lam)) * np.expm1(np.outer(np.diff(edges), lam))
    value = float(np.sum(np.abs((pieces @ (r / lam)).real)))
    return OneNormResult(value=value, tail_bound=tail, t_max=t_max)


def transition(ss: StateSpace, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact discretization x(t+dt) = phi @ x(t) + psi * u for constant u:
    phi = expm(a dt) and psi = (integral of expm(a s) ds over [0, dt]) @ b are
    blocks of the augmented-matrix exponential expm([[a, b], [0, 0]] dt), which
    needs no modal form and no invertible a. It shares nothing with
    ModalFlow's eigendecomposition, so it is the reference for it."""
    if dt < 0:
        raise GridModelError(f"dt must be nonnegative, got {dt}")
    from scipy.linalg import expm

    dim = ss.dim
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim] = np.column_stack((ss.a, ss.b))
    e = expm(aug * dt)
    return e[:dim, :dim], e[:dim, dim]


class TransitionCache:
    """transition at a cadence step: the cadence step's (phi, psi), computed
    once, and every other step length's computed fresh. No command reaches
    it: it stays while the benchmark's traced runs wrap TransitionCache.get,
    and goes when they drop that wrap."""

    def __init__(self, ss: StateSpace, step: float):
        self.ss = ss
        self.step = step
        self._cadence = transition(ss, step)

    def get(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        return self._cadence if dt == self.step else transition(self.ss, dt)


# ModalFlow's methods, unrolled over the kept modes k (z[k] their entries of
# z): hold (the same state under the input u), advance, omega, slope (omega'),
# and envelope and curvature, bounds on |omega| and |omega''| from z on while
# the input is held (hypot, unlike abs(), is inf past the largest double). The
# constants: l lam, e the cadence's exp, n z_unit, w the output row, s = w lam.
_MODAL_METHODS = """
def hold(z, u):
    du, flow.u, flow.omega_inf = u - flow.u, u, u * omega_unit
    return ({hold},) if du else z
def advance(z, dt):
    return ({cadence},) if dt == step else ({flow},)
def omega(z):
    return flow.omega_inf + ({omega})
def slope(z):
    return {slope}
def envelope(z):
    return abs(flow.omega_inf) + {envelope}
def curvature(z):
    return {curvature}
"""
_MODAL_TERMS = {  # field: (term, separator)
    "hold": ("z[{k}] - du * n{k}", ", "), "cadence": ("z[{k}] * e{k}", ", "),
    "flow": ("z[{k}] * exp{k}(l{k} * dt)", ", "),
    "omega": ("(w{k} * z[{k}]).real", " + "), "slope": ("(s{k} * z[{k}]).real", " + "),
    "envelope": ("a{k} * hypot(z[{k}].real, z[{k}].imag)", " + "),
    "curvature": ("m{k} * hypot(z[{k}].real, z[{k}].imag)", " + "),
}
_compiled = cache(partial(compile, filename="<ModalFlow>", mode="exec"))


class ModalFlow:
    """The grid state over passes of held input, in the real modal form.

    With the input held at u the state decays to x_inf = u * x_unit, x_unit =
    -a^-1 b, and each coordinate of V^-1 (x - x_inf) evolves as exp(lam t).
    z is a tuple of Python numbers: one complex per conjugate pair (Im lam >
    0, weighted x2 in every output sum) and one float per real mode (its row
    of V^-1 is real up to rounding). The held input u is kept here; every
    other method takes z, and the states x_inf + Re(V z) are built only for
    the recorded samples (states). The per-mode methods are compiled once per
    mode count and bound to the flow: each call is one Python call. Since z
    carries x - u * x_unit, a state's absolute error scales with the larger
    of |x| and |u| |x_unit|, not with |x| alone.
    """

    def __init__(self, ss: StateSpace, step: float):
        modes = require_modes(ss)
        keep = modes.lam.imag >= 0
        self.real = (modes.lam.imag[keep] == 0).tolist()
        self.v = modes.v[:, keep] * np.where(self.real, 1.0, 2.0)
        self.v_inv = modes.v_inv[keep]
        self.x_unit = -(modes.v @ (modes.v_inv_b / modes.lam)).real
        self.omega_unit = float(ss.c @ self.x_unit)
        self.u = self.omega_inf = 0.0
        namespace = dict(flow=self, step=step, omega_unit=self.omega_unit, hypot=math.hypot)
        kept = (modes.lam[keep], ss.c @ self.v, self.v_inv @ self.x_unit,
                ss.c @ ss.a @ ss.a @ self.v)
        for k, (real, lam, w, n, q) in enumerate(zip(self.real, *map(self.scalars, kept))):
            exp = math.exp if real else cmath.exp
            # |omega''| <= sum_k m_k |z_k|, since Re lam < 0, with m the larger
            # of |w| |lam|^2 (the modal omega's) and |c a^2 v| (the state's,
            # omega'' = c a^2 (x - x_inf)): they differ by rounding, but where
            # eig drops a tiny entry of a, w is 0 and c a^2 v is not
            row = dict(l=lam, exp=exp, e=exp(lam * step), n=n, w=w, s=w * lam, a=abs(w),
                       m=max(abs(w) * abs(lam) ** 2, abs(q)))
            namespace.update((f"{name}{k}", value) for name, value in row.items())
        fields = {name: sep.join(term.format(k=k) for k in range(len(self.real)))
                  for name, (term, sep) in _MODAL_TERMS.items()}
        # the methods' defs bind them on the flow
        exec(_compiled(_MODAL_METHODS.format(**fields)), namespace, vars(self))

    def scalars(self, z: np.ndarray) -> tuple:
        """The kept modes' entries of z: a float per real mode, else complex."""
        return tuple(zk.real if r else zk for zk, r in zip(z.tolist(), self.real))

    def enter(self, x: np.ndarray, u: float) -> tuple:
        """z of the state x with the input held at u."""
        self.u, self.omega_inf = u, u * self.omega_unit
        return self.scalars(self.v_inv @ (x - u * self.x_unit))

    def states(self, zs, us) -> np.ndarray:
        """The (samples, dim) states x of the recorded z and inputs; an
        overflowing one is non-finite, without a warning."""
        k = len(self.real)
        z = np.fromiter(chain.from_iterable(zs), complex, len(zs) * k).reshape(-1, k)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.multiply.outer(us, self.x_unit) + (z @ self.v.T).real


# Hz: an enabled probe this close to its frequency level, the rounding level of
# omega, ends the event search
_OVERSHOOT = 1e-15


def locate_crossing(
    flow, z: tuple, excess, lo: float, g_lo: float, hi: float, g_hi: float, z_hi: tuple
):
    """(tau, state at tau, probes) for the held-input flow from the grid state
    z of flow, given a bracket [lo, hi] of tau: excess is g_lo < 0 at lo and
    g_hi >= 0 at hi, where the state is z_hi. At tau in (lo, hi] the jump is
    enabled, with omega at most _OVERSHOOT past its level, or tau is the
    first double at which it is.

    Modified regula falsi on the bracket, aimed at the middle of the accepted
    window: the Illinois method (Dowell & Jarratt, BIT 11, 168, 1971) with
    the Anderson-Bjorck scaling of the kept end (BIT 13, 253, 1973). Each
    probe is the exact flow flow.advance(z, tau), a few float operations per
    mode, and its omega is the one the state it returns has.
    """
    if g_hi <= _OVERSHOOT:
        return hi, z_hi, 0
    aim = 0.5 * _OVERSHOOT
    g_lo -= aim
    g_hi -= aim
    side = probes = 0
    while True:
        tau = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
            if not lo < tau < hi:
                return hi, z_hi, probes
        z_tau = flow.advance(z, tau)
        g_tau = excess(flow.omega(z_tau))
        probes += 1
        if 0 <= g_tau <= _OVERSHOOT:
            return tau, z_tau, probes
        g = g_tau - aim
        # when the same end moves twice running, the kept end's value shrinks
        if g > 0:
            if side > 0:
                scale = 1.0 - g / g_hi
                g_lo *= scale if scale > 0 else 0.5
            hi, g_hi, z_hi, side = tau, g, z_tau, 1
        else:
            if side < 0:
                scale = 1.0 - g / g_lo
                g_hi *= scale if scale > 0 else 0.5
            lo, g_lo, side = tau, g, -1


class CrossingWalk:
    """The sign changes of excess(omega) along the held-input flow of a grid
    state, in time order, each certified to be the next one. A state is
    enabled where excess >= 0; probes counts the flow evaluations so far.

    An interval [lo, hi] with a disabled start is judged from the state at
    lo, from which on |omega''| <= M2 (flow.curvature):
    - it holds no sign change if its end is disabled too and
      max(e_lo, e_hi) + M2 h^2 / 8 < 0, since each branch of excess is omega
      minus a level, or a level minus omega;
    - it holds exactly one if its end is enabled and omega is monotone on it,
      |omega'(lo)| >= M2 h (flow.slope): the branch enabled at hi then rises
      through 0 once, and the other one falls;
    - any other interval is halved, the nearer half first, down to the last
      double.
    The first interval that holds a sign change is cut by locate_crossing.

    The first sign change is the event search's; after one, the walk goes on
    from the end of its interval with excess negated, which for an excess of
    one branch (the 1-norm's impulse response) yields every later sign change
    in turn.
    """

    def __init__(self, flow, excess):
        self.flow = flow
        self.excess = excess
        self.probes = 0

    def crossings(self, z: tuple, e_start: float, end: float, e_end: float, z_end: tuple):
        """Yield (tau, state at tau) at each sign change over (0, end] of the
        flow from the grid state z, whose excess is e_start < 0; the excess
        at end is e_end and the state z_end."""
        flow = self.flow
        excess, negated = self.excess, lambda omega: -self.excess(omega)
        lo, e_lo, z_lo = 0.0, e_start, z
        # a curvature bound from an earlier state holds from lo on too, so it
        # is renewed only when a test fails; |omega'(lo)| when first needed
        m2, renewed, slope = flow.curvature(z), True, None
        pending = [(end, e_end, z_end)]  # right ends still to reach, the nearest last
        while pending:
            hi, e_hi, z_hi = pending[-1]
            h = hi - lo
            if e_hi < 0:
                certified = max(e_lo, e_hi) + m2 * h**2 / 8 < 0
            else:
                slope = abs(flow.slope(z_lo)) if slope is None else slope
                certified = slope >= m2 * h
            mid = 0.5 * (lo + hi)
            if not certified and lo < mid < hi:
                if not renewed:
                    m2, renewed = flow.curvature(z_lo), True
                    continue
                z_mid = flow.advance(z, mid)
                pending.append((mid, excess(flow.omega(z_mid)), z_mid))
                self.probes += 1
                continue
            pending.pop()
            if e_hi >= 0:
                tau, z_tau, probes = locate_crossing(flow, z, excess, lo, e_lo, hi, e_hi, z_hi)
                self.probes += probes
                yield tau, z_tau
                excess, negated, e_hi = negated, excess, -e_hi
                pending = [(t, -e, z_t) for t, e, z_t in pending]
            lo, e_lo, z_lo, renewed, slope = hi, e_hi, z_hi, False, None
