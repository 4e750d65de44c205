"""Linear grid frequency dynamics: swing equation plus generation state space.

State convention: x = (omega, x_hat) with omega the frequency deviation in Hz
and x_hat the generation states. Power quantities are per-unit on the
scenario-declared base; M and D carry matching units (pu*s/Hz and pu/Hz).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm


class GridModelError(ValueError):
    pass


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

    a: np.ndarray  # (n+1, n+1)
    b: np.ndarray  # (n+1,)
    c: np.ndarray  # (n+1,)
    m: float
    d: float
    n: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=float).reshape(-1)
        dim = self.n + 1
        if a.shape != (dim, dim) or b.shape != (dim,) or c.shape != (dim,):
            raise GridModelError(
                f"inconsistent state-space dimensions for n={self.n}: "
                f"a {a.shape}, b {b.shape}, c {c.shape}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        for arr in (self.a, self.b, self.c):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.n + 1

    @cached_property
    def modes(self) -> Modes | None:
        """Modal decomposition of a, computed once. None where the modal forms
        do not apply: a is defective, its eigenvectors are too ill-conditioned,
        or it has a zero eigenvalue (transition divides by each one)."""
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


def build_combined_system(gen: GenDynamics, m: float, d: float) -> StateSpace:
    """Assemble the combined (omega, x_hat) system from generation dynamics
    and the swing equation parameters.

    Block structure: a = [[(d_hat - d)/m, c_hat/m], [b_hat, a_hat]],
    b = [-1/m, 0...], c = [1, 0...].
    """
    if m <= 0:
        raise GridModelError(f"inertia m must be positive, got {m}")
    if d <= 0:
        raise GridModelError(f"damping d must be positive, got {d}")
    n = gen.n
    a = np.zeros((n + 1, n + 1))
    a[0, 0] = (gen.d_hat - d) / m
    a[0, 1:] = gen.c_hat / m
    a[1:, 0] = gen.b_hat
    a[1:, 1:] = gen.a_hat
    b = np.zeros(n + 1)
    b[0] = -1.0 / m
    c = np.zeros(n + 1)
    c[0] = 1.0
    return StateSpace(a=a, b=b, c=c, m=float(m), d=float(d), n=n)


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


def default_grid(
    m: float = 10.0,
    d: float = 1.0,
    t_g: float = 5.0,
    k_p: float = 20.0,
    k_i: float = 1.0,
) -> StateSpace:
    return build_combined_system(default_gen_dynamics(t_g, k_p, k_i), m, d)


def spectral_abscissa(ss: StateSpace) -> float:
    return float(np.max(np.linalg.eigvals(ss.a).real))


def is_hurwitz(ss: StateSpace, tol: float = 1e-9) -> bool:
    """True iff every eigenvalue of a has real part < -tol."""
    return spectral_abscissa(ss) < -tol


def equilibrium_frequency(ss: StateSpace, u_const: float) -> float:
    """Steady-state frequency deviation for constant input u_const.

    Solves 0 = a x* + b u_const and returns omega* = x*[0]. A value away
    from zero flags that the model lacks secondary (integral) control.
    """
    try:
        x_star = np.linalg.solve(ss.a, -ss.b * u_const)
    except np.linalg.LinAlgError as exc:
        raise GridModelError("a is singular; equilibrium is not unique") from exc
    return float(x_star[0])


class OneNormResult(NamedTuple):
    value: float
    tail_bound: float
    t_max: float

    def __float__(self) -> float:
        return self.value


def _impulse_response(ss: StateSpace):
    """Return g(t) = c @ expm(a t) @ b, in modal form when ss.modes exists,
    else through expm."""
    modes = ss.modes
    if modes is None:
        def g(t: float) -> float:
            return float(ss.c @ expm(ss.a * t) @ ss.b)
    else:
        c_v = ss.c @ modes.v

        def g(t: float) -> float:
            return float(np.real(np.sum(c_v * np.exp(modes.lam * t) * modes.v_inv_b)))
    return g


def one_norm(ss: StateSpace, t_max: float | None = None, tol: float = 1e-8) -> OneNormResult:
    """Integral of |c expm(a t) b| over [0, inf).

    Adaptive quadrature on [0, t_max] plus an exponential-decay tail bound
    norm(c) * norm(expm(a t_max)) * norm(b) / |max Re eigenvalue|; t_max is
    doubled until the tail bound is at most tol/2.
    """
    if tol <= 0:
        raise GridModelError(f"tol must be positive, got {tol}")
    alpha = spectral_abscissa(ss)
    if alpha >= 0:
        raise GridModelError(
            f"system is not Hurwitz (spectral abscissa {alpha:.3e}); the 1-norm "
            "integral may diverge"
        )
    decay = -alpha
    norm_c = float(np.linalg.norm(ss.c))
    norm_b = float(np.linalg.norm(ss.b))
    if t_max is None:
        t_max = 10.0 / decay
    tail = np.inf
    for _ in range(80):
        phi_norm = float(np.linalg.norm(expm(ss.a * t_max), 2))
        tail = norm_c * phi_norm * norm_b / decay
        if tail <= tol / 2:
            break
        t_max *= 2.0
    else:
        raise GridModelError("tail bound did not reach tol/2; system too weakly damped")
    g = _impulse_response(ss)
    value, _ = quad(lambda t: abs(g(t)), 0.0, t_max, epsabs=tol / 2, limit=2000)
    return OneNormResult(value=float(value), tail_bound=float(tail), t_max=float(t_max))


def transition(ss: StateSpace, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact discretization: x(t+dt) = phi @ x(t) + psi * u for constant u.

    phi = expm(a dt) and psi = (integral of expm(a s) ds over [0, dt]) @ b.
    In modal form phi = V diag(exp(lam dt)) V^-1 and
    psi = V diag(expm1(lam dt) / lam) V^-1 b. Where ss.modes is None, both
    come from the augmented-matrix exponential, which needs no invertibility
    assumption.
    """
    if dt < 0:
        raise GridModelError(f"dt must be nonnegative, got {dt}")
    if dt == 0:
        return np.eye(ss.dim), np.zeros(ss.dim)
    modes = ss.modes
    if modes is None:
        dim = ss.dim
        aug = np.zeros((dim + 1, dim + 1))
        aug[:dim, :dim] = ss.a
        aug[:dim, dim] = ss.b
        e = expm(aug * dt)
        return e[:dim, :dim], e[:dim, dim]
    z = modes.lam * dt
    phi = (modes.v * np.exp(z)) @ modes.v_inv
    psi = modes.v @ (np.expm1(z) / modes.lam * modes.v_inv_b)
    return phi.real, psi.real


def propagate(ss: StateSpace, x: np.ndarray, u_const: float, dt: float) -> np.ndarray:
    """Advance the grid state exactly over dt with input held at u_const."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (ss.dim,):
        raise GridModelError(f"state must have length {ss.dim}, got {x.shape[0]}")
    phi, psi = transition(ss, dt)
    out = phi @ x + psi * u_const
    if not np.all(np.isfinite(out)):
        raise GridModelError("propagation produced a non-finite state")
    return out


class TransitionCache:
    """Caches (phi, psi) per step size for the event loop's repeated steps."""

    def __init__(self, ss: StateSpace, max_entries: int = 64):
        self.ss = ss
        self._cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._max_entries = max_entries

    def get(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        hit = self._cache.get(dt)
        if hit is None:
            hit = transition(self.ss, dt)
            if len(self._cache) < self._max_entries:
                self._cache[dt] = hit
        return hit
