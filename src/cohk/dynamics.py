"""Quantum dynamics as classical motion of coherent-state labels.

Oscillator generators integrate exactly through the block-matrix
exponential (flow_exact); arbitrary label fields integrate with fixed-step
RK4 (propagate_ode).  The symplectic side realifies the complex chart:
with M(X, Y) = L_X R_Y K(z, z) and real coordinates ordered
[Re c0, Im c0, Re c1, ...], the real antisymmetric matrix

    A[a, b] = 2 Im M(E_a, E_b)

represents the coherent 2-form, Hamiltonian fields solve
x' = -(1/hbar) A^{-1} dH, and Poisson brackets are df^T A^{-1} dg / hbar.
Spaces with real charts (euclidean, reciprocal) have A = 0 identically and
raise the degeneracy error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import DegenerateFormError, DomainError
from .catalog import fd_LR
from .fock import gen_block, osc_act, osc_from_block

__all__ = [
    "AutocorrSeries",
    "HamiltonianSpec",
    "Trajectory",
    "autocorrelation",
    "df_action",
    "el_integrate",
    "flow_exact",
    "hamiltonian_vector_field",
    "oscillator_field",
    "poisson_bracket",
    "propagate_ode",
    "symplectic_matrix",
]


@dataclass
class Trajectory:
    times: np.ndarray
    points: list
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.points)


@dataclass
class AutocorrSeries:
    """Uniform samples of K_t(z, z') = K(z, psi(t))."""

    t0: float
    dt: float
    values: np.ndarray
    space_id: str = ""
    z: np.ndarray = None
    zp: np.ndarray = None
    hbar: float = 1.0

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(len(self.values))


@dataclass
class HamiltonianSpec:
    """One of: an oscillator generator, a label field F(t, z) with
    i hbar z' = F, or a classical scalar H(z)."""

    gen: object = None
    F: object = None
    H: object = None
    hbar: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0:
            raise DomainError("hbar must be positive")
        if sum(x is not None for x in (self.gen, self.F, self.H)) != 1:
            raise DomainError("specify exactly one of gen, F, H")


# ---------------------------------------------------------------------------
# exact oscillator flow


def flow_exact(gen, t, z, hbar=1.0, _depth=0):
    """Label at time t of the flow exp(-i t H / hbar) for H = dGamma(gen).

    The block matrix of -i t gen / hbar is exponentiated
    (scaling-and-squaring) and applied through the affine action.  If the
    exponential overflows, the interval is halved recursively.
    """
    from scipy.linalg import expm

    z = np.asarray(z, dtype=complex)
    M = expm((-1j * t / hbar) * gen_block(gen))
    if np.all(np.isfinite(M.view(float))):
        return osc_act(osc_from_block(M), z)
    if _depth >= 40:
        raise ArithmeticError("flow overflow persists after step splitting")
    half = flow_exact(gen, t / 2.0, z, hbar, _depth + 1)
    return flow_exact(gen, t / 2.0, half, hbar, _depth + 1)


def oscillator_field(gen, hbar=1.0):
    """Closed-form label velocity of the oscillator flow:
    dz0 = -i(rho + p* zhat)/hbar, dzhat = -i(q + X zhat)/hbar."""

    def F(t, z):
        z = np.asarray(z, dtype=complex)
        out = np.empty_like(z)
        iota = 1j / hbar
        out[0] = -iota * (gen.rho + np.vdot(gen.p, z[1:]))
        out[1:] = -iota * (gen.q + gen.X @ z[1:])
        return out

    return F


# ---------------------------------------------------------------------------
# chart utilities (realification of points and tangents)


def _coords(space, z):
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    scalar = np.ndim(z) == 0
    return arr, scalar


def _from_coords(space, arr, scalar):
    if scalar:
        c = complex(arr[0])
        return c.real if not space.complex_chart else c
    if space.complex_chart:
        return np.asarray(arr, dtype=complex)
    return np.asarray(arr).real.copy()


def _tangent_from_real(space, x):
    """Real coefficient vector -> chart tangent (complex pairing Re, Im)."""
    if space.complex_chart:
        return x[0::2] + 1j * x[1::2]
    return np.asarray(x, dtype=float)


@lru_cache(maxsize=None)
def _realifier(m):
    """D and D* for m chart coordinates: row j of D sends coordinate j to
    the real slots 2j, 2j + 1.  Built once per chart size and shared,
    hence read-only."""
    eye = np.eye(2 * m)
    D = eye[0::2] + 1j * eye[1::2]
    Dh = D.conj().T
    D.flags.writeable = Dh.flags.writeable = False
    return D, Dh


def _real_basis(space):
    """Chart tangents of the real unit vectors, one per row."""
    if space.complex_chart:
        return _realifier(space.coord_len)[0].T
    return np.eye(space.coord_len)


# ---------------------------------------------------------------------------
# RK4 propagation


def _rk4_step(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + dt / 2.0, y + dt / 2.0 * k1)
    k3 = f(t + dt / 2.0, y + dt / 2.0 * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate_ode(space, ham, z0, t_end, dt):
    """Fixed-step RK4 on the label field of ``ham``.

    Oscillator specs use their closed-form field; classical specs use the
    Hamiltonian field (see el_integrate).  If a step leaves the space's
    domain the trajectory is returned truncated at the last valid point,
    with meta["aborted"] set.
    """
    if dt <= 0 or t_end < 0:
        raise DomainError("need dt > 0 and t_end >= 0")
    if ham.gen is not None:
        f = oscillator_field(ham.gen, ham.hbar)
    elif ham.F is not None:
        f = ham.F
    else:
        f = _classical_field(space, ham)

    n_steps = int(round(t_end / dt))
    z0 = space.validate(z0)
    arr, scalar = _coords(space, z0)

    def fc(t, y):
        pt = _from_coords(space, y, scalar)
        return np.atleast_1d(np.asarray(f(t, pt), dtype=complex))

    points = [z0]
    meta = {"integrator": "rk4", "dt": dt, "aborted": False}
    y = arr.astype(complex)
    for i in range(n_steps):
        try:
            y = _rk4_step(fc, i * dt, y, dt)
            pt = space.validate(_from_coords(space, y, scalar))
        except DomainError as err:
            meta["aborted"] = True
            meta["reason"] = str(err)
            break
        points.append(pt)
    times = dt * np.arange(len(points))
    return Trajectory(times, points, meta)


def autocorrelation(space, z, traj):
    """K_t(z, z') sampled along a trajectory of z'."""
    Z = space.stack(traj.points)
    zz = space.stack([z])[0]
    vals = np.asarray(space.kernel(zz, Z), dtype=complex)
    dt = float(traj.times[1] - traj.times[0]) if len(traj) > 1 else 0.0
    return AutocorrSeries(float(traj.times[0]), dt, vals, space.space_id, z=zz, zp=Z[0])


# ---------------------------------------------------------------------------
# symplectic structure


def _mixed_matrix(space, z):
    if hasattr(space, "mixed_matrix"):
        return space.mixed_matrix(z)
    m = space.coord_len
    arr, scalar = _coords(space, z)
    basis = [1.0 + 0j] if scalar else list(np.eye(m, dtype=complex))
    H = np.empty((m, m), dtype=complex)
    use_closed = space.has_closed_geometry(z)
    for a, X in enumerate(basis):
        for b, Y in enumerate(basis):
            if use_closed:
                H[a, b] = space.mixed_form(z, X, Y)
            else:
                H[a, b] = fd_LR(space, z, X, Y)
    return H


def symplectic_matrix(space, z):
    """Real antisymmetric matrix of the coherent 2-form in realified
    coordinates; raises DegenerateFormError when numerically singular."""
    if not space.complex_chart:
        raise DegenerateFormError(
            f"coherent 2-form vanishes identically on {space.space_id}"
        )
    H = _mixed_matrix(space, z)
    D, Dh = _realifier(space.coord_len)
    A = 2.0 * np.imag(Dh @ H @ D)
    if not np.all(np.isfinite(A)) or np.linalg.cond(A) >= 1e12:
        raise DegenerateFormError(f"coherent 2-form degenerate at z = {z!r}")
    return A


def _grad(space, f, z, h=None):
    """Central-difference gradient in realified coordinates."""
    arr, scalar = _coords(space, z)
    if h is None:
        h = 1e-6 * max(1.0, float(np.linalg.norm(arr)))
    basis = _real_basis(space)
    g = np.empty(len(basis), dtype=complex)
    for a, T in enumerate(basis):
        fp = f(_from_coords(space, arr + h * T, scalar))
        fm = f(_from_coords(space, arr + (-h) * T, scalar))
        g[a] = (complex(fp) - complex(fm)) / (2.0 * h)
    return g


def hamiltonian_vector_field(space, H, z, hbar=1.0, grad_h=None):
    """Realified field x' = -(1/hbar) A^{-1} dH at z, returned as a chart
    tangent vector."""
    A = symplectic_matrix(space, z)
    dH = _grad(space, H, z, h=grad_h)
    x = -np.linalg.solve(A.astype(complex), dH) / hbar
    arr, scalar = _coords(space, z)
    tan = _tangent_from_real(space, x)
    return complex(tan[0]) if scalar else tan


def poisson_bracket(space, f, g, z, hbar=1.0, grad_h=None):
    """{f, g}(z) = df^T A^{-1} dg / hbar.

    Evaluated in the explicitly antisymmetrized form
    (df . A^{-1} dg - dg . A^{-1} df) / 2, so that swapping f and g
    negates the result exactly, not just up to solver rounding.
    """
    A = symplectic_matrix(space, z).astype(complex)
    df = _grad(space, f, z, h=grad_h)
    dg = _grad(space, g, z, h=grad_h)
    xg = np.linalg.solve(A, dg)
    xf = np.linalg.solve(A, df)
    return (complex(df @ xg) - complex(dg @ xf)) / (2.0 * hbar)


def _classical_field(space, ham):
    def F(t, z):
        v = hamiltonian_vector_field(space, ham.H, z, ham.hbar)
        return np.atleast_1d(np.asarray(v, dtype=complex))

    return F


def el_integrate(space, ham, z0, t_end, dt):
    """Integrate the coherent Euler-Lagrange equation x' = -A^{-1} dH / hbar
    with RK4, assembling the 2-form and gradient at every stage."""
    if ham.H is None:
        raise DomainError("el_integrate needs a classical Hamiltonian")
    return propagate_ode(space, ham, z0, t_end, dt)


def df_action(traj, ham, space):
    """Trapezoidal action integral of L = i hbar theta(z') - H(z).

    The velocity comes from centered differences of the stored points
    (second-order one-sided at the ends), so the action is a functional of
    the trajectory alone.
    """
    from .catalog import one_form_theta

    if ham.H is None:
        raise DomainError("df_action needs a classical Hamiltonian")
    n = len(traj.points)
    if n < 100:
        raise DomainError("trajectory too coarse for the action integral")
    dt = float(traj.times[1] - traj.times[0])
    coords = np.stack([_coords(space, p)[0] for p in traj.points])
    vel = np.empty_like(coords)
    vel[1:-1] = (coords[2:] - coords[:-2]) / (2.0 * dt)
    vel[0] = (-3.0 * coords[0] + 4.0 * coords[1] - coords[2]) / (2.0 * dt)
    vel[-1] = (3.0 * coords[-1] - 4.0 * coords[-2] + coords[-3]) / (2.0 * dt)

    scalar = np.ndim(traj.points[0]) == 0
    lag = np.empty(n, dtype=complex)
    for i, z in enumerate(traj.points):
        zdot = complex(vel[i][0]) if scalar else vel[i]
        th = one_form_theta(space, z, zdot)
        lag[i] = 1j * ham.hbar * th - complex(ham.H(z))
    return complex(np.trapezoid(lag, dx=dt))
