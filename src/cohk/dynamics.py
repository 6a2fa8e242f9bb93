"""Quantum dynamics as classical motion of coherent-state labels.

Oscillator generators integrate exactly in flow_exact, the package's one
exact flow: one block exponential per time, broadcast over the labels.  Label
fields integrate with fixed-step RK4 (propagate_ode), whose oscillator stages
are each one product of the homogeneous label [z, 1] with the block generator.

Classical Hamiltonians follow the Euler-Lagrange equation of the coherent
action in the complex chart.  With M(X, Y) = L_X R_Y K(z, z) = X* Hm Y for
the Hermitian mixed matrix Hm(z), it reads

    i hbar Hm(z) z' = dH/dconj(z) = g,   g = (w[0::2] + i w[1::2]) / 2,

where w is the central-difference gradient of H over the real coordinates
[Re c0, Im c0, Re c1, ...].  Each stage solves it from one eigh of Hm,
which also decides degeneracy (_form_eigh): the form is degenerate unless
every eigenvalue is finite and 0 < lambda_min, lambda_max < 1e12 lambda_min.

symplectic_matrix keeps the realified 2-form, the real antisymmetric
matrix A[a, b] = 2 Im M(E_a, E_b); Poisson brackets are
df^T A^{-1} dg / hbar.  A = -2 S J, where S is Hm acting on the real
coordinates and J is multiplication by i there, which is orthogonal.  So
for positive definite Hm, cond(A) = lambda_max / lambda_min, and
symplectic_matrix makes the same eigenvalue test instead of an SVD of A.
Spaces with real charts (euclidean, reciprocal) have A = 0 identically and
raise the degeneracy error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import MAX_SIZE, DegenerateFormError, DomainError
from .catalog import fd_LR, one_form_theta
from .fock import _block_exp, gen_block

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
    """Labels at uniform times, stacked in the space's ``stack`` form: an
    ``(n, m)`` array on vector charts, ``(n,)`` on scalar charts."""

    times: np.ndarray
    points: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.points)


@dataclass
class AutocorrSeries:
    """Uniform samples of K_t(z, z') = K(z, psi(t))."""

    t0: float
    dt: float
    values: np.ndarray
    z: np.ndarray = None
    zp: np.ndarray = None
    hbar: float = 1.0

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(len(self.values))


@dataclass
class HamiltonianSpec:
    """One of: an oscillator generator, a label field F(t, z) with
    i hbar z' = F, or a classical scalar H(z).

    F gets one label per call, in the space's own form (a complex or real
    scalar on scalar charts).  So does H, unless ``stacked`` declares that
    it broadcasts over labels stacked along leading axes, as
    ``CoherentSpace.kernel`` does, returning one value per label; the
    integrators then call it once on a whole gradient stencil or
    trajectory.
    """

    gen: object = None
    F: object = None
    H: object = None
    hbar: float = 1.0
    stacked: bool = False

    def __post_init__(self):
        if self.hbar <= 0:
            raise DomainError("hbar must be positive")
        if sum(x is not None for x in (self.gen, self.F, self.H)) != 1:
            raise DomainError("specify exactly one of gen, F, H")


# ---------------------------------------------------------------------------
# exact oscillator flow


def flow_exact(gen, t, z, hbar=1.0):
    """Labels at times t of the flow exp(-i t H / hbar) for H = dGamma(gen).

    The result has the broadcast shape of ``t.shape`` and ``z.shape[:-1]``,
    plus the coordinate axis.  One ``_block_exp`` call exponentiates
    -i t gen / hbar for each entry of ``t``; the affine action applies it, so
    a label gets the same bits in any stack.  Cases whose exponential
    overflows, and only those, flow in two halves, up to 40 times over; a
    flow whose labels overflow raises DomainError naming t.
    """
    return _flow(gen, np.asarray(t, dtype=float), np.asarray(z, dtype=complex), hbar, 0)


def _affine(M, z):
    """The affine action [rho + z0 + p* zhat, q + X zhat] of the blocks
    M = [[1, p*, rho], [0, X, q], [0, 0, 1]] on the labels z, broadcast."""
    zh = z[..., 1:]
    out = np.empty(np.broadcast_shapes(M.shape[:-2], z.shape[:-1]) + z.shape[-1:], complex)
    out[..., 0] = M[..., 0, -1] + z[..., 0] + np.vecdot(np.conj(M[..., 0, 1:-1]), zh)
    out[..., 1:] = M[..., 1:-1, -1] + (M[..., 1:-1, 1:-1] @ zh[..., None])[..., 0]
    return out


def _flow(gen, t, z, hbar, depth):
    """flow_exact at split depth ``depth``: t is 2^-depth times the time asked for."""
    # t / hbar first, a real division, as Python's complex -1j * t / hbar
    # divides each part; numpy's complex division multiplies by 1 / hbar
    M = _block_exp(gen, -1j * (t / hbar))
    ok = np.isfinite(M.view(float)).all(axis=(-2, -1))
    if ok.all():
        out = _affine(M, z)
    else:
        # every case on its own, so the overflowing ones split alone
        shape = np.broadcast_shapes(t.shape, z.shape[:-1])
        t, ok = (np.broadcast_to(a, shape) for a in (t, ok))
        M = np.broadcast_to(M, shape + M.shape[-2:])
        z = np.broadcast_to(z, shape + z.shape[-1:])
        bad = ~ok
        if depth >= 40:
            raise DomainError(f"the flow of this generator overflows at "
                              f"t={t[bad][0] * 2 ** depth:g} even after step splitting")
        out = np.empty(z.shape, complex)
        out[ok] = _affine(M[ok], z[ok])
        half = _flow(gen, t[bad] / 2.0, z[bad], hbar, depth + 1)
        out[bad] = _flow(gen, t[bad] / 2.0, half, hbar, depth + 1)
    finite = np.isfinite(out.view(float)).all(axis=-1)
    if not finite.all():
        t_bad = np.broadcast_to(t, finite.shape)[~finite][0] * 2 ** depth
        raise DomainError(f"the flow of this generator overflows at t={t_bad:g}")
    return out


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


def _coords(z):
    """The label as a complex coordinate array, and whether it was a scalar."""
    return np.atleast_1d(np.asarray(z, dtype=complex)), np.ndim(z) == 0


def _from_coords(space, arr, scalar):
    if scalar:
        c = complex(arr[0])
        return c.real if not space.complex_chart else c
    if space.complex_chart:
        return np.asarray(arr, dtype=complex)
    return np.asarray(arr).real.copy()


def _stacked_values(H, Z, shape):
    """Values of the stacked H on the labels Z, which stack along ``shape``.
    A result of any other shape raises TypeError: numpy would broadcast it
    into wrong values, and a malformed spec is not a label leaving the
    domain, so ``propagate_ode`` does not turn it into an aborted run."""
    vals = np.asarray(H(Z), dtype=complex)
    if vals.shape != shape:
        raise TypeError(f"stacked H returned shape {vals.shape} for labels "
                        f"stacked as {shape}")
    return vals


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

    The loop runs on one chart-coordinate array; labels in the space's own
    form are made only for ``F``, ``H`` and the per-step ``validate``.
    Oscillator specs step homogeneous labels [z, 1], so each stage is one
    product with the transposed block generator -(i/hbar) gen_block(gen).
    Classical specs use the Euler-Lagrange field (see el_integrate).  If a
    step leaves the space's domain the trajectory is returned truncated at
    the last valid point, with meta["aborted"] set.  The points are one
    array that owns its data, filled row by row with the validated labels;
    a truncated trajectory is a copy of the rows it reached.
    """
    if dt <= 0 or t_end < 0:
        raise DomainError("need dt > 0 and t_end >= 0")
    steps = t_end / dt  # may overflow to inf, so compared before rounding
    if steps > MAX_SIZE + 0.5:
        raise DomainError(f"{steps:.3g} steps for t_end={t_end:g}, dt={dt:g}; "
                          f"the most allowed is {MAX_SIZE}")
    n_steps = int(round(steps))
    z0 = space.validate(z0)
    y, scalar = _coords(z0)
    m = len(y)  # label slots of y
    if ham.gen is not None:
        Mt = (-(1j / ham.hbar) * gen_block(ham.gen)).T
        y = np.append(y, 1.0)

        def f(t, y):
            return y @ Mt
    elif ham.F is not None:
        def f(t, y):
            return np.atleast_1d(np.asarray(ham.F(t, _from_coords(space, y, scalar)),
                                            dtype=complex))
    else:
        def f(t, y):
            return _el_velocity(space, ham.H, y, scalar, ham.hbar, stacked=ham.stacked)

    # np.empty commits memory only for the rows a run reaches
    points = np.empty((n_steps + 1,) + np.shape(z0), dtype=np.asarray(z0).dtype)
    points[0] = z0
    meta = {"integrator": "rk4", "dt": dt, "aborted": False}
    for i in range(n_steps):
        try:
            y = _rk4_step(f, i * dt, y, dt)
            points[i + 1] = space.validate(_from_coords(space, y[:m], scalar))
        except DomainError as err:
            meta["aborted"] = True
            meta["reason"] = str(err)
            points = points[: i + 1].copy()
            break
    times = dt * np.arange(len(points))
    return Trajectory(times, points, meta)


def autocorrelation(space, z, traj):
    """K_t(z, z') sampled along a trajectory of z'."""
    Z = np.asarray(traj.points)
    zz = space.stack([z])[0]
    vals = np.asarray(space.kernel(zz, Z), dtype=complex)
    dt = float(traj.times[1] - traj.times[0]) if len(traj) > 1 else 0.0
    return AutocorrSeries(float(traj.times[0]), dt, vals, z=zz, zp=Z[0])


# ---------------------------------------------------------------------------
# symplectic structure


@lru_cache(maxsize=None)
def _basis_pairs(m, scalar):
    """Chart basis E stacked as the pairs (E_a, E_b) of every matrix entry,
    for m coordinates (one scalar label if scalar).  Built once per chart
    and shared, hence read-only."""
    E = np.eye(m, dtype=complex)
    if scalar:
        E = E[0]
    X, Y = E[:, None], E[None]
    X.flags.writeable = Y.flags.writeable = False
    return X, Y


def _mixed_matrix(space, z):
    """Hm[a, b] = L_{E_a} R_{E_b} K(z, z) over the chart basis E: one
    mixed_form call on the stacked basis pairs, or one stacked fd_LR call
    where the space has no closed geometry at z."""
    X, Y = _basis_pairs(space.coord_len, space.scalar_chart)
    if space.has_closed_geometry(z):
        return space.mixed_form(z, X, Y)
    return fd_LR(space, z, X, Y)


def _real_chart_error(space):
    return DegenerateFormError(f"coherent 2-form vanishes identically on {space.space_id}")


def _form_eigh(space, z):
    """Hm at z and eigh of S = Hm + Hm* (the FD oracle's Hm need not be
    Hermitian, and eigh reads one triangle): the one degeneracy test, which
    the module docstring states."""
    if not space.complex_chart:
        raise _real_chart_error(space)
    Hm = _mixed_matrix(space, z)
    S = Hm + Hm.conj().T
    if np.isfinite(S).all():
        lam, V = np.linalg.eigh(S)
        if np.isfinite(lam).all() and 0.0 < lam[0] and lam[-1] < 1e12 * lam[0]:
            return Hm, lam, V
    raise DegenerateFormError(f"coherent 2-form degenerate at z = {z!r}")


def symplectic_matrix(space, z):
    """Real antisymmetric matrix of the coherent 2-form in realified
    coordinates; raises DegenerateFormError when numerically singular."""
    H = _form_eigh(space, z)[0]
    D, Dh = _realifier(space.coord_len)
    return 2.0 * np.imag(Dh @ H @ D)


def _grad(space, f, arr, scalar, h=None, stacked=False):
    """Central-difference gradient of f in realified coordinates, at chart
    coordinates arr: the 2 * 2m stencil labels are built as one array, and
    f is called once on it if ``stacked``, else once per label."""
    if h is None:
        h = 1e-6 * max(1.0, float(np.linalg.norm(arr)))
    steps = h * _real_basis(space)
    stencil = np.concatenate([arr + steps, arr - steps])
    if stacked:  # only the EL field passes it, and only on complex charts
        vals = _stacked_values(f, stencil[:, 0] if scalar else stencil, stencil.shape[:1])
    else:
        vals = np.array([complex(f(_from_coords(space, y, scalar))) for y in stencil])
    n = len(steps)
    return (vals[:n] - vals[n:]) / (2.0 * h)


def _el_velocity(space, H, y, scalar, hbar, h=None, stacked=False):
    """Chart velocity of the Euler-Lagrange field at chart coordinates y:
    z' = -(i/hbar) Hm^{-1} g with g = (w[0::2] + i w[1::2]) / 2, solved as
    (Hm + Hm*)^{-1} (2 g) from one eigendecomposition that also decides
    degeneracy (see the module docstring)."""
    _, lam, V = _form_eigh(space, _from_coords(space, y, scalar))
    w = _grad(space, H, y, scalar, h, stacked)
    g2 = w[0::2] + 1j * w[1::2]
    return (-1j / hbar) * (V @ ((V.conj().T @ g2) / lam))


def hamiltonian_vector_field(space, H, z, hbar=1.0, grad_h=None):
    """Euler-Lagrange field z' = -(i/hbar) Hm^{-1} dH/dconj(z) at z, as a
    chart tangent vector."""
    arr, scalar = _coords(z)
    v = _el_velocity(space, H, arr, scalar, hbar, grad_h)
    return complex(v[0]) if scalar else v


def poisson_bracket(space, f, g, z, hbar=1.0, grad_h=None):
    """{f, g}(z) = df^T A^{-1} dg / hbar.

    Evaluated in the explicitly antisymmetrized form
    (df . A^{-1} dg - dg . A^{-1} df) / 2, so that swapping f and g
    negates the result exactly, not just up to solver rounding.
    """
    A = symplectic_matrix(space, z).astype(complex)
    arr, scalar = _coords(z)
    df = _grad(space, f, arr, scalar, h=grad_h)
    dg = _grad(space, g, arr, scalar, h=grad_h)
    xg = np.linalg.solve(A, dg)
    xf = np.linalg.solve(A, df)
    return (complex(df @ xg) - complex(dg @ xf)) / (2.0 * hbar)


def el_integrate(space, ham, z0, t_end, dt):
    """Integrate the coherent Euler-Lagrange equation i hbar Hm z' = dH/dconj(z)
    with RK4, assembling Hm and the gradient at every stage."""
    if ham.H is None:
        raise DomainError("el_integrate needs a classical Hamiltonian")
    return propagate_ode(space, ham, z0, t_end, dt)


def df_action(traj, ham, space):
    """Trapezoidal action integral of L = i hbar theta(z') - H(z).

    The velocity comes from centered differences of the stored points
    (second-order one-sided at the ends), so the action is a functional of
    the trajectory alone.  theta is one call on the whole trajectory, and
    so is H if the spec declares it stacked; otherwise H gets one label per
    call.
    """
    if ham.H is None:
        raise DomainError("df_action needs a classical Hamiltonian")
    n = len(traj.points)
    if n < 100:
        raise DomainError("trajectory too coarse for the action integral")
    dt = float(traj.times[1] - traj.times[0])
    Z = np.asarray(traj.points)
    coords = np.asarray(Z, dtype=complex).reshape(n, -1)
    vel = np.empty_like(coords)
    vel[1:-1] = (coords[2:] - coords[:-2]) / (2.0 * dt)
    vel[0] = (-3.0 * coords[0] + 4.0 * coords[1] - coords[2]) / (2.0 * dt)
    vel[-1] = (3.0 * coords[-1] - 4.0 * coords[-2] + coords[-3]) / (2.0 * dt)

    th = one_form_theta(space, Z, vel.reshape(Z.shape))
    if ham.stacked:
        energy = _stacked_values(ham.H, Z, (n,))
    else:
        energy = np.array([complex(ham.H(z)) for z in traj.points])
    lag = 1j * ham.hbar * th - energy
    return complex(np.trapezoid(lag, dx=dt))
