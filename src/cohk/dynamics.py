"""Quantum dynamics as classical motion of coherent-state labels.

Oscillator generators integrate exactly in flow_exact, the package's one
exact flow: one block exponential per time, broadcast over the labels.  Label
fields integrate with fixed-step RK4 (propagate_ode).  A uniform grid of
oscillator labels, exact or RK4, is built by one doubling loop (_doubling):
the map of s steps carries the first s rows onto the next s, so N steps cost
log2(N) block products instead of N Python steps.  The exact grid takes each
map from flow_exact; the RK4 grid squares the RK4 step map, since one RK4
step of a linear field is a fixed linear map of the homogeneous label [z, 1].
Every integrator, field, gradient and bracket works on labels in the form
``space.validate`` returns: a coordinate vector, or a number on scalar charts.

Classical Hamiltonians follow the Euler-Lagrange equation of the coherent
action in the complex chart.  With M(X, Y) = L_X R_Y K(z, z) = X* Hm Y for
the Hermitian mixed matrix Hm(z), it reads

    i hbar Hm(z) z' = dH/dconj(z) = g.

A spec's closed-form ``dH`` gives g directly.  Without one, g =
(w[0::2] + i w[1::2]) / 2, where w is the central-difference gradient of H
over the real coordinates [Re c0, Im c0, Re c1, ...] (_grad); that stencil
is also the oracle the closed forms are tested against.  Each stage solves
the equation in closed form on klauder (``KlauderSpace.mixed_solve``, whose
Hm = K (P + a a*) Sherman-Morrison inverts) and from one eigh of
S = Hm + Hm* elsewhere (_form_eigh); the eigh path stays as the closed
solve's oracle.  Both give the extreme eigenvalues of S to one degeneracy
test (_nondegenerate): the form is degenerate unless lambda_min and
lambda_max are finite and 0 < lambda_min, 1e-12 lambda_max < lambda_min.
A form that overflows is thus degenerate, and its overflow does not warn:
propagate_ode's loop, hamiltonian_vector_field and symplectic_matrix each
enter numpy's error state once, around all the stages they run.

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

from .core import MAX_SIZE, CoherentSpace, DegenerateFormError, DomainError
from .catalog import _mixed, one_form_theta
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
    """One of: an oscillator generator, a velocity field F(t, z) with
    z' = F, or a classical scalar H(z).

    F gets one label per call, in the form ``space.validate`` returns (a
    number on scalar charts), and returns the velocity in that same form;
    on a real chart a complex velocity gives a complex label, which
    ``validate`` rejects, so the run aborts.  H gets one label per call
    too, unless ``stacked`` declares that it broadcasts over labels stacked
    along leading axes, as ``CoherentSpace.kernel`` does, returning one
    value per label; the integrators then call it once on a whole gradient
    stencil or trajectory.  The optional ``dH`` is H's Wirtinger
    derivative dH/dconj(z), returned in label form with the shape of its
    label (and broadcast like H if ``stacked``); the Euler-Lagrange stages
    use it in place of the finite-difference gradient of H.
    """

    gen: object = None
    F: object = None
    H: object = None
    dH: object = None
    hbar: float = 1.0
    stacked: bool = False

    def __post_init__(self):
        if self.hbar <= 0:
            raise DomainError("hbar must be positive")
        if sum(x is not None for x in (self.gen, self.F, self.H)) != 1:
            raise DomainError("specify exactly one of gen, F, H")
        if self.dH is not None and self.H is None:
            raise DomainError("dH is the derivative of a classical H; give H with it")


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


def _doubling(pts, advance):
    """Fill the rows pts[1:] from pts[0] by doubling; returns how many rows
    were filled.

    ``advance(s, src, dst)`` writes into ``dst`` the rows s steps after the
    rows ``src`` and returns the step count of the next block: 2 s while
    the map of 2 s steps is available, s to go on in blocks of s, or 0 to
    stop.  While doubling, rows [m, 2m) come from rows [0, m), so row k
    sees at most log2(k) maps, and a row's bits do not depend on how many
    rows follow it.
    """
    n, m, s = len(pts), 1, 1
    while m < n and s:
        k = min(s, n - m)
        s_next = advance(s, pts[m - s:m - s + k], pts[m:m + k])
        m, s = m + k, s_next
    return m


def _flow_points(gen, z_start, n_steps, dt, hbar):
    """Labels psi(k dt) for k = 0..n_steps of the exact flow, by doubling.
    Each block is a fresh flow_exact of s dt, exact for s = 2^j, not the
    square of the previous map, which would compound its rounding."""
    pts = np.empty((n_steps + 1, gen.n + 1), dtype=complex)
    pts[0] = z_start

    def advance(s, src, dst):
        dst[...] = flow_exact(gen, s * dt, src, hbar)
        return 2 * s

    _doubling(pts, advance)
    return pts


def _rk4_points(ham, z0, n_steps, dt):
    """Oscillator RK4 labels for k = 0..n_steps, by doubling.

    One RK4 step of y' = y Mt, for the homogeneous label y = [z, 1] and the
    transposed block generator Mt = -(i/hbar) gen_block(gen)^T, is the
    linear map y -> y R with R = I + E_1,
    E_1 = A (I + A (I/2 + A (I/6 + A/24))), A = dt Mt.  Powers are carried
    as R^s = I + E_s, squared as E_2s = 2 E_s + E_s E_s, because squaring
    the rounded R would compound its rounding linearly in the step count.
    The last column of E_s is zero, so a block applies the affine map
    z -> z + z L + e, with L and e the leading block and the last row of
    E_s.  Once E_2s is not finite the rows go on in blocks of s: a zero
    coordinate times an infinite entry would give NaN where single steps
    stay finite.  The fill stops after the first block holding a row that
    is not finite, so only the rows it returns are set.
    """
    A = dt * (-(1j / ham.hbar) * gen_block(ham.gen)).T
    eye = np.eye(len(A))
    E = A @ (eye + A @ (eye / 2.0 + A @ (eye / 6.0 + A / 24.0)))
    doubling = True

    def advance(s, src, dst):
        nonlocal E, doubling
        np.matmul(src, E[:-1, :-1], out=dst)
        dst += src
        dst += E[-1, :-1]
        if not np.isfinite(dst.view(float)).all():
            return 0
        if doubling:
            E2 = 2.0 * E + E @ E
            doubling = bool(np.isfinite(E2.view(float)).all())
            if doubling:
                E = E2
                return 2 * s
        return s

    pts = np.empty((n_steps + 1, len(z0)), dtype=complex)
    pts[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        filled = _doubling(pts, advance)
    return pts if filled == len(pts) else pts[:filled]


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
# chart utilities (realification of tangents, H on stacked labels)


def _wirtinger(dH, z):
    """dH(z) for one label, flat: a result not in the label's shape raises
    TypeError, as a malformed stacked H does in ``_values``."""
    g = np.asarray(dH(z), dtype=complex)
    if g.shape != np.shape(z):
        raise TypeError(f"dH returned shape {g.shape} for a label of shape {np.shape(z)}")
    return g.reshape(-1)


def _values(H, Z, stacked):
    """Values of H on the labels Z, stacked along the first axis: one call
    if ``stacked``, else one call per label.  A stacked result of any other
    shape raises TypeError: numpy would broadcast it into wrong values, and
    a malformed spec is not a label leaving the domain, so ``propagate_ode``
    does not turn it into an aborted run."""
    if not stacked:
        return np.array([complex(H(z)) for z in Z])
    vals = np.asarray(H(Z), dtype=complex)
    if vals.shape != Z.shape[:1]:
        raise TypeError(f"stacked H returned shape {vals.shape} for labels "
                        f"stacked as {Z.shape[:1]}")
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
    """The real unit displacements in label form, one per row: a stack of
    numbers ([1, 1j] on the complex ones) on scalar charts."""
    E = _realifier(space.coord_len)[0].T if space.complex_chart else np.eye(space.coord_len)
    return E[:, 0] if space.scalar_chart else E


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

    Oscillator specs build the whole trajectory by doubling
    (``_rk4_points``): one RK4 step of their linear field is a fixed affine
    map, so k steps are its k-th power, and the labels are checked in one
    finiteness and domain pass over the array.  They move complex label
    vectors [z0, zhat], so a scalar or real chart raises DomainError.
    ``F`` specs step z' = F(t, z), and classical specs the Euler-Lagrange
    field (see el_integrate), in a loop that steps the label as
    ``space.validate`` returns it and validates each step; on a real chart
    the Euler-Lagrange field raises DegenerateFormError before the loop.
    If a label leaves the space's domain, or an Euler-Lagrange stage finds
    the 2-form degenerate, the trajectory is returned truncated at the
    last valid point, with meta["aborted"] set and meta["reason"] the
    error's message; meta["hbar"] records the spec's hbar for
    autocorrelation.  The points are one array that owns its data; a
    truncated trajectory is a copy of the rows it reached.
    """
    if dt <= 0 or t_end < 0:
        raise DomainError("need dt > 0 and t_end >= 0")
    steps = t_end / dt  # may overflow to inf, so compared before rounding
    if steps > MAX_SIZE + 0.5:
        raise DomainError(f"{steps:.3g} steps for t_end={t_end:g}, dt={dt:g}; "
                          f"the most allowed is {MAX_SIZE}")
    n_steps = int(round(steps))
    y = z0 = space.validate(z0)
    meta = {"integrator": "rk4", "dt": dt, "hbar": ham.hbar, "aborted": False}
    if ham.gen is not None:
        if space.scalar_chart or not space.complex_chart:
            raise DomainError(f"oscillator generators move complex label vectors, "
                              f"which {space.space_id} does not have")
        points = _valid_rows(space, _rk4_points(ham, z0, n_steps, dt), meta)
        return Trajectory(dt * np.arange(len(points)), points, meta)
    if ham.F is not None:
        f = ham.F
    elif not space.complex_chart:
        raise _real_chart_error(space)
    else:
        def f(t, y):
            return _el_velocity(space, ham.H, y, ham.hbar, stacked=ham.stacked, dH=ham.dH)

    # np.empty commits memory only for the rows a run reaches
    points = np.empty((n_steps + 1,) + np.shape(z0), dtype=np.asarray(z0).dtype)
    points[0] = z0
    # every step's label is validated, and every Euler-Lagrange stage tests
    # its form for finiteness, so an overflow or a NaN ends the run as an
    # abort, not as a warning; the stages enter no error state of their own
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            try:
                y = _rk4_step(f, i * dt, y, dt)
                points[i + 1] = space.validate(y)
            except (DomainError, DegenerateFormError) as err:
                meta["aborted"] = True
                meta["reason"] = str(err)
                points = points[: i + 1].copy()
                break
    return Trajectory(dt * np.arange(len(points)), points, meta)


def _valid_rows(space, pts, meta):
    """The rows of ``pts`` before the first label ``space.validate``
    rejects, found by one finiteness and domain pass over the stack; that
    label's rejection ends the run as in propagate_ode's loop."""
    ok = np.isfinite(pts.view(float)).all(axis=-1)
    n = len(pts) if ok.all() else int(ok.argmin())
    ok[:n] = ~np.asarray(space._outside(pts[:n]))
    if ok.all():
        return pts
    i = int(ok.argmin())
    try:
        space.validate(pts[i])
    except DomainError as err:
        meta["aborted"] = True
        meta["reason"] = str(err)
    return pts[:i].copy()


def autocorrelation(space, z, traj):
    """K_t(z, z') sampled along a trajectory of z', at the hbar its
    integrator recorded in ``traj.meta`` (1.0 if none)."""
    Z = np.asarray(traj.points)
    zz = space.stack([z])[0]
    vals = np.asarray(space.kernel(zz, Z), dtype=complex)
    dt = float(traj.times[1] - traj.times[0]) if len(traj) > 1 else 0.0
    return AutocorrSeries(float(traj.times[0]), dt, vals, z=zz, zp=Z[0],
                          hbar=traj.meta.get("hbar", 1.0))


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
    """Hm[a, b] = L_{E_a} R_{E_b} K(z, z) over the chart basis E: the
    catalog's closed-or-FD mixed form on the stacked basis pairs.  Labels
    stacked as (k, 1, 1, m) (scalar charts (k, 1, 1)) give k matrices."""
    return _mixed(space, z, *_basis_pairs(space.coord_len, space.scalar_chart))


def _real_chart_error(space):
    return DegenerateFormError(f"coherent 2-form vanishes identically on {space.space_id}")


def _nondegenerate(lam_min, lam_max):
    """The one degeneracy test, on the extreme eigenvalues of S = Hm + Hm*
    (see the module docstring)."""
    return (math.isfinite(lam_min) and math.isfinite(lam_max)
            and 0.0 < lam_min and lam_max * 1e-12 < lam_min)


def _degenerate_error(z):
    return DegenerateFormError(f"coherent 2-form degenerate at z = {z!r}")


def _form_eigh(space, z):
    """Hm at z and eigh of S = Hm + Hm* (the FD oracle's Hm need not be
    Hermitian, and eigh reads one triangle), after the degeneracy test."""
    if not space.complex_chart:
        raise _real_chart_error(space)
    Hm = _mixed_matrix(space, z)
    S = Hm + Hm.conj().T
    if np.isfinite(S).all():
        lam, V = np.linalg.eigh(S)
        if _nondegenerate(lam[0], lam[-1]):
            return Hm, lam, V
    raise _degenerate_error(z)


def _mixed_solve(space, z, g):
    """Hm^{-1} g at the label z, after the degeneracy test: from the
    space's closed ``mixed_solve`` where it has one (klauder), else from one
    eigh of S = Hm + Hm* (``_form_eigh``), as S^{-1} (2 g)."""
    if type(space).mixed_solve is CoherentSpace.mixed_solve:
        _, lam, V = _form_eigh(space, z)
        return V @ ((V.conj().T @ (2.0 * g)) / lam)
    x, lam_min, lam_max = space.mixed_solve(z, g)
    if _nondegenerate(lam_min, lam_max):
        return x
    raise _degenerate_error(z)


def symplectic_matrix(space, z):
    """Real antisymmetric matrix of the coherent 2-form in realified
    coordinates; raises DegenerateFormError when numerically singular."""
    z = space.validate(z)
    with np.errstate(over="ignore", invalid="ignore"):
        H = _form_eigh(space, z)[0]
    D, Dh = _realifier(space.coord_len)
    return 2.0 * np.imag(Dh @ H @ D)


def _grad(space, f, z, h=None, stacked=False):
    """Central-difference gradient of f in realified coordinates at the
    label z: the stencil is one stack of labels, evaluated by ``_values``.
    It is the Euler-Lagrange stage's gradient where a spec gives no ``dH``,
    and the oracle for the closed forms where it does."""
    if h is None:
        h = 1e-6 * max(1.0, float(np.linalg.norm(z)))
    steps = h * _real_basis(space)
    vals = _values(f, np.concatenate([z + steps, z - steps]), stacked)
    n = len(steps)
    return (vals[:n] - vals[n:]) / (2.0 * h)


def _el_velocity(space, H, z, hbar, stacked=False, dH=None):
    """Velocity of the Euler-Lagrange field at the label z, in label form:
    z' = -(i/hbar) Hm^{-1} g with g = dH(z) where ``dH`` is given, else
    g = (w[0::2] + i w[1::2]) / 2 from the stencil gradient w of H.  The
    solve (``_mixed_solve``) is closed-form on klauder and one eigh
    elsewhere; either makes the degeneracy test, after the gradient."""
    if dH is None:
        w = _grad(space, H, z, stacked=stacked)
        g = 0.5 * (w[0::2] + 1j * w[1::2])
    else:
        g = _wirtinger(dH, z)
    v = (-1j / hbar) * _mixed_solve(space, z, g)
    return complex(v[0]) if space.scalar_chart else v


def hamiltonian_vector_field(space, H, z, hbar=1.0, dH=None):
    """Euler-Lagrange field z' = -(i/hbar) Hm^{-1} dH/dconj(z) at z, as a
    tangent in label form; the derivative is ``dH(z)`` where given, else
    the stencil gradient of H."""
    z = space.validate(z)
    with np.errstate(over="ignore", invalid="ignore"):
        return _el_velocity(space, H, z, hbar, dH=dH)


def poisson_bracket(space, f, g, z, hbar=1.0, grad_h=None):
    """{f, g}(z) = df^T A^{-1} dg / hbar.

    Evaluated in the explicitly antisymmetrized form
    (df . A^{-1} dg - dg . A^{-1} df) / 2, so that swapping f and g
    negates the result exactly, not just up to solver rounding.  f and g
    are plain functions of a label, not specs, so their gradients always
    come from the central-difference stencil (``_grad``).
    """
    z = space.validate(z)
    A = symplectic_matrix(space, z).astype(complex)
    df = _grad(space, f, z, h=grad_h)
    dg = _grad(space, g, z, h=grad_h)
    xg = np.linalg.solve(A, dg)
    xf = np.linalg.solve(A, df)
    return (complex(df @ xg) - complex(dg @ xf)) / (2.0 * hbar)


def el_integrate(space, ham, z0, t_end, dt):
    """Integrate the coherent Euler-Lagrange equation i hbar Hm z' = dH/dconj(z)
    with RK4, taking the derivative (the spec's ``dH``, else the stencil
    gradient of H) and solving with Hm at every stage, in closed form on
    klauder and from one eigh elsewhere."""
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
    vel = np.empty_like(Z)
    vel[1:-1] = (Z[2:] - Z[:-2]) / (2.0 * dt)
    vel[0] = (-3.0 * Z[0] + 4.0 * Z[1] - Z[2]) / (2.0 * dt)
    vel[-1] = (3.0 * Z[-1] - 4.0 * Z[-2] + Z[-3]) / (2.0 * dt)

    th = one_form_theta(space, Z, vel)
    lag = 1j * ham.hbar * th - _values(ham.H, Z, ham.stacked)
    return complex(np.trapezoid(lag, dx=dt))
