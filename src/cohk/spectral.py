"""Spectral analysis through autocorrelation of the coherent product.

Everything here consumes the Klauder K_t(z, z') = <z| e^{-i t H / hbar} |z'>
of H = dGamma(gen), given labels and a HamiltonianSpec with ``gen`` set (no
space), on a uniform grid of exact oscillator flow points.  The grid is
built by the doubling of ``dynamics._flow_points``: flow_exact over m steps,
for m = 1, 2, 4, ..., maps the first m points onto the next m, so a series
of N steps costs log2(N) flow_exact calls and each point carries the
rounding of at most log2(N) of them; a flow that overflows raises
DomainError.  Every horizon (a series' t_max, a damped quadrature's
derived one, an average's T) becomes a step count by the one step rule,
``core._step_count``: round(horizon / dt), a DomainError unless dt is
finite and positive, the horizon finite and at least 0 and the count at
most MAX_SIZE; a series needs at least one step.  Every time or energy
integral is one Fourier sum, ``_uniform_fourier``, of samples weighted by
one trapezoid rule, ``_trapezoid_weights``: a direct sum for a few
energies and one chirp-z (Bluestein) convolution for more, so energy
grids must be uniform, E_0 + k dE with a real dE and one shared imaginary
part (a complex grid is a chirp-z spiral contour).  Time averages pick
out eigencomponents, a Hann-windowed scan locates spectral lines, and
damped one-sided quadrature

    G(E) = -iota * integral_0^tmax e^{iota t E} K_t dt,   iota = i / hbar

produces resolvent matrix elements, plain complex numbers, for Im E > 0
(the sign is fixed by the zero-generator case G(E) = K/E), with t_max = 0
for the automatic horizon (a negative t_max raises DomainError); the
resolvent equation residual integrates its H G term over the same flow,
and the density -Im G(E + i eta)/pi is that quadrature at the complex
grid E + i eta.  Negative times are synthesized from K_{-t}(z, z') =
conj(K_t(z', z)) rather than integrated, from a swapped series that must
share the time grid (t0, dt, length) and hbar.  The Schwinger-Dyson
residual takes a stack of cases and evaluates all their flows in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import DomainError, _step_count
from .dynamics import AutocorrSeries, _flow_points, autocorrelation, flow_exact
from .fock import OscGenerator, _dgamma_factor, dgamma_element, klauder_kernel

__all__ = [
    "SpectralLine",
    "eigencomponent_overlap",
    "kt_roundtrip_residual",
    "oscillator_series",
    "rational_element",
    "resolvent_element",
    "resolvent_equation_residual",
    "resolvent_symmetry_residual",
    "schwinger_dyson_residual",
    "spectral_density",
    "spectrum_scan",
    "time_average_overlap",
]


@dataclass
class SpectralLine:
    energy: float
    weight: float


# ---------------------------------------------------------------------------
# series construction


def _series_points(gen, zp, t_max, dt, hbar):
    """Flow points psi(k dt) of z' for k = 0 .. round(t_max / dt), after
    the step-count checks every series shares."""
    if gen is None:
        raise DomainError("spectral series need an oscillator generator, HamiltonianSpec(gen=...)")
    steps = _step_count(t_max, dt, f"t_max={t_max:g}")
    if steps < 1:
        # one sample spans no time, and the scans divide by the series length
        raise DomainError(f"t_max={t_max:g} is shorter than one step dt={dt:g}")
    return _flow_points(gen, zp, steps, dt, hbar)


def oscillator_series(gen, z, zp, t_max, dt, hbar=1.0):
    """AutocorrSeries of K_t(z, z') on t = 0 .. t_max for H = dGamma(gen)."""
    pts = _series_points(gen, zp, t_max, dt, hbar)
    return AutocorrSeries(0.0, dt, klauder_kernel(z, pts), z=np.asarray(z, dtype=complex),
                          zp=np.asarray(zp, dtype=complex), hbar=hbar)


def _two_sided(series, swapped):
    """values on t = -T..T, using K_{-t}(z,z') = conj(K_t(z',z))."""
    fwd = np.asarray(series.values)
    if swapped is None:
        zq, zpq = series.z, series.zp
        if zq is not None and zpq is not None and not np.array_equal(zq, zpq):
            raise DomainError(
                "off-diagonal series needs the swapped-argument series "
                "to synthesize negative times"
            )
        back = fwd
    else:
        if (len(swapped.values) != len(fwd) or swapped.dt != series.dt
                or swapped.t0 != series.t0 or swapped.hbar != series.hbar):
            raise DomainError("swapped series must share the time grid and hbar")
        back = np.asarray(swapped.values)
    return np.concatenate([np.conj(back[:0:-1]), fwd])


def time_average_overlap(series, E, T, swapped=None):
    """(1/2T) integral_{-T}^{T} e^{iota t E} K_t dt, trapezoid.

    The integral runs over the grid's n = round(T/dt) steps each side and is
    divided by the span 2 n dt it covers, so a T off the grid is not biased.
    Converges to the eigenspace-projection element <z|Pi(E)|z'> as T grows;
    off the spectrum it decays like 1/T.
    """
    dt = series.dt
    n = _step_count(T, dt, f"T={T:g}")
    if series.t0 != 0.0 or n > len(series.values) - 1 or n < 1:
        raise DomainError("series does not cover [-T, T]")
    mid = len(series.values) - 1
    x = _trapezoid_weights(2 * n + 1, dt) * _two_sided(series, swapped)[mid - n : mid + n + 1]
    return complex(_uniform_fourier(x, -n * dt, dt, E, 1j / series.hbar)[0] / (2.0 * n * dt))


def eigencomponent_overlap(space, zp, traj, E, T):
    """One-sided time average of e^{iota t E} K(z', psi(t)) over [0, T], at
    the hbar the trajectory's integrator recorded.  As in
    :func:`time_average_overlap`, the trapezoid over the n = round(T/dt)
    steps is divided by the span n dt it covers."""
    series = autocorrelation(space, zp, traj)
    n = _step_count(T, series.dt, f"T={T:g}") if len(series.values) > 1 else 0
    if n > len(series.values) - 1 or n < 1:
        raise DomainError("trajectory does not cover [0, T]")
    x = _trapezoid_weights(n + 1, series.dt) * series.values[: n + 1]
    return complex(_uniform_fourier(x, 0.0, series.dt, E, 1j / series.hbar)[0] / (n * series.dt))


# ---------------------------------------------------------------------------
# line spectrum


# Grids of at most this many energies take the direct sum: its O(N) per
# energy beats the chirp-z's O(S log S) for any grid below 4-5 energies
# (measured at N = 1e4 and 5e4 samples).
_DIRECT_ENERGIES = 4


def _trapezoid_weights(n, dx=1.0):
    """Trapezoid-rule weights dx (1/2, 1, ..., 1, 1/2) of n >= 2 samples."""
    w = np.full(n, float(dx))
    w[0] = w[-1] = 0.5 * dx
    return w


def _uniform_fourier(x, t0, dt, E_grid, iota):
    """sum_j x_j e^{iota E_k t_j} with t_j = t0 + j dt, for every E_k of a
    uniform grid E_0 + k dE, dE real, at one shared Im E (other grids
    raise DomainError).

    Up to _DIRECT_ENERGIES energies this is the direct sum of
    e^{iota E t_j} x_j, whose phases round as eps |E t_j| per sample.
    Larger grids are one chirp-z (Bluestein) convolution: with
    E_k = E_0 + k dE, the cross term e^{a k j} (a = iota dE dt) splits by
    k j = (k^2 + j^2 - (k - j)^2) / 2 into two chirps around a convolution,
    which numpy.fft evaluates in O((N + M) log(N + M)).  The chirp phases
    come from exact integer squares, so their rounding is that of one
    product rather than of a running sum.
    """
    x = np.asarray(x, dtype=complex)
    E = np.atleast_1d(np.asarray(E_grid, dtype=complex if np.iscomplexobj(E_grid) else float))
    n, m = len(x), len(E)
    if m == 0:
        return np.zeros(0, dtype=complex)
    dE = (E[-1] - E[0]).real / (m - 1) if m > 1 else 0.0
    drift = np.abs(E - (E[0] + dE * np.arange(m))).max()
    if drift > 1e-12 * max(1.0, abs(E[0]), abs(E[-1])):
        raise DomainError("energy grid must be uniformly spaced")
    if m <= _DIRECT_ENERGIES:
        # in place where numpy would allocate, with the bits of
        # exp(iota outer(E, t0 + dt j)) x; numpy's pairwise sum, not a BLAS
        # product: a threaded BLAS would round by the machine's thread count
        t = np.arange(n, dtype=float)
        t *= dt
        t += t0
        phase = iota * np.outer(E, t)
        np.exp(phase, out=phase)
        phase *= x
        return phase.sum(axis=1)
    half_a = 0.5 * iota * dE * dt
    j, k, neg = np.arange(n), np.arange(m), np.arange(1 - n, 0)
    k2 = (k * k).astype(float)
    size = 1 << (n + m - 2).bit_length()
    y = x * np.exp(iota * E[0] * dt * j + half_a * (j * j).astype(float))
    chirp = np.zeros(size, dtype=complex)
    chirp[:m] = np.exp(-half_a * k2)
    chirp[size - n + 1:] = np.exp(-half_a * (neg * neg).astype(float))
    conv = np.fft.ifft(np.fft.fft(y, size) * np.fft.fft(chirp))[:m]
    return np.exp(iota * E * t0 + half_a * k2) * conv


def _alias_guard(E_grid, dt, hbar):
    """DomainError unless the energy grid spans less than the band
    2 pi hbar / dt: a series sampled at step dt cannot tell a line at E
    from its images at E + k 2 pi hbar / dt, so a wider grid would report
    the images as lines."""
    E = np.asarray(E_grid, dtype=float)
    span = float(E.max() - E.min()) if E.size else 0.0
    # compared as a product: dt <= 0 is left to the series' own check
    if dt > 0 and span * dt >= 2.0 * math.pi * hbar:
        raise DomainError(f"the energy grid spans {span:g}, which reaches the band "
                          f"2 pi hbar/dt = {2.0 * math.pi * hbar / dt:g} of dt={dt:g}; "
                          f"its lines would alias")


def spectrum_scan(series, E_grid, swapped=None, floor=1e-4):
    """Locate spectral lines by a Hann-windowed scan of the autocorrelation.

    The grid must be uniform (the scan is one ``_uniform_fourier`` sum, a
    chirp-z transform past 4 energies; other grids raise DomainError), at
    least as fine as hbar pi/T in energy (Rayleigh limit of the window,
    which doubles the raw resolution), and span less than the band
    2 pi hbar/dt (``_alias_guard``).  Peaks
    are refined twice by parabolic interpolation on 3-point grids: the
    first is the scan's own three samples around the peak, the second a
    grid a quarter as wide around the refined energy.  Each line is then
    re-evaluated at its refined energy, so it costs 4 direct-sum energies
    and no further transform; the Hann coherent gain of 0.5 is divided out
    of the weight.
    """
    E_grid = np.asarray(E_grid, dtype=float)
    if len(E_grid) < 3:
        raise DomainError("energy grid too short")
    cell = float(E_grid[1] - E_grid[0])
    dt = series.dt
    _alias_guard(E_grid, dt, series.hbar)
    T = dt * (len(series.values) - 1)
    res = math.pi * series.hbar  # times 1/T: the window resolution in energy
    if cell > res / T * (1.0 + 1e-9):
        raise DomainError(
            f"grid spacing {cell:g} exceeds the window resolution hbar pi/T = "
            f"{res / T:g}; lines could fall between samples"
        )
    # (1/2T) integral w(t) e^{iota t E} K_t dt, Hann window w, trapezoid
    n = len(series.values) - 1
    t = dt * np.arange(-n, n + 1)
    base = (0.5 * (1.0 + np.cos(np.pi * t / T)) * _trapezoid_weights(len(t))
            * _two_sided(series, swapped) * (dt / (2.0 * T)))

    def windowed(E):
        return np.abs(_uniform_fourier(base, -T, dt, E, 1j / series.hbar))

    mag = windowed(E_grid)
    top = float(mag.max())
    peaks = [i for i in range(1, len(E_grid) - 1)
             if mag[i] >= floor * top
             and mag[i] >= mag[i - 1] and mag[i] > mag[i + 1]]
    # Greedy sidelobe rejection, strongest first: a candidate sitting within
    # the sidelobe envelope of an already-accepted line (|W| <= 1/(pi x |x^2-1|)
    # at x energy cells of hbar pi/T, with a 3x safety factor) is an artifact of
    # the window, not a line.
    peaks.sort(key=lambda i: -mag[i])
    accepted = []
    for i in peaks:
        keep = True
        for j in accepted:
            x = abs(E_grid[i] - E_grid[j]) * T / res
            if x < 1.5:
                keep = False
                break
            env = 1.0 / (math.pi * x * abs(x * x - 1.0))
            if mag[i] < 3.0 * env * mag[j]:
                keep = False
                break
        if keep:
            accepted.append(i)

    def vertex(e, h, m3):
        # the parabola's vertex through m3 at e - h, e, e + h, if it opens down
        denom = m3[0] - 2.0 * m3[1] + m3[2]
        return e + 0.5 * h * (m3[0] - m3[2]) / denom if denom < 0.0 else e

    lines = []
    for i in accepted:
        # round 1 reads the scan's own E_grid[i-1..i+1]; round 2 evaluates a
        # 3-point grid a quarter as wide around the refined energy
        e_ref = vertex(E_grid[i], cell, mag[i - 1:i + 2])
        h = cell / 4.0
        e_ref = vertex(e_ref, h, windowed([e_ref - h, e_ref, e_ref + h]))
        c_star = windowed([e_ref])[0]
        lines.append(SpectralLine(float(e_ref), float(c_star / 0.5)))
    lines.sort(key=lambda L: L.energy)
    return lines


# ---------------------------------------------------------------------------
# resolvent quadrature


def _auto_t_max(rate, hbar, dt, name):
    """Horizon where the damping e^{-rate t / hbar} falls below 1e-12; a
    DomainError naming the damping input ``name`` if that is within one step
    or more than MAX_SIZE steps away."""
    t_max = hbar * math.log(1e12) / rate
    if _step_count(t_max, dt, f"{name}={rate:g}") < 1:
        raise DomainError(f"{name}={rate:g} damps the series below 1e-12 within one step dt={dt:g}")
    return t_max


def _resolvent_quadrature(ham, z, zp, E, t_max, dt, *factors):
    """-iota integral_0^tmax e^{iota t E} K(z, psi(t)) f(z, psi(t)) dt
    (trapezoid) for f = 1 and each f(z, pts) of ``factors``, over one flow
    psi of z' and one kernel evaluation on it, as one Fourier sum each; E
    is a complex energy or a uniform grid at one Im E."""
    Es = np.asarray(E, dtype=complex)
    if not (np.isfinite(Es.real).all() and ((0.0 < Es.imag) & (Es.imag < math.inf)).all()):
        raise DomainError("direct resolvent quadrature needs a finite E with Im E > 0")
    hbar = ham.hbar
    if t_max == 0:
        t_max = _auto_t_max(float(Es.imag.min()), hbar, dt, "Im E")
    pts = _series_points(ham.gen, zp, t_max, dt, hbar)
    # the factors before K, and the flow dropped before the sums, so that
    # few arrays of the flow's length are held at once; K f is formed in
    # f's buffer as k * f, the operand order of dgamma_element
    fvals = [f(z, pts) for f in factors]
    k = klauder_kernel(z, pts)
    del pts
    values = [k] + [np.multiply(k, fv, out=fv) for fv in fvals]
    w = _trapezoid_weights(len(k), dt)
    iota = 1j / hbar
    sums = [_uniform_fourier(np.multiply(v, w, out=v), 0.0, dt, Es, iota) for v in values]
    return [-iota * (g if Es.ndim else g[0]) for g in sums]


def resolvent_element(ham, z, zp, E, t_max=0.0, dt=1e-2):
    """<z| (E - H)^{-1} |z'> = -iota integral_0^tmax e^{iota t E} K_t dt.

    t_max = 0 (the default) is the point where the damping
    e^{-Im E t / hbar} falls below 1e-12; a negative t_max raises
    DomainError.  One flow of z'.
    """
    g, = _resolvent_quadrature(ham, z, zp, E, t_max, dt)
    return complex(g)


def _symmetry_gap(ham, z, zp, E, t_max, dt, g):
    """|g - conj(G(conj E)(z',z))| for g = G(E)(z,z'), by the backward
    quadrature of resolvent_symmetry_residual."""
    gen = ham.gen
    back = replace(ham, gen=OscGenerator(-gen.rho, -gen.p, -gen.q, -gen.X))
    b, = _resolvent_quadrature(back, zp, z, -np.conj(complex(E)), t_max, dt)
    return abs(g + np.conj(b))


def resolvent_symmetry_residual(ham, z, zp, E, t_max=0.0, dt=1e-2):
    """|G(E)(z,z') - conj(G(conj E)(z',z))| via an independent reflected
    quadrature: the swapped element integrates the backward flow of z
    against z', so no value is reused between the two routes.  The backward
    flow is the forward flow of -gen, and its quadrature at -conj(E) (in the
    upper half-plane) is -conj(G(conj E)(z',z)); negation is exact.  Two
    flows: the forward one of resolvent_element and the backward one, each
    to t_max as in resolvent_element (0 is automatic, negative raises
    DomainError)."""
    return _symmetry_gap(ham, z, zp, E, t_max, dt, resolvent_element(ham, z, zp, E, t_max, dt))


def _resolvent_at_root(ham, z, zp, root, eta, dt):
    root = complex(root)
    if root.imag > 1e-12:
        return resolvent_element(ham, z, zp, root, 0.0, dt)
    if root.imag < -1e-12:
        # lower half-plane through the symmetry G(conj E)(z,z') = conj(G(E)(z',z))
        return np.conj(resolvent_element(ham, zp, z, np.conj(root), 0.0, dt))
    g1 = resolvent_element(ham, z, zp, root + 1j * eta, 0.0, dt)
    g2 = resolvent_element(ham, z, zp, root + 0.5j * eta, 0.0, dt)
    return 2.0 * g2 - g1


def rational_element(ham, z, zp, A_roots, B_coeffs, eta=0.05, spectrum=None, dt=1e-2):
    """<z| B(H)/A(H) |z'> by partial fractions over the simple roots of A.

    B(x)/A(x) = sum_j B(E_j)/A'(E_j) / (x - E_j) and 1/(H - E_j) is
    -G(E_j), hence the overall minus sign.  Real roots use the two-point
    (eta, eta/2) linear extrapolation of the damped quadrature.  When a
    detected spectrum is supplied, roots closer than 3*eta to a line are
    rejected.
    """
    roots = [complex(r) for r in A_roots]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) <= 1e-8:
                raise DomainError(f"repeated root near {roots[i]}")
    B_coeffs = [complex(b) for b in B_coeffs]
    if len(B_coeffs) >= len(roots) + 1:
        raise DomainError("deg B must be smaller than deg A")
    if spectrum is not None:
        for r in roots:
            for line in spectrum:
                if abs(r - line.energy) <= 3.0 * eta:
                    raise DomainError(
                        f"root {r} sits on a spectral line at {line.energy}"
                    )

    def B(x):
        return sum(c * x ** k for k, c in enumerate(B_coeffs))

    total = 0.0 + 0.0j
    for j, rj in enumerate(roots):
        aprime = np.prod([rj - rk for k, rk in enumerate(roots) if k != j]) \
            if len(roots) > 1 else 1.0
        total += B(rj) / aprime * _resolvent_at_root(ham, z, zp, rj, eta, dt)
    return complex(-total)


def spectral_density(ham, z, zp, E_grid, eta, dt=1e-2):
    """-(1/pi) Im G(E + i eta) on a uniform energy grid, the resolvent
    quadrature at the grid E + i eta (one chirp-z transform past 4
    energies); other grids, and grids that reach the band 2 pi hbar/dt
    (``_alias_guard``), raise DomainError."""
    if not 0.0 < eta < math.inf:
        raise DomainError("eta must be finite and positive")
    _alias_guard(E_grid, dt, ham.hbar)
    E = np.atleast_1d(np.asarray(E_grid, dtype=float)) + 1j * eta
    g, = _resolvent_quadrature(ham, z, zp, E, _auto_t_max(eta, ham.hbar, dt, "eta"), dt)
    return -g.imag / math.pi


def kt_roundtrip_residual(ham, z, zp, t, eta, E_grid, dt=1e-2):
    """|integral e^{-iota t E} density(E) dE - K_t| / |K_0|.

    The grid must cover everywhere the density lives, with at least 20 eta
    to spare at both ends, so the Lorentzian tails that fall outside stay
    inside the stated error budget.
    """
    E_grid = np.asarray(E_grid, dtype=float)
    # by keyword: perfbench's tracing hook reads these arguments by name
    dens = spectral_density(ham=ham, z=z, zp=zp, E_grid=E_grid, eta=eta, dt=dt)
    support = E_grid[dens > 1e-2 * dens.max()]
    if len(support) and (support.min() - E_grid[0] < 20 * eta
                         or E_grid[-1] - support.max() < 20 * eta):
        raise DomainError("energy grid does not span the spectrum with "
                          "margin 20 eta")
    # a Fourier sum with time and energy trading places
    dE = (E_grid[-1] - E_grid[0]) / max(len(E_grid) - 1, 1)
    hbar = ham.hbar
    lhs = _uniform_fourier(_trapezoid_weights(len(E_grid), dE) * dens, E_grid[0], dE, t,
                           -1j / hbar)[0]
    kt = klauder_kernel(z, flow_exact(ham.gen, t, zp, hbar))
    k0 = klauder_kernel(z, zp)
    return abs(lhs - kt) / abs(k0)


# ---------------------------------------------------------------------------
# equation residuals


# the time step of schwinger_dyson_residual's central difference
_SD_DT = 1e-4


def schwinger_dyson_residual(ham, z, zp, t):
    """|i hbar dK_t/dt - <z| H e^{-iota t H} |z'>| / |K_t|.

    The time derivative is a central difference of exact flows at steps of
    _SD_DT; the right side is the closed-form dGamma element at the evolved
    label.  ``z``,
    ``zp`` and ``t`` may stack cases along leading axes (labels with their
    coordinate axis last); the three flows of every case are one
    ``flow_exact`` call, and a stack gives one residual per case.
    """
    if ham.gen is None:
        raise DomainError("the Schwinger-Dyson residual needs an oscillator generator")
    hbar = ham.hbar
    z, zp = np.asarray(z, dtype=complex), np.asarray(zp, dtype=complex)
    cases = np.broadcast_shapes(z.shape[:-1], zp.shape[:-1], np.shape(t))
    # one flat stack, so a single case runs the same arithmetic as a stack
    z, zp = (np.broadcast_to(a, cases + a.shape[-1:]).reshape(-1, a.shape[-1])
             for a in (z, zp))
    t = np.broadcast_to(np.asarray(t, dtype=float), cases).reshape(-1)
    psi_p, psi_m, psi = flow_exact(ham.gen, np.stack([t + _SD_DT, t - _SD_DT, t]), zp, hbar)
    dk = (klauder_kernel(z, psi_p) - klauder_kernel(z, psi_m)) / (2.0 * _SD_DT)
    rhs = dgamma_element(ham.gen, z, psi)
    res = np.abs(1j * hbar * dk - rhs) / np.maximum(1e-300, np.abs(klauder_kernel(z, psi)))
    return float(res[0]) if cases == () else res.reshape(cases)


def _equation_quadrature(ham, z, zp, E, t_max, dt):
    """G(E) and resolvent_equation_residual's value, from one flow."""
    g, og = _resolvent_quadrature(ham, z, zp, E, t_max, dt,
                                  lambda z, pts: _dgamma_factor(ham.gen, z, pts))
    k = klauder_kernel(z, zp)
    return g, abs(E * g - og - k) / abs(k)


def resolvent_equation_residual(ham, z, zp, E, t_max=0.0, dt=1e-2):
    """|E G(E) - <z| H G(E) |z'> - K(z,z')| / |K(z,z')|.

    The H G term integrates the dGamma element, K times its linear factor,
    over the same flow points, kernel values and damped quadrature as G
    itself, so the residual costs one flow and one kernel evaluation; t_max
    as in resolvent_element (0 is automatic, negative raises DomainError).
    """
    return _equation_quadrature(ham, z, zp, E, t_max, dt)[1]


def _resolvent_checks(ham, z, zp, E, t_max, dt):
    """(resolvent_element, resolvent_equation_residual,
    resolvent_symmetry_residual) at the same arguments, bit for bit, from
    two flows where the three calls build four: the forward quadrature
    yields G(E) and the equation residual together, and the symmetry
    residual reuses that G(E) beside its backward quadrature."""
    g, eq = _equation_quadrature(ham, z, zp, E, t_max, dt)
    g = complex(g)
    return g, eq, _symmetry_gap(ham, z, zp, E, t_max, dt, g)
