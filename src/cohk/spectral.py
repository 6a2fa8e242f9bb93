"""Spectral analysis through autocorrelation of the coherent product.

Everything here consumes the Klauder K_t(z, z') = <z| e^{-i t H / hbar} |z'>
of H = dGamma(gen), given labels and a HamiltonianSpec with ``gen`` set (no
space), on a uniform grid of exact oscillator flow points.  The grid is
built by the doubling of ``dynamics._flow_points``: flow_exact over m steps,
for m = 1, 2, 4, ..., maps the first m points onto the next m, so a series
of N steps costs log2(N) flow_exact calls and each point carries the
rounding of at most log2(N) of them; a flow that overflows raises
DomainError.  Time averages pick out eigencomponents, a
Hann-windowed Fourier scan locates spectral lines, and damped one-sided
quadrature

    G(E) = -iota * integral_0^tmax e^{iota t E} K_t dt,   iota = i / hbar

produces resolvent matrix elements, plain complex numbers, for Im E > 0
(the sign is fixed by the zero-generator case G(E) = K/E); the resolvent
equation residual integrates its H G term over the same flow.  Fourier sums
over a uniform energy grid are one chirp-z (Bluestein) convolution, so
energy grids must be uniform.  Negative times are synthesized from
K_{-t}(z, z') = conj(K_t(z', z)) rather than integrated.  The Schwinger-Dyson
residual takes a stack of cases and evaluates all their flows in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import MAX_SIZE, DomainError
from .dynamics import AutocorrSeries, _flow_points, autocorrelation, flow_exact
from .fock import OscGenerator, dgamma_element, klauder_kernel

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
    if dt <= 0 or t_max <= 0:
        raise DomainError("need dt > 0 and t_max > 0")
    steps = t_max / dt  # may overflow to inf, so compared before rounding
    if steps > MAX_SIZE + 0.5:
        raise DomainError(
            f"{steps:.3g} steps for t_max={t_max:g}, dt={dt:g}; an energy this "
            "close to the real axis needs the eta extrapolation instead"
        )
    if steps <= 0.5:
        # one sample spans no time, and the scans divide by the series length
        raise DomainError(f"t_max={t_max:g} is shorter than one step dt={dt:g}")
    return _flow_points(gen, zp, int(round(steps)), dt, hbar)


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
        if len(swapped.values) != len(fwd) or swapped.dt != series.dt:
            raise DomainError("swapped series must share the time grid")
        back = np.asarray(swapped.values)
    return np.concatenate([np.conj(back[:0:-1]), fwd])


def time_average_overlap(series, E, T, swapped=None):
    """(1/2T) integral_{-T}^{T} e^{iota t E} K_t dt, trapezoid.

    Converges to the eigenspace-projection element <z|Pi(E)|z'> as T grows;
    off the spectrum it decays like 1/T.
    """
    dt = series.dt
    n = int(round(T / dt))
    if series.t0 != 0.0 or n > len(series.values) - 1 or n < 1:
        raise DomainError("series does not cover [-T, T]")
    vals = _two_sided(series, swapped)
    mid = len(series.values) - 1
    v = vals[mid - n : mid + n + 1]
    t = dt * np.arange(-n, n + 1)
    iota = 1j / series.hbar
    integrand = np.exp(iota * E * t) * v
    return complex(np.trapezoid(integrand, dx=dt) / (2.0 * T))


def eigencomponent_overlap(space, zp, traj, E, T):
    """One-sided time average of e^{iota t E} K(z', psi(t)) over [0, T], at
    the hbar the trajectory's integrator recorded."""
    series = autocorrelation(space, zp, traj)
    n = int(round(T / series.dt)) if series.dt > 0 else 0
    if n > len(series.values) - 1 or n < 1:
        raise DomainError("trajectory does not cover [0, T]")
    t = series.dt * np.arange(n + 1)
    integrand = np.exp((1j / series.hbar) * E * t) * series.values[: n + 1]
    return complex(np.trapezoid(integrand, dx=series.dt) / T)


# ---------------------------------------------------------------------------
# line spectrum


def _uniform_fourier(x, t0, dt, E_grid, iota):
    """sum_j x_j e^{iota E_k t_j} with t_j = t0 + j dt, for every E_k of a
    uniform grid, as one chirp-z (Bluestein) convolution.

    With E_k = E_0 + k dE, the cross term e^{a k j} (a = iota dE dt) splits
    by k j = (k^2 + j^2 - (k - j)^2) / 2 into two chirps around a
    convolution, which numpy.fft evaluates in O((N + M) log(N + M)).  The
    chirp phases come from exact integer squares, so their rounding is
    that of one product rather than of a running sum.
    """
    x = np.asarray(x, dtype=complex)
    E = np.atleast_1d(np.asarray(E_grid, dtype=float))
    n, m = len(x), len(E)
    if m == 0:
        return np.zeros(0, dtype=complex)
    dE = (E[-1] - E[0]) / (m - 1) if m > 1 else 0.0
    drift = np.abs(E - (E[0] + dE * np.arange(m))).max()
    if drift > 1e-12 * max(1.0, abs(E[0]), abs(E[-1])):
        raise DomainError("energy grid must be uniformly spaced")
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

    The grid must be uniform (the scan is one chirp-z transform; other
    grids raise DomainError), at least as fine as hbar pi/T in energy
    (Rayleigh limit of the window, which doubles the raw resolution), and
    span less than the band 2 pi hbar/dt (``_alias_guard``).  Peaks
    are refined twice by parabolic interpolation on 3-point grids and
    re-evaluated at the refined energy; the Hann coherent gain of 0.5 is
    divided out of the weight.
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
    trap = np.ones(len(t))
    trap[0] = trap[-1] = 0.5
    base = (0.5 * (1.0 + np.cos(np.pi * t / T)) * trap
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
    lines = []
    for i in accepted:
        e_ref = E_grid[i]
        h = cell
        for _ in range(2):
            m3 = windowed([e_ref - h, e_ref, e_ref + h])
            denom = m3[0] - 2.0 * m3[1] + m3[2]
            if denom < 0.0:
                e_ref += 0.5 * h * (m3[0] - m3[2]) / denom
            h /= 4.0
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
    if dt > 0:
        steps = t_max / dt
        if steps <= 0.5:
            raise DomainError(f"{name}={rate:g} damps the series below 1e-12 "
                              f"within one step dt={dt:g}")
        if steps > MAX_SIZE + 0.5:
            raise DomainError(f"{name}={rate:g} needs {steps:.3g} steps of dt={dt:g} to damp "
                              f"the series below 1e-12; the most allowed is {MAX_SIZE}")
    return t_max


def _resolvent_quadrature(ham, z, zp, E, t_max, dt, *elements):
    """-iota integral_0^tmax e^{iota t E} f(z, psi(t)) dt (trapezoid) for each
    f(z, pts) of ``elements``, over one flow psi of z'; t_max as in resolvent_element."""
    E = complex(E)
    if E.imag <= 0:
        raise DomainError("direct resolvent quadrature needs Im E > 0")
    hbar = ham.hbar
    if t_max <= 0:
        t_max = _auto_t_max(E.imag, hbar, dt, "Im E")
    pts = _series_points(ham.gen, zp, t_max, dt, hbar)
    iota = 1j / hbar
    phase = np.exp(iota * E * (dt * np.arange(len(pts))))
    # held in a list: numpy would reuse a large unnamed temporary in place as
    # vals * phase, a complex product that rounds unlike phase * vals
    values = [f(z, pts) for f in elements]
    return [-iota * np.trapezoid(phase * v, dx=dt) for v in values]


def resolvent_element(ham, z, zp, E, t_max=0.0, dt=1e-2):
    """<z| (E - H)^{-1} |z'> = -iota integral_0^tmax e^{iota t E} K_t dt.

    t_max defaults to the point where the damping e^{-Im E t / hbar} falls
    below 1e-12.
    """
    g, = _resolvent_quadrature(ham, z, zp, E, t_max, dt, klauder_kernel)
    return complex(g)


def resolvent_symmetry_residual(ham, z, zp, E, t_max=0.0, dt=1e-2):
    """|G(E)(z,z') - conj(G(conj E)(z',z))| via an independent reflected
    quadrature: the swapped element integrates the backward flow of z
    against z', so no value is reused between the two routes.  The backward
    flow is the forward flow of -gen, and its quadrature at -conj(E) (in the
    upper half-plane) is -conj(G(conj E)(z',z)); negation is exact."""
    g = resolvent_element(ham, z, zp, E, t_max, dt)
    gen = ham.gen
    back = replace(ham, gen=OscGenerator(-gen.rho, -gen.p, -gen.q, -gen.X))
    b, = _resolvent_quadrature(back, zp, z, -np.conj(complex(E)), t_max, dt, klauder_kernel)
    return abs(g + np.conj(b))


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
    """-(1/pi) Im G(E + i eta) on a uniform energy grid, from one shared
    series and one chirp-z transform; other grids, and grids that reach
    the band 2 pi hbar/dt (``_alias_guard``), raise DomainError."""
    if eta <= 0:
        raise DomainError("eta must be positive")
    hbar = ham.hbar
    _alias_guard(E_grid, dt, hbar)
    t_max = _auto_t_max(eta, hbar, dt, "eta")
    pts = _series_points(ham.gen, zp, t_max, dt, hbar)
    t = dt * np.arange(len(pts))
    iota = 1j / hbar
    damp = klauder_kernel(z, pts) * np.exp(-eta * t / hbar)
    trap = np.ones(len(t))
    trap[0] = trap[-1] = 0.5
    g = -iota * _uniform_fourier(damp * trap * dt, 0.0, dt, E_grid, iota)
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
    hbar = ham.hbar
    iota = 1j / hbar
    lhs = np.trapezoid(np.exp(-iota * t * E_grid) * dens, x=E_grid)
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


def resolvent_equation_residual(ham, z, zp, E, t_max=0.0, dt=1e-2):
    """|E G(E) - <z| H G(E) |z'> - K(z,z')| / |K(z,z')|.

    The H G term integrates the dGamma element over the same flow points
    and damped quadrature as G itself.
    """
    g, og = _resolvent_quadrature(ham, z, zp, E, t_max, dt, klauder_kernel,
                                  lambda z, pts: dgamma_element(ham.gen, z, pts))
    k = klauder_kernel(z, zp)
    return abs(E * g - og - k) / abs(k)
