"""Command-line experiment runner.

``cohk run config.json`` executes one experiment described by a JSON
config, prints a check-by-check summary, and writes CSV data files plus
``report.json`` into the output directory.  ``cohk list`` prints the
experiment table.  Exit codes: 0 every check passed, 1 a check failed,
2 the config was rejected, including malformed space descriptors (which
``catalog.make_space`` alone reads and checks), labels whose kernel values
are not finite (for example klauder labels large enough to overflow exp;
the message then names the space and the point pair), labels at which the
coherent 2-form is degenerate, trajectories that leave the domain, exact
oscillator flows that overflow, checks or data-file entries whose value is
not finite, series, trajectories, grids or counts too short or too long to
run, and output paths that cannot be written.  The experiment runners
return their data tables; ``run_config`` alone creates the output
directory and its files, and only once the run is accepted, so a rejected
run writes nothing.  NumPy's overflow, invalid-value and division warnings
are silenced while an experiment runs, so a rejected config prints only
its config error line.

The config is a single JSON object::

    {"space": {"kind": "klauder", "dim": 1},
     "experiment": "spectrum",
     "params": {"t_max": 251.327, "E_step": 0.01},
     "output": {"path": "out", "format": "csv"}}

Complex values are written as two-element arrays [re, im]; plain numbers
are accepted where the imaginary part is zero; NaN, Infinity and integers
beyond the float range, which Python's json module reads, are rejected.  Unknown keys anywhere in the
config are rejected with the offending path, so a typo fails loudly
instead of silently running a default.

Reports are deterministic: the same config, seed, and library version
reproduce every output file byte for byte.  Wall time is printed to
stdout but kept out of report.json for exactly that reason.  The seed
defaults to 0xC0FFEE and is echoed in the report.  Experiments run
serially.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .catalog import (
    KlauderSpace,
    geometry_report,
    infinitesimal_cs_margin,
    make_space,
    wtg_matrix,
)
from .core import (
    DEFAULT_SEED,
    MAX_SIZE,
    AxiomViolationError,
    DegenerateFormError,
    DomainError,
    gram,
    psd_check,
)
from .dynamics import (
    HamiltonianSpec,
    Trajectory,
    _flow_points,
    autocorrelation,
    df_action,
    el_integrate,
    propagate_ode,
)
from .fock import (
    OscGenerator,
    ccr_epsilon_check,
    gamma_colon_residual,
    klauder_kernel,
    weyl_relation_residuals,
)
from .spectral import (
    _alias_guard,
    oscillator_series,
    resolvent_element,
    resolvent_equation_residual,
    resolvent_symmetry_residual,
    schwinger_dyson_residual,
    spectral_density,
    spectrum_scan,
)

__all__ = ["ConfigError", "RunReport", "main", "run_config"]


class ConfigError(ValueError):
    """Config rejected; the message names the offending path or key."""


# ---------------------------------------------------------------------------
# config parsing helpers


def _as_float(v, path):
    if not _is_num(v):
        raise ConfigError(f"{path}: expected a number")
    return _finite(path, v).real


def _finite(path, *parts):
    """complex(*parts), rejecting what Python's json reads but no parameter
    accepts: NaN, +-Infinity and integers beyond the float range."""
    try:
        x = complex(*parts)
    except OverflowError:
        x = complex(math.inf)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise ConfigError(f"{path}: expected a finite number")
    return x


def _as_int(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer")
    return v


def _as_count(v, path):
    n = _as_int(v, path)
    if not 1 <= n <= MAX_SIZE:
        raise ConfigError(f"{path}: expected a count from 1 to {MAX_SIZE}")
    return n


def _as_bool(v, path):
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true or false")
    return v


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_complex(v, path):
    """A number, or an [re, im] pair."""
    if _is_num(v):
        return _finite(path, v)
    if isinstance(v, list) and len(v) == 2 and all(_is_num(x) for x in v):
        return _finite(path, v[0], v[1])
    raise ConfigError(f"{path}: expected a number or an [re, im] pair")


def _as_complex_vector(v, path, length=None):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{path}: expected a coordinate array")
    out = np.array([_as_complex(x, f"{path}[{i}]") for i, x in enumerate(v)])
    if length is not None and len(out) != length:
        raise ConfigError(f"{path}: expected {length} coordinates, got {len(out)}")
    return out


def _as_complex_matrix(v, path, n):
    if not isinstance(v, list) or len(v) != n:
        raise ConfigError(f"{path}: expected {n} rows")
    return np.array([_as_complex_vector(row, f"{path}[{i}]", n) for i, row in enumerate(v)])


def _build_space(desc):
    if not isinstance(desc, dict):
        raise ConfigError("space: expected an object with a 'kind' key")
    try:
        return make_space(desc)
    except DomainError as err:
        raise ConfigError(f"space.{err}") from None


def _parse_point(space, v, path):
    """One point in the space's label chart.

    Scalar charts take a number or [re, im]; vector charts take an array
    of those.  Real charts (euclidean, reciprocal) reject nonzero
    imaginary parts.
    """
    coords = _as_complex(v, path) if space.scalar_chart else _as_complex_vector(v, path)
    if not space.complex_chart:
        if np.any(coords.imag != 0.0):
            raise ConfigError(f"{path}: this space's coordinates are real")
        coords = coords.real
    try:
        return space.validate(coords)
    except DomainError as err:
        raise ConfigError(f"{path}: {err}") from None


def _parse_generator(gd, omega, dim):
    """params.gen as {rho, p, q, X}, or a harmonic generator from omega0."""
    if gd is None:
        return OscGenerator(0.0, np.zeros(dim), np.zeros(dim), omega * np.eye(dim))
    if not isinstance(gd, dict):
        raise ConfigError("params.gen: expected an object with rho/p/q/X")
    for key in gd:
        if key not in ("rho", "p", "q", "X"):
            raise ConfigError(f"params.gen.{key}: unknown generator key")
    rho = _as_complex(gd.get("rho", 0.0), "params.gen.rho")
    p = _as_complex_vector(gd.get("p", [0.0] * dim), "params.gen.p", dim)
    q = _as_complex_vector(gd.get("q", [0.0] * dim), "params.gen.q", dim)
    if "X" in gd:
        X = _as_complex_matrix(gd["X"], "params.gen.X", dim)
    else:
        X = np.eye(dim, dtype=complex)
    return OscGenerator(rho, p, q, X)


def _default_label(dim):
    # the label used throughout the docs: z0 = -1/2 keeps K(z,z) = 1 at dim 1
    return np.array([-0.5] + [1.0] * dim, dtype=complex)


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class Check:
    """One named numeric compared against the tolerance it shipped with."""

    name: str
    value: float
    tolerance: float
    comparison: str  # "<=" or ">="
    passed: bool


def _check_le(name, value, tol):
    return Check(name, float(value), float(tol), "<=", bool(value <= tol))


def _check_ge(name, value, tol):
    return Check(name, float(value), float(tol), ">=", bool(value >= tol))


@dataclass
class RunReport:
    experiment: str
    space: dict
    seed: int
    library_version: str
    checks: list
    passed: bool
    data_files: list
    params: dict  # config values over the table defaults, so plain JSON
    wall_time_s: float = 0.0

    def to_json(self):
        """Report file payload; wall time stays out so reruns are identical."""
        payload = asdict(self)
        del payload["wall_time_s"]
        return payload


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_csv(outdir, name, header, rows):
    """Write rows under header.  An array (a float table) is written with
    one %.17g template, which gives _fmt's text, 512 rows at a time as
    Python floats, which format fastest; rows given as lists go through
    _fmt value by value."""
    with open(os.path.join(outdir, name), "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for i in range(0, len(rows), 512):
                block = rows[i:i + 512]
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                fh.write(",".join(map(_fmt, row)) + "\n")


def _finite_rows(rows):
    """Whether every float of a table's rows (an array, or row sequences) is finite."""
    if isinstance(rows, np.ndarray):
        return bool(np.isfinite(rows).all())
    return all(math.isfinite(v) for row in rows for v in row if isinstance(v, float))


def _worker_count():
    """The worker count, 1: experiments run serially (perfbench reads it)."""
    return 1


def _fan_out(fn, items):
    """Ordered map over independent work items (perfbench's tracer wraps
    this by name to time the items)."""
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class Param:
    """One experiment parameter.  ``parse`` checks and converts its value
    (None leaves structural values, such as points, generators and labels,
    to the runner)."""

    name: str
    default: object
    doc: str
    parse: object = None


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    params: tuple
    runner: object = field(repr=False, default=None)
    klauder: bool = False  # runs on a klauder space, after _klauder_preamble


@dataclass
class RunContext:
    space: object
    params: dict  # parsed values
    rng: np.random.Generator
    dim: int = 0  # klauder mode count, drawn by _klauder_preamble

    def label(self, name, default=None):
        """params[name] as a validated klauder label; when omitted,
        ``default``, or the documented label [-1/2, 1, ...] if that is None."""
        v = self.params[name]
        if v is not None:
            return _parse_point(self.space, v, f"params.{name}")
        return self.space.validate(_default_label(self.dim) if default is None else default)


def _resolve_params(exp, raw):
    """The config's params over the defaults, as the report echoes them,
    and the same values with every typed one parsed."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("params: expected an object")
    allowed = {p.name for p in exp.params}
    for key in raw:
        if key not in allowed and key != "seed":
            raise ConfigError(f"params.{key}: unknown parameter for {exp.name}")
    resolved = {p.name: raw.get(p.name, p.default) for p in exp.params}
    parsed = {
        p.name: p.parse(resolved[p.name], f"params.{p.name}") if p.parse else resolved[p.name]
        for p in exp.params
    }
    return resolved, parsed


def _klauder_preamble(ctx, exp):
    """The space check, mode-count draw and generator parsing that every
    klauder experiment starts with.  The draw must stay the first one from
    the seeded stream, which every report depends on."""
    if not isinstance(ctx.space, KlauderSpace):
        raise ConfigError(f"space.kind: the {exp.name} experiment runs on a klauder space")
    ctx.dim = ctx.space.sample_point(ctx.rng).shape[0] - 1
    if "gen" in ctx.params:
        ctx.params["gen"] = _parse_generator(ctx.params["gen"], ctx.params["omega0"], ctx.dim)


def _run_gram_psd(ctx):
    p = ctx.params
    tol_rel, tol_abs = p["tol_rel"], p["tol_abs"]
    if p["points"] is not None:
        if not isinstance(p["points"], list) or len(p["points"]) < 2:
            raise ConfigError("params.points: expected at least two points")
        sets = [[_parse_point(ctx.space, v, f"params.points[{i}]")
                 for i, v in enumerate(p["points"])]]
    else:
        if p["n_points"] < 2:
            raise ConfigError("params.n_points: need at least two points")
        sets = [ctx.space.sample_points(ctx.rng, p["n_points"]) for _ in range(p["samples"])]

    def one(pts):
        return psd_check(gram(ctx.space, pts), tol_rel=tol_rel, tol_abs=tol_abs)

    reports = _fan_out(one, sets)
    rows = [
        (i, r.min_eigenvalue, r.max_eigenvalue, r.hermiticity_defect)
        for i, r in enumerate(reports)
    ]
    worst = min(reports, key=lambda r: r.min_eigenvalue)
    floor = -tol_abs - tol_rel * max(1.0, worst.max_eigenvalue)
    checks = [
        Check("min_eigenvalue", worst.min_eigenvalue, floor, ">=",
              all(r.passed for r in reports)),
        _check_le("hermiticity_defect",
                  max(r.hermiticity_defect for r in reports), 1e-12),
    ]
    return checks, [("gram_eigs.csv", ["sample", "min_eig", "max_eig", "herm_defect"], rows)]


def _run_geometry_check(ctx):
    p = ctx.params
    Z = ctx.space.sample_points(ctx.rng, p["cases"])
    X = ctx.space.sample_tangent(Z, ctx.rng)
    Y = ctx.space.sample_tangent(Z, ctx.rng)

    rep = geometry_report(ctx.space, Z, X, Y)
    scale = np.maximum(1.0, np.abs(ctx.space.kernel(Z, Z)) ** 2)
    margin = infinitesimal_cs_margin(ctx.space, Z, X) / scale
    wtg = psd_check(wtg_matrix(ctx.space, Z, X), tol_rel=1e-7, tol_abs=1e-8)
    rel_g, rel_theta, rel_omega = rep.rel_discrepancies
    # the case numbers are whole floats, which %.17g writes as integers
    rows = np.column_stack([np.arange(len(Z), dtype=float), rel_g, rel_theta, rel_omega,
                            margin, wtg.min_eigenvalue])
    # cases without closed forms compare the FD oracle with itself and read 0
    checks = [
        _check_le("closed_vs_fd_rel", np.max(np.maximum(rel_g, rel_theta)), p["rel_tol"]),
        _check_ge("cs_margin_over_scale", np.min(margin), -p["margin_tol"]),
        Check("wtg_min_eigenvalue", float(np.min(wtg.min_eigenvalue)), -1e-8, ">=",
              bool(np.all(wtg.passed))),
    ]
    header = ["case", "rel_g", "rel_theta", "rel_omega", "cs_margin", "wtg_min_eig"]
    return checks, [("geometry_cases.csv", header, rows)]


def _run_weyl_check(ctx):
    p, dim = ctx.params, ctx.dim
    pairs = [(ctx.space.sample_point(ctx.rng), ctx.space.sample_point(ctx.rng))
             for _ in range(p["samples"])]

    def cvec():
        return ctx.rng.standard_normal(dim) + 1j * ctx.rng.standard_normal(dim)

    pv, qv, ppv, qpv = cvec(), cvec(), cvec(), cvec()
    rep = weyl_relation_residuals(pv, qv, ppv, qpv, pairs)
    rho = complex(ctx.rng.standard_normal() + 1j * ctx.rng.standard_normal())
    X = (ctx.rng.standard_normal((dim, dim)) + 1j * ctx.rng.standard_normal((dim, dim))) / 2.0
    colon = gamma_colon_residual(rho, cvec(), cvec(), X, pairs)
    rows = [
        ("exchange", rep.exchange, rep.scale),
        ("composition", rep.composition, rep.scale),
        ("inverse", rep.inverse, rep.scale),
        ("swap", rep.swap, rep.scale),
        ("group_commutator", rep.group_commutator, rep.scale),
        ("normal_ordering", colon, 1.0),
    ]
    checks = [
        _check_le("weyl_max_residual_over_scale", rep.max_residual / rep.scale, p["tol"]),
        _check_le("normal_ordering_residual", colon, p["tol"]),
    ]
    return checks, [("weyl_residuals.csv", ["identity", "residual", "scale"], rows)]


_EPS_MIN = 1e-150  # smallest ccr-check step: its square is still a normal float


def _run_ccr_check(ctx):
    p, dim = ctx.params, ctx.dim
    pv = _as_complex_vector(p["p"], "params.p", dim) if p["p"] is not None else np.ones(dim)
    qv = _as_complex_vector(p["q"], "params.q", dim) if p["q"] is not None else np.ones(dim)
    origin = np.zeros(dim + 1)
    z, zp = ctx.label("z", origin), ctx.label("zp", origin)
    eps0, levels = p["eps0"], p["levels"]
    if not 0 < eps0 <= 1:
        raise ConfigError("params.eps0: expected a step in (0, 1]")
    if levels < 2:
        raise ConfigError("params.levels: need at least two halving levels")
    if levels > 1 + math.log2(eps0 / _EPS_MIN):
        # the quotients divide by eps^2, which underflows from here on
        raise ConfigError(f"params.levels: {levels} levels halve eps0 = {eps0:g} "
                          f"below {_EPS_MIN:g}, where eps^2 underflows")
    eps_list = [eps0 / 2 ** j for j in range(levels)]
    rep = ccr_epsilon_check(pv, qv, z, zp, eps_list)
    rows = [
        (e, d.real, d.imag, (d / e ** 2).real, (d / e ** 2).imag)
        for e, d in zip(eps_list, rep.deltas)
    ]
    scale = max(1.0, abs(klauder_kernel(z, zp)))
    checks = [_check_le("ccr_product_residual_over_scale",
                        rep.residual_product / scale, p["tol"])]
    return checks, [("ccr_deltas.csv", ["eps", "delta_re", "delta_im", "quot_re", "quot_im"],
                     rows)]


def _complex_rows(times, values):
    """Rows [t, re0, im0, re1, im1, ...] of complex samples, one per time."""
    values = np.ascontiguousarray(values, dtype=complex).reshape(len(times), -1)
    return np.column_stack([times, values.view(float)])


def _horizon(p):
    """params t_end and dt, checked to give a trajectory at least one step long."""
    t_end, dt = p["t_end"], p["dt"]
    if t_end <= 0 or dt <= 0:
        raise ConfigError("params.t_end/params.dt: must be positive")
    if t_end / dt <= 0.5:
        raise ConfigError(f"params.t_end: {t_end:g} is shorter than one step dt={dt:g}")
    return t_end, dt


def _whole(traj):
    """``traj``, or a DomainError if it stopped where its label left the domain."""
    if traj.meta["aborted"]:
        raise DomainError(f"the trajectory left the domain at t={traj.times[-1]:g}: "
                          f"{traj.meta['reason']}")
    return traj


def _traj_table(ctx, name, traj):
    header = ["t"]
    for j in range(ctx.space.coord_len):
        header += [f"re{j}", f"im{j}"]
    return name, header, _complex_rows(traj.times, traj.points)


def _run_dynamics(ctx):
    p = ctx.params
    gen, z0 = p["gen"], ctx.label("z0")
    t_end, dt = _horizon(p)
    ham = HamiltonianSpec(gen=gen)
    traj = _whole(propagate_ode(ctx.space, ham, z0, t_end, dt))
    series = autocorrelation(ctx.space, z0, traj)

    exact = _flow_points(gen, z0, len(traj.points) - 1, dt, ham.hbar)
    err = float(np.max(np.abs(traj.points - exact)))
    checks = [_check_le("max_coordinate_error", err, p["err_tol"])]

    adj = gen.adjoint()
    self_adjoint = (
        abs(gen.rho - adj.rho) <= 1e-12
        and np.allclose(gen.p, adj.p, rtol=0.0, atol=1e-12)
        and np.allclose(gen.X, adj.X, rtol=0.0, atol=1e-12)
    )
    if self_adjoint:
        norms = ctx.space.kernel(traj.points, traj.points).real
        drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
        checks.append(_check_le("norm_drift_rel", drift, p["norm_tol"]))
    autocorr = _complex_rows(series.times, series.values)
    return checks, [_traj_table(ctx, "trajectory.csv", traj),
                    ("autocorr.csv", ["t", "re", "im"], autocorr)]


def _run_spectrum(ctx):
    p = ctx.params
    gen, t_max, dt, eta = p["gen"], p["t_max"], p["dt"], p["eta"]
    z = ctx.label("z")
    zp = ctx.label("zp", z)
    e_min, e_max, e_step = p["E_min"], p["E_max"], p["E_step"]
    if e_max <= e_min or e_step <= 0:
        raise ConfigError("params.E_min/E_max/E_step: expected an increasing grid")
    if (e_max - e_min) / e_step > MAX_SIZE:
        raise ConfigError(f"params.E_min/E_max/E_step: more than {MAX_SIZE} grid steps")
    if eta <= 0:
        raise ConfigError("params.eta: must be positive")
    grid = np.arange(e_min, e_max + e_step * 0.5, e_step)
    try:
        _alias_guard(grid, dt, 1.0)
    except DomainError as err:
        raise ConfigError(f"params.dt: {err}") from None
    same_label = np.array_equal(z, zp)
    series = oscillator_series(gen, z, zp, t_max, dt)
    swapped = None if same_label else oscillator_series(gen, zp, z, t_max, dt)
    lines = spectrum_scan(series, grid, swapped=swapped, floor=p["floor"])
    ham = HamiltonianSpec(gen=gen)
    # by keyword: perfbench's tracing hook reads these arguments by name
    dens = spectral_density(ham=ham, z=z, zp=zp, E_grid=grid, eta=eta, dt=dt)
    tables = [("lines.csv", ["E", "weight"], [(l.energy, l.weight) for l in lines]),
              ("density.csv", ["E", "density"], np.column_stack([grid, dens]))]
    checks = [_check_ge("lines_found", float(len(lines)), 1.0)]
    if same_label and lines:
        # completeness: the scan weights are real and sum to K(z,z) when the
        # grid covers the support; off the diagonal the scan only reports
        # magnitudes, so the comparison is not meaningful there
        ksum = sum(l.weight for l in lines)
        kref = ctx.space.kernel(z, zp).real
        checks.append(_check_le("weight_sum_vs_kernel",
                                abs(ksum - kref) / max(1.0, abs(kref)),
                                p["completeness_tol"]))
        checks.append(_check_ge("density_min", float(np.min(dens)), -1e-6))
    return checks, tables


def _run_resolvent(ctx):
    p = ctx.params
    E, dt, t_max = p["E"], p["dt"], p["t_max"]
    z = ctx.label("z")
    zp = ctx.label("zp", z)
    if E.imag <= 0:
        raise ConfigError("params.E: needs a positive imaginary part")
    ham = HamiltonianSpec(gen=p["gen"])
    g = resolvent_element(ham, z, zp, E, t_max=t_max, dt=dt)
    eq = resolvent_equation_residual(ham, z, zp, E, t_max=t_max, dt=dt)
    sym = resolvent_symmetry_residual(ham, z, zp, E, t_max=t_max, dt=dt)
    scale = max(1.0, abs(ctx.space.kernel(z, zp)))
    checks = [
        _check_le("resolvent_equation_residual", eq, p["eq_tol"]),
        _check_le("symmetry_residual_over_scale", sym / scale, p["sym_tol"]),
    ]
    return checks, [("resolvent.csv", ["E_re", "E_im", "G_re", "G_im"],
                     [(E.real, E.imag, g.real, g.imag)])]


def _quadratic_energy(space):
    """H(z) = K(z,z) |zhat|^2, the matrix element of the number operator,
    broadcast over labels stacked along leading axes."""

    def H(z):
        return space.kernel(z, z).real * np.vecdot(z[..., 1:], z[..., 1:]).real

    return H


def _quadratic_energy_dH(space):
    """dH/dconj(z) = K(z,z) [|zhat|^2, zhat (|zhat|^2 + 1)] for the
    _quadratic_energy H on klauder, where K(z,z) = exp(2 Re z0 + |zhat|^2),
    from one kernel evaluation; in label form, broadcast like H."""

    def dH(z):
        zh = z[..., 1:]
        k = space.kernel(z, z).real
        n = np.vecdot(zh, zh).real
        out = np.empty(np.shape(z), dtype=complex)
        out[..., 0] = k * n
        out[..., 1:] = (k * (n + 1.0))[..., None] * zh
        return out

    return dH


def _run_df_propagate(ctx):
    p = ctx.params
    z0 = ctx.label("z0")
    t_end, dt = _horizon(p)
    if np.all(np.abs(np.asarray(z0)[1:]) < 1e-12):
        raise ConfigError("params.z0: the orbit angle needs a nonzero mode coordinate")
    ham = HamiltonianSpec(H=_quadratic_energy(ctx.space), dH=_quadratic_energy_dH(ctx.space),
                          stacked=True)
    traj = _whole(el_integrate(ctx.space, ham, z0, t_end, dt))
    t_fin = float(traj.times[-1])
    got = np.asarray(traj.points[-1], dtype=complex)
    want = np.asarray(z0, dtype=complex).copy()
    want[1:] *= np.exp(-1j * t_fin)
    ang = 0.0
    for a, b in zip(got[1:], want[1:]):
        if abs(b) < 1e-12:
            continue
        d = np.angle(a) - np.angle(b)
        ang = max(ang, abs(math.atan2(math.sin(d), math.cos(d))))
    checks = [
        _check_le("orbit_angle_error", ang, p["angle_tol"]),
        _check_le("mode_magnitude_drift",
                  float(np.max(np.abs(np.abs(got[1:]) - np.abs(want[1:])))), 1e-6),
    ]
    if p["stationarity"]:
        base = _whole(el_integrate(ctx.space, ham, z0, 1.0, 5e-3))
        s0 = df_action(base, ham, ctx.space)
        n = len(base.points)
        bump = np.array([0.3 + 0.2j] + [1.0 - 0.5j] * ctx.dim)
        amps = np.sin(np.pi * np.arange(n) / (n - 1))

        def action_at(epsv):
            pts = base.points + epsv * amps[:, None] * bump
            return df_action(Trajectory(base.times, pts), ham, ctx.space)

        d1 = abs(action_at(0.02) - s0)
        d2 = abs(action_at(0.04) - s0)
        expo = math.log2(d2 / d1)
        checks.append(_check_le("stationarity_exponent_gap",
                                abs(expo - 2.0), p["exponent_tol"]))
    return checks, [_traj_table(ctx, "trajectory.csv", traj)]


def _run_sd_residual(ctx):
    p = ctx.params
    if p["t_max"] <= 0:
        raise ConfigError("params.t_max: must be positive")
    if p["E"].imag <= 0:
        raise ConfigError("params.E: needs a positive imaginary part")
    ham = HamiltonianSpec(gen=p["gen"])
    # drawn case by case, which fixes the stream; evaluated as one stack
    draws = []
    for _ in range(p["samples"]):
        z = ctx.space.sample_point(ctx.rng)
        zp = ctx.space.sample_point(ctx.rng)
        t = float(ctx.rng.uniform(0.0, p["t_max"]))
        draws.append((z, zp, t))
    Z, Zp, T = (np.asarray(a) for a in zip(*draws))
    residuals = schwinger_dyson_residual(ham, Z, Zp, T)
    rows = list(zip(range(len(T)), T.tolist(), residuals.tolist()))
    zd = ctx.space.validate(_default_label(ctx.dim))
    eq = resolvent_equation_residual(ham, zd, zd, p["E"])
    checks = [
        _check_le("sd_max_residual", np.max(residuals), p["tol"]),
        _check_le("resolvent_equation_residual", eq, p["eq_tol"]),
    ]
    return checks, [("sd_residuals.csv", ["sample", "t", "residual"], rows)]


EXPERIMENTS = {
    e.name: e
    for e in [
        Experiment(
            "gram-psd",
            "Gram matrices of sampled (or given) point sets pass the PSD check.",
            (
                Param("points", None, "explicit points; omit to sample"),
                Param("samples", 10, "number of seeded point sets", _as_count),
                Param("n_points", 20, "points per set", _as_count),
                Param("tol_rel", 1e-10, "relative eigenvalue floor", _as_float),
                Param("tol_abs", 1e-12, "absolute eigenvalue floor", _as_float),
            ),
            _run_gram_psd,
        ),
        Experiment(
            "geometry-check",
            "Closed-form metric/1-form vs finite differences; infinitesimal "
            "Cauchy-Schwarz margins and 2x2 kernel-jet PSD.",
            (
                Param("cases", 100, "seeded (z, X, Y) samples", _as_count),
                Param("rel_tol", 1e-5, "closed-vs-FD relative tolerance", _as_float),
                Param("margin_tol", 1e-8, "allowed negative margin over scale", _as_float),
            ),
            _run_geometry_check,
        ),
        Experiment(
            "weyl-check",
            "Weyl operator identities (exchange, composition, inverse, swap, "
            "group commutator) and the normal-ordering identity.",
            (
                Param("samples", 100, "seeded (z, z') label pairs", _as_count),
                Param("tol", 1e-12, "residual tolerance over scale", _as_float),
            ),
            _run_weyl_check,
            klauder=True,
        ),
        Experiment(
            "ccr-check",
            "eps^2 slope of the ordered-exponential commutator defect against "
            "the canonical commutation value.",
            (
                Param("p", None, "left exponent vector (default all ones)"),
                Param("q", None, "right exponent vector (default all ones)"),
                Param("z", None, "left label (default origin)"),
                Param("zp", None, "right label (default origin)"),
                Param("eps0", 0.1, "largest epsilon", _as_float),
                Param("levels", 6, "halvings of eps0", _as_int),
                Param("tol", 1e-6, "slope tolerance over scale", _as_float),
            ),
            _run_ccr_check,
            klauder=True,
        ),
        Experiment(
            "dynamics",
            "RK4 label trajectory vs the exact flow of an oscillator "
            "generator; norm conservation when self-adjoint.",
            (
                Param("gen", None, "generator {rho, p, q, X}"),
                Param("omega0", 1.0, "harmonic frequency when gen is omitted", _as_float),
                Param("z0", None, "initial label (default [-1/2, 1, ...])"),
                Param("t_end", 10.0, "integration horizon", _as_float),
                Param("dt", 1e-3, "RK4 step", _as_float),
                Param("err_tol", 1e-8, "max coordinate error tolerance", _as_float),
                Param("norm_tol", 1e-8, "relative norm drift tolerance", _as_float),
            ),
            _run_dynamics,
            klauder=True,
        ),
        Experiment(
            "spectrum",
            "Windowed line extraction and eta-broadened density from the "
            "autocorrelation series.",
            (
                Param("gen", None, "generator {rho, p, q, X}"),
                Param("omega0", 1.0, "harmonic frequency when gen is omitted", _as_float),
                Param("z", None, "left label (default [-1/2, 1, ...])"),
                Param("zp", None, "right label (default z)"),
                Param("t_max", 400.0 * math.pi, "series horizon", _as_float),
                Param("dt", 0.05, "series step", _as_float),
                Param("E_min", -0.5, "energy grid start", _as_float),
                Param("E_max", 6.5, "energy grid end", _as_float),
                Param("E_step", 0.002, "energy grid spacing", _as_float),
                Param("floor", 1e-4, "line detection floor (relative)", _as_float),
                Param("eta", 0.05, "density broadening", _as_float),
                Param("completeness_tol", 1e-3, "weight-sum vs kernel tolerance", _as_float),
            ),
            _run_spectrum,
            klauder=True,
        ),
        Experiment(
            "resolvent",
            "Resolvent matrix element by damped quadrature, with the "
            "resolvent-identity and symmetry residuals.",
            (
                Param("gen", None, "generator {rho, p, q, X}"),
                Param("omega0", 1.0, "harmonic frequency when gen is omitted", _as_float),
                Param("z", None, "left label (default [-1/2, 1, ...])"),
                Param("zp", None, "right label (default z)"),
                Param("E", [0.5, 0.1], "complex energy [re, im], im > 0", _as_complex),
                Param("dt", 1e-2, "quadrature step", _as_float),
                Param("t_max", 0.0, "horizon (0 = auto from Im E)", _as_float),
                Param("eq_tol", 1e-4, "resolvent-identity residual tolerance", _as_float),
                Param("sym_tol", 1e-10, "conjugate-symmetry tolerance over scale", _as_float),
            ),
            _run_resolvent,
            klauder=True,
        ),
        Experiment(
            "df-propagate",
            "Variational label flow for the quadratic energy: orbit angle vs "
            "the exact rotation plus an action-stationarity probe.",
            (
                Param("z0", None, "initial label (default [-1/2, 1, ...])"),
                Param("t_end", 10.0, "integration horizon", _as_float),
                Param("dt", 1e-3, "RK4 step", _as_float),
                Param("angle_tol", 1e-6, "orbit angle tolerance (radians)", _as_float),
                Param("stationarity", True, "probe the action exponent", _as_bool),
                Param("exponent_tol", 0.1, "allowed deviation from exponent 2", _as_float),
            ),
            _run_df_propagate,
            klauder=True,
        ),
        Experiment(
            "sd-residual",
            "Time-derivative identity of the autocorrelation kernel on seeded "
            "labels, plus one resolvent-identity spot check.",
            (
                Param("gen", None, "generator {rho, p, q, X}"),
                Param("omega0", 1.0, "harmonic frequency when gen is omitted", _as_float),
                Param("samples", 20, "seeded (z, z', t) draws", _as_count),
                Param("t_max", 2.0, "largest sampled time", _as_float),
                Param("tol", 1e-6, "derivative residual tolerance", _as_float),
                Param("E", [0.5, 0.1], "energy for the spot check", _as_complex),
                Param("eq_tol", 1e-4, "spot-check residual tolerance", _as_float),
            ),
            _run_sd_residual,
            klauder=True,
        ),
    ]
}


# ---------------------------------------------------------------------------
# entry points


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a single top-level object")
    for key in raw:
        if key not in ("space", "experiment", "params", "output"):
            raise ConfigError(f"{key}: unknown top-level key")
    for key in ("space", "experiment"):
        if key not in raw:
            raise ConfigError(f"{key}: missing required top-level key")
    return raw


def _resolve_output(raw, out_flag):
    out = raw.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output: expected an object")
    for key in out:
        if key not in ("path", "format"):
            raise ConfigError(f"output.{key}: unknown key")
    fmt = out.get("format", "csv")
    if fmt != "csv":
        raise ConfigError(f"output.format: unsupported format {fmt!r} (only csv)")
    path = out_flag if out_flag is not None else out.get("path", ".")
    if not isinstance(path, str):
        raise ConfigError("output.path: expected a string")
    return path


def run_config(config_path, out_flag=None, seed_flag=None):
    """Execute one experiment config; returns the RunReport."""
    t_start = time.perf_counter()
    raw = _load_config(config_path)
    space = _build_space(raw["space"])
    name = raw["experiment"]
    if not isinstance(name, str) or name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(f"experiment: unknown experiment {name!r} (one of: {known})")
    exp = EXPERIMENTS[name]
    resolved, params = _resolve_params(exp, raw.get("params"))
    raw_params = raw.get("params") or {}
    if seed_flag is not None:
        seed = seed_flag
    elif "seed" in raw_params:
        seed = _as_int(raw_params["seed"], "params.seed")
    else:
        seed = DEFAULT_SEED
    if seed < 0:
        raise ConfigError("params.seed: must be nonnegative")
    outdir = _resolve_output(raw, out_flag)

    ctx = RunContext(space=space, params=params, rng=np.random.default_rng(seed))
    try:
        # overflow and invalid values surface as named errors (non-finite
        # labels, kernels, flows and forms are rejected), not as warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if exp.klauder:
                _klauder_preamble(ctx, exp)
            checks, tables = exp.runner(ctx)
    except (DomainError, AxiomViolationError, DegenerateFormError, MemoryError) as err:
        raise ConfigError(f"params: {err}") from None
    for c in checks:
        # json would write NaN or Infinity, which strict parsers reject
        if not math.isfinite(c.value):
            raise ConfigError(f"params: the {c.name} check is not finite ({c.value:g})")
    for table_name, _, rows in tables:
        if not _finite_rows(rows):
            raise ConfigError(f"params: {table_name} holds a value that is not finite")
    report = RunReport(
        experiment=name,
        space=raw["space"],
        seed=seed,
        library_version=__version__,
        checks=checks,
        passed=all(c.passed for c in checks),
        data_files=[t[0] for t in tables],
        params=resolved,
        wall_time_s=0.0,
    )
    payload = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    # the run is accepted: only now does it create files
    try:
        os.makedirs(outdir, exist_ok=True)
        for table in tables:
            _write_csv(outdir, *table)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            fh.write(payload)
    except OSError as err:
        raise ConfigError(f"output.path: {outdir}: {err.strerror or err}") from None
    report.data_files.append("report.json")
    report.wall_time_s = time.perf_counter() - t_start
    return report


def _print_report(report):
    print(f"experiment: {report.experiment}  seed: {report.seed:#x}"
          f"  version: {report.library_version}")
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"[{mark}] {c.name}: value={c.value:.6g} tolerance={c.tolerance:.6g}"
              f" ({c.comparison})")
    print("files: " + ", ".join(report.data_files))
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} (wall time {report.wall_time_s:.2f} s)")


def _print_experiments():
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        exp = EXPERIMENTS[name]
        print(f"\n{name}")
        print(f"  {exp.description}")
        print("  params (all optional; 'seed' is accepted everywhere):")
        for p in exp.params:
            default = "sampled/derived" if p.default is None else repr(p.default)
            print(f"    {p.name:<18} default {default:<22} {p.doc}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cohk",
        description="coherent-space experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    sub.add_parser("list", help="describe the available experiments")
    args = parser.parse_args(argv)

    if args.command == "list":
        _print_experiments()
        return 0

    try:
        report = run_config(args.config, out_flag=args.out, seed_flag=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    _print_report(report)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
