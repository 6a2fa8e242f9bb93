"""End-to-end acceptance gate: ten criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every criterion states its numeric tolerance and a wall-clock
budget; a criterion passes only if both hold.  Tolerances here are the
release contract, not aspirations: loosening one is an API change.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from cohk.catalog import (
    default_spaces,
    geometry_report,
    infinitesimal_cs_margin,
    make_space,
    wtg_matrix,
)
from cohk.cli import run_config
from cohk.core import gram, psd_check
from cohk.dynamics import (
    HamiltonianSpec,
    df_action,
    el_integrate,
    poisson_bracket,
    propagate_ode,
)
from cohk.fock import (
    OscGenerator,
    ccr_epsilon_check,
    gamma_colon_residual,
    gen_block,
    osc_act,
    osc_from_block,
    weyl_element,
    weyl_relation_residuals,
)
from cohk.spectral import (
    oscillator_series,
    rational_element,
    resolvent_element,
    resolvent_equation_residual,
    schwinger_dyson_residual,
    spectrum_scan,
    time_average_overlap,
)

SEED = 0xC0FFEE
Z0 = np.array([-0.5, 1.0], dtype=complex)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def _verdict(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}"
    print(line)
    assert ok, line


def _number_op():
    return OscGenerator(0.0, np.zeros(1), np.zeros(1), np.eye(1))


def _w(n):
    return math.exp(-1.0) / math.factorial(n)


def test_criterion_01_gram_psd():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_eig, worst_floor, all_ok = np.inf, 0.0, True
    for space in default_spaces():
        for _ in range(10):
            pts = space.sample_points(rng, 20)
            rep = psd_check(gram(space, space.stack(pts)))
            all_ok = all_ok and rep.passed
            if rep.min_eigenvalue < worst_eig:
                worst_eig = rep.min_eigenvalue
                worst_floor = -1e-12 - 1e-10 * max(1.0, rep.max_eigenvalue)
    dt = time.perf_counter() - t0
    _verdict(
        1, "gram-psd", all_ok and dt < 5.0,
        f"worst min eig {worst_eig:.3e} (floor {worst_floor:.3e}) "
        f"over 8 spaces x 10 samples x 20 points; {dt:.2f} s < 5 s",
    )


def test_criterion_02_axiom_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n = 10_000
    worst = {"herm": 0.0, "cs": -np.inf, "tri": -np.inf, "lower": -np.inf,
             "upper": -np.inf}
    ok = True
    for space in default_spaces():
        A = np.asarray(space.sample_points(rng, n))
        B = np.asarray(space.sample_points(rng, n))
        C = np.asarray(space.sample_points(rng, n))
        k_ab = np.asarray(space.kernel(A, B))
        k_ba = np.asarray(space.kernel(B, A))
        k_bc = np.asarray(space.kernel(B, C))
        k_ac = np.asarray(space.kernel(A, C))
        k_aa = np.asarray(space.kernel(A, A)).real
        k_bb = np.asarray(space.kernel(B, B)).real
        k_cc = np.asarray(space.kernel(C, C)).real
        scale = max(1.0, k_aa.max(), k_bb.max(), k_cc.max())
        tol = 1e-10 * scale

        herm = np.max(np.abs(np.conj(k_ab) - k_ba)
                      / np.maximum(1.0, np.abs(k_ab)))
        worst["herm"] = max(worst["herm"], float(herm))
        ok = ok and herm <= 1e-12

        cs = np.max(np.abs(k_ab) ** 2 - k_aa * k_bb) / scale ** 2
        worst["cs"] = max(worst["cs"], float(cs))
        ok = ok and cs <= 1e-10

        def dist(kxx, kyy, kxy):
            rad = kxx + kyy - 2.0 * kxy.real
            assert np.all(rad >= -1e-12 * np.maximum(1.0, kxx + kyy))
            return np.sqrt(np.clip(rad, 0.0, None))

        d_ab = dist(k_aa, k_bb, k_ab)
        d_bc = dist(k_bb, k_cc, k_bc)
        d_ac = dist(k_aa, k_cc, k_ac)
        la, lb = np.sqrt(np.clip(k_aa, 0, None)), np.sqrt(np.clip(k_bb, 0, None))

        tri = np.max(d_ac - d_ab - d_bc)
        lower = np.max(np.abs(la - lb) - d_ab)
        upper = np.max(d_ab - la - lb)
        worst["tri"] = max(worst["tri"], float(tri))
        worst["lower"] = max(worst["lower"], float(lower))
        worst["upper"] = max(worst["upper"], float(upper))
        ok = ok and tri <= tol and lower <= tol and upper <= tol
    dt = time.perf_counter() - t0
    _verdict(
        2, "axiom-suite", ok and dt < 10.0,
        f"10^4 tuples x 8 spaces: herm {worst['herm']:.1e} (<=1e-12), "
        f"cs {worst['cs']:.1e} (<=1e-10), triangle {worst['tri']:.1e}, "
        f"norm bounds {worst['lower']:.1e}/{worst['upper']:.1e} "
        f"(<=1e-10*scale); {dt:.2f} s < 10 s",
    )


def test_criterion_03_geometry_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    spaces = default_spaces()
    worst_rel, worst_margin, wtg_ok = 0.0, np.inf, True
    for i in range(100):
        space = spaces[i % len(spaces)]
        z = space.sample_point(rng)
        X = space.sample_tangent(z, rng)
        Y = space.sample_tangent(z, rng)
        rep = geometry_report(space, z, X, Y)
        if rep.provenance == "closed":
            worst_rel = max(worst_rel, max(rep.rel_discrepancies[:2]))
        scale = max(1.0, abs(complex(space.kernel(z, z))) ** 2)
        worst_margin = min(worst_margin,
                           infinitesimal_cs_margin(space, z, X) / scale)
        wtg_ok = wtg_ok and psd_check(
            wtg_matrix(space, z, X), tol_rel=1e-7, tol_abs=1e-8
        ).passed
    dt = time.perf_counter() - t0
    ok = worst_rel <= 1e-5 and worst_margin >= -1e-8 and wtg_ok and dt < 10.0
    _verdict(
        3, "geometry", ok,
        f"closed vs FD rel {worst_rel:.2e} (<=1e-5), cs margin "
        f"{worst_margin:.2e} (>=-1e-8*scale), 2x2 jets PSD={wtg_ok}; "
        f"{dt:.2f} s < 10 s",
    )


def test_criterion_04_fock_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_weyl, worst_colon, ok = 0.0, 0.0, True
    cases = 0
    for draw in range(50):
        dim = draw % 3 + 1

        def cvec(scale=0.6):
            return scale * (rng.standard_normal(dim)
                            + 1j * rng.standard_normal(dim))

        def label():
            return 0.5 * (rng.standard_normal(dim + 1)
                          + 1j * rng.standard_normal(dim + 1))

        pairs = [(label(), label()) for _ in range(20)]
        rep = weyl_relation_residuals(cvec(), cvec(), cvec(), cvec(), pairs)
        worst_weyl = max(worst_weyl, rep.max_residual / rep.scale)
        ok = ok and rep.max_residual <= 1e-12 * rep.scale
        X = 0.5 * (rng.standard_normal((dim, dim))
                   + 1j * rng.standard_normal((dim, dim)))
        rho = complex(rng.standard_normal(), rng.standard_normal())
        colon = gamma_colon_residual(rho, cvec(), cvec(), X, pairs)
        worst_colon = max(worst_colon, colon)
        ok = ok and colon <= 1e-12
        cases += len(pairs)

    vac = weyl_element(np.ones(1), np.ones(1), np.zeros(2), np.zeros(2))
    vac_err = abs(vac - math.exp(0.5))
    ok = ok and vac_err <= 1e-12

    slope = ccr_epsilon_check(np.ones(1), np.ones(1), np.zeros(2), np.zeros(2),
                              [0.1 / 2 ** j for j in range(6)])
    ok = ok and slope.residual_product <= 1e-6
    dt = time.perf_counter() - t0
    _verdict(
        4, "fock-identities", ok and dt < 5.0,
        f"{cases} cases (n<=3): weyl {worst_weyl:.1e}, normal-ordering "
        f"{worst_colon:.1e} (<=1e-12*scale); vacuum element err "
        f"{vac_err:.1e} (<=1e-12); ccr slope err "
        f"{slope.residual_product:.1e} (<=1e-6); {dt:.2f} s < 5 s",
    )


def _exact_errors(space, gen, z0, t_end, dt):
    ham = HamiltonianSpec(gen=gen)
    traj = propagate_ode(space, ham, z0, t_end, dt)
    step = osc_from_block(expm(-1j * dt * gen_block(gen)))
    exact = np.asarray(z0, dtype=complex)
    err = 0.0
    for pt in traj.points[1:]:
        exact = osc_act(step, exact)
        err = max(err, float(np.max(np.abs(np.asarray(pt) - exact))))
    return err, traj


def test_criterion_05_dynamics():
    t0 = time.perf_counter()
    space = make_space("klauder")
    gen = _number_op()
    err, _ = _exact_errors(space, gen, Z0, 10.0, 1e-3)

    errs = [_exact_errors(space, gen, Z0, 10.0, h)[0]
            for h in (1e-2, 5e-3, 2.5e-3)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    driven = OscGenerator(0.3, [0.2 + 0.1j], [0.2 + 0.1j], np.eye(1))
    traj = propagate_ode(space, HamiltonianSpec(gen=driven), Z0, 10.0, 1e-3)
    norms = np.array([complex(space.kernel(p, p)).real for p in traj.points])
    drift = float(np.max(np.abs(norms - norms[0])) / norms[0])

    dt = time.perf_counter() - t0
    ok = err <= 1e-8 and min(orders) >= 3.9 and drift <= 1e-8 and dt < 5.0
    _verdict(
        5, "dynamics", ok,
        f"max coord err {err:.1e} (<=1e-8), order "
        f"{min(orders):.2f} (>=3.9), norm drift {drift:.1e} (<=1e-8); "
        f"{dt:.2f} s < 5 s",
    )


def test_criterion_06_spectral_suite():
    t0 = time.perf_counter()
    gen = _number_op()
    ham = HamiltonianSpec(gen=gen)
    t_max = 400.0 * math.pi  # 200 periods of the unit-frequency model
    series = oscillator_series(gen, Z0, Z0, t_max, 0.05)

    grid = np.arange(-0.5, 6.5 + 1e-12, 0.002)
    lines = spectrum_scan(series, grid)
    line_ok = len(lines) == 7
    e_err = w_err = np.inf
    if line_ok:
        e_err = max(abs(l.energy - n) for n, l in enumerate(lines))
        w_err = max(abs(l.weight - _w(n)) for n, l in enumerate(lines))
        line_ok = e_err <= 0.002 and w_err <= 1e-3

    avg = time_average_overlap(series, 0.0, 1256.6)
    avg_err = abs(avg - 0.367879)

    E = 0.5 + 0.1j
    exact_res = sum(_w(n) / (E - n) for n in range(60))
    res_err = abs(resolvent_element(ham, Z0, Z0, E) - exact_res)

    exact_rat = sum(_w(n) / (n + 1.0) for n in range(60))
    rat = rational_element(ham, Z0, Z0, [-1.0], [1.0], eta=0.01)
    rat_err = abs(rat - exact_rat)

    dt = time.perf_counter() - t0
    ok = (line_ok and avg_err <= 1e-3 and res_err <= 1e-4
          and rat_err <= 1e-4 and dt < 30.0)
    _verdict(
        6, "spectral-suite", ok,
        f"lines 0..6: energy err {e_err:.1e} (<=0.002), weight err "
        f"{w_err:.1e} (<=1e-3); time average err {avg_err:.1e} (<=1e-3); "
        f"resolvent err {res_err:.1e} (<=1e-4); rational err {rat_err:.1e} "
        f"(<=1e-4); {dt:.2f} s < 30 s",
    )


def test_criterion_07_derivative_and_resolvent_identities():
    t0 = time.perf_counter()
    space = make_space("klauder")
    ham = HamiltonianSpec(gen=_number_op())
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        z = space.sample_point(rng)
        zp = space.sample_point(rng)
        t = float(rng.uniform(0.0, 2.0))
        worst = max(worst, schwinger_dyson_residual(ham, z, zp, t))
    eq = resolvent_equation_residual(ham, Z0, Z0, 0.5 + 0.1j)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and eq <= 1e-4 and dt < 10.0
    _verdict(
        7, "derivative-identities", ok,
        f"time-derivative residual {worst:.1e} (<=1e-6) on 100 cases; "
        f"resolvent identity {eq:.1e} (<=1e-4); {dt:.2f} s < 10 s",
    )


def _quadratic_energy(space):
    def H(z):
        zhat = np.asarray(z, dtype=complex)[1:]
        return complex(space.kernel(z, z)).real * float(np.vdot(zhat, zhat).real)

    return H


def test_criterion_08_variational_flow():
    t0 = time.perf_counter()
    space = make_space("klauder")
    ham = HamiltonianSpec(H=_quadratic_energy(space))
    traj = el_integrate(space, ham, Z0, 10.0, 1e-3)
    end = traj.points[-1]
    angle_err = abs(np.angle(end[1] / (np.exp(-10.0j) * Z0[1])))

    base = el_integrate(space, ham, Z0, 1.0, 5e-3)
    s0 = df_action(base, ham, space)
    n = len(base.points)
    bump = np.sin(np.pi * np.arange(n) / (n - 1))

    def action_at(eps):
        pts = [p + eps * b * np.array([0.3 + 0.2j, 1.0 - 0.5j])
               for p, b in zip(base.points, bump)]
        from cohk.dynamics import Trajectory

        return df_action(Trajectory(base.times, pts), ham, space)

    d1 = abs(action_at(0.02) - s0)
    d2 = abs(action_at(0.04) - s0)
    expo = math.log2(d2 / d1)
    dt = time.perf_counter() - t0
    ok = angle_err <= 1e-6 and abs(expo - 2.0) <= 0.1 and dt < 10.0
    _verdict(
        8, "variational-flow", ok,
        f"orbit angle err {angle_err:.1e} rad (<=1e-6) at t=10; action "
        f"exponent {expo:.3f} (2.0 +/- 0.1); {dt:.2f} s < 10 s",
    )


def test_criterion_09_poisson_structure():
    t0 = time.perf_counter()
    space = make_space("klauder")
    rng = np.random.default_rng(SEED)
    f = lambda z: (z[1].real ** 2 + 0.3 * z[0].imag)
    g = lambda z: (z[1].imag * z[0].real + 0.1 * abs(z[1]) ** 2)
    h = lambda z: (z[0].real + z[1].real * z[1].imag)
    anti_exact = True
    worst_leibniz = worst_jacobi = 0.0
    for _ in range(100):
        z = 0.7 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        fg = poisson_bracket(space, f, g, z)
        anti_exact = anti_exact and fg == -poisson_bracket(space, g, f, z)
        anti_exact = anti_exact and poisson_bracket(space, f, f, z) == 0.0

        gh = lambda w: g(w) * h(w)
        lhs = poisson_bracket(space, f, gh, z)
        rhs = fg * h(z) + g(z) * poisson_bracket(space, f, h, z)
        worst_leibniz = max(
            worst_leibniz, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

        def bkt(a, b):
            return lambda w: poisson_bracket(space, a, b, w).real

        total = (poisson_bracket(space, f, bkt(g, h), z, grad_h=1e-4)
                 + poisson_bracket(space, g, bkt(h, f), z, grad_h=1e-4)
                 + poisson_bracket(space, h, bkt(f, g), z, grad_h=1e-4))
        worst_jacobi = max(worst_jacobi, abs(total) / max(1.0, abs(fg)))
    dt = time.perf_counter() - t0
    ok = (anti_exact and worst_leibniz <= 1e-6 and worst_jacobi <= 1e-4
          and dt < 10.0)
    _verdict(
        9, "poisson-structure", ok,
        f"antisymmetry exact={anti_exact}; leibniz {worst_leibniz:.1e} "
        f"(<=1e-6*scale); jacobi {worst_jacobi:.1e} (<=1e-4*scale) on 100 "
        f"cases; {dt:.2f} s < 10 s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert len(configs) == 9, "expected one demo config per experiment"
    identical = True
    detail = []
    for cfg in configs:
        out_a = tmp_path / (cfg.stem + "_a")
        out_b = tmp_path / (cfg.stem + "_b")
        rep = run_config(str(cfg), out_flag=str(out_a))
        run_config(str(cfg), out_flag=str(out_b))
        same = sorted(os.listdir(out_a)) == sorted(os.listdir(out_b)) and all(
            (out_a / name).read_bytes() == (out_b / name).read_bytes()
            for name in os.listdir(out_a)
        )
        identical = identical and same and rep.passed
        detail.append(f"{cfg.stem}:{'ok' if same and rep.passed else 'DIFF'}")
    dt = time.perf_counter() - t0
    _verdict(
        10, "cli-determinism", identical,
        f"two seeded runs byte-identical for {len(configs)} experiment "
        f"configs ({', '.join(detail)}); {dt:.2f} s",
    )
