"""Config generators for the three benchmark workloads.

Each generator takes the workload seed and returns ``[(name, config), ...]``
in a fixed order.  The program only ever sees the generated JSON configs;
the seed is also passed to ``run_config`` as ``--seed`` so the experiments'
own sampling follows it.
"""

import json
import math
import os

import numpy as np

# One instance of each catalog space, matching cohk.catalog.default_spaces().
SPACES = [
    {"kind": "euclidean", "dim": 2},
    {"kind": "hermitian", "dim": 2},
    {"kind": "sphere", "dim": 2},
    {"kind": "klauder", "dim": 1},
    {"kind": "reciprocal"},
    {"kind": "szego"},
    {"kind": "schur", "preset": "mobius"},
    {"kind": "debranges", "preset": "exp"},
]

KLAUDER1 = {"kind": "klauder", "dim": 1}


def _space_tag(space):
    return "-".join(str(v) for v in space.values())


def demos(root, seed):
    """The shipped demo configs, unchanged, in file-name order."""
    cfg_dir = os.path.join(root, "demos", "configs")
    out = []
    for fname in sorted(os.listdir(cfg_dir)):
        if fname.endswith(".json"):
            with open(os.path.join(cfg_dir, fname)) as fh:
                out.append((fname[:-5], json.load(fh)))
    return out


def _draw_label(rng):
    """Klauder dim-1 label with |zhat| <= 1 and Re z0 in [-1/2, 1/2].

    On the default energy grid (E <= 6.5) such a label leaves at most
    sum_{n>=7} |zhat|^{2n}/n! / e^{|zhat|^2}, about 1e-4, of its line weight
    outside the scan, well inside the 1e-3 completeness tolerance.
    """
    r = math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    z0 = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]
    return [z0, [r * math.cos(phi), r * math.sin(phi)]]


def spectral(root, seed):
    """Long-series spectral analysis at the test suite's resolution."""
    # salted, so the labels are not the experiments' own first draws from seed
    rng = np.random.default_rng([seed, 1])
    z, zr, zp = _draw_label(rng), _draw_label(rng), _draw_label(rng)
    e1, e2 = rng.uniform(0.25, 3.0), rng.uniform(0.25, 3.0)
    return [
        # experiment defaults: t_max = 400 pi, dt = 0.05, 3501-point grid
        ("spectrum", {"space": KLAUDER1, "experiment": "spectrum",
                      "params": {"z": z}}),
        # Im E = 0.02 gives a 138k-step series at dt = 0.01
        ("resolvent-diag", {"space": KLAUDER1, "experiment": "resolvent",
                            "params": {"z": zr, "E": [e1, 0.02]}}),
        ("resolvent-offdiag", {"space": KLAUDER1, "experiment": "resolvent",
                               "params": {"z": zr, "zp": zp, "E": [e2, 0.1]}}),
    ]


def sweep(root, seed):
    """Many independent sampled cases on every catalog space."""
    out = []
    for space in SPACES:
        out.append((f"geometry-{_space_tag(space)}",
                    {"space": space, "experiment": "geometry-check",
                     "params": {"cases": 2000}}))
    for space in SPACES:
        out.append((f"gram-{_space_tag(space)}",
                    {"space": space, "experiment": "gram-psd",
                     "params": {"samples": 10, "n_points": 200}}))
    out.append(("weyl-klauder-3",
                {"space": {"kind": "klauder", "dim": 3}, "experiment": "weyl-check",
                 "params": {"samples": 500}}))
    out.append(("sd-residual",
                {"space": KLAUDER1, "experiment": "sd-residual",
                 "params": {"samples": 400}}))
    return out


WORKLOADS = {"demos": demos, "spectral": spectral, "sweep": sweep}


def write_configs(root, workload, seed, cfg_dir):
    """Generate the workload's configs into cfg_dir; returns [(name, path)]."""
    os.makedirs(cfg_dir, exist_ok=True)
    paths = []
    for name, cfg in WORKLOADS[workload](root, seed):
        path = os.path.join(cfg_dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        paths.append((name, path))
    return paths
