"""Fuzzed configs keep the exit-code contract of ``cohk run``.

Every parameter of every experiment in ``cli.EXPERIMENTS`` takes its
default, a wrong type, 0, a negative, a subnormal or a huge value; the
structural ones (points, generators, labels, vectors) take those numbers
as their entries.  Whatever comes out, ``main(["run", ...])`` returns 0
(checks passed), 1 (a check failed) or 2 (config rejected) and never
raises: a traceback must not pass for a failed check.  A run that returns
0 or 1 leaves a report.json that a strict JSON parser accepts, so no check
value is NaN or infinite.

One test tries every value class of every parameter on its own; a
hypothesis test combines up to three of them, on every catalog space.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohk.cli import EXPERIMENTS, _as_bool, _as_complex, _as_count, _as_int, main

# extreme values overflow on the way to their verdict; that is expected here
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SUBNORMAL = 5e-324
HUGE_FLOAT = 1e300
HUGE_INT = 10 ** 400  # beyond every float and machine integer

KLAUDER = {"kind": "klauder", "dim": 1}
SPACES = [
    {"kind": "euclidean", "dim": 2},
    {"kind": "hermitian", "dim": 2},
    {"kind": "sphere", "dim": 2},
    KLAUDER,
    {"kind": "klauder", "dim": 2},
    {"kind": "reciprocal"},
    {"kind": "szego"},
    {"kind": "schur", "preset": "mobius"},
    {"kind": "debranges", "preset": "exp"},
]

# The work bound: defaults that make a run take seconds are replaced by
# small values.  No value class is left out, because the program rejects
# counts, step counts and grids beyond cohk.core.MAX_SIZE before it
# loops or allocates.
SMALL_DEFAULTS = {
    "gram-psd": {"samples": 2, "n_points": 4},
    "geometry-check": {"cases": 2},
    "weyl-check": {"samples": 2},
    "dynamics": {"t_end": 0.2, "dt": 0.01},
    "spectrum": {"t_max": 20.0 * math.pi, "E_step": 0.04, "eta": 0.5},
    "resolvent": {"E": [0.5, 1.0]},
    "df-propagate": {"t_end": 0.5, "dt": 0.005, "stationarity": False},
    "sd-residual": {"samples": 2, "E": [0.5, 1.0]},
}

NUMBERS = [0, -1, SUBNORMAL, HUGE_FLOAT]


def _structural(name, space, v):
    """A structural value of the right shape whose entries are all ``v``."""
    n = space.get("dim", 1)
    vec = [v] * n
    if name == "points":
        pt = v if "dim" not in space else [v] * (n + (space["kind"] == "klauder"))
        return [pt, pt]
    if name == "gen":
        return {"rho": v, "p": vec, "q": vec, "X": [vec] * n}
    if name in ("p", "q"):
        return vec
    return [v] * (n + 1)  # a klauder label [z0, zhat]


def _values(param, space):
    """Every value class of one parameter, other than its default."""
    if param.parse is None:
        return ["x"] + [_structural(param.name, space, v) for v in NUMBERS]
    if param.parse in (_as_int, _as_count):
        return ["x", 1.5, 0, -1, SUBNORMAL, HUGE_INT]
    if param.parse is _as_bool:
        return ["x", True, False] + NUMBERS
    if param.parse is _as_complex:
        return ["x"] + NUMBERS + [[0.5, v] for v in NUMBERS] + [[-HUGE_FLOAT, 1.0]]
    return ["x"] + NUMBERS + [-HUGE_FLOAT]


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which is not JSON")


def _exit_code(tmp_path, space, experiment, params):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"space": space, "experiment": experiment,
                                "params": params}))
    report = tmp_path / "out" / "report.json"
    report.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
    if code in (0, 1):
        json.loads(report.read_text(), parse_constant=_reject_constant)
    return code


def test_every_value_class_of_every_parameter(tmp_path):
    for exp in EXPERIMENTS.values():
        small = SMALL_DEFAULTS.get(exp.name, {})
        for param in exp.params:
            for v in _values(param, KLAUDER):
                params = {**small, param.name: v}
                code = _exit_code(tmp_path, KLAUDER, exp.name, params)
                assert code in (0, 1, 2), (exp.name, params)


@st.composite
def configs(draw):
    exp = draw(st.sampled_from(sorted(EXPERIMENTS.values(), key=lambda e: e.name)))
    space = draw(st.sampled_from(SPACES))
    params = dict(SMALL_DEFAULTS.get(exp.name, {}))
    varied = st.lists(st.sampled_from(exp.params), max_size=3, unique_by=lambda p: p.name)
    for param in draw(varied):
        params[param.name] = draw(st.sampled_from(_values(param, space)))
    return space, exp.name, params


@settings(max_examples=800, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=configs())
def test_combined_value_classes(tmp_path, cfg):
    assert _exit_code(tmp_path, *cfg) in (0, 1, 2)
