"""cohk benchmark: run one workload through cohk.cli.run_config.

Usage (from the repository root):

    python3 perfbench/run.py --workload demos --seed 1 --seconds 55 --trace 0

Workloads (see workloads.py): ``demos`` (the shipped demo configs) and
``sweep`` (thousands of sampled cases over all eight catalog spaces) are
the ones BENCHMARK.json gates.  ``spectral`` (long-series spectra and
resolvents on klauder dim 1, 15-20 s a pass) is kept for running by hand
when a change targets the Fourier sums or the flow at scale; it is not
gated, because the time limit for all runs leaves it too few passes to
time steadily on a shared machine.

A run imports cohk from ./src, generates the workload's configs from the
seed, and runs every config once per pass, repeating passes until
``--seconds`` is used up (at least two passes, so that determinism is
checked).  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs one untraced pass and then traced passes, and
reports the per-layer metrics of tracing.py plus the tracing overhead.

Correctness: every config completes without an exception (a failed check
is a result, counted in check_pass_ratio and fail_ratio; an exception is
a failed operation), each report.json is well formed, and every pass,
traced or not, writes byte-identical report.json files.

Human-readable lines go to stdout first; the last stdout line is the JSON
result.  The full record (environment, per-config timings, report
digests, failing checks compared with expected.json) is written to
.perfbench/results/ in the repository root.
"""

import argparse
import ctypes
import glob
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 5
MIN_PASSES = 2
DIGIT_CLIP = 16.0
EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# one pass


def run_pass(run_config, configs, seed, out_root):
    """Run every config once.  Returns one record per config."""
    records = []
    for name, path in configs:
        out = os.path.join(out_root, name)
        t0 = perf_counter()
        try:
            report = run_config(path, out_flag=out, seed_flag=seed)
        except Exception as err:  # a traceback is a failed operation, not a result
            records.append({"name": name, "s": perf_counter() - t0,
                            "error": f"{type(err).__name__}: {err}"})
            continue
        elapsed = perf_counter() - t0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            data = fh.read()
        payload = json.loads(data)
        checks = payload["checks"]
        well_formed = (bool(checks)
                       and payload["passed"] == report.passed
                       == all(c["passed"] for c in checks)
                       and all(os.path.isfile(os.path.join(out, f))
                               for f in payload["data_files"]))
        records.append({
            "name": name,
            "s": elapsed,
            "digest": hashlib.sha256(data).hexdigest(),
            "well_formed": well_formed,
            "checks": checks,
            "bytes": sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)),
        })
    shutil.rmtree(out_root, ignore_errors=True)
    return records


def pass_wall(records):
    return sum(r["s"] for r in records)


def pass_digests(records):
    return [(r["name"], r.get("digest")) for r in records]


def workload_digest(records):
    h = hashlib.sha256()
    for name, digest in pass_digests(records):
        h.update(f"{name} {digest}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# accuracy


def check_digits(check):
    """log10(tolerance / value) of a <= check with positive tolerance.

    Values below double-precision rounding (EPS) count as EPS: 0 and 1e-17
    are the same rounding noise, and treating 0 as infinitely many digits
    would let one exact cancellation swing the mean.  A non-finite value
    counts as the worst headroom.
    """
    value = abs(check["value"])
    if not math.isfinite(value):
        return -DIGIT_CLIP
    value = max(value, EPS)
    return max(-DIGIT_CLIP, min(DIGIT_CLIP, math.log10(check["tolerance"] / value)))


def accuracy(records):
    done = [r for r in records if "error" not in r]
    checks = [c for r in done for c in r["checks"]]
    digits = [check_digits(c) for c in checks
              if c["comparison"] == "<=" and c["tolerance"] > 0]
    failing = [{"config": r["name"], "check": c["name"], "value": c["value"],
                "tolerance": c["tolerance"]}
               for r in done for c in r["checks"] if not c["passed"]]
    bad_runs = sum(1 for r in records
                   if "error" in r or not all(c["passed"] for c in r["checks"]))
    return {
        "check_pass_ratio": sum(c["passed"] for c in checks) / max(1, len(checks)),
        "fail_ratio": bad_runs / len(records),
        "headroom_digits_min": min(digits, default=0.0),
        "headroom_digits_mean": statistics.fmean(digits) if digits else 0.0,
        "failing_checks": failing,
    }


def known_failures(workload, failing):
    """Mark each failing check as listed in expected.json or new."""
    with open(os.path.join(HERE, "expected.json")) as fh:
        known = json.load(fh)["known_failures"].get(workload, [])
    listed = {(k["config"], k["check"]) for k in known}
    return [dict(f, known=(f["config"], f["check"]) in listed) for f in failing]


# ---------------------------------------------------------------------------
# environment and set-up


def blas_threads():
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment(cli):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "COHK_THREADS": os.environ.get("COHK_THREADS"),
        "cohk_pool_size": cli._worker_count(),
    }


def measure_setup(workload, seed, work):
    """Median of SETUP_PROBES fresh-interpreter set-ups, and all samples."""
    samples = []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed),
             os.path.join(work, f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def upper_percentile(values):
    """Highest of p99/p95/p90/p75 with at least ten values beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


# ---------------------------------------------------------------------------
# traced passes


PER_LAYER_CALLS = [
    "fock.osc_act", "fock.dgamma_element", "fock.klauder_kernel",
    "dynamics.hamiltonian_vector_field", "dynamics.symplectic_matrix",
    "dynamics.flow_exact",
    "catalog.geometry_report", "catalog.fd_LR", "catalog.fd_R", "catalog.fd_L",
    "catalog.kernel", "catalog.kernel_batch",
    "core.gram", "core.psd_check", "core.kernel_eval",
]
PER_LAYER_TIMES = [
    "spectral.spectrum_scan", "spectral.spectral_density", "spectral.oscillator_series",
    "spectral.resolvent_element", "spectral.resolvent_symmetry_residual",
    "spectral.resolvent_equation_residual",
    "fock.osc_act", "fock.dgamma_element",
    "fock.weyl_relation_residuals", "fock.gamma_colon_residual", "fock.ccr_epsilon_check",
    "dynamics.propagate_ode", "dynamics.el_integrate", "dynamics.hamiltonian_vector_field",
    "dynamics.symplectic_matrix", "dynamics.autocorrelation", "dynamics.df_action",
    "catalog.geometry_report", "catalog.fd_LR", "catalog.wtg_matrix",
    "catalog.infinitesimal_cs_margin",
    "core.gram", "core.psd_check",
    "cli.gram-psd", "cli.geometry-check", "cli.weyl-check", "cli.ccr-check",
    "cli.dynamics", "cli.spectrum", "cli.resolvent", "cli.df-propagate",
    "cli.sd-residual",
]
# Counts must repeat exactly between traced passes of one seed.
COUNT_METRICS = {"spectral.series_samples", "dynamics.steps", "catalog.kernel_evals",
                 "quantum.calls", "trace.spans", "cli.output_bytes"}


def layer_metrics(summary, wall):
    from tracing import LIB_MODULES, fan_out_ratio

    calls, incl, self_s, acc = (summary["calls"], summary["incl"], summary["self_s"],
                                summary["acc"])
    m = {}
    for name in PER_LAYER_CALLS:
        m[name + ".calls"] = calls[name]
    for name in PER_LAYER_TIMES:
        m[name + ".s"] = incl[name]
    for mod in LIB_MODULES + ("cli",):
        m[mod + ".self_s"] = self_s[mod]
    fourier_s = incl["spectral.spectrum_scan"] + incl["spectral.spectral_density"]
    m["spectral.fourier_terms_per_s"] = (acc["spectral.fourier_terms"] / fourier_s
                                         if fourier_s > 0 else 0.0)
    m["spectral.series_samples"] = acc["spectral.series_samples"]
    m["dynamics.steps"] = acc["dynamics.steps"]
    gr = calls["catalog.geometry_report"]
    m["catalog.fd_share"] = acc["catalog.fd_cases"] / gr if gr else 0.0
    m["catalog.kernel_evals"] = acc["catalog.kernel_evals"]
    m["cli.fan_out_ratio"] = fan_out_ratio(summary["spans"])
    m["quantum.calls"] = sum(v for k, v in calls.items() if k.startswith("quantum."))
    m["trace.spans"] = len(summary["spans"])
    m["trace.traced_wall_s"] = wall
    return m


def is_count(name):
    return name.endswith(".calls") or name in COUNT_METRICS


def layer_unit(name):
    if name == "cli.output_bytes":
        return "B"
    if is_count(name):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "1"
    return "s"


def write_spans(path, spans):
    with gzip.open(path, "wt") as fh:
        for sid, parent, name, t0, t1, thread in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": t0, "end": t1, "thread": thread}) + "\n")


# ---------------------------------------------------------------------------
# main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("demos", "spectral", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cohk", "__init__.py")):
        print(f"perfbench: no cohk sources under {SRC}", file=sys.stderr)
        return 2
    # One OpenBLAS thread: the cli thread pool (at most nproc workers) is then
    # the only parallelism, and passes time more steadily on a small machine.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    t0 = perf_counter()
    sys.path[:0] = [SRC, HERE]
    import cohk.cli as cli
    import scipy.linalg  # noqa: F401  (loaded lazily by the experiments)
    import workloads

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported cohk from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        configs = workloads.write_configs(ROOT, args.workload, args.seed,
                                          os.path.join(work, "configs"))
        setup_inproc = perf_counter() - t0
        return measure(args, cli, configs, work, setup_inproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, configs, work, setup_inproc):
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(cli),
              "configs": [name for name, _ in configs],
              "setup_inproc_s": setup_inproc}
    if not args.trace:
        setup_s, setup_samples = measure_setup(args.workload, args.seed, work)
        record["setup_samples_s"] = setup_samples

    passes, traced, summaries = [], [], []
    start = perf_counter()

    def budget_left(walls):
        return perf_counter() - start + max(walls) <= args.seconds

    if not args.trace:
        while len(passes) < MIN_PASSES or budget_left([pass_wall(p) for p in passes]):
            passes.append(run_pass(cli.run_config, configs, args.seed,
                                   os.path.join(work, f"pass{len(passes)}")))
    else:
        from tracing import Tracer

        passes.append(run_pass(cli.run_config, configs, args.seed,
                               os.path.join(work, "pass0")))
        tracer = Tracer()
        tracer.install()
        try:
            while not traced or budget_left([pass_wall(p) for p in traced]):
                tracer.reset()
                traced.append(run_pass(cli.run_config, configs, args.seed,
                                       os.path.join(work, f"traced{len(traced)}")))
                summaries.append(tracer.summary())
        finally:
            tracer.uninstall()

    every = passes + traced
    attempted = sum(len(p) for p in every)
    failed = sum(1 for p in every for r in p if "error" in r)
    first = passes[0]
    digests_equal = all(pass_digests(p) == pass_digests(first) for p in every)
    well_formed = all(r.get("well_formed") for p in every for r in p)
    acc = accuracy(first)
    walls = [pass_wall(p) for p in passes]
    record.update({
        "passes": len(passes), "traced_passes": len(traced),
        "pass_walls_s": walls, "traced_walls_s": [pass_wall(p) for p in traced],
        "config_samples_s": {r["name"]: [p[i]["s"] for p in passes]
                             for i, r in enumerate(first)},
        "report_digests": dict(pass_digests(first)),
        "workload_digest": workload_digest(first),
        "digests_equal": digests_equal, "well_formed": well_formed,
        "errors": [r["error"] for p in every for r in p if "error" in r],
        "checks": {r["name"]: {c["name"]: c["value"] for c in r["checks"]}
                   for r in first if "error" not in r},
        "failing_checks": known_failures(args.workload, acc.pop("failing_checks")),
        "accuracy": acc,
    })
    counts_repeat = True
    if args.trace:
        per_pass = [layer_metrics(s, pass_wall(p)) for s, p in zip(summaries, traced)]
        for m in per_pass:
            m["cli.output_bytes"] = sum(r.get("bytes", 0) for r in first)
        counted = [k for k in per_pass[0] if is_count(k)]
        counts_repeat = all(m[k] == per_pass[0][k] for m in per_pass for k in counted)
        layers = {k: (per_pass[0][k] if k in counted
                      else statistics.median(m[k] for m in per_pass))
                  for k in per_pass[0]}
        layers["trace.untraced_wall_s"] = walls[0]
        layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - walls[0]
        record["counts_repeat"] = counts_repeat
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        write_spans(os.path.join(OUT, "results",
                                 f"{args.workload}-seed{args.seed}-spans.jsonl.gz"),
                    summaries[-1]["spans"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        record["wall_s_upper"] = upper_percentile(walls)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "check_pass_ratio": {"value": acc["check_pass_ratio"], "unit": "1"},
            "headroom_digits_mean": {"value": acc["headroom_digits_mean"], "unit": "digits"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    correct = failed == 0 and digests_equal and well_formed and counts_repeat
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_human(record, metrics, path)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_human(record, metrics, path):
    w = record["workload"]
    env = record["environment"]
    print(f"[{w}] seed {record['seed']}  nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  {env['blas']}  "
          f"blas threads {env['blas_threads']}  cohk pool {env['cohk_pool_size']}")
    print(f"[{w}] {record['passes']} untraced + {record['traced_passes']} traced passes; "
          f"reports identical across passes: {record['digests_equal']}; "
          f"workload digest {record['workload_digest'][:16]}")
    acc = record["accuracy"]
    if not record["trace"]:
        upper = record["wall_s_upper"]
        print(f"[{w}] wall_s per pass: " + ", ".join(f"{x:.3f}" for x in record["pass_walls_s"])
              + (f"; p{upper[0]} {upper[1]:.3f} s" if upper else
                 "; too few passes for a percentile with 10 beyond it"))
        print(f"[{w}] fail_ratio = {acc['fail_ratio']:.4f} 1")
        print(f"[{w}] headroom_digits_min = {acc['headroom_digits_min']:.4f} digits")
    for f in record["failing_checks"]:
        print(f"[{w}] {'known' if f['known'] else 'NEW'} failing check {f['config']}/"
              f"{f['check']}: {f['value']:.3g} vs {f['tolerance']:.3g}")
    for err in record["errors"]:
        print(f"[{w}] ERROR {err}")
    for k, v in metrics.items():
        print(f"[{w}] {k} = {v['value']:.6g} {v['unit']}")
    print(f"[{w}] record: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
