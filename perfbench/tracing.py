"""Per-layer tracing of cohk from outside the package.

``Tracer.install()`` wraps every public function of the library modules
(``cohk.core``, ``catalog``, ``fock``, ``dynamics``, ``spectral``,
``quantum``) in every namespace that bound it by name, patches the space
classes' ``kernel``/``kernel_batch``, and wraps ``cli.run_config``, each
experiment runner and the thread fan-out.  ``uninstall()`` restores the
originals, so traced and untraced passes run in one process.

Every wrapped call adds to a per-thread accumulator: call count, inclusive
time (outermost call only, so recursion is not double counted) and the
self time of its module (duration minus the time of wrapped calls nested
in it).  Functions outside HOT also record a span (id, parent, name,
start, end) in memory; HOT functions run 1e4 to 1e6 times per pass and
keep only the count and time.
"""

import inspect
import itertools
import math
import threading
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

LIB_MODULES = ("core", "catalog", "fock", "dynamics", "spectral", "quantum")

# Functions called about 1e4 times or more per pass on some workload.
# catalog.geometry_report (16k calls on sweep) keeps its spans, because
# cli.fan_out_ratio is measured from them.
HOT = {
    "fock.osc_act", "fock.klauder_kernel", "fock.dgamma_element",
    "catalog.fd_LR", "catalog.fd_R", "catalog.fd_L",
    "catalog.kernel", "catalog.kernel_batch", "catalog.one_form_theta",
    "catalog.metric_g", "catalog.two_form_omega", "catalog.wtg_matrix",
    "catalog.infinitesimal_cs_margin", "core.psd_check",
    "dynamics.hamiltonian_vector_field", "dynamics.symplectic_matrix",
}

# Spans whose summed duration over the fan-out window gives cli.fan_out_ratio.
FAN_OUT_ITEMS = ("catalog.geometry_report", "spectral.schwinger_dyson_residual")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _series_samples(acc, args, kwargs, out):
    acc["spectral.series_samples"] += len(out.values)


def _scan_terms(acc, args, kwargs, out):
    # one dense N_E x N_t pass over the two-sided series, plus 7 single-energy
    # evaluations (two parabolic refinements and the final one) per line
    n_t = 2 * len(_arg(args, kwargs, 0, "series").values) - 1
    n_e = len(_arg(args, kwargs, 1, "E_grid")) + 7 * len(out)
    acc["spectral.fourier_terms"] += n_e * n_t


def _density_terms(acc, args, kwargs, out):
    ham = _arg(args, kwargs, 1, "ham")
    eta = _arg(args, kwargs, 5, "eta")
    dt = args[6] if len(args) > 6 else kwargs.get("dt", 1e-2)
    n_t = int(round(ham.hbar * math.log(1e12) / eta / dt)) + 1
    acc["spectral.fourier_terms"] += len(_arg(args, kwargs, 4, "E_grid")) * n_t


def _rk4_steps(acc, args, kwargs, out):
    acc["dynamics.steps"] += len(out.points) - 1


def _fd_case(acc, args, kwargs, out):
    acc["catalog.fd_cases"] += out.provenance == "fd"


def _one_eval(acc, args, kwargs, out):
    acc["catalog.kernel_evals"] += 1


def _batch_evals(acc, args, kwargs, out):
    acc["catalog.kernel_evals"] += len(args[1])


HOOKS = {
    "spectral.oscillator_series": _series_samples,
    "spectral.spectrum_scan": _scan_terms,
    "spectral.spectral_density": _density_terms,
    "dynamics.propagate_ode": _rk4_steps,
    "catalog.geometry_report": _fd_case,
    "catalog.kernel": _one_eval,
    "catalog.kernel_batch": _batch_evals,
}


class _ThreadState:
    def __init__(self):
        self.thread = threading.get_ident()
        self.stack = []                     # [span id, nested wrapped time]
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.acc = defaultdict(int)         # hook counters
        self.spans = []                     # (id, parent, name, start, end)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)
        self._undo = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def reset(self):
        """Drop everything recorded so far (wrappers stay installed)."""
        with self._lock:
            self._states = []
        self._local = threading.local()

    def wrap(self, fn, name, module):
        """Wrapper recording ``name`` and adding self time to ``module``
        (None keeps it out of every module, for time spent waiting)."""
        tracer = self
        span = name not in HOT
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1] if st.stack else None
            frame = [next(tracer._ids), 0.0]
            st.stack.append(frame)
            depth = st.depth[name]
            st.depth[name] = depth + 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.depth[name] = depth
                dur = t1 - t0
                st.calls[name] += 1
                if depth == 0:
                    st.incl[name] += dur
                if module is not None:
                    st.self_s[module] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if span:
                    st.spans.append((frame[0], parent and parent[0], name, t0, t1))
            if hook is not None:
                hook(st.acc, args, kwargs, out)
            return out

        return wrapper

    def _set(self, owner, attr, value):
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self):
        import cohk
        from cohk import catalog, cli, core

        namespaces = [cohk, cli] + [getattr(cohk, m) for m in LIB_MODULES]
        for mod_name in LIB_MODULES:
            mod = getattr(cohk, mod_name)
            for fn_name in mod.__all__:
                fn = getattr(mod, fn_name)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                w = self.wrap(fn, f"{mod_name}.{fn_name}", mod_name)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._set(ns, attr, w)
        # catalog's namespace also holds the base class it imported from core
        space_classes = [c for c in vars(catalog).values()
                         if inspect.isclass(c) and issubclass(c, core.CoherentSpace)]
        for cls in space_classes:
            for meth in ("kernel", "kernel_batch"):
                if meth in vars(cls):
                    self._set(cls, meth, self.wrap(vars(cls)[meth], f"catalog.{meth}",
                                                   "catalog"))
        self._set(cli, "run_config", self.wrap(cli.run_config, "cli.run_config", "cli"))
        self._set(cli, "_fan_out", self.wrap(cli._fan_out, "cli.fan_out", None))
        saved = dict(cli.EXPERIMENTS)
        cli.EXPERIMENTS.update({
            name: replace(exp, runner=self.wrap(exp.runner, f"cli.{name}", "cli"))
            for name, exp in saved.items()})
        self._undo.append(lambda: cli.EXPERIMENTS.update(saved))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def summary(self):
        """Merged counters of every thread, plus the span list."""
        calls, incl, self_s, acc = (defaultdict(int), defaultdict(float),
                                    defaultdict(float), defaultdict(int))
        spans = []
        with self._lock:
            states = list(self._states)
        for st in states:
            for src, dst in ((st.calls, calls), (st.incl, incl),
                             (st.self_s, self_s), (st.acc, acc)):
                for k, v in src.items():
                    dst[k] += v
            spans.extend((sid, parent, name, t0, t1, st.thread)
                         for sid, parent, name, t0, t1 in st.spans)
        return {"calls": calls, "incl": incl, "self_s": self_s, "acc": acc,
                "spans": spans}


def fan_out_ratio(spans):
    """Summed item span time over the item windows, across fan-outs.

    An item window runs from the first item's start to the last item's end
    inside one ``cli._fan_out`` call.  1.0 means the items ran one at a
    time; the thread pool can raise it up to its worker count.  0.0 when no
    fan-out ran an item.
    """
    fan_outs = [(t0, t1) for _, _, name, t0, t1, _ in spans if name == "cli.fan_out"]
    items = [(t0, t1) for _, _, name, t0, t1, _ in spans if name in FAN_OUT_ITEMS]
    busy = window = 0.0
    for w0, w1 in fan_outs:
        inside = [(t0, t1) for t0, t1 in items if w0 <= t0 and t1 <= w1]
        if inside:
            busy += sum(t1 - t0 for t0, t1 in inside)
            window += max(t1 for _, t1 in inside) - min(t0 for t0, _ in inside)
    return busy / window if window > 0 else 0.0
