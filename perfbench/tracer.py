"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the library's modules from the
outside: it replaces each function object in its defining module and in every
other module that imported it by name (``matrixlab.symmetric_eigenvalues``,
``cli.estimate_tail``, ...), so nested calls are seen too.  No library file
changes.  Spans are kept in memory as (name, start, end, parent, job) and
aggregated or written out once the run ends.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

MODULES = ("rng", "montecarlo", "spectral", "matrixlab", "oracle", "bounds", "chain", "cli")
# Only the entry point of cli is wrapped, so its self time holds argument
# parsing, rendering and the atomic write.
WRAP_ONLY = {"cli": ("main",)}
JOB_SPAN = "bench.job"


def _output_path(argv):
    argv = list(argv or ())
    if "--output" in argv[:-1]:
        return argv[argv.index("--output") + 1]
    return None


# Counts computed from a call's arguments and return value.  Byte counts are
# array sizes (computed, not measured traffic).
def _count_uniform(c, args, kwargs, out):
    c["rng.draws"] += out.size
    c["rng.bytes_out"] += out.nbytes


def _count_rng_bytes(c, args, kwargs, out):
    c["rng.bytes_out"] += out.nbytes


def _count_paths(c, args, kwargs, out):
    c["montecarlo.state_steps"] += out.size
    c["montecarlo.bytes_out"] += out.nbytes


def _count_mc_bytes(c, args, kwargs, out):
    c["montecarlo.bytes_out"] += out.nbytes


def _count_lattice(c, args, kwargs, out):
    c["oracle.lattice_points"] += out.offsets.size


def _count_brute_force(c, args, kwargs, out):
    chain, funcs = args[0], args[1]
    c["oracle.brute_force_paths"] += chain.n_states ** funcs.n_steps


def _count_strings(c, args, kwargs, out):
    c["bounds.admissible_strings"] += len(out.strings)


def _count_cli_output(c, args, kwargs, out):
    path = _output_path(args[0] if args else kwargs.get("argv"))
    if path and os.path.exists(path):
        c["cli.output_bytes"] += os.path.getsize(path)


COUNTERS = {
    "rng.uniform_block": _count_uniform,
    "rng.normal_block": _count_rng_bytes,
    "rng.trial_seeds": _count_rng_bytes,
    "montecarlo.sample_paths": _count_paths,
    "montecarlo.sample_path": _count_paths,
    "montecarlo.simulate_sums": _count_mc_bytes,
    "oracle.lattice_distribution": _count_lattice,
    "oracle.brute_force_distribution": _count_brute_force,
    "bounds.enumerate_admissible_strings": _count_strings,
    "cli.main": _count_cli_output,
}


class Recorder:
    """Wraps library functions while installed and records one span per call."""

    def __init__(self, package="mchoeffding"):
        self.package = package
        self.spans = []
        self.counts = defaultdict(float)
        self.count_errors = defaultdict(int)
        self._stack = []
        self._job = None
        self._patches = []          # (module, attribute, original function)
        self.functions = self._collect()

    def _collect(self):
        """name -> original function, for every public function defined in MODULES."""
        found = {}
        for short in MODULES:
            mod = sys.modules.get(f"{self.package}.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and attr in WRAP_ONLY.get(short, (attr,))):
                    found[f"{short}.{attr}"] = obj
        return found

    def _wrap(self, name, fn):
        rec = self
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec.spans[idx] = (name, start, end, parent, rec._job)
            if counter is not None:
                try:
                    counter(rec.counts, args, kwargs, out)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    # A changed signature or return type loses the count, not the run.
                    rec.count_errors[name] += 1
            return out

        return traced

    def install(self):
        """Replace every reference to a collected function in the package's modules."""
        if self._patches:
            return
        by_id = {id(fn): (name, fn) for name, fn in self.functions.items()}
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is None:
                    continue
                name, fn = hit
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, fn)
                setattr(mod, attr, wrappers[name])
                self._patches.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in self._patches:
            setattr(mod, attr, fn)
        self._patches = []

    def job(self, job_id, fn, *args):
        """Run fn(*args) as the root span of one job."""
        self._job = job_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (JOB_SPAN, start, end, -1, job_id)
            self._job = None

    def aggregate(self, first_span=0, last_span=None):
        """Per-function calls and self time over spans[first_span:last_span].

        Self time is a span's duration minus the durations of its direct
        children."""
        spans = self.spans[first_span:last_span]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s
