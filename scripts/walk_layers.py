"""In-process layer timings of the Monte Carlo walk: medians over repeats, in ms.

    PYTHONPATH=src python scripts/walk_layers.py [--repeats 7] [--scale 1]

Each shape's public walk call (`simulate_sums` or `sample_paths`) runs twice a
repeat: once under the benchmark's span recorder (`perfbench/tracer.py`), which
wraps the library's public functions and the private layer functions of
LAYER_FUNCTIONS, and once untraced, timed whole (the "<shape>.simulate_sums" and
"<shape>.sample_paths" keys).  The traced call's spans are attributed to layers
by (name, parent name) in LAYERS:

    draws       `hash_block`, and `_premix`, `_finish` and `_mantissa` called by the walk
    lookup      `_guided_step`'s self time: one level-1 take per step and the miss scan
    fallback    everything under `_guided_step`: `_second_level`'s level-2 take for the
                trials on a straddled bucket, and `_finish` and `_step` for those on a -1
    search      `_step` called by the walk: the binary-search step loop
    scan        `_scan_walk` with its children: the prefix scan
    build       `_guide` and `_cdf_table` outside the scan
    accumulate  `simulate_sums`' self time: S += f at the states, and the generators
    other       the traced call's whole time ("traced") minus the layers above

Every layer is printed for every shape; a kernel a shape does not take reads 0.
The wrappers' own cost lands in their callers' self time, so "traced" runs above
the untraced call.  Each traced call must equal its untraced call bit for bit
("traced_matches").  Shapes:

    mc_tail       a 4-state non-reversible doubly stochastic chain like the
                  benchmark's, 10^4 trials of 1000 steps: the guide table
    search_T300   100 states, 300 and 5000 trials of 400 steps: no guide is built,
    search_T5000  every step is a binary search
    scan          `sample_paths`, 2 states, 10 trials of 528 steps (the matrix
                  experiment's walk at d = 32): the prefix scan

`--scale` multiplies every trial and step count, for a quick run; mc_tail keeps
at least the trials and trial-steps from which the walk takes the guide table.
Prints one JSON object.
"""

import argparse
import importlib.util
import json
import statistics
import time
from pathlib import Path

import numpy as np

from mchoeffding import FunctionFamily, SimConfig, make_family, two_state_chain, validate_chain
from mchoeffding import montecarlo as mc
from mchoeffding import rng

F = [1.0, -1.0, 0.5, -0.5]
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# Private layer functions the recorder wraps beside the public ones.
LAYER_FUNCTIONS = ("rng._premix", "rng._finish", "rng._mantissa", "montecarlo._guided_step",
                   "montecarlo._second_level", "montecarlo._step", "montecarlo._guide",
                   "montecarlo._cdf_table", "montecarlo._scan_walk")
WALKS = ("montecarlo.simulate_sums", "montecarlo.sample_paths")
# (span name, parent name) -> layer, where "walk" is either walk call and "*" any span.
# A span counts with its children, but for the SELF_TIME layers without them.
LAYERS = {
    ("rng.hash_block", "walk"): "draws",
    ("rng._premix", "walk"): "draws",
    ("rng._finish", "walk"): "draws",
    ("rng._mantissa", "walk"): "draws",
    ("montecarlo._guided_step", "walk"): "lookup",
    ("*", "montecarlo._guided_step"): "fallback",
    ("montecarlo._step", "walk"): "search",
    ("montecarlo._scan_walk", "walk"): "scan",
    ("montecarlo._guide", "walk"): "build",
    ("montecarlo._cdf_table", "walk"): "build",
    ("montecarlo.simulate_sums", None): "accumulate",
}
SELF_TIME = ("lookup", "accumulate")
LAYER_NAMES = ("draws", "lookup", "fallback", "search", "scan", "build", "accumulate", "other")


def mc_tail_chain():
    """Uniform, cycle, swap and identity mixed: doubly stochastic and non-reversible."""
    eye = np.eye(4)
    A = 0.025 + 0.45 * np.roll(eye, 1, axis=1) + 0.25 * eye[[1, 0, 3, 2]] + 0.2 * eye
    return validate_chain(A, np.full(4, 0.25))


def layer_functions():
    """LAYER_FUNCTIONS as a name -> function dict; a name that is gone raises AttributeError."""
    modules = {"rng": rng, "montecarlo": mc}
    return {name: getattr(modules[module], attr)
            for name in LAYER_FUNCTIONS for module, attr in [name.split(".")]}


def recorder():
    """perfbench's span recorder over the public functions and LAYER_FUNCTIONS, not installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    rec = tracer.Recorder()
    rec.functions.update(layer_functions())
    return rec


def attribute(spans):
    """Layer -> seconds of one traced walk call, whose span is spans[0], and its "traced" total."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans[1:]:
        child[parent] += end - start
    out = dict.fromkeys(LAYER_NAMES, 0.0)
    for i, (name, start, end, parent, _) in enumerate(spans):
        up = spans[parent][0] if parent >= 0 else None
        up = "walk" if up in WALKS else up
        layer = LAYERS.get((name, up)) or LAYERS.get(("*", up))
        if layer:
            out[layer] += end - start - (child[i] if layer in SELF_TIME else 0.0)
    total = spans[0][2] - spans[0][1]
    out["other"] = total - sum(out.values())
    out["traced"] = total
    return out


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=1501)
    args = p.parse_args(argv)

    def size(x):
        return max(1, round(x * args.scale))

    chain = mc_tail_chain()
    # at any scale, enough trials and trial-steps that the walk takes the guide table
    tail_trials = max(size(10_000), mc._GUIDE_TRIALS)
    tail_steps = max(size(1000), -(-mc._GUIDE_WORK // tail_trials))
    tail_funcs = make_family([F] * tail_steps, chain=chain)
    gen = np.random.default_rng(args.seed)
    A = gen.random((100, 100)) + 1e-3
    wide = validate_chain(A / A.sum(axis=1, keepdims=True))
    V = gen.normal(size=(size(400), 100))
    wide_funcs = FunctionFamily(values=V, bounds=np.abs(V).max(axis=1))
    shapes = {  # shape: (walk call, its arguments before the config, trials)
        "mc_tail": ("simulate_sums", (chain, tail_funcs), tail_trials),
        "search_T300": ("simulate_sums", (wide, wide_funcs), size(300)),
        "search_T5000": ("simulate_sums", (wide, wide_funcs), size(5000)),
        "scan": ("sample_paths", (two_state_chain(0.5), size(528)), size(10)),
    }

    rec = recorder()
    samples = {}
    matches = True
    for r in range(args.repeats):
        for shape, (call, walk_args, trials) in shapes.items():
            cfg = SimConfig(trials=trials, master_seed=args.seed + r)
            rec.spans.clear()
            rec.install()
            try:
                traced = getattr(mc, call)(*walk_args, cfg)  # the wrapper, looked up after install
            finally:
                rec.uninstall()
            out, whole = _timed(getattr(mc, call), *walk_args, cfg)
            matches &= traced.tobytes() == out.tobytes()
            for name, s in [*attribute(rec.spans).items(), (call, whole)]:
                samples.setdefault(f"{shape}.{name}", []).append(s)
    out = {name: round(1e3 * statistics.median(v), 3) for name, v in samples.items()}
    print(json.dumps({"repeats": args.repeats, "scale": args.scale, "traced_matches": matches,
                      "median_ms": out}, indent=1))


if __name__ == "__main__":
    main()
