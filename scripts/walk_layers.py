"""In-process layer timings of the Monte Carlo walk: medians over repeats, in ms.

    PYTHONPATH=src python scripts/walk_layers.py [--repeats 7] [--scale 1]

`mc_tail` shape (a 4-state non-reversible doubly stochastic chain like the
benchmark's, 10^4 trials of 1000 steps), timed layer by layer in a loop that
mirrors the guided step loop of `montecarlo._steps`:

    draws       the first state's hashes and the `uniform_steps` blocks
    lookup      one guide `take` per step and the scan for missed trials
    fallback    `_finish` and `_step` for the missed trials, and their scatter
    accumulate  S += f at the states
    simulate_sums  the library call itself, timed whole

The mirror's sums must equal `simulate_sums` bit for bit ("mirror_matches"), so
a kernel change that the mirror does not follow shows.  Also timed whole: the
search path (`simulate_sums` on 100 states, where no guide is built, at 300 and
5000 trials of 400 steps) and the prefix scan (`sample_paths`, 2 states, 10
trials of 528 steps, the matrix experiment's walk at d = 32).  `--scale`
multiplies every trial and step count, for a quick run.  Prints one JSON object.
"""

import argparse
import json
import statistics
import time

import numpy as np

from mchoeffding import FunctionFamily, SimConfig, make_family, two_state_chain, validate_chain
from mchoeffding import montecarlo as mc
from mchoeffding.rng import _finish, _mantissa, hash_block, trial_seeds, uniform_steps

F = [1.0, -1.0, 0.5, -0.5]


def mc_tail_chain():
    """Uniform, cycle, swap and identity mixed: doubly stochastic and non-reversible."""
    eye = np.eye(4)
    A = 0.025 + 0.45 * np.roll(eye, 1, axis=1) + 0.25 * eye[[1, 0, 3, 2]] + 0.2 * eye
    return validate_chain(A, np.full(4, 0.25))


def _mirror(chain, funcs, cfg):
    """simulate_sums through the guided step loop, with each layer's time summed."""
    clock = time.perf_counter
    ms = dict.fromkeys(("draws", "lookup", "fallback", "accumulate"), 0.0)
    t0 = clock()
    seeds = trial_seeds(cfg.master_seed, cfg.trials)
    first = _mantissa(hash_block(seeds, 1)[:, 0])
    ms["draws"] += clock() - t0
    states = mc._first_states(chain, first)
    table, bits = mc._cdf_table(chain.transition)
    guide, k = mc._guide(table, bits)
    S = np.zeros(cfg.trials)
    values = iter(funcs.values)
    np.add(S, next(values).take(states), out=S)
    blocks = uniform_steps(seeds, funcs.n_steps, mc._block_steps(cfg.trials), start=1)
    while True:
        t0 = clock()
        block = next(blocks, None)
        ms["draws"] += clock() - t0
        if block is None:
            break
        for z in block:
            t0 = clock()
            nxt = guide.take(states << k | (z >> (64 - k)).view(np.int64), mode="clip")
            miss = (nxt < 0).nonzero()[0]
            t1 = clock()
            if miss.size:
                m = _mantissa(_finish(z[miss]))
                nxt[miss] = mc._step(table, bits, states[miss], m)
            t2 = clock()
            np.add(S, next(values).take(nxt), out=S)
            states = nxt
            ms["lookup"] += t1 - t0
            ms["fallback"] += t2 - t1
            ms["accumulate"] += clock() - t2
    return S, ms


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
    tail_funcs = make_family([F] * size(1000), chain=chain)
    rng = np.random.default_rng(args.seed)
    A = rng.random((100, 100)) + 1e-3
    wide = validate_chain(A / A.sum(axis=1, keepdims=True))
    V = rng.normal(size=(size(400), 100))
    wide_funcs = FunctionFamily(values=V, bounds=np.abs(V).max(axis=1))
    pair = two_state_chain(0.5)

    samples = {}
    matches = True
    for r in range(args.repeats):
        cfg = SimConfig(trials=size(10_000), master_seed=args.seed + r)
        S, layers = _mirror(chain, tail_funcs, cfg)
        ref, whole = _timed(mc.simulate_sums, chain, tail_funcs, cfg)
        matches &= S.tobytes() == ref.tobytes()
        for name, s in [*layers.items(), ("simulate_sums", whole)]:
            samples.setdefault(f"mc_tail.{name}", []).append(s)
        for trials in (300, 5000):
            cfg = SimConfig(trials=size(trials), master_seed=args.seed + r)
            _, s = _timed(mc.simulate_sums, wide, wide_funcs, cfg)
            samples.setdefault(f"search_T{trials}.simulate_sums", []).append(s)
        cfg = SimConfig(trials=size(10), master_seed=args.seed + r)
        _, s = _timed(mc.sample_paths, pair, size(528), cfg)
        samples.setdefault("scan.sample_paths", []).append(s)
    out = {name: round(1e3 * statistics.median(v), 3) for name, v in samples.items()}
    print(json.dumps({"repeats": args.repeats, "scale": args.scale, "mirror_matches": matches,
                      "median_ms": out}, indent=1))


if __name__ == "__main__":
    main()
