import itertools
import math

import numpy as np
import pytest

from mchoeffding import contraction, make_family, validate_chain


def random_chain(rng, n_states, min_entry=0.05):
    """Strictly positive row-stochastic matrix with its computed stationary vector."""
    A = rng.random((n_states, n_states)) + min_entry
    A /= A.sum(axis=1, keepdims=True)
    return validate_chain(A)


def random_contractive_chain(rng, n_states, lam_cap=0.95):
    """Resample until the contraction parameter is below lam_cap."""
    for _ in range(200):
        chain = random_chain(rng, n_states)
        if contraction(chain) < lam_cap:
            return chain
    raise RuntimeError("could not draw a contractive chain")


def _slow_cycle(n, stay):
    """Non-reversible: stay with probability `stay`, else step forward round the cycle."""
    return (stay * np.eye(n) + (1 - stay) * np.roll(np.eye(n), 1, axis=1)).tolist()


ADVERSARIAL = {
    "near_periodic": validate_chain([[0.01, 0.99], [0.995, 0.005]]),
    "slow_nonreversible_cycle": validate_chain(_slow_cycle(6, 0.9)),
    "swap": validate_chain([[0, 1], [1, 0]], [0.5, 0.5]),
    "reducible_with_pi": validate_chain([[0.3, 0.7, 0, 0], [0.7, 0.3, 0, 0],
                                         [0, 0, 0.6, 0.4], [0, 0, 0.4, 0.6]],
                                        [0.1, 0.1, 0.4, 0.4]),
    "one_state": validate_chain([[1.0]]),
}


def random_lattice_family(rng, chain, n, span=2):
    """Mean-zero family whose within-step value differences are integers."""
    rows = []
    while len(rows) < n:
        g = rng.integers(-span, span + 1, size=chain.n_states).astype(float)
        if np.ptp(g) > 0:
            rows.append(g)
    g = np.array(rows)
    centered = g - (g @ chain.stationary)[:, None]
    return make_family(centered, chain=chain)


def lattice_instances(seed, count, max_states=4, max_steps=7, lam_cap=1.0):
    """`count` (chain, lattice family) pairs of 2..max_states states and 2..max_steps steps."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        chain = random_contractive_chain(rng, int(rng.integers(2, max_states + 1)), lam_cap)
        funcs = random_lattice_family(rng, chain, int(rng.integers(2, max_steps + 1)))
        out.append((chain, funcs))
    return out


def prime_reciprocal_values(n):
    """(n, 2) values +-1/p_i over the primes 907..997 in turn, mean zero on a symmetric
    two-state chain: each difference 2/p_i is rational, but the LCM of the
    denominators is about 10^41, past int64."""
    primes = [p for p in range(907, 998) if all(p % d for d in range(2, 32))]
    return [[1.0 / p, -1.0 / p] for p in itertools.islice(itertools.cycle(primes), n)]


def brute_force_strings(k):
    """Every admissible string of length k: endpoints 1, no two consecutive zeros."""
    out = set()
    for bits in itertools.product((0, 1), repeat=k):
        if bits[0] == 1 and bits[-1] == 1 and "00" not in "".join(map(str, bits)):
            out.add(bits)
    return out


def brute_force_string_sum(x):
    """Sum over the admissible strings s of length len(x) of prod_{s_j = 1} x_j."""
    return sum(math.prod(xj for xj, bit in zip(x, s) if bit)
               for s in brute_force_strings(len(x)))


# Reference splitmix64 on Python ints, masked to 64 bits after each step; it
# shares no code with mchoeffding.rng.  Works elementwise on object arrays.
M64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def ref_splitmix64(x):
    z = (x + GOLDEN) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def ref_uniforms(seeds, stop, start=0):
    """(len(seeds), stop - start) uniforms: counter c of seed s is
    ((splitmix64(s + golden * c) >> 12) + 1/2) * 2^-52, in Python floats."""
    s = np.array([int(x) for x in seeds], dtype=object)[:, None]
    c = np.array([GOLDEN * k for k in range(start + 1, stop + 1)], dtype=object)[None, :]
    bits = ref_splitmix64((s + c) & M64)
    return (((bits >> 12) + 0.5) * 2.0**-52).astype(float)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
