"""The three benchmark workloads.

Each workload generates its inputs from the benchmark seed, runs jobs through
the library's public entry points (``cli.main`` in-process, or the
``run_matrix_experiment`` path of ``scripts/matrix_study.py``), and checks each
job's output against a reference computed outside the timed section.  Library
functions are always looked up through their module at call time, so the
tracer's wrappers see every call.

Interface of a workload object:
    prepare()          generate the inputs and the exact references
    job(i)             the i-th job, deterministic in (seed, i)
    run(job)           execute one job; returns its raw output
    units(job)         work units the job completes (the throughput unit)
    check(job, out)    list of problems with the output (empty when correct)
    data_section(out)  the output minus its timing lines, for the determinism check
    describe(job)      the generated input of a job, for the failure listing
"""

import csv
import io
import json
import math
import os

import numpy as np

from mchoeffding import bounds, chain, cli, matrixlab, montecarlo, oracle, rng, spectral

_Z95 = 1.959963984540054


def _sub_seed(seed, *path):
    """A 32-bit seed derived from the benchmark seed and a label path."""
    return int(np.random.default_rng([seed, *path]).integers(2**32))


def _data_section(text):
    """The data of a CLI output, without the manifest that carries its timings:
    the "data" object of a JSON output, the non-comment lines of a CSV one."""
    if text.startswith("{"):
        return json.dumps(json.loads(text)["data"], sort_keys=True)
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))


def _read(path):
    with open(path) as fh:
        return fh.read()


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return [r for r in rows if r and not r[0].startswith("#")]


def _random_doubly_stochastic(gen, n, perms=3):
    """A Birkhoff mixture of random permutation matrices."""
    weights = gen.dirichlet(np.ones(perms))
    eye = np.eye(n)
    return sum(w * eye[gen.permutation(n)] for w in weights)


def _cycle(gen, n):
    """Successor map of a single n-cycle through the states in random order."""
    order = gen.permutation(n)
    succ = np.empty(n, dtype=int)
    succ[order] = np.roll(order, -1)
    return succ


def _non_reversible(gen, n, make):
    """Draw doubly stochastic matrices until one is not symmetric.

    With uniform pi, reversibility is symmetry of the transition matrix."""
    while True:
        A = make()
        A = A / A.sum(axis=1, keepdims=True)
        if np.abs(A - A.T).max() > 1e-3:
            return A


def _wilson(hits, trials, z):
    """Wilson score interval, clamped as the library documents at 0 and all hits."""
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


class McTail:
    """CLI ``simulate`` on one 4-state non-reversible doubly stochastic chain.

    Checked against the exact lattice distribution of S_n.  The Monte Carlo
    estimate of each tail must hold the exact value inside the Wilson score
    interval at z = 7 (about 3.6 reported 95% half-widths) widened by one hit:
    for T = 1e4 the chance that a correct estimate misses is below 3e-9 per
    grid point, whatever the tail probability, so the check holds on any seed.
    """

    name = "mc_tail"
    unit = "trial-steps"
    trace_pass_jobs = 1
    N_STEPS = 1000
    TRIALS = 10_000
    U_GRID = "0:3:0.25"
    F = (1.0, -1.0, 0.5, -0.5)
    CHECK_Z = 7.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.chain_path = os.path.join(workdir, "mc_chain.json")
        self.out_path = os.path.join(workdir, "mc_out.csv")

    def prepare(self):
        gen = np.random.default_rng([self.seed, 1])
        n = 4
        shift = np.roll(np.eye(n), 1, axis=1)

        def make():
            w = gen.dirichlet([2.0, 2.0, 2.0])
            return (0.1 * np.full((n, n), 1.0 / n)
                    + 0.9 * (w[0] * shift + w[1] * np.eye(n)[gen.permutation(n)]
                             + w[2] * np.eye(n)))

        self.transition = _non_reversible(gen, n, make)
        values = [list(self.F)] * self.N_STEPS
        with open(self.chain_path, "w") as fh:
            json.dump({"transition": self.transition.tolist(), "stationary": [1.0 / n] * n,
                       "functions": {"values": values}}, fh)
        ref_chain = chain.validate_chain(self.transition, [1.0 / n] * n)
        funcs = chain.make_family(values, chain=ref_chain)
        self.scale = funcs.a_l2
        self.reference = oracle.lattice_distribution(ref_chain, funcs)

    def job(self, i):
        return {"index": i, "seed": _sub_seed(self.seed, 1, i)}

    def run(self, job):
        rc = cli.main(["simulate", "--chain", self.chain_path, "--u-grid", self.U_GRID,
                       "--trials", str(self.TRIALS), "--seed", str(job["seed"]),
                       "--output", self.out_path])
        return {"rc": rc, "text": _read(self.out_path) if rc == 0 else ""}

    def units(self, job):
        return self.TRIALS * self.N_STEPS

    def check(self, job, out):
        if out["rc"] != 0:
            return [f"simulate exited {out['rc']}"]
        rows = _csv_rows(out["text"])
        header, body = rows[0], rows[1:]
        col = {name: header.index(name) for name in ("u", "estimate", "ci_low", "ci_high")}
        grid = cli.parse_grid(self.U_GRID)
        problems = []
        if len(body) != len(grid):
            problems.append(f"{len(body)} rows for a grid of {len(grid)}")
        T = self.TRIALS
        for row, u in zip(body, grid):
            est, lo95, hi95 = (float(row[col[c]]) for c in ("estimate", "ci_low", "ci_high"))
            hits = round(est * T)
            exact = self.reference.tail(u * self.scale)
            ref_lo, ref_hi = _wilson(hits, T, _Z95)
            lo, hi = _wilson(hits, T, self.CHECK_Z)
            if abs(float(row[col["u"]]) - u) > 1e-12 or abs(hits - est * T) > 1e-6:
                problems.append(f"u={u}: malformed row {row}")
            elif abs(lo95 - ref_lo) > 1e-9 or abs(hi95 - ref_hi) > 1e-9:
                problems.append(f"u={u}: Wilson interval [{lo95}, {hi95}] != [{ref_lo}, {ref_hi}]")
            elif not lo - 1.0 / T <= exact <= hi + 1.0 / T:
                problems.append(f"u={u}: estimate {est} vs exact tail {exact}")
        return problems

    def data_section(self, out):
        return _data_section(out["text"])

    def describe(self, job):
        return {"mc_seed": job["seed"], "transition": self.transition.tolist(),
                "f": list(self.F), "n": self.N_STEPS, "trials": self.TRIALS}


class MatrixNorm:
    """``run_matrix_experiment`` at d = 32 with all-ones B, cycling lambda.

    The Markov-filled matrices are checked by rebuilding a few of them from
    their trial seeds and taking numpy's eigenvalues; the Gaussian counterpart
    mean is recomputed in full with numpy."""

    name = "matrix_norm"
    unit = "matrices"
    trace_pass_jobs = 3
    D = 32
    LAMBDAS = (0.0, 0.5, 0.9)
    MARKOV_TRIALS = 10
    GAUSSIAN_TRIALS = 10
    CHECKED_MATRICES = 2
    F = (1.0, -1.0)

    def __init__(self, seed, workdir):
        self.seed = seed

    def prepare(self):
        self.B = matrixlab.CoefficientMatrix(np.ones((self.D, self.D)))

    def job(self, i):
        return {"index": i, "lambda": self.LAMBDAS[i % len(self.LAMBDAS)],
                "seed": _sub_seed(self.seed, 2, i)}

    def run(self, job):
        lam = job["lambda"]
        return matrixlab.run_matrix_experiment(
            self.B, matrixlab.row_major_order(self.D), chain.two_state_chain(lam),
            list(self.F), montecarlo.SimConfig(trials=self.MARKOV_TRIALS, master_seed=job["seed"]),
            lam=lam, gaussian_trials=self.GAUSSIAN_TRIALS)

    def units(self, job):
        return self.MARKOV_TRIALS + self.GAUSSIAN_TRIALS

    def check(self, job, rep):
        problems = []
        lam, d = job["lambda"], self.D
        norms = np.asarray(rep.sample_norms)
        if norms.shape != (self.MARKOV_TRIALS,) or not np.all(np.isfinite(norms)):
            return [f"sample_norms has shape {norms.shape} or non-finite entries"]
        if not math.isclose(rep.mean_norm, norms.mean(), rel_tol=1e-12):
            problems.append(f"mean_norm {rep.mean_norm} != mean of sample_norms")
        gauss_term = math.sqrt(d) + math.sqrt(math.log(d))       # sigma + sigma* sqrt(log d)
        fitted = rep.mean_norm * math.sqrt(1.0 - lam) / gauss_term
        if not math.isclose(rep.fitted_C, fitted, rel_tol=1e-12):
            problems.append(f"fitted_C {rep.fitted_C} != {fitted}")
        if not math.isclose(rep.b_norm, d, rel_tol=1e-9):
            problems.append(f"b_norm {rep.b_norm} != {d}")

        order = matrixlab.row_major_order(d)
        two_state = chain.two_state_chain(lam)
        seeds = rng.trial_seeds(job["seed"], self.MARKOV_TRIALS)
        picks = np.random.default_rng([self.seed, 2, job["index"]]).choice(
            self.MARKOV_TRIALS, self.CHECKED_MATRICES, replace=False)
        for t in picks:
            X = matrixlab.build_markov_matrix(self.B, order, two_state, list(self.F), int(seeds[t]))
            if not (np.array_equal(X, X.T) and np.all(np.abs(X) == 1.0)):
                problems.append(f"trial {t}: matrix is not a symmetric sign matrix")
                continue
            ref = float(np.abs(np.linalg.eigvalsh(X)).max())
            if not math.isclose(norms[t], ref, rel_tol=1e-9):
                problems.append(f"trial {t}: norm {norms[t]} != eigvalsh {ref}")

        # Gaussian counterpart: normals from the seed run_matrix_experiment
        # derives from master_seed, scattered row-major into the upper triangle.
        g_seed = int(rng.trial_seeds(job["seed"] ^ 0x3C3C3C3C, 1)[0])
        g = rng.normal_block(rng.trial_seeds(g_seed, self.GAUSSIAN_TRIALS), d * (d + 1) // 2)
        iu = np.triu_indices(d)
        G = np.zeros((self.GAUSSIAN_TRIALS, d, d))
        G[:, iu[0], iu[1]] = g
        G = G + np.triu(G, 1).transpose(0, 2, 1)
        ref_g = float(np.abs(np.linalg.eigvalsh(G)).max(axis=1).mean())
        if not math.isclose(rep.gaussian_mean, ref_g, rel_tol=1e-9):
            problems.append(f"gaussian_mean {rep.gaussian_mean} != eigvalsh {ref_g}")
        return problems

    def data_section(self, rep):
        return json.dumps(rep.to_dict(), sort_keys=True) + repr(np.asarray(rep.sample_norms).tolist())

    def describe(self, job):
        return {"lambda": job["lambda"], "master_seed": job["seed"], "d": self.D,
                "B": "all-ones", "trials": self.MARKOV_TRIALS,
                "gaussian_trials": self.GAUSSIAN_TRIALS}


class OracleSweep:
    """Many small chains (N = 4, n = 8), each checked with CLI ``verify``, CLI
    ``exact --q 8``, CLI ``exact --tail-grid`` and the monomial lemma.

    The chains are doubly stochastic, so pi is uniform and integer f values
    with zero row sums stay mean-zero and lattice.  A third are random, a
    third slow-mixing (mostly identity) and a third near-periodic (mostly one
    4-cycle); all are non-reversible and carry a 2% uniform component, so they
    are irreducible.  Every other chain file omits ``stationary``.  The
    reference is a brute-force enumeration of all 4^8 paths written here,
    independent of the library's oracles."""

    name = "oracle_sweep"
    unit = "chains"
    trace_pass_jobs = 12
    N_CHAINS = 96
    N_STATES = 4
    N_STEPS = 8
    Q = 8
    TAIL_GRID = "0:4:0.5"
    MONOMIAL_LEN = 18
    KINDS = ("random", "slow", "periodic")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.out_paths = {k: os.path.join(workdir, f"oracle_{k}") for k in
                          ("verify.json", "moments.json", "tails.csv")}

    def _make_chain(self, k):
        gen = np.random.default_rng([self.seed, 3, k])
        n = self.N_STATES
        kind = self.KINDS[k % len(self.KINDS)]
        uniform = np.full((n, n), 1.0 / n)

        def make():
            mix = _random_doubly_stochastic(gen, n)
            if kind == "slow":
                mix = 0.9 * np.eye(n) + 0.1 * mix
            elif kind == "periodic":
                mix = 0.9 * np.eye(n)[_cycle(gen, n)] + 0.1 * mix
            return 0.02 * uniform + 0.98 * mix

        A = _non_reversible(gen, n, make)
        values = gen.integers(-2, 3, size=(self.N_STEPS, n))
        values[:, -1] = -values[:, :-1].sum(axis=1)
        w = sorted(int(x) for x in gen.integers(1, self.N_STEPS + 1, size=self.MONOMIAL_LEN))
        doc = {"transition": A.tolist(), "functions": {"values": values.tolist()}}
        if k % 2 == 0:
            doc["stationary"] = [1.0 / n] * n
        return {"kind": kind, "doc": doc, "w": w, "A": A, "values": values.astype(float)}

    def prepare(self):
        n, steps = self.N_STATES, self.N_STEPS
        paths = np.indices((n,) * steps).reshape(steps, -1)      # (steps, n^steps)
        self.chains = []
        for k in range(self.N_CHAINS):
            c = self._make_chain(k)
            c["path"] = os.path.join(self.workdir, f"oracle_chain_{k}.json")
            with open(c["path"], "w") as fh:
                json.dump(c["doc"], fh)
            c["ref"] = self._reference(c, paths)
            self.chains.append(c)

    def _reference(self, c, paths):
        """Moments, tails, monomial expectation and lambda by direct enumeration."""
        A, V, n = c["A"], c["values"], self.N_STATES
        pi = np.full(n, 1.0 / n)
        prob = pi[paths[0]].copy()
        for i in range(1, self.N_STEPS):
            prob *= A[paths[i - 1], paths[i]]
        S = sum(V[i][paths[i]] for i in range(self.N_STEPS)).astype(np.int64)
        mono = prob.copy()
        for i in c["w"]:
            mono *= V[i - 1][paths[i - 1]]
        # S_n is integer-valued: aggregate the path weights per value of S_n.
        lo = int(S.min())
        weights = np.bincount(S - lo, weights=prob)
        support = np.arange(lo, lo + len(weights), dtype=float)
        scale = float(np.sqrt(np.sum(np.abs(V).max(axis=1) ** 2)))
        grid = cli.parse_grid(self.TAIL_GRID)
        root = np.sqrt(pi)
        lam = float(np.linalg.svd(root[:, None] * (A - pi[None, :]) / root[None, :],
                                  compute_uv=False).max())
        return {
            "moments": [float(np.sum(weights * support**m)) for m in range(self.Q + 1)],
            "abs_moments": [float(np.sum(weights * np.abs(support) ** m))
                            for m in range(self.Q + 1)],
            "tails": [1.0 if u <= 0 else float(weights[np.abs(support) >= u * scale - 1e-12].sum())
                      for u in grid],
            "thresholds": [float(u * scale) for u in grid],
            "grid": [float(u) for u in grid],
            "monomial": float(mono.sum()),
            "monomial_scale": float(np.prod([np.abs(V[i - 1]).max() for i in c["w"]])),
            "lambda": lam,
        }

    def job(self, i):
        return {"index": i, "chain": i % self.N_CHAINS}

    def run(self, job):
        c = self.chains[job["chain"]]
        p = self.out_paths
        for path in p.values():
            if os.path.exists(path):
                os.remove(path)
        rcs = [cli.main(["verify", "--chain", c["path"], "--output", p["verify.json"]]),
               cli.main(["exact", "--chain", c["path"], "--q", str(self.Q),
                         "--output", p["moments.json"]]),
               cli.main(["exact", "--chain", c["path"], "--tail-grid", self.TAIL_GRID,
                         "--output", p["tails.csv"]])]
        texts = [_read(path) if os.path.exists(path) else "" for path in p.values()]
        mc, funcs = chain.load_chain(c["path"])
        lam = spectral.contraction(mc)
        exact = oracle.exact_monomial_expectation(mc, funcs, c["w"])
        bound = bounds.bound_monomial(c["w"], lam, funcs.bounds)
        return {"rcs": rcs, "texts": texts, "lambda": lam, "monomial": exact, "bound": bound}

    def units(self, job):
        return 1

    def check(self, job, out):
        ref = self.chains[job["chain"]]["ref"]
        problems = []
        if out["rcs"] != [0, 0, 0]:
            problems.append(f"exit codes {out['rcs']} (verify, exact --q, exact --tail-grid)")
        if out["texts"][0]:
            verdict = json.loads(out["texts"][0])["data"]
            if verdict.get("ok") is not True:
                problems.append(f"verify reported {verdict}")
        if not math.isclose(out["lambda"], ref["lambda"], rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"contraction {out['lambda']} != svd {ref['lambda']}")
        if out["texts"][1]:
            moments = json.loads(out["texts"][1])["data"]["moments"]
            if len(moments) != self.Q + 1:
                problems.append(f"{len(moments)} moments for q = {self.Q}")
            for m, (got, want, scale) in enumerate(zip(moments, ref["moments"], ref["abs_moments"])):
                if abs(got - want) > 1e-9 * max(1.0, scale):
                    problems.append(f"moment {m}: {got} != brute force {want}")
        if out["texts"][2]:
            body = _csv_rows(out["texts"][2])[1:]
            if len(body) != len(ref["tails"]):
                problems.append(f"{len(body)} tail rows for a grid of {len(ref['tails'])}")
            for row, u, thr, want in zip(body, ref["grid"], ref["thresholds"], ref["tails"]):
                got = [float(x) for x in row]
                if abs(got[0] - u) > 1e-12 or abs(got[1] - thr) > 1e-9 or abs(got[2] - want) > 1e-10:
                    problems.append(f"tail row {row} != ({u}, {thr}, {want})")
        if abs(out["monomial"] - ref["monomial"]) > 1e-10 * max(1.0, ref["monomial_scale"]):
            problems.append(f"monomial expectation {out['monomial']} != brute force {ref['monomial']}")
        if not out["monomial"] <= out["bound"] + 1e-9:
            problems.append(f"monomial lemma: {out['monomial']} > bound {out['bound']}")
        return problems

    def data_section(self, out):
        return ("".join(_data_section(t) for t in out["texts"] if t)
                + repr((out["lambda"], out["monomial"], out["bound"])))

    def describe(self, job):
        c = self.chains[job["chain"]]
        return {"chain": job["chain"], "kind": c["kind"], "chain_file": c["doc"], "w": c["w"]}


WORKLOADS = {cls.name: cls for cls in (McTail, MatrixNorm, OracleSweep)}
