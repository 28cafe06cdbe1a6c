"""Command-line front end.

Subcommands: spectral | bounds | exact | simulate | matrix | verify.
Every output embeds a run manifest; files are written atomically; identical
invocations produce byte-identical data sections (the duration line is the
only varying part).
"""

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import evaluate_tail_bounds, is_vacuous
from .chain import averaging_operator, load_chain, read_json, two_state_chain
from .config import DEFAULT_TOL
from .errors import NumericError, TooLarge, ValidationError
from .matrixlab import (
    CoefficientMatrix,
    diagonal_first_order,
    row_major_order,
    run_matrix_experiment,
)
from .montecarlo import SimConfig, estimate_tail
from .oracle import (
    brute_force_distribution,
    exact_moments,
    exact_tail,
    lattice_distribution,
)
from .spectral import NormContext, contraction, l2_opnorms, opnorm, power_deviation


@dataclass
class RunManifest:
    subcommand: str
    input_path: str | None
    flags: dict
    master_seed: int | None
    version: str
    started: float = 0.0

    @property
    def duration_s(self) -> float:
        """Wall-clock time from invocation to rendering; excluded from the
        byte-identical data section."""
        return time.perf_counter() - self.started

    def stable_dict(self):
        return {"subcommand": self.subcommand, "input": self.input_path,
                "flags": self.flags, "master_seed": self.master_seed,
                "version": self.version}


MAX_GRID_POINTS = 10**6


def parse_grid(spec: str) -> np.ndarray:
    """start:stop:step, endpoints inclusive within half a step."""
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValidationError(f"bad grid {spec!r}, expected start:stop:step")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError(f"grid {spec!r} must have finite start, stop and step")
    if step <= 0:
        raise ValidationError("grid step must be positive")
    if (stop + step / 2.0 - start) / step > MAX_GRID_POINTS:
        raise TooLarge(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return np.arange(start, stop + step / 2.0, step)


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_mch_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: str | None):
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def render_csv(manifest: RunManifest, rows) -> str:
    lines = ["# manifest: " + json.dumps(manifest.stable_dict(), sort_keys=True),
             f"# duration_s: {manifest.duration_s}"]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def render_json(manifest: RunManifest, data) -> str:
    m = manifest.stable_dict()
    m["duration_s"] = manifest.duration_s
    return json.dumps({"manifest": m, "data": data}, sort_keys=True, indent=2) + "\n"


def _cmd_spectral(args, manifest):
    chain, _ = load_chain(args.chain)
    lam = contraction(chain)
    data = {"lambda": lam, "exceeds_one": bool(lam >= 1.0), "n_states": chain.n_states}
    if args.k:
        ctx = NormContext(chain.stationary)
        data["power_deviation_norms"] = [
            opnorm(power_deviation(chain, k), ctx, 2) for k in range(1, args.k + 1)]
    _emit(render_json(manifest, data), args.output)
    return 0


def _cmd_bounds(args, manifest):
    if not math.isfinite(args.lam):
        raise ValidationError(f"--lambda must be finite, got {args.lam}")
    u_grid = parse_grid(args.u_grid)
    cols = evaluate_tail_bounds(u_grid, args.lam)
    names = ["iid", "healy", "rao", "fjs"]
    vacuous = {n: is_vacuous(cols[n]) for n in names}
    rows = [["u"] + names + ["vacuous_flags"]]
    for i, u in enumerate(u_grid):
        flags = ";".join(n for n in names if vacuous[n][i])
        rows.append([float(u)] + [float(cols[n][i]) for n in names] + [flags])
    _emit(render_csv(manifest, rows), args.output)
    return 0


def _cmd_exact(args, manifest):
    chain, funcs = load_chain(args.chain)
    if funcs is None:
        raise ValidationError("chain file must carry a 'functions' block for `exact`")
    if args.tail_grid:
        scale = funcs.a_l2
        dist = lattice_distribution(chain, funcs)
        rows = [["u", "threshold", "exact_tail"]]
        for u in parse_grid(args.tail_grid):
            rows.append([float(u), float(u * scale), dist.tail(u * scale)])
        _emit(render_csv(manifest, rows), args.output)
        return 0
    table = exact_moments(chain, funcs, args.q)
    data = {"q": table.q, "moments": [float(m) for m in table.moments]}
    _emit(render_json(manifest, data), args.output)
    return 0


def _cmd_simulate(args, manifest):
    chain, funcs = load_chain(args.chain)
    if funcs is None:
        raise ValidationError("chain file must carry a 'functions' block for `simulate`")
    cfg = SimConfig(trials=args.trials, master_seed=args.seed)
    report = estimate_tail(chain, funcs, parse_grid(args.u_grid), cfg)
    if args.format == "json":
        rows = report.rows()
        data = {"columns": rows[0], "rows": rows[1:], "lambda": report.lam}
        _emit(render_json(manifest, data), args.output)
    else:
        _emit(render_csv(manifest, report.rows()), args.output)
    return 0


def _cmd_matrix(args, manifest):
    if args.b:
        B = CoefficientMatrix(read_json(args.b))
    elif args.d < 1:
        raise ValidationError(f"--d must be at least 1, got {args.d}")
    elif args.pattern == "all-ones":
        B = CoefficientMatrix(np.ones((args.d, args.d)))
    else:
        # symmetric uniform(0,1] entries from the seeded stream
        from .rng import uniform_block

        u = uniform_block([args.seed ^ 0xB0B0], args.d * args.d)[0].reshape(args.d, args.d)
        B = CoefficientMatrix((u + u.T) / 2.0 + 1e-3)
    order = diagonal_first_order(B.d) if args.order == "diagonal-first" else row_major_order(B.d)
    chain = two_state_chain(args.lam)
    cfg = SimConfig(trials=args.trials, master_seed=args.seed)
    report = run_matrix_experiment(B, order, chain, [1.0, -1.0], cfg, lam=args.lam)
    _emit(render_json(manifest, report.to_dict()), args.output)
    return 0


def _cmd_verify(args, manifest):
    chain, funcs = load_chain(args.chain)
    tol = DEFAULT_TOL
    failures = []

    def check(name, ok):
        if not ok:
            failures.append(name)

    E = averaging_operator(chain)
    A = chain.transition
    pi = chain.stationary
    check("E_pi_projector", np.abs(E @ E - E).max() <= tol.projector)
    check("E_pi_commutes", np.abs(E @ A - E).max() <= tol.projector
          and np.abs(A @ E - E).max() <= tol.projector)
    lam = contraction(chain)
    # A^k and (A - E)^k for k = 1..20, carried as two separate products: the
    # power identity compares A^k - E with the independently built (A - E)^k.
    powers, dev_powers = [A], [A - E]
    for _ in range(19):
        powers.append(powers[-1] @ A)
        dev_powers.append(dev_powers[-1] @ (A - E))
    powers = np.stack(powers)
    devs = powers - E
    row_err = np.abs(powers.sum(axis=2) - 1.0).max(axis=1)
    stat_err = np.abs(pi @ powers - pi).max(axis=1)
    identity_err = np.abs(devs - np.stack(dev_powers)).max(axis=(1, 2))
    norms = l2_opnorms(devs, NormContext(pi))
    for k in range(1, 21):
        check(f"row_stochastic_k{k}", row_err[k - 1] <= tol.row_sum)
        check(f"stationary_k{k}", stat_err[k - 1] <= 1e-8)
        check(f"power_identity_k{k}", identity_err[k - 1] <= tol.entrywise_identity)
        if lam < 1.0:
            check(f"decay_k{k}", norms[k - 1] <= lam**k + tol.inequality_slack)
    if funcs is not None and chain.n_states ** funcs.n_steps <= 10**5:
        from .bounds import bound_moment

        bf = brute_force_distribution(chain, funcs)
        check("oracle_tail", abs(exact_tail(chain, funcs, funcs.a_l2)
                                 - bf.tail(funcs.a_l2)) <= tol.oracle_agreement)
        table = exact_moments(chain, funcs, 4)
        check("oracle_moments", all(abs(table[m] - bf.moment(m)) <= tol.oracle_agreement * 10
                                    for m in range(5)))
        if lam < 1.0:
            check("moment_bound_q4",
                  table[4] <= bound_moment(4, lam, funcs.bounds) + tol.inequality_slack)
    data = {"lambda": lam, "checks_failed": failures, "ok": not failures}
    _emit(render_json(manifest, data), args.output)
    return 0 if not failures else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="mchoeffding",
                                description="Markov-chain Hoeffding bounds: evaluate, verify, simulate")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("spectral", help="contraction parameter and deviation norms")
    sp.add_argument("--chain", required=True)
    sp.add_argument("--k", type=int, default=0, help="also report ||A^k - E|| for k=1..K")
    sp.add_argument("--output")

    bp = sub.add_parser("bounds", help="tail-bound table on a u-grid")
    bp.add_argument("--u-grid", required=True)
    bp.add_argument("--lambda", dest="lam", type=float, required=True)
    bp.add_argument("--output")

    ep = sub.add_parser("exact", help="exact moments or tails via transfer DP")
    ep.add_argument("--chain", required=True)
    ep.add_argument("--q", type=int, default=8)
    ep.add_argument("--tail-grid", help="emit an exact-tail CSV instead of moments")
    ep.add_argument("--output")

    mp = sub.add_parser("simulate", help="Monte Carlo tail estimation")
    mp.add_argument("--chain", required=True)
    mp.add_argument("--u-grid", required=True)
    mp.add_argument("--trials", type=int, default=10000)
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("--format", choices=["csv", "json"], default="csv")
    mp.add_argument("--output")

    xp = sub.add_parser("matrix", help="Markov-filled random matrix experiment")
    xp.add_argument("--d", type=int, default=32)
    xp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    xp.add_argument("--trials", type=int, default=100)
    xp.add_argument("--seed", type=int, default=0)
    xp.add_argument("--pattern", choices=["all-ones", "random-uniform"], default="all-ones")
    xp.add_argument("--order", choices=["row-major", "diagonal-first"], default="row-major")
    xp.add_argument("--b", help="JSON file with an explicit coefficient matrix")
    xp.add_argument("--output")

    vp = sub.add_parser("verify", help="run invariant suites against a chain file")
    vp.add_argument("--chain", required=True)
    vp.add_argument("--output")
    return p


_DISPATCH = {"spectral": _cmd_spectral, "bounds": _cmd_bounds, "exact": _cmd_exact,
             "simulate": _cmd_simulate, "matrix": _cmd_matrix, "verify": _cmd_verify}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = RunManifest(
        subcommand=args.cmd,
        input_path=getattr(args, "chain", None) or getattr(args, "b", None),
        flags={k: v for k, v in sorted(vars(args).items())
               if k not in ("cmd", "output") and v is not None},
        master_seed=getattr(args, "seed", None),
        version=__version__,
        started=time.perf_counter())
    try:
        return _DISPATCH[args.cmd](args, manifest)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
