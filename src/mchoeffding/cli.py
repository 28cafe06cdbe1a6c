"""Command-line front end.

Subcommands: spectral | bounds | exact | simulate | matrix | verify.
Each handler returns (payload, exit code); `main` checks `--output` before any
work, then renders the payload (a dict as JSON, a list of rows as CSV) with the
run manifest and writes it once, to stdout or atomically to the file.  Identical
invocations produce byte-identical data sections (the duration line is the
only varying part).
"""

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import _check_u, bound_moment, evaluate_tail_bounds, tail_rows
from .chain import averaging_operator, load_chain, read_json, two_state_chain
from .config import DEFAULT_TOL
from .errors import NumericError, TooLarge, ValidationError
from .matrixlab import (
    GAUSSIAN_TRIALS,
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
from .rng import uniform_block
from .spectral import NormContext, deviation_norms, l2_opnorms, matrix_powers


@dataclass
class RunManifest:
    subcommand: str
    flags: dict
    started: float = field(default_factory=time.perf_counter)
    timings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)  # like timings, outside the data section

    @property
    def duration_s(self) -> float:
        """Wall-clock time from invocation to rendering; excluded from the
        byte-identical data section."""
        return time.perf_counter() - self.started

    def lap(self, stage: str):
        """Record the wall time since the previous lap (or the start) as `stage`."""
        self.timings[stage] = self.duration_s - sum(self.timings.values())

    def timed_dict(self):
        """stable_dict, duration_s, and the timings (render ends now) and diagnostics if set."""
        if self.timings:
            self.lap("render")
        blocks = {"timings": self.timings, "diagnostics": self.diagnostics}
        blocks = {k: v for k, v in blocks.items() if v}
        return dict(self.stable_dict(), duration_s=self.duration_s, **blocks)

    def stable_dict(self):
        return {"subcommand": self.subcommand, "flags": self.flags, "version": __version__}


MAX_GRID_POINTS = 10**6
MAX_POWERS = 10**4            # spectral --k
MAX_TRIALS = 10**7            # simulate --trials
MAX_MATRIX_DRAWS = 10**7      # matrix: (trials + Gaussian trials) x (d^2 + d) / 2 entries
MAX_VERIFY_PATHS = 10**5      # verify runs its brute-force oracles up to N^n paths


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
    if start > stop:
        raise ValidationError(f"grid {spec!r} has start > stop")
    if (stop + step / 2.0 - start) / step > MAX_GRID_POINTS:
        raise TooLarge(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return np.arange(start, stop + step / 2.0, step)


def _check_output(path: str) -> str:
    """The absolute file `path` names, a symlink resolved so that it is written through;
    ValidationError unless that is a file in an existing directory."""
    # realpath stats every component (about 20 us); only a final link changes what is replaced
    real = os.path.realpath(path) if os.path.islink(path) else os.path.abspath(path)
    if os.path.isdir(real):
        raise ValidationError(f"--output {path} is a directory")
    if not os.path.isdir(os.path.dirname(real)):
        raise ValidationError(f"--output {path}: its directory does not exist")
    return real


def _write(text: str, path: str | None):
    """Write `text` to stdout, or atomically to `_check_output`'s `path` through a sibling
    temp file.  The temp file is created with mode 0o666, so the umask applies as in open()."""
    if not path:
        sys.stdout.write(text)
        return
    tmp = os.path.join(os.path.dirname(path), f".tmp_mch_{os.urandom(8).hex()}")
    try:
        with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write --output {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def render_csv(manifest: RunManifest, rows) -> str:
    body = "".join(",".join(map(str, row)) + "\n" for row in rows)  # str(float) is its repr
    m = dict(manifest.timed_dict(), manifest=manifest.stable_dict())
    return "".join(f"# {k}: {json.dumps(m[k], sort_keys=True)}\n"
                   for k in ("manifest", "duration_s", "timings", "diagnostics") if k in m) + body


def render_json(manifest: RunManifest, data) -> str:
    # data first, for the render lap; indented as json.dumps nests it ("data" < "manifest")
    body = json.dumps(data, sort_keys=True, indent=2).replace("\n", "\n  ")
    m = json.dumps(manifest.timed_dict(), sort_keys=True, indent=2).replace("\n", "\n  ")
    return f'{{\n  "data": {body},\n  "manifest": {m}\n}}\n'


def _cmd_spectral(args, manifest):
    if not 0 <= args.k <= MAX_POWERS:
        raise TooLarge(f"--k must lie in 0..{MAX_POWERS}, got {args.k}")
    chain, _ = load_chain(args.chain)
    manifest.diagnostics["stationary_residual"] = _stationary_residual(chain)
    manifest.lap("load")
    norms = deviation_norms(chain, max(args.k, 1))
    manifest.lap("norms")
    lam = float(norms[0])
    data = {"lambda": lam, "exceeds_one": bool(lam >= 1.0), "n_states": chain.n_states}
    if args.k:
        data["power_deviation_norms"] = norms.tolist()
    return data, 0


def _stationary_residual(chain) -> float:
    """max |pi A - pi|: how far the solved or supplied pi is from stationary."""
    return float(np.abs(chain.stationary @ chain.transition - chain.stationary).max())


def _cmd_bounds(args, manifest):
    if not math.isfinite(args.lam):
        raise ValidationError(f"--lambda must be finite, got {args.lam}")
    u_grid = parse_grid(args.u_grid)
    cols = evaluate_tail_bounds(u_grid, args.lam)
    return tail_rows({"u": u_grid}, cols, cols), 0


def _cmd_exact(args, manifest):
    if args.tail_grid and args.q is not None:
        raise ValidationError("--q does not apply with --tail-grid")
    chain, funcs = load_chain(args.chain)
    if funcs is None:
        raise ValidationError("chain file must carry a 'functions' block for `exact`")
    if args.tail_grid:
        u = _check_u(parse_grid(args.tail_grid), 0.0)
        t = u * funcs.a_l2
        tails = lattice_distribution(chain, funcs).tail(t)
        return [["u", "threshold", "exact_tail"], *zip(u.tolist(), t.tolist(), tails.tolist())], 0
    table = exact_moments(chain, funcs, 8 if args.q is None else args.q)
    return {"q": table.q, "moments": [float(m) for m in table.moments]}, 0


def _cmd_simulate(args, manifest):
    if args.trials > MAX_TRIALS:
        raise TooLarge(f"--trials {args.trials} exceeds the cap {MAX_TRIALS}")
    chain, funcs = load_chain(args.chain)
    if funcs is None:
        raise ValidationError("chain file must carry a 'functions' block for `simulate`")
    manifest.lap("load")
    cfg = SimConfig(trials=args.trials, master_seed=args.seed)
    report = estimate_tail(chain, funcs, parse_grid(args.u_grid), cfg)
    hits = np.rint(report.estimates * cfg.trials).astype(int)  # behind each Wilson interval
    manifest.diagnostics.update(trials=cfg.trials, tail_hits=hits.tolist())
    manifest.lap("simulate")
    rows = report.rows()
    data = {"columns": rows[0], "rows": rows[1:], "lambda": report.lam}
    manifest.lap("rows")
    return (data if args.format == "json" else rows), 0


def _cmd_matrix(args, manifest):
    cfg = SimConfig(trials=args.trials, master_seed=args.seed)
    B = CoefficientMatrix(read_json(args.b)) if args.b else None
    d = B.d if args.b else args.d
    if d < 1:
        raise ValidationError(f"--d must be at least 1, got {d}")
    if (cfg.trials + GAUSSIAN_TRIALS) * (d * d + d) // 2 > MAX_MATRIX_DRAWS:
        raise TooLarge(f"{cfg.trials} + {GAUSSIAN_TRIALS} matrices of d = {d} exceed the cap")
    if not args.b and args.pattern == "all-ones":
        B = CoefficientMatrix(np.ones((d, d)))
    elif not args.b:
        # symmetric uniform(0,1] entries from the seeded stream, seed mod 2^64
        u = uniform_block([(args.seed ^ 0xB0B0) % 2**64], d * d).reshape(d, d)
        B = CoefficientMatrix((u + u.T) / 2.0 + 1e-3)
    order = diagonal_first_order(d) if args.order == "diagonal-first" else row_major_order(d)
    chain = two_state_chain(args.lam)
    manifest.lap("setup")
    report = run_matrix_experiment(B, order, chain, [1.0, -1.0], cfg, lam=args.lam)
    manifest.lap("experiment")
    return report.to_dict(), 0


def _cmd_verify(args, manifest):
    chain, funcs = load_chain(args.chain)
    manifest.diagnostics["stationary_residual"] = _stationary_residual(chain)
    manifest.lap("load")
    tol = DEFAULT_TOL
    checks = {}  # name -> passed, in the order run
    A, pi, E = chain.transition, chain.stationary, averaging_operator(chain)
    checks["E_pi_projector"] = np.abs(E @ E - E).max() <= tol.projector
    checks["E_pi_commutes"] = (np.abs(E @ A - E).max() <= tol.projector
                               and np.abs(A @ E - E).max() <= tol.projector)
    # A^k and (A - E)^k for k = 1..20, each carried once: the power identity compares
    # A^k - E with the independently built (A - E)^k, whose norms give lambda and decay.
    powers, dev_powers = (np.stack(list(matrix_powers(M, 20))) for M in (A, A - E))
    norms = l2_opnorms(dev_powers, NormContext(pi))
    lam = float(norms[0])
    row_err = np.abs(powers.sum(axis=2) - 1.0).max(axis=1)
    stat_err = np.abs(pi @ powers - pi).max(axis=1)
    identity_err = np.abs(powers - E - dev_powers).max(axis=(1, 2))
    for k in range(1, 21):
        checks[f"row_stochastic_k{k}"] = row_err[k - 1] <= tol.row_sum
        checks[f"stationary_k{k}"] = stat_err[k - 1] <= tol.stationary_powers
        checks[f"power_identity_k{k}"] = identity_err[k - 1] <= tol.entrywise_identity
        if lam < 1.0:
            checks[f"decay_k{k}"] = norms[k - 1] <= lam**k * (1.0 + tol.inequality_slack)
    manifest.lap("spectral")
    if funcs is not None and chain.n_states ** funcs.n_steps <= MAX_VERIFY_PATHS:
        bf = brute_force_distribution(chain, funcs)
        checks["oracle_tail"] = abs(exact_tail(chain, funcs, funcs.a_l2)
                                    - bf.tail(funcs.a_l2)) <= tol.oracle_agreement
        table = exact_moments(chain, funcs, 4)
        checks["oracle_moments"] = all(abs(table[m] - bf.moment(m)) <= tol.oracle_agreement * 10
                                       for m in range(5))
        if lam < 1.0:
            checks["moment_bound_q4"] = (table[4] <= bound_moment(4, lam, funcs.bounds)
                                         + tol.inequality_slack)
    manifest.lap("oracle")
    failures = [name for name, ok in checks.items() if not ok]
    return {"lambda": lam, "checks_failed": failures, "ok": not failures}, 1 if failures else 0


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
    ep.add_argument("--q", type=int, help="highest moment order (default 8); not with --tail-grid")
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
    manifest = RunManifest(args.cmd, {k: v for k, v in sorted(vars(args).items())
                                      if k not in ("cmd", "output") and v is not None})
    try:
        path = args.output and _check_output(args.output)
        payload, code = _DISPATCH[args.cmd](args, manifest)
        render = render_json if isinstance(payload, dict) else render_csv
        _write(render(manifest, payload), path)
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
