import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mchoeffding import (
    SimConfig,
    bound_fjs,
    bound_healy,
    bound_iid_hoeffding,
    bound_rao,
    contraction,
    estimate_tail,
    exact_moments,
    sign_family,
    two_state_chain,
    validate_chain,
    wilson_interval,
)
from mchoeffding.chain import chain_to_dict, load_chain
import mchoeffding
from mchoeffding.cli import build_parser, main, parse_grid
from mchoeffding.errors import ValidationError

from conftest import ADVERSARIAL, prime_reciprocal_values


@pytest.fixture
def chain_file(tmp_path):
    chain = two_state_chain(0.5)
    funcs = sign_family(4)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_to_dict(chain, funcs)))
    return str(path)


def data_section(path):
    """Everything except the commented manifest/duration header."""
    return [ln for ln in open(path).read().splitlines() if not ln.startswith("#")]


def test_parse_grid_inclusive():
    np.testing.assert_allclose(parse_grid("0:8:0.5"), np.arange(0, 8.5, 0.5))
    np.testing.assert_allclose(parse_grid("0:2:0.6"), [0.0, 0.6, 1.2, 1.8])
    with pytest.raises(ValidationError):
        parse_grid("0..8")
    with pytest.raises(ValidationError):
        parse_grid("0:8:-1")


@pytest.mark.parametrize("spec", ["0:1:nan", "nan:1:0.5", "0:inf:1", "-inf:0:1", "0:1e18:1",
                                  "5:1:1"])
def test_parse_grid_rejects_non_finite_and_huge(spec):
    with pytest.raises(ValidationError):
        parse_grid(spec)
    assert main(["bounds", f"--u-grid={spec}", "--lambda", "0.5"]) == 1


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bounds", "--u-grid", "0:8:0.5", "--lambda", "0.5",
                 "--output", str(out)]) == 0
    lines = data_section(out)
    assert lines[0] == "u,iid,healy,rao,fjs,vacuous_flags"
    assert len(lines) == 18
    row = dict(zip(lines[0].split(","), lines[5].split(",")))
    assert float(row["u"]) == 2.0
    scalar = {"iid": bound_iid_hoeffding, "healy": lambda u: bound_healy(u, 0.5),
              "rao": lambda u: bound_rao(u, 0.5), "fjs": lambda u: bound_fjs(u, 0.5)}
    for line in lines[1:]:
        row = dict(zip(lines[0].split(","), line.split(",")))
        u = float(row["u"])
        for name, fn in scalar.items():
            np.testing.assert_array_max_ulp(float(row[name]), fn(u), maxulp=1)
        assert row["vacuous_flags"] == ";".join(n for n in scalar if scalar[n](u) >= 1.0)


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_bounds_rejects_non_finite_lambda(lam, capsys):
    assert main(["bounds", "--u-grid", "0:2:1", f"--lambda={lam}"]) == 1
    assert "--lambda must be finite" in capsys.readouterr().err


def test_manifest_embedded(tmp_path):
    out = tmp_path / "b.csv"
    main(["bounds", "--u-grid", "0:1:1", "--lambda", "0.0", "--output", str(out)])
    header = open(out).read().splitlines()
    assert header[0].startswith("# manifest: ")
    m = json.loads(header[0][len("# manifest: "):])
    assert m["subcommand"] == "bounds"
    assert header[1].startswith("# duration_s: ")


def test_spectral_subcommand(tmp_path, chain_file):
    out = tmp_path / "s.json"
    assert main(["spectral", "--chain", chain_file, "--k", "3", "--output", str(out)]) == 0
    blob = json.loads(open(out).read())
    assert blob["data"]["lambda"] == pytest.approx(0.5, abs=1e-10)
    assert blob["data"]["exceeds_one"] is False
    np.testing.assert_allclose(blob["data"]["power_deviation_norms"],
                               [0.5, 0.25, 0.125], atol=1e-10)


def test_spectral_k_memory_stays_blocked(tmp_path, rng):
    """--k 2000 on 64 states: 2000 stacked 64 x 64 deviations alone would take
    over 65 MB; the blocked norms keep the traced peak under 8 MB."""
    A = rng.random((64, 64)) + 0.05
    path = tmp_path / "chain64.json"
    path.write_text(json.dumps(chain_to_dict(validate_chain(A / A.sum(axis=1, keepdims=True)))))
    out = tmp_path / "s.json"
    build_parser()
    tracemalloc.start()
    try:
        assert main(["spectral", "--chain", str(path), "--k", "2000", "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(json.loads(out.read_text())["data"]["power_deviation_norms"]) == 2000


@pytest.mark.parametrize("argv, stages", [
    (["spectral", "--k", "3"], {"load", "norms", "render"}),
    (["verify"], {"load", "spectral", "oracle", "render"}),
])
def test_spectral_and_verify_report_timings_and_diagnostics(tmp_path, chain_file, argv, stages):
    """Stage timings and the stationary residual sit in the manifest; the data
    section repeats byte for byte."""
    chain, _ = load_chain(chain_file)
    residual = float(np.abs(chain.stationary @ chain.transition - chain.stationary).max())
    runs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(argv[:1] + ["--chain", chain_file] + argv[1:] + ["--output", str(out)]) == 0
        text = out.read_text()
        runs.append(text[:text.index('"manifest"')])
        manifest = json.loads(text)["manifest"]
        assert set(manifest["timings"]) == stages and min(manifest["timings"].values()) >= 0.0
        assert sum(manifest["timings"].values()) <= manifest["duration_s"]
        assert manifest["diagnostics"] == {"stationary_residual": residual}
        assert not {"timings", "diagnostics"} & set(json.loads(text)["data"])
    assert runs[0] == runs[1]


def test_exact_subcommand_moments(tmp_path, chain_file):
    out = tmp_path / "e.json"
    assert main(["exact", "--chain", chain_file, "--q", "4", "--output", str(out)]) == 0
    blob = json.loads(open(out).read())
    expected = exact_moments(two_state_chain(0.5), sign_family(4), 4).moments
    np.testing.assert_allclose(blob["data"]["moments"], expected, atol=1e-12)


def test_exact_subcommand_tail(tmp_path, chain_file):
    out = tmp_path / "t.csv"
    assert main(["exact", "--chain", chain_file, "--tail-grid", "0:2:1",
                 "--output", str(out)]) == 0
    lines = data_section(out)
    assert lines[0] == "u,threshold,exact_tail"
    assert float(lines[1].split(",")[2]) == 1.0


def test_exact_rejects_q_with_tail_grid_before_reading_the_chain(tmp_path, chain_file, capsys,
                                                                  monkeypatch):
    def load(path):
        raise AssertionError("the chain was read before --q was checked")

    monkeypatch.setattr(mchoeffding.cli, "load_chain", load)
    out = tmp_path / "t.csv"
    argv = ["exact", "--chain", chain_file, "--tail-grid", "0:2:1", "--q", "99", "--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --q does not apply with --tail-grid\n"
    assert not out.exists()


def test_exact_tail_grid_queries_the_distribution_once(tmp_path, chain_file, monkeypatch):
    calls = []
    tail = mchoeffding.oracle.LatticeDistribution.tail
    monkeypatch.setattr(mchoeffding.oracle.LatticeDistribution, "tail",
                        lambda self, t: calls.append(np.shape(t)) or tail(self, t))
    out = tmp_path / "t.csv"
    assert main(["exact", "--chain", chain_file, "--tail-grid", "0:2:0.25",
                 "--output", str(out)]) == 0
    assert calls == [(9,)]
    assert len(data_section(out)) == 10


@pytest.mark.parametrize("argv", [
    ["spectral", "--k", "100000000"],
    ["simulate", "--u-grid", "0:1:1", "--trials", "10000000000"],
    ["matrix", "--d", "100000"],
    ["matrix", "--d", "500", "--trials", "1"],  # over the cap only with the Gaussian matrices
], ids=["spectral_k", "simulate_trials", "matrix_d", "matrix_gaussian"])
def test_oversized_inputs_exit_one_before_allocating(chain_file, capsys, argv):
    if argv[0] != "matrix":
        argv = argv[:1] + ["--chain", chain_file] + argv[1:]
    build_parser()
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["exact", "simulate"])
def test_tail_grids_reject_negative_u(tmp_path, chain_file, capsys, command):
    out = tmp_path / "neg.csv"
    flag = "--tail-grid" if command == "exact" else "--u-grid"
    assert main([command, "--chain", chain_file, f"{flag}=-1:1:0.5", "--output", str(out)]) == 1
    assert "u must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing_dir", "a_dir", "file_as_dir"])
def test_bad_output_exits_one_before_any_work(tmp_path, chain_file, capsys, monkeypatch, where):
    def walk(*args):
        raise AssertionError("simulate ran before --output was checked")

    monkeypatch.setattr(mchoeffding.cli, "estimate_tail", walk)
    (tmp_path / "file").write_text("")
    out = {"missing_dir": tmp_path / "missing" / "x.csv", "a_dir": tmp_path,
           "file_as_dir": tmp_path / "file" / "x.csv"}[where]
    argv = ["simulate", "--chain", chain_file, "--u-grid", "0:1:1", "--output", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --output {out}") and "Traceback" not in err


def test_failed_write_exits_one_and_leaves_no_temp_file(tmp_path, chain_file, capsys,
                                                         monkeypatch):
    def replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", replace)
    out = tmp_path / "t.csv"
    assert main(["exact", "--chain", chain_file, "--tail-grid", "0:2:1", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --output {out}") and "No space left" in err
    assert os.listdir(tmp_path) == ["chain.json"]


def test_symlinked_output_is_written_through(tmp_path):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    link.symlink_to(real)
    assert main(["bounds", "--u-grid", "0:1:1", "--lambda", "0.5", "--output", str(link)]) == 0
    assert link.is_symlink() and data_section(real)[0].startswith("u,")
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]


def test_output_linked_into_a_missing_directory_exits_one_before_any_work(tmp_path, capsys,
                                                                           monkeypatch):
    def bounds(*args):
        raise AssertionError("bounds ran before --output was checked")

    monkeypatch.setattr(mchoeffding.cli, "evaluate_tail_bounds", bounds)
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "missing" / "real.csv")
    assert main(["bounds", "--u-grid", "0:1:1", "--lambda", "0.5", "--output", str(link)]) == 1
    assert capsys.readouterr().err.startswith(f"error: --output {link}: its directory")
    assert link.is_symlink() and os.listdir(tmp_path) == ["link.csv"]


def test_output_file_mode_follows_the_umask(tmp_path):
    out, plain = tmp_path / "b.csv", tmp_path / "plain.csv"
    assert main(["bounds", "--u-grid", "0:1:1", "--lambda", "0", "--output", str(out)]) == 0
    with open(plain, "w"):
        pass
    assert out.stat().st_mode == plain.stat().st_mode


def test_simulate_deterministic(tmp_path, chain_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--chain", chain_file, "--u-grid", "0:2:1",
            "--trials", "2000", "--seed", "7"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert data_section(a) == data_section(b)


def test_simulate_json_format(tmp_path, chain_file):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--chain", chain_file, "--u-grid", "0:1:1",
                 "--trials", "100", "--seed", "1", "--format", "json",
                 "--output", str(out)]) == 0
    blob = json.loads(open(out).read())
    assert blob["data"]["columns"][0] == "u"
    assert blob["data"]["rows"][0][1] == 1.0


def test_matrix_subcommand(tmp_path):
    out = tmp_path / "m.json"
    assert main(["matrix", "--d", "4", "--lambda", "0.5", "--trials", "5",
                 "--seed", "3", "--output", str(out)]) == 0
    blob = json.loads(open(out).read())["data"]
    assert blob["d"] == 4
    assert blob["mean_norm"] <= blob["b_norm"] + 1e-9
    assert math.isfinite(blob["fitted_C"])


def test_matrix_random_uniform_seed_wraps_mod_2_64(tmp_path):
    """Seeds outside [0, 2^64) used to raise a raw OverflowError; they now
    wrap mod 2^64 like the trial seeds do."""
    def data(seed):
        out = tmp_path / f"m{seed}.json"
        assert main(["matrix", "--pattern", "random-uniform", "--seed", str(seed), "--d", "3",
                     "--trials", "2", "--output", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["manifest"]["flags"]["seed"] == blob["data"].pop("master_seed") == seed
        return blob["data"]

    assert data(-1) == data(2**64 - 1)
    assert data(2**64) == data(0)
    assert data(2**64 + 5) == data(5) != data(0)


def test_simulate_reports_stage_timings(tmp_path, chain_file):
    """Per-stage wall times sit next to duration_s, outside the data section."""
    stages = {"load", "simulate", "rows", "render"}
    argv = ["simulate", "--chain", chain_file, "--u-grid", "0:2:1", "--trials", "200"]
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--output", str(csv_out)]) == 0
    head = csv_out.read_text().splitlines()[:5]
    assert head[1].startswith("# duration_s: ") and head[2].startswith("# timings: ")
    assert head[3].startswith("# diagnostics: ") and head[4].startswith("u,")
    timings = json.loads(head[2][len("# timings: "):])
    assert set(timings) == stages and min(timings.values()) >= 0.0
    assert sum(timings.values()) <= float(head[1][len("# duration_s: "):])
    assert main(argv + ["--format", "json", "--output", str(json_out)]) == 0
    manifest = json.loads(json_out.read_text())["manifest"]
    assert set(manifest["timings"]) == stages
    assert sum(manifest["timings"].values()) <= manifest["duration_s"]
    # other subcommands carry no timings
    bounds_out = tmp_path / "b.csv"
    assert main(["bounds", "--u-grid", "0:1:1", "--lambda", "0", "--output", str(bounds_out)]) == 0
    assert not any(ln.startswith("# timings") for ln in bounds_out.read_text().splitlines())


def test_simulate_diagnostics_hold_the_hit_counts(tmp_path, chain_file):
    """The hit count behind each Wilson interval sits next to the timings, and the data
    section is the rows of the estimate alone, byte for byte."""
    trials, grid = 300, "0:3:0.5"
    argv = ["simulate", "--chain", chain_file, "--u-grid", grid, "--trials", str(trials),
            "--seed", "5"]
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--output", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines(keepends=True)
    assert lines[3].startswith("# diagnostics: ")
    diagnostics = json.loads(lines[3][len("# diagnostics: "):])
    report = estimate_tail(*load_chain(chain_file), parse_grid(grid), SimConfig(trials, 5))
    rows = report.rows()
    assert "".join(lines[4:]) == "".join(",".join(map(str, row)) + "\n" for row in rows)
    assert diagnostics["trials"] == trials and len(diagnostics["tail_hits"]) == len(rows) - 1
    assert 0 < sum(diagnostics["tail_hits"])
    for hits, est, lo, hi in zip(diagnostics["tail_hits"], report.estimates, report.ci_low,
                                 report.ci_high):
        assert hits / trials == est and wilson_interval(hits, trials) == (lo, hi)
    assert main(argv + ["--format", "json", "--output", str(json_out)]) == 0
    text = json_out.read_text()
    assert json.loads(text)["manifest"]["diagnostics"] == diagnostics
    data = {"columns": rows[0], "rows": rows[1:], "lambda": report.lam}
    body = json.dumps(data, sort_keys=True, indent=2).replace("\n", "\n  ")
    assert text.startswith(f'{{\n  "data": {body},\n  "manifest": ')


@pytest.mark.parametrize("order", ["row-major", "diagonal-first"])
def test_matrix_reports_stage_timings_and_repeats_its_data(tmp_path, order):
    argv = ["matrix", "--d", "5", "--lambda", "0.5", "--trials", "7", "--seed", "11",
            "--pattern", "random-uniform", "--order", order]
    runs = []
    for name in ("a.json", "b.json"):
        assert main(argv + ["--output", str(tmp_path / name)]) == 0
        text = (tmp_path / name).read_text()
        runs.append(text[:text.index('"manifest"')])  # the data section, byte for byte
        manifest = json.loads(text)["manifest"]
        assert set(manifest["timings"]) == {"setup", "experiment", "render"}
        assert min(manifest["timings"].values()) >= 0.0
        assert sum(manifest["timings"].values()) <= manifest["duration_s"]
    assert runs[0] == runs[1]


def test_matrix_invalid_fill_order_exits_one(tmp_path, capsys, monkeypatch):
    def duplicate_order(d):
        return mchoeffding.FillOrder(d=d, positions=np.zeros((d * d + d) // 2, dtype=int))

    monkeypatch.setattr(mchoeffding.cli, "row_major_order", duplicate_order)
    out = tmp_path / "m.json"
    assert main(["matrix", "--d", "3", "--trials", "2", "--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: positions must permute") and "Traceback" not in err


def test_matrix_rejects_bad_coefficients(tmp_path, capsys):
    inf_file = tmp_path / "inf.json"
    inf_file.write_text("[[1.0, Infinity], [Infinity, 1.0]]")
    out = tmp_path / "m.json"
    assert main(["matrix", "--b", str(inf_file), "--trials", "3", "--output", str(out)]) == 1
    assert not out.exists()
    text_file = tmp_path / "text.json"
    text_file.write_text('[[1.0, "x"], ["x", 1.0]]')
    assert main(["matrix", "--b", str(text_file), "--trials", "3"]) == 1
    for d in ("0", "-2"):
        assert main(["matrix", "--d", d, "--trials", "3"]) == 1
    assert capsys.readouterr().err.count("error:") == 4


def test_verify_subcommand(tmp_path, chain_file):
    out = tmp_path / "v.json"
    assert main(["verify", "--chain", chain_file, "--output", str(out)]) == 0
    blob = json.loads(open(out).read())
    assert blob["data"]["ok"] is True
    assert blob["data"]["checks_failed"] == []


def _verify(tmp_path, chain_dict):
    path, out = tmp_path / "chain.json", tmp_path / "v.json"
    path.write_text(json.dumps(chain_dict))
    rc = main(["verify", "--chain", str(path), "--output", str(out)])
    return rc, json.loads(out.read_text())["data"], load_chain(str(path))[0]


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_verify_passes_on_adversarial_chains(tmp_path, name):
    """Every check holds, the decay checks relative to lambda^k, and lambda is
    `contraction`'s bit for bit."""
    rc, data, chain = _verify(tmp_path, chain_to_dict(ADVERSARIAL[name]))
    assert (rc, data["checks_failed"]) == (0, [])
    assert data["lambda"] == contraction(chain)


@pytest.mark.parametrize("pi", [[0.3, 0.7], [0.5, 0.5], [0.1, 0.2, 0.7], [0.05, 0.15, 0.3, 0.5]])
def test_verify_passes_on_iid_chains_without_pi(tmp_path, pi):
    """A = 1 pi with pi solved: lambda is roundoff, about 1e-16, and lambda^20
    can be subnormal, yet the relative decay checks hold."""
    rc, data, chain = _verify(tmp_path, {"transition": [pi] * len(pi)})
    assert (rc, data["checks_failed"]) == (0, [])
    assert data["lambda"] < 1e-14
    assert data["lambda"] == contraction(chain)


def test_validation_errors_exit_one(tmp_path, chain_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"transition": [[0.5, 0.6], [0.2, 0.8]]}))
    assert main(["spectral", "--chain", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    # simulate needs a functions block
    nofuncs = tmp_path / "nf.json"
    nofuncs.write_text(json.dumps({"transition": [[0.5, 0.5], [0.5, 0.5]]}))
    assert main(["simulate", "--chain", str(nofuncs), "--u-grid", "0:1:1"]) == 1
    capsys.readouterr()
    assert main(["spectral", "--chain", chain_file, "--k", "-3"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("n, argv", [(40, ["exact", "--tail-grid", "0:2:1"]),
                                     (16, ["exact", "--tail-grid", "0:2:1"]),
                                     (16, ["verify"])])  # verify's brute force runs to 2^16 paths
def test_huge_lattice_denominator_exits_one(tmp_path, capsys, n, argv):
    path = tmp_path / "primes.json"
    path.write_text(json.dumps({"transition": [[0.75, 0.25], [0.25, 0.75]],
                                "functions": {"values": prime_reciprocal_values(n)}}))
    assert main(argv + ["--chain", str(path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: lattice indices span")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option,content", [
    ("--chain", None),
    ("--b", None),
    ("--chain", "[[1,"),
    ("--b", "[[1,"),
    ("--chain", json.dumps({"transition": [[0.5, 0.5], [0.5, 0.5]],
                            "functions": {"bounds": [1.0]}})),
    ("--chain", json.dumps([[0.5, 0.5], [0.5, 0.5]])),
    ("--chain", json.dumps({"transition": [[0.5, 0.5], [0.5, 0.5]], "functions": [1, -1]})),
    ("--chain", json.dumps({"transition": [[0.5, 0.5], [1.0]]})),
    ("--chain", json.dumps({"transition": [[0.5, "a"], [0.5, 0.5]]})),
    ("--chain", json.dumps({"transition": [[0.5, 0.5], [0.5, 0.5]], "stationary": [0.5, [0.5]]})),
    ("--chain", json.dumps({"transition": [[0.5, 0.5], [0.5, 0.5]],
                            "functions": {"values": [[1, -1], [1]]}})),
])
def test_bad_input_files_exit_one(tmp_path, capsys, option, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    argv = (["exact", "--chain", str(path)] if option == "--chain"
            else ["matrix", "--b", str(path), "--trials", "3"])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_non_finite_function_values_exit_one(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"transition": [[0.5, 0.5], [0.5, 0.5]], '
                    '"functions": {"values": [[NaN, 0.0], [1.0, -1.0]]}}')
    out = tmp_path / "m.json"
    assert main(["exact", "--chain", str(path), "--q", "2", "--output", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_stationary_solve_on_periodic_and_reducible_chains(tmp_path, capsys):
    periodic = tmp_path / "periodic.json"
    periodic.write_text(json.dumps({"transition": [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]]}))
    out = tmp_path / "s.json"
    assert main(["spectral", "--chain", str(periodic), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["data"]["n_states"] == 3
    reducible = tmp_path / "reducible.json"
    reducible.write_text(json.dumps({"transition": [[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]}))
    assert main(["spectral", "--chain", str(reducible)]) == 1
    assert "supply 'stationary'" in capsys.readouterr().err


def _manifest(path):
    """The stable manifest of a JSON or CSV output, or None when none was written."""
    if not os.path.exists(path):
        return None
    text = open(path).read()
    if text.startswith("# manifest: "):
        return json.loads(text.splitlines()[0][len("# manifest: "):])
    manifest = json.loads(text)["manifest"]
    del manifest["duration_s"]
    manifest.pop("timings", None)
    return manifest


def test_cached_parser_leaks_nothing_between_calls(tmp_path, chain_file):
    """One process, one parser: a bad call, a good one and other subcommands
    give the exit codes and manifests of fresh processes."""
    assert build_parser() is build_parser()
    calls = [
        ["exact", "--chain", chain_file, "--q", "x"],        # argparse error
        ["exact", "--chain", chain_file, "--q", "40"],       # ValidationError
        ["exact", "--chain", chain_file, "--q", "3"],
        ["verify", "--chain", chain_file],
        ["exact", "--chain", chain_file, "--tail-grid", "0:2:1"],
        ["bounds", "--u-grid", "0:2:1", "--lambda", "0.5"],
    ]
    src = os.path.dirname(os.path.dirname(mchoeffding.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = "import sys; from mchoeffding.cli import main; sys.exit(main(sys.argv[1:]))"
    codes = []
    for i, argv in enumerate(calls):
        here, fresh = str(tmp_path / f"here{i}"), str(tmp_path / f"fresh{i}")
        try:
            code = main(argv + ["--output", here])
        except SystemExit as exc:
            code = exc.code
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--output", fresh],
                              env=env, capture_output=True)
        assert code == proc.returncode, (argv, code, proc.stderr)
        assert _manifest(here) == _manifest(fresh), argv
        codes.append(code)
    assert codes == [2, 1, 0, 0, 0, 0]
