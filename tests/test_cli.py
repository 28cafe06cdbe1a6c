import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mchoeffding import bound_rao, exact_moments, sign_family, two_state_chain
from mchoeffding.chain import chain_to_dict
import mchoeffding
from mchoeffding.cli import build_parser, main, parse_grid
from mchoeffding.errors import ValidationError


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


@pytest.mark.parametrize("spec", ["0:1:nan", "nan:1:0.5", "0:inf:1", "-inf:0:1", "0:1e18:1"])
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
    row = dict(zip(lines[0].split(","), lines[5].split(",")))
    assert float(row["u"]) == 2.0
    assert float(row["rao"]) == pytest.approx(bound_rao(2.0, 0.5), rel=1e-15)


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


def test_validation_errors_exit_one(tmp_path, chain_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"transition": [[0.5, 0.6], [0.2, 0.8]]}))
    assert main(["spectral", "--chain", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    # simulate needs a functions block
    nofuncs = tmp_path / "nf.json"
    nofuncs.write_text(json.dumps({"transition": [[0.5, 0.5], [0.5, 0.5]]}))
    assert main(["simulate", "--chain", str(nofuncs), "--u-grid", "0:1:1"]) == 1


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
