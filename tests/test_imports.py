import ast
import os
import pathlib
import re
import subprocess
import sys

import mchoeffding

# The standard-library modules the package imports itself; what they load in turn
# is loaded before the package, so the check holds on any Python version.
STDLIB_IMPORTS = ("argparse", "dataclasses", "fractions", "functools", "itertools", "json",
                  "math", "numbers", "os", "sys", "time")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_INIT = ROOT / "src" / "mchoeffding" / "__init__.py"
# Library definitions that only the tests call, each with the reason it is kept.
TEST_ONLY = {
    "chain_to_dict": "writes the chain files that the CLI tests load",
    "brute_force_monomial": "reference oracle for the exact monomial expectation",
    "evaluate_projector_chain_claim": "appendix-claim evaluator for acceptance criterion 8",
    "evaluate_diagonal_chain_claim": "appendix-claim evaluator for acceptance criterion 8",
    "bound_mgf": "MGF-step bound that acceptance criterion 5 checks",
    "exact_mgf": "exact MGF oracle for acceptance criteria 1 and 5",
    "verify_holder_application": "chained-Hoelder checker for acceptance criterion 8",
    "bound_glss": "comparator that ROADMAP item 5 prints",
}


def test_import_loads_nothing_beyond_numpy_and_its_own_stdlib_modules():
    """Import time counts in every CLI run: importing the package and its CLI in a
    fresh interpreter loads no other top-level module, neither an installed
    non-dependency such as scipy nor a heavy stdlib package such as concurrent."""
    script = (f"import sys, numpy, {', '.join(STDLIB_IMPORTS)}; base = set(sys.modules); "
              "import mchoeffding, mchoeffding.cli; "
              "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - base}))")
    src = os.path.dirname(os.path.dirname(mchoeffding.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "mchoeffding" in loaded
    assert loaded <= {"mchoeffding", "numpy"}, loaded


def _referenced_names(paths):
    """Names used as a Name, an Attribute, an import alias, or the last part of a
    dotted string such as the benchmark tracer's "montecarlo.simulate_sums"."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"\w+(\.\w+)+", node.value):
                names.add(node.value.rpartition(".")[2])
    return names


def test_every_library_definition_is_referenced():
    """Every top-level def or class of the library is reached from the library, the
    scripts or the benchmark, or is listed in TEST_ONLY with its reason.  The
    package's __init__.py only exports names, so its imports are not uses."""
    defined = {node.name for path in (ROOT / "src" / "mchoeffding").glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = _referenced_names(path for folder in ("src", "scripts", "perfbench")
                             for path in (ROOT / folder).rglob("*.py") if path != PACKAGE_INIT)
    assert sorted(defined - used - set(TEST_ONLY)) == []
    # an entry that is gone, or that a caller now reaches, leaves the list
    assert sorted(set(TEST_ONLY) - (defined - used)) == []
