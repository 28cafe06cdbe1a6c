import os
import subprocess
import sys

import mchoeffding

# The standard-library modules the package imports itself; what they load in turn
# is loaded before the package, so the check holds on any Python version.
STDLIB_IMPORTS = ("argparse", "dataclasses", "fractions", "functools", "itertools", "json",
                  "math", "numbers", "os", "sys", "tempfile", "time")


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
