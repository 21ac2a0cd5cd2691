"""The public names: ``kinser.__all__`` lists each name that
``kinser/__init__.py`` imports, once, and nothing else, and each resolves;
``engine`` imports nothing from the package but ``core``; importing the
package allocates no lookup table and loads no worker-pool module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import kinser as K


def test_all_equals_the_imported_names():
    tree = ast.parse(Path(K.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(K.__all__) == len(set(K.__all__))
    assert set(K.__all__) == imported
    assert all(hasattr(K, name) for name in K.__all__)


def test_engine_imports_only_core_from_the_package():
    tree = ast.parse((Path(K.__file__).parent / "engine.py").read_text())
    names = ["." * node.level + (node.module or "") for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)]
    names += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
              for alias in node.names]
    assert [name for name in names
            if name.startswith(".") or name.split(".")[0] == "kinser"] == [".core"]


def fresh_output(code: str) -> str:
    """stdout of ``code`` run in a new interpreter on this package's source."""
    src = str(Path(K.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True).stdout


def test_import_builds_no_arrays():
    # lookup tables are built on first use: after `import kinser` no kinser
    # module holds a numpy array and no cached function holds a value
    code = (
        "import sys, numpy as np, kinser\n"
        "held = sorted(f'{name}.{key}' for name, mod in sys.modules.items()\n"
        "              if name.split('.')[0] == 'kinser'\n"
        "              for key, value in vars(mod).items()\n"
        "              if isinstance(value, np.ndarray)\n"
        "              or (hasattr(value, 'cache_info') and value.cache_info().currsize))\n"
        "print(held)\n")
    assert fresh_output(code) == "[]\n"


def test_cli_import_starts_no_process_pool_machinery():
    # the worker pool is imported only when a search runs at width > 1;
    # networkx and sympy are not dependencies, so importing the package
    # must not load them even where they are installed
    code = ("import sys, kinser.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
            "             ('concurrent', 'multiprocessing', 'networkx', 'sympy')))\n")
    assert fresh_output(code) == "[]\n"



def test_cli_import_builds_no_parser():
    # the parser is built inside ``main``, so importing the CLI (and so
    # every interpreter's start-up) pays for no argparse set-up
    code = ("import argparse\n"
            "made = []\n"
            "class Counted(argparse.ArgumentParser):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        made.append(self)\n"
            "        super().__init__(*args, **kwargs)\n"
            "argparse.ArgumentParser = Counted\n"
            "import kinser.cli\n"
            "print(len(made))\n")
    assert fresh_output(code) == "0\n"


def test_module_entry_point_reads_sys_argv(tmp_path):
    # ``python -m kinser.cli`` and the ``kinser`` console script call
    # ``main()`` with no arguments, so it reads sys.argv
    src = str(Path(K.__file__).resolve().parents[1])
    fano = tmp_path / "fano.mtr"
    fano.write_text(K.write_matroid(K.fano_pair()[0]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "kinser.cli", *argv], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))

    helped = run("check", "-h")
    assert helped.returncode == 0 and helped.stdout.startswith("usage: kinser check ")
    checked = run("check", "-n", "4", "-i", str(fano))
    assert checked.returncode == 0 and checked.stdout == "in-class n=4 matroid=F7\n"
    missing = run("check", "-i", str(fano))
    assert missing.returncode == 2 and missing.stdout == ""
    assert "the following arguments are required: -n" in missing.stderr
