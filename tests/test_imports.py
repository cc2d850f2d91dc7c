"""Each process loads only the modules its command runs.

Every check runs in a fresh interpreter, since this one has already imported
the whole package.  A command runs with a one-CPU affinity, so its units run
in the interpreter whose modules are listed, not in forked workers.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Q_STACK = {"whitdim.engine", "whitdim.laurent", "whitdim.rational", "whitdim.qseries"}


def loaded_after(code: str) -> set:
    """The modules a fresh interpreter holds after it runs code."""
    script = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def loaded_after_command(argv) -> set:
    return loaded_after(
        "import contextlib, io, os\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from whitdim import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(%s) == 0\n" % json.dumps(argv)
    )


def test_package_import_loads_no_module():
    assert not {m for m in loaded_after("import whitdim") if m.startswith("whitdim.")}


def test_cli_import_loads_only_the_parser_needs():
    loaded = loaded_after("import whitdim.cli")
    assert not loaded & (Q_STACK | {"whitdim.kernels", "whitdim.dimension"})
    assert not loaded & {"dataclasses", "fractions", "csv"}


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "1..2"],
    ["lemma1", "--n", "2"],
    ["chain", "--n", "1"],
])
def test_identity_commands_load_no_field_code(argv):
    loaded = loaded_after_command(argv)
    assert "whitdim.engine" in loaded
    assert not loaded & {"whitdim.kernels", "whitdim.dimension"}


def test_counts_loads_no_q_polynomial_code():
    loaded = loaded_after_command(["counts", "--q", "2"])
    assert "whitdim.kernels" in loaded
    assert not loaded & (Q_STACK | {"whitdim.dimension"})
