"""Run code in a fresh interpreter and report the modules it loaded.

A test process has imported most of the library already, so what one
command or one import statement loads can only be read in a new process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(code: str) -> set[str]:
    """The names in sys.modules after a fresh interpreter runs code.

    code may print; the module list is the last line of stdout.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def cli_modules(*argv: str) -> set[str]:
    """The modules loaded by `isotypic.cli.main(argv)`, which must exit 0."""
    return modules_after(
        "from isotypic.cli import main\n"
        f"if main({list(argv)!r}): raise SystemExit('the command did not exit 0')"
    )


def package_submodules(modules: set[str]) -> set[str]:
    """The isotypic submodules among modules, without the package prefix."""
    return {name.partition(".")[2] for name in modules if name.startswith("isotypic.")}
