"""The closed-form layer never depends on the oracle or on SciPy.

The closed forms are checked against the numerical oracle, so they must not
borrow from it; and since only the Nelder-Mead search needs SciPy, importing
the package must not load ``scipy.optimize``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gausspack

PACKAGE_DIR = Path(gausspack.__file__).parent
CLOSED_FORM_MODULES = (
    "packet",
    "minimal",
    "fluctuations",
    "fock",
    "evolution",
    "special",
    "constants",
    "errors",
)


def imported_modules(path: Path) -> list[str]:
    """Every module an ``import`` anywhere in ``path`` names, made absolute."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module
            else:
                # Modules here sit directly in the package, so level 1 is gausspack.
                base = ".".join(filter(None, ["gausspack", node.module]))
            names.append(base)
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def is_forbidden(name: str) -> bool:
    return any(
        name == root or name.startswith(root + ".") for root in ("gausspack.oracle", "scipy")
    )


@pytest.mark.parametrize("module", CLOSED_FORM_MODULES)
def test_closed_forms_import_neither_oracle_nor_scipy(module):
    path = PACKAGE_DIR / f"{module}.py"
    offending = [name for name in imported_modules(path) if is_forbidden(name)]
    assert offending == [], f"{module}.py imports {offending}"


def test_import_scan_sees_relative_and_lazy_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import oracle\n"
        "from .oracle.minimize import minimize_free\n"
        "def f():\n"
        "    import scipy.optimize\n"
    )
    assert [name for name in imported_modules(probe) if is_forbidden(name)] == [
        "gausspack.oracle",
        "gausspack.oracle.minimize",
        "gausspack.oracle.minimize.minimize_free",
        "scipy.optimize",
    ]


def test_importing_the_package_does_not_load_scipy_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gausspack; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
