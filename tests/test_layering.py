"""The closed-form layer never depends on the oracle, and nothing on SciPy.

The closed forms are checked against the numerical oracle, so they must not
borrow from it.  SciPy is a test dependency only: no module of the package,
the oracle included, imports it, and neither importing the package nor a
checked ``gausspack minimize`` loads it.
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


def is_under(name: str, *roots: str) -> bool:
    return any(name == root or name.startswith(root + ".") for root in roots)


def is_forbidden(name: str) -> bool:
    return is_under(name, "gausspack.oracle", "scipy")


@pytest.mark.parametrize("module", CLOSED_FORM_MODULES)
def test_closed_forms_import_neither_oracle_nor_scipy(module):
    path = PACKAGE_DIR / f"{module}.py"
    offending = [name for name in imported_modules(path) if is_forbidden(name)]
    assert offending == [], f"{module}.py imports {offending}"


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE_DIR.rglob("*.py")),
    ids=lambda path: path.relative_to(PACKAGE_DIR).as_posix(),
)
def test_no_module_of_the_package_imports_scipy(path):
    offending = [name for name in imported_modules(path) if is_under(name, "scipy")]
    assert offending == [], f"{path.name} imports {offending}"


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


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_importing_the_package_does_not_load_scipy_optimize():
    proc = run_python("import sys, gausspack; print('scipy.optimize' in sys.modules)")
    assert proc.stdout.strip() == "False"


def test_a_checked_minimize_does_not_load_scipy():
    proc = run_python(
        "import sys\n"
        "from gausspack.cli import main\n"
        "code = main(['minimize', '--Li', '0.5', '--check', '--starts', '2'])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(code, loaded, file=sys.stderr)\n"
    )
    assert proc.stderr.splitlines()[-1] == "0 []"  # after the CLI's progress lines
    assert '"passed": true' in proc.stdout
