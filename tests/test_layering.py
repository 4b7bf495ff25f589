"""The two layers depend in one direction only, and nothing on SciPy.

The closed forms are checked against the numerical oracle, so they must not
borrow from it, and the oracle takes from the closed-form layer only the
packet's parameters and its definition, never a closed form derived from
them.  SciPy is a test dependency only: no module of the package,
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


def imports(path: Path) -> list[tuple[str | None, list[str]]]:
    """Each ``import`` anywhere in ``path``: the module a ``from`` import
    reads from (``None`` for a plain import) and the names it binds, made
    absolute.

    A relative import is resolved against the package that holds ``path``,
    and a file outside the package's directory is taken to sit directly in
    it.
    """
    try:
        package = ("gausspack",) + path.parent.relative_to(PACKAGE_DIR).parts
    except ValueError:
        package = ("gausspack",)
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.append((None, [alias.name for alias in node.names]))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module
            else:
                parent = package[: len(package) - node.level + 1]
                base = ".".join(filter(None, [*parent, node.module]))
            out.append((base, [f"{base}.{alias.name}" for alias in node.names]))
    return out


def imported_modules(path: Path) -> list[str]:
    """Every module an ``import`` anywhere in ``path`` names, made absolute."""
    return [
        name for base, names in imports(path) for name in ([base] if base else []) + names
    ]


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


#: What the oracle may take from the package outside itself: the packet's
#: parameters and its definition, never a closed form derived from them.
ORACLE_MAY_IMPORT = (
    "gausspack.packet.RealParams",
    "gausspack.packet.wavefunction",
    "gausspack.constants",
    "gausspack.errors",
    "gausspack._record",
)


def oracle_borrowings(path: Path) -> list[str]:
    """Names ``path`` binds from the package outside the oracle and
    :data:`ORACLE_MAY_IMPORT`."""
    return [
        name for _, names in imports(path) for name in names
        if is_under(name, "gausspack") and not is_under(name, "gausspack.oracle", *ORACLE_MAY_IMPORT)
    ]


@pytest.mark.parametrize(
    "path",
    sorted((PACKAGE_DIR / "oracle").rglob("*.py")),
    ids=lambda path: path.relative_to(PACKAGE_DIR).as_posix(),
)
def test_oracle_takes_only_the_packet_definition(path):
    assert oracle_borrowings(path) == [], f"{path.name} imports {oracle_borrowings(path)}"


def test_borrowing_scan_resolves_the_oracle_package():
    probe = PACKAGE_DIR / "oracle" / "moments.py"
    names = imported_modules(probe)
    assert "gausspack.oracle.quadrature.integrate_adaptive" in names
    assert "gausspack.packet.RealParams" in names


def test_borrowing_scan_sees_closed_forms(tmp_path, monkeypatch):
    probe = tmp_path / "oracle" / "probe.py"
    probe.parent.mkdir()
    probe.write_text(
        "from ..packet import RealParams, first_moments\n"
        "from .. import packet\n"
        "from ..minimal import build_min_packet\n"
        "from .quadrature import integrate_adaptive\n"
        "def f():\n"
        "    import gausspack.fock\n"
    )
    monkeypatch.setitem(globals(), "PACKAGE_DIR", tmp_path)
    assert oracle_borrowings(probe) == [
        "gausspack.packet.first_moments",
        "gausspack.packet",
        "gausspack.minimal.build_min_packet",
        "gausspack.fock",
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
