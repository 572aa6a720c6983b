"""Source hygiene: no module imports a name it never uses, and no module
but ``linalg`` writes a tolerance as a bare literal, builds a
``DensityMatrix`` itself or calls a LAPACK eigensolver."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "qent").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "tests").glob("*.py"))
POLICY_SOURCES = sorted(p for p in (ROOT / "src" / "qent").glob("*.py") if p.name != "linalg.py")


def unused_imports(source):
    """Names bound by import statements in ``source`` that no other node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a".
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]
    assert unused_imports("from a import b as c, d\nd()\n") == [(1, "c")]
    assert unused_imports("import a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def tolerance_literals(source):
    """(line, value) of every float or complex literal in ``source`` with
    ``0 < |value| < 1e-5``: the size of a tolerance, not of a quantity."""
    tree = ast.parse(source)
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
                  and 0 < abs(node.value) < 1e-5)


def test_scan_finds_a_tolerance_literal():
    assert tolerance_literals("x = 1e-9\ny = -1e-12 < 2e-3j\nz = 0.5\n") == [(1, 1e-9), (2, 1e-12)]
    assert tolerance_literals("w = 3e-6j\n") == [(1, 3e-6j)]
    assert tolerance_literals('"""1e-9"""\nv = 1e-5 + 0.0 + 0 + 2\n') == []


@pytest.mark.parametrize("path", POLICY_SOURCES, ids=lambda p: f"src/{p.name}")
def test_tolerances_are_named_in_linalg(path):
    assert tolerance_literals(path.read_text(encoding="utf-8")) == []


def density_matrix_calls(source):
    """Lines of ``source`` that call ``DensityMatrix`` (by name or attribute)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "DensityMatrix")


def test_scan_finds_a_density_matrix_call():
    assert density_matrix_calls("a = DensityMatrix(m, d)\nb = linalg.DensityMatrix(m, d)\n") == [1, 2]
    assert density_matrix_calls("isinstance(r, DensityMatrix)\nx: DensityMatrix = f()\n") == []


@pytest.mark.parametrize("path", POLICY_SOURCES, ids=lambda p: f"src/{p.name}")
def test_states_are_built_in_linalg(path):
    # A caller's matrix goes through validate_density and a matrix the
    # library built through linalg._derived; no module wraps one itself.
    assert density_matrix_calls(path.read_text(encoding="utf-8")) == []


EIGENSOLVERS = ("eigh", "eigvalsh", "eig")


def eigensolver_calls(source):
    """(line, name) of every call of ``eigh``, ``eigvalsh`` or ``eig`` in
    ``source``, by name or attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in EIGENSOLVERS:
                found.append((node.lineno, name))
    return sorted(found)


def test_scan_finds_an_eigensolver_call():
    source = "a = np.linalg.eigh(m)\nb = eigvalsh(m)\nc = numpy.linalg.eig(m)\n"
    assert eigensolver_calls(source) == [(1, "eigh"), (2, "eigvalsh"), (3, "eig")]
    assert eigensolver_calls("d = np.linalg.eigvals(m)\ne = herm_eigenvalues(m)\n"
                             "f = np.linalg.eigh\n") == []


@pytest.mark.parametrize("path", POLICY_SOURCES, ids=lambda p: f"src/{p.name}")
def test_eigensolves_go_through_linalg(path):
    # herm_eigenvalues checks the residual of every matrix it solves, a
    # stack too; a call of LAPACK elsewhere would go unchecked.
    assert eigensolver_calls(path.read_text(encoding="utf-8")) == []
