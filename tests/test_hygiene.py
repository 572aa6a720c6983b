"""Source hygiene: no module imports a name it never uses; no module
but ``linalg`` writes a tolerance as a bare literal, builds a
``DensityMatrix`` itself, compares a ``.dims`` value, compares against
``SLACK`` or ``EIG_RESIDUAL_TOL`` or calls a LAPACK eigensolver; only
``states.projector`` hands a ket to ``linalg._derived``; and no module
builds a vector of a literal size by hand."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "qent").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "tests").glob("*.py"))
LIBRARY_SOURCES = sorted((ROOT / "src" / "qent").glob("*.py"))
POLICY_SOURCES = [p for p in LIBRARY_SOURCES if p.name != "linalg.py"]


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


def dims_comparisons(source):
    """Lines of ``source`` with a comparison that reads a ``.dims`` value
    in one of its operands (``len(rho.dims) == 2``, ``rho.dims[0] != d``)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(isinstance(sub, ast.Attribute) and sub.attr == "dims"
                          for operand in [node.left, *node.comparators]
                          for sub in ast.walk(operand)))


def test_scan_finds_a_dims_comparison():
    source = ("a = len(rho.dims) != 2\nb = 2 == rho.dims[0]\n"
              "c = list(x.rho.dims) == [2, 2] or min(rho.dims) >= 2\n")
    assert dims_comparisons(source) == [1, 2, 3, 3]
    assert dims_comparisons("d = rho.dims\ne = BIPARTITE.fits(rho.dims) and p == [1]\n"
                            "f = min(rho.dims)\ng = dims == (2, 2)\n") == []


@pytest.mark.parametrize("path", POLICY_SOURCES, ids=lambda p: f"src/{p.name}")
def test_dims_rules_are_shapes_in_linalg(path):
    # Which dims a function accepts is a linalg.Shape, read by the library
    # guard and by the CLI's selection alike; a comparison elsewhere would
    # state a second rule that could disagree with it.
    assert dims_comparisons(path.read_text(encoding="utf-8")) == []


POLICY_NAMES = ("SLACK", "EIG_RESIDUAL_TOL")


def policy_comparisons(source):
    """Lines of ``source`` with a comparison that reads ``SLACK`` or
    ``EIG_RESIDUAL_TOL``, by name or attribute, in one of its operands."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(getattr(sub, "id", getattr(sub, "attr", None)) in POLICY_NAMES
                          for operand in [node.left, *node.comparators]
                          for sub in ast.walk(operand)))


def test_scan_finds_a_policy_comparison():
    source = ("a = lam < -SLACK\nb = 1.0 + linalg.SLACK + e < x\n"
              "c = r <= EIG_RESIDUAL_TOL * m or 0 < 1 < SLACK\n")
    assert policy_comparisons(source) == [1, 2, 3, 3]
    assert policy_comparisons('d = {"slack": SLACK}\ne = _below(lam, 0.0)\n'
                              'f = SLACK * 2\ng = "SLACK" == s\n') == []


@pytest.mark.parametrize("path", POLICY_SOURCES, ids=lambda p: f"src/{p.name}")
def test_decisions_compare_in_linalg(path):
    # linalg._below is the one comparison against the slack, and
    # linalg._check_residual the one residual bound; a comparison elsewhere
    # would state a second rule that could round differently.
    assert policy_comparisons(path.read_text(encoding="utf-8")) == []


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


def ket_passing_calls(source):
    """(enclosing function, line) of every ``_derived`` call in ``source``
    that passes a ket or may pass one: by keyword, as a fourth positional
    argument, or through ``*args`` or ``**kwargs``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", getattr(child.func, "attr", None)) == "_derived"
                    and (len(child.args) > 3
                         or any(isinstance(a, ast.Starred) for a in child.args)
                         or any(k.arg in ("ket", None) for k in child.keywords))):
                found.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(found)


def test_scan_finds_a_ket_passed_to_derived():
    source = ("def projector(v):\n    return _derived(m, d, ket=v)\n"
              "def other(v):\n    return linalg._derived(m, d, None, v)\n"
              "def fine(v):\n    return _derived(m, d, spec), _derived(m, d, spectrum=s)\n"
              "def packed(a, kw):\n    return _derived(*a), _derived(m, d, **kw)\n")
    assert ket_passing_calls(source) == [("other", 4), ("packed", 8), ("packed", 8),
                                         ("projector", 2)]
    assert ket_passing_calls("x = _derived(m, d, ket=v)\n") == [(None, 1)]


def test_only_the_projector_passes_a_ket():
    # The pure-state closed forms trust rho.ket to be the normalized ket of
    # rho.mat; states.projector builds both from one checked ket.
    found = {(path.name, func)
             for path in LIBRARY_SOURCES
             for func, _ in ket_passing_calls(path.read_text(encoding="utf-8"))}
    assert found == {("states.py", "projector")}


def literal_size_zeros(source):
    """Lines of ``source`` that call ``zeros`` (by name or attribute) with an
    integer literal as its size, positionally or as ``shape``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "zeros"):
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "shape"), None)
            if isinstance(size, ast.Constant) and type(size.value) is int:
                found.append(node.lineno)
    return sorted(found)


def test_scan_finds_a_vector_of_literal_size():
    source = "a = np.zeros(8, dtype=complex)\nb = zeros(27)\nc = numpy.zeros(shape=6)\n"
    assert literal_size_zeros(source) == [1, 2, 3]
    assert literal_size_zeros("d = np.zeros(dim)\ne = np.zeros((9, 9))\nf = np.ones(8)\n"
                              "g = np.zeros(r.shape, dtype=complex)\nh = np.zeros(8.0)\n") == []


@pytest.mark.parametrize("path", LIBRARY_SOURCES, ids=lambda p: f"src/{p.name}")
def test_amplitude_vectors_are_built_in_states(path):
    # states._amplitudes is the one constructor of a sparse amplitude
    # vector; a zero vector of literal size elsewhere is a second one.
    assert literal_size_zeros(path.read_text(encoding="utf-8")) == []
