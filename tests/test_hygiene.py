"""Source hygiene: no module imports a name it never uses; no module
but ``linalg`` writes a tolerance as a bare literal, builds a
``DensityMatrix`` itself, compares a ``.dims`` value, compares against
``SLACK`` or ``EIG_RESIDUAL_TOL`` or calls a LAPACK eigensolver, and
in ``linalg`` only ``_solve`` calls one; ``detect`` solves nothing itself
(every spectrum it reads is a state's cache entry); only ``_solve`` and ``spa``'s
derived spectra call ``linalg._checked_spectrum``; only
``states.projector`` hands a ket to ``linalg._derived``; no module
builds a vector of a literal size by hand; no module tests an
argument by membership in ``range(...)`` or in a literal set of ints; and
no module but ``linalg`` takes the modulus of eigenvalues or solves a
partial transpose; every square root in ``classify3`` takes ``max(0.0,
...)``; every dataclass with an array field compares by identity.
Every array the package shares, a module-level constant or a cached fixed
operand (an index table or an identity), is read-only, and importing the
package builds no fixed operand."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def calls_by_function(source, names):
    """(enclosing function, name) of every call of one of ``names`` in
    ``source``, by name or attribute; ``None`` outside any function."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in names:
                    found.append((func, name))
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(found, key=repr)


def test_scan_finds_the_function_of_each_call():
    source = ("def _solve(m):\n    return np.linalg.eigh(m)\n"
              "def g(m):\n    def inner():\n        return eigvalsh(m)\n    return eigh(m)\n"
              "x = eig(m)\n")
    assert calls_by_function(source, EIGENSOLVERS) == [
        ("_solve", "eigh"), ("g", "eigh"), ("inner", "eigvalsh"), (None, "eig")]


def test_linalg_calls_lapack_once_inside_the_checked_solve():
    # linalg._solve checks the residual of what it solves, and every solve
    # of the package, herm_eigenvalues' included, goes through it.
    source = (ROOT / "src" / "qent" / "linalg.py").read_text(encoding="utf-8")
    assert calls_by_function(source, EIGENSOLVERS) == [("_solve", "eigh")]


def test_detect_reads_its_spectra_from_the_state_caches():
    # Every spectrum a bipartite decision reads is a cache entry of its
    # state, which linalg fills; detect solves nothing itself.
    source = (ROOT / "src" / "qent" / "detect.py").read_text(encoding="utf-8")
    assert calls_by_function(source, ("_solve", "herm_eigenvalues")) == []


def test_residuals_are_checked_by_the_solve_and_the_derived_spectra():
    # _checked_spectrum wraps eigenpairs only after it has checked them: in
    # _solve, for LAPACK's, and in spa._spa_pt, for the affine image of a
    # cached partial-transpose spectrum.  A new caller would be a solve that
    # could skip the check, so each one is named here.
    found = [(path.name, func) for path in LIBRARY_SOURCES
             for func, _ in calls_by_function(path.read_text(encoding="utf-8"),
                                              ("_checked_spectrum",))]
    assert found == [("linalg.py", "_solve"), ("spa.py", "_spa_pt")]


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


def _int_literals(node):
    """Whether ``node`` is a tuple, list or set of int literals (not bools)."""
    return (isinstance(node, (ast.Tuple, ast.List, ast.Set))
            and all(isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts))


def index_membership_tests(source):
    """Lines of ``source`` with an ``in`` or ``not in`` test against a call of
    ``range`` or against a tuple, list or set of int literals."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(isinstance(op, (ast.In, ast.NotIn))
                          and ((isinstance(right, ast.Call)
                                and getattr(right.func, "id", None) == "range")
                               or _int_literals(right))
                          for op, right in zip(node.ops, node.comparators)))


def test_scan_finds_an_index_membership_test():
    source = ("a = sys not in range(n)\nb = k in (0, 1)\nc = x in [2, 3] or y not in {4}\n"
              "if 0 < q in range(1, n):\n    pass\n")
    assert index_membership_tests(source) == [1, 2, 3, 3, 4]
    assert index_membership_tests("for k in range(n):\n    pass\nd = [k for k in range(n)]\n"
                                  "e = k in keep\nf = s in ('A', 'B')\ng = b in (True, 1)\n"
                                  "h = k == 1\n") == []


@pytest.mark.parametrize("path", LIBRARY_SOURCES, ids=lambda p: f"src/{p.name}")
def test_party_indices_are_checked_in_linalg(path):
    # linalg._party is the one party-index rule: a whole number in
    # [0, n - 1].  A membership test in range(n) lets 1.0 through to fail
    # as a list index and takes True as party 1.
    assert index_membership_tests(path.read_text(encoding="utf-8")) == []


def eigenvalue_moduli(source):
    """Lines of ``source`` that call ``abs``, ``np.abs`` or ``np.absolute`` on
    an expression that reads an ``.eigenvalues`` attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in ("abs", "absolute")
                  and any(isinstance(sub, ast.Attribute) and sub.attr == "eigenvalues"
                          for arg in node.args for sub in ast.walk(arg)))


def test_scan_finds_a_modulus_of_eigenvalues():
    source = ("a = np.sum(np.abs(rho.pt_spectrum.eigenvalues))\nb = abs(spec.eigenvalues[0])\n"
              "c = [numpy.absolute(s.eigenvalues - 1) for s in specs]\n")
    assert eigenvalue_moduli(source) == [1, 2, 3]
    assert eigenvalue_moduli("d = np.abs(mat)\ne = abs(lam_min)\nf = spec.trace_norm\n"
                             "g = np.sum(spec.eigenvalues)\nh = np.abs\n") == []


@pytest.mark.parametrize("path", POLICY_SOURCES, ids=lambda p: f"src/{p.name}")
def test_trace_norms_are_read_in_linalg(path):
    # linalg.Spectrum.trace_norm is the one sum of |lambda| over a solved
    # spectrum; a second one elsewhere could sum a different set of values.
    assert eigenvalue_moduli(path.read_text(encoding="utf-8")) == []


def _is_dataclass(decorator):
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", getattr(func, "attr", None)) == "dataclass"


def _eq_false(decorator):
    return isinstance(decorator, ast.Call) and any(
        k.arg == "eq" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in decorator.keywords)


def array_records(source):
    """Names of the dataclasses in ``source`` that annotate a field with
    ``ndarray`` (by name or attribute) and are not declared ``eq=False``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d for d in node.decorator_list if _is_dataclass(d)]
        arrays = any(isinstance(stmt, ast.AnnAssign)
                     and any(getattr(sub, "id", getattr(sub, "attr", None)) == "ndarray"
                             for sub in ast.walk(stmt.annotation))
                     for stmt in node.body)
        if decorators and arrays and not any(map(_eq_false, decorators)):
            found.append(node.name)
    return sorted(found)


def test_scan_finds_an_array_record():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: np.ndarray\n"
              "@dataclasses.dataclass\nclass B:\n    y: float\n    z: ndarray | None = None\n"
              "@dataclass(eq=True)\nclass C:\n    w: numpy.ndarray\n")
    assert array_records(source) == ["A", "B", "C"]
    assert array_records("@dataclass(frozen=True, eq=False)\nclass D:\n    x: np.ndarray\n"
                         "@dataclass\nclass E:\n    x: float\n"
                         "class F:\n    x: np.ndarray\n") == []


@pytest.mark.parametrize("path", LIBRARY_SOURCES, ids=lambda p: f"src/{p.name}")
def test_records_that_hold_arrays_compare_by_identity(path):
    # The generated __eq__ compares the fields as a tuple, and == of two
    # arrays is not a truth value, so == and `in` would raise ValueError;
    # the generated __hash__ hashes that tuple, so hash would raise TypeError.
    assert array_records(path.read_text(encoding="utf-8")) == []


def _calls(node, name):
    """Whether ``node`` contains a call of ``name``, by name or attribute."""
    return any(isinstance(sub, ast.Call)
               and getattr(sub.func, "id", getattr(sub.func, "attr", None)) == name
               for sub in ast.walk(node))


def partial_transpose_solves(source):
    """Lines of ``source`` that call ``herm_eigenvalues`` on an argument that
    calls ``partial_transpose``, or that reads a name some assignment of
    ``source`` binds to an expression calling it."""
    tree = ast.parse(source)
    bound = {target.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and _calls(node.value, "partial_transpose")
             for target in node.targets if isinstance(target, ast.Name)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "herm_eigenvalues"
                  and any(_calls(arg, "partial_transpose")
                          or any(isinstance(sub, ast.Name) and sub.id in bound
                                 for sub in ast.walk(arg))
                          for arg in node.args))


def test_scan_finds_a_solve_of_a_partial_transpose():
    source = ("a = herm_eigenvalues(partial_transpose(rho, 1))\n"
              "b = linalg.herm_eigenvalues(np.stack([linalg.partial_transpose(rho, k)\n"
              "    for k in range(3)]))\n"
              "t = partial_transpose(rho, party)\nc = herm_eigenvalues(t)\n")
    assert partial_transpose_solves(source) == [1, 2, 5]
    assert partial_transpose_solves("d = herm_eigenvalues(w)\ne = partial_transpose(rho, 0)\n"
                                    "f = herm_eigenvalues(np.einsum('ijk->kji', m))\n"
                                    "g = rho.pt_spectrum_of(k)\n") == []


@pytest.mark.parametrize("path", POLICY_SOURCES, ids=lambda p: f"src/{p.name}")
def test_partial_transposes_are_solved_in_linalg(path):
    # linalg.fill_spectra is the one solve of a partial transpose, and the
    # only writer of each state's cache of them; a solve elsewhere would
    # solve a cut the cache may hold already.
    assert partial_transpose_solves(path.read_text(encoding="utf-8")) == []


def _zero(node):
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 0.0


def _clamped(node):
    """Whether call ``node`` takes the single argument ``max(0.0, ...)`` or
    ``x if x > 0.0 else 0.0`` for one name ``x``."""
    arg = node.args[0] if len(node.args) == 1 and not node.keywords else None
    if isinstance(arg, ast.IfExp):
        test = arg.test
        return (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Gt) and _zero(test.comparators[0])
                and isinstance(test.left, ast.Name) and isinstance(arg.body, ast.Name)
                and test.left.id == arg.body.id and _zero(arg.orelse))
    return (isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "max"
            and len(arg.args) == 2 and _zero(arg.args[0]))


def unclamped_roots(source):
    """Lines of ``source`` that call ``sqrt`` (by name or attribute) on
    anything but ``max(0.0, ...)`` or ``x if x > 0.0 else 0.0``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "sqrt"
                  and not _clamped(node))


def test_scan_finds_an_unclamped_root():
    source = ("a = math.sqrt(x)\nb = sqrt(max(x, 0.0))\nc = math.sqrt(max(0, x))\n"
              "d = np.sqrt(abs(x)) + math.sqrt(max(0.0, x, y))\n")
    assert unclamped_roots(source) == [1, 2, 3, 4, 4]
    assert unclamped_roots("e = math.sqrt(max(0.0, l0 ** 2 + l1 ** 2))\nf = math.sqrt\n"
                           "g = np.hypot(x, y)\nh = np.sqrt(max(0.0, y))\n") == []
    conditional = ("a = math.sqrt(x if x > 0 else 0.0)\nb = math.sqrt(x if y > 0.0 else 0.0)\n"
                   "c = math.sqrt(x if x > 0.0 else y)\nd = math.sqrt(x if x >= 0.0 else 0.0)\n"
                   "e = math.sqrt(x if 0.0 < x else 0.0)\nf = math.sqrt(x if x > 0.0 else 0)\n"
                   "g = math.sqrt(x.y if x.y > 0.0 else 0.0)\n"
                   "h = math.sqrt(x if x > 0.0 > y else 0.0)\n")
    assert unclamped_roots(conditional) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert unclamped_roots("r = math.sqrt(x if x > 0.0 else 0.0)\n") == []


def test_closed_form_roots_are_clamped():
    # A radicand that is nonnegative in exact arithmetic can round below 0;
    # math.sqrt raises there, and np.sqrt returns NaN.
    source = (ROOT / "src" / "qent" / "classify3.py").read_text(encoding="utf-8")
    assert unclamped_roots(source) == []


def test_shared_arrays_are_read_only():
    # Every caller reads the same module-level arrays and cached fixed
    # operands; a write through one of them would corrupt every later map,
    # and through the shared identity every later reduction check and SPA-PT.
    import qent
    from qent import linalg

    modules = [module for name, module in sorted(sys.modules.items())
               if name == "qent" or name.startswith("qent.")]
    assert len(modules) > 1 and qent in modules
    writable = [(module.__name__, name) for module in modules
                for name, value in vars(module).items()
                if isinstance(value, np.ndarray) and value.flags.writeable]
    assert writable == []
    for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4), (1, 4), (2, 1, 2, 2)]:
        for party in range(len(dims)):
            table = linalg._pt_table(dims, (party,))
            assert table is linalg._pt_table(dims, (party,))
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
        parties = tuple(range(len(dims))) * 2
        tables = linalg._pt_table(dims, parties)
        assert tables is linalg._pt_table(dims, parties)
        assert not tables.flags.writeable
        alone = [linalg._pt_table(dims, (k,)) for k in parties]
        assert np.array_equal(tables, np.concatenate(alone))
    for d in range(1, 5):
        assert not linalg._realign_table(d).flags.writeable
    # The largest side cached and the smallest built per call.
    for n in [1, 2, 3, 4, 6, 8, 9, 16, linalg.OPERAND_CACHE_SIDE, linalg.OPERAND_CACHE_SIDE + 1]:
        eye = linalg._eye(n)
        assert not eye.flags.writeable
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0


CACHED_OPERANDS = ("_pt_table", "_realign_table", "_eye", "exact_dims")


def test_importing_the_package_builds_no_index_table():
    # The fixed operands are built on first use, so an import (and with it
    # the CLI's cold start) pays for none of them.
    probe = ("import qent, qent.cli; from qent import linalg; "
             f"print(*(getattr(linalg, name).cache_info().currsize for name in {CACHED_OPERANDS}))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["0"] * len(CACHED_OPERANDS)
