"""The lane object: Context validation, its lane API, and the one tolerance ladder."""
import ast
import contextlib
import dataclasses
import math
import re
import signal
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import g2kit
from g2kit.context import EXACT, FLOAT, Context, _int_nth_root, lane_of, rational_nth_root
from g2kit.errors import ExactModeError, G2KitError, ParseError
from g2kit.exterior import KForm, basis_vector
from g2kit.g2core import phi0, standard_structure, symmetric_basis
from g2kit.liegroup import so7_basis
from g2kit.models import flat_model, gamma_membership, model_structure
from g2kit.serialize import g2structure_from_json, g2structure_to_json

SRC = Path(g2kit.__file__).resolve().parent


@pytest.mark.parametrize("mode, tol", [
    ("Exact", 1e-10),
    ("bogus", 1e-10),
    ("float", 0),
    ("float", -1e-10),
    ("float", "1e-10"),
    ("float", True),
    ("float", float("inf")),
    ("float", float("nan")),
])
def test_context_rejects_bad_fields(mode, tol):
    """Context takes a mode only: a tolerance argument, valid or not, is a
    TypeError rather than a lane with a tolerance of its own, and a mode
    other than "exact" or "float" is a ValueError."""
    with pytest.raises(TypeError):
        Context(mode, tol)
    if mode != "float":
        with pytest.raises(ValueError):
            Context(mode)


def test_context_has_exactly_mode_and_tol():
    """mode is the one field; tol is the ladder's DEFAULT_TOL, a class constant."""
    assert [f.name for f in dataclasses.fields(Context)] == ["mode"]
    assert FLOAT.tol == EXACT.tol == Context.tol == 1e-10


@pytest.mark.parametrize("bad", ["Exact", "bogus", "", None, ["exact"]])
def test_typo_in_mode_is_an_error_not_the_float_lane(bad):
    with pytest.raises(ValueError):
        Context.of(bad)
    if isinstance(bad, str):
        with pytest.raises(ValueError):
            standard_structure(bad)
        with pytest.raises(ValueError):
            model_structure("t7", bad)
        with pytest.raises(ValueError):
            gamma_membership(flat_model("t7"), phi0(), mode=bad)
    payload = g2structure_to_json(standard_structure("exact"))
    payload["mode"] = bad
    with pytest.raises(ParseError):
        g2structure_from_json(payload)


def test_context_of_returns_the_shared_lanes():
    assert Context.of("exact") is EXACT and Context.of("float") is FLOAT
    assert model_structure("t7", "exact").ctx is EXACT


def test_lane_api():
    assert type(EXACT.zero) is Fraction and EXACT.zero == 0 and EXACT.one == 1
    assert type(FLOAT.zero) is float and FLOAT.one == 1.0
    assert EXACT.is_zero(Fraction(0), Context.tol) and not EXACT.is_zero(Fraction(1, 10 ** 30), 1.0)
    assert FLOAT.is_zero(1e-11, Context.tol) and not FLOAT.is_zero(1e-9, Context.tol)
    assert FLOAT.is_zero(1e-9, 1e-8)
    assert EXACT.sqrt(Fraction(9, 4)) == Fraction(3, 2) and EXACT.sqrt(0) == 0
    with pytest.raises(ExactModeError):
        EXACT.sqrt(Fraction(2))
    assert FLOAT.sqrt(2.0) == math.sqrt(2.0)
    with pytest.raises(ValueError):
        FLOAT.sqrt(-1.0)
    m = [[1, 2], [2, 4]]
    assert EXACT.rank(m) == FLOAT.rank(m) == 1
    assert EXACT.nullspace(m) == [[-2, 1]]
    (v,) = FLOAT.nullspace(m)
    assert abs(v[0] + 2 * v[1]) < 1e-12
    assert EXACT.scaled_span(m) == ([[1, 2]], 2)
    ((u0, u1),), one = FLOAT.scaled_span(m)
    assert one == 1 and abs(u1 - 2 * u0) < 1e-12
    a = [[2, 1], [1, 1]]
    assert type(EXACT.det(a)) is Fraction and EXACT.det(a) == 1
    assert type(FLOAT.det(a)) is float and FLOAT.det(a) == 1.0
    assert EXACT.inv(a) == [[1, -1], [-1, 2]]
    assert all(type(x) is Fraction for row in EXACT.inv(a) for x in row)
    finv = FLOAT.inv(a)
    assert all(type(x) is float for row in finv for x in row)
    assert max(abs(x - y) for row, erow in zip(finv, EXACT.inv(a)) for x, y in zip(row, erow)) < 1e-15
    assert EXACT.det(m) == 0 and FLOAT.det(m) == 0.0
    for lane in (EXACT, FLOAT):
        with pytest.raises(G2KitError, match="matrix is singular"):
            lane.inv(m)
    rows = [[Fraction(1, 2), 3], [Fraction(-2, 3), 0]]
    assert EXACT.scaled(rows) == ([[3, 18], [-4, 0]], 6)
    assert all(type(x) is int for row in EXACT.scaled(rows)[0] for x in row)
    assert FLOAT.scaled([[0.5, 3.0]]) == ([[0.5, 3.0]], 1)
    assert type(EXACT.ratio(3, 6)) is Fraction and EXACT.ratio(3, 6) == Fraction(1, 2)
    assert FLOAT.ratio(-0.0, 1) == 0.0 and FLOAT.ratio(3.0, 2) == 1.5
    assert lane_of([1, Fraction(1, 2)]) is EXACT and lane_of([1, 0.5]) is FLOAT
    assert lane_of([]) is EXACT
    assert EXACT.scaled_span([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == ([[-1, 1, 0], [1, 0, 1]], 1)
    assert EXACT.scaled_span([[0, 0]]) == ([], 1) and FLOAT.scaled_span([[0.0, 0.0]]) == ([], 1)
    (u,), one = FLOAT.scaled_span([[3.0, 4.0], [6.0, 8.0]])
    assert one == 1 and abs(abs(u[0]) - 0.6) < 1e-15 and abs(abs(u[1]) - 0.8) < 1e-15
    t = [[2, 1], [0, 3]]
    assert EXACT.eigenvalue(t, [[1, 0], [3, 0]]) == 2 and EXACT.eigenvalue(t, [[1, 1]], 3) == 3
    assert EXACT.eigenvalue(t, [[1, 0], [1, 1]]) is None and EXACT.eigenvalue(t, [[0, 1]]) is None
    assert EXACT.eigenvalue(t, [[1, 0]], 3) is None and EXACT.eigenvalue(t, [[0, 0]]) is None
    tf = [[2.0, 1.0], [0.0, 3.0]]
    assert FLOAT.eigenvalue(tf, [[1.0, 0.0]]) == 2.0
    assert FLOAT.eigenvalue(tf, [[1.0, 1.0]], 3.0) == 3.0
    assert FLOAT.eigenvalue(tf, [[1.0, 0.0], [1.0, 1.0]]) is None
    # residuals against FLOAT_RANK_CUTOFF times |m|_inf |v|_max = 4
    assert FLOAT.eigenvalue(tf, [[1.0, 1e-12]]) is not None
    assert FLOAT.eigenvalue(tf, [[1.0, 1e-6]]) is None
    # an exact refusal makes no float of its scale, however large
    assert EXACT.eigenvalue([[10 ** 400]], [[1]], 0) is None
    assert not EXACT.is_zero(1, 1e-8, 10 ** 400) and FLOAT.is_zero(3e-8, 1e-8, 4)
    sym = [[1, 2], [2, 5]]
    assert EXACT.symmetric(sym) is sym
    assert FLOAT.symmetric([[1.0, 2.0], [4.0, 5.0]]) == [[1.0, 3.0], [3.0, 5.0]]



def ref_float_det(m):
    """The float determinant Context.det took before ratlin.det_float:
    numpy's, sign times exp of the summed logs of the LU pivots."""
    return float(np.linalg.det(np.asarray(m, dtype=float)))


def test_float_det_keeps_exact_pivots():
    """The pivot product has an integer-valued determinant to the last bit
    when its pivots are exact: det(6 I) = 6.0 ** 7 (the contraction matrix
    of phi0), a signed permutation gives +-1.0, a singular matrix 0.0."""
    six = [[6.0 if i == j else 0.0 for j in range(7)] for i in range(7)]
    assert FLOAT.det(six) == 6.0 ** 7
    perm = [[0] * 7 for _ in range(7)]
    for i, (j, sign) in enumerate(zip((3, 0, 6, 1, 5, 2, 4), (1, -1, -1, 1, 1, -1, 1))):
        perm[i][j] = sign
    for rows in (perm, perm[1:] + perm[:1]):
        det = FLOAT.det([[float(x) for x in row] for row in rows])
        assert abs(det) == 1.0 and det == EXACT.det(rows)
    singular = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]]
    assert FLOAT.det(singular) == 0.0 and FLOAT.det([[0.0, 1.0], [0.0, 2.0]]) == 0.0
    assert FLOAT.det([]) == 1.0


@st.composite
def rational_square_matrices(draw):
    n = draw(st.integers(1, 7))
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@given(rational_square_matrices())
@settings(max_examples=200, deadline=None)
def test_float_det_is_within_the_reference_bound(m):
    """|float det - exact det| <= 8 n eps prod |row|_2 on rational n x n
    matrices, n <= 7: prod |row|_2 is Hadamard's bound on |det|, so this is a
    relative error of 8 n ulps of that bound.  numpy's determinant
    (ref_float_det) meets the same bound on the same draws."""
    exact = float(EXACT.det(m))
    bound = 8 * len(m) * sys.float_info.epsilon * math.prod(
        math.hypot(*map(float, row)) for row in m)
    assert abs(FLOAT.det(m) - exact) <= bound
    assert abs(ref_float_det(m) - exact) <= bound


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raises TimeoutError in the block once it runs past seconds, rather than
    letting a non-terminating loop hang the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@given(st.integers(0, 10 ** 700), st.integers(2, 11))
@settings(max_examples=300, deadline=None)
def test_int_nth_root_is_the_integer_floor(m, n):
    """r**n <= m < (r + 1)**n on ints far above the float range, where a float
    first guess raises OverflowError, and on roots of 60 digits, where it
    lands so far below the root that a scan upward never ends."""
    with time_limit(5):
        r = _int_nth_root(m, n)
    assert r ** n <= m < (r + 1) ** n


@pytest.mark.parametrize("n", [2, 3, 9])
def test_rational_nth_root_of_long_powers(n):
    """Exact n-th roots of n-th powers of 60-digit rationals, one more or less
    than such a power has none, and radicands above 1.8e308 need no float."""
    q = Fraction(3 ** 125 + 7, 2 ** 199 + 1)
    with time_limit(5):
        assert rational_nth_root(q ** n, n) == q
        assert rational_nth_root(q ** n + 1, n) is None
        assert rational_nth_root(Fraction(10 ** (400 * n)), n) == 10 ** 400
        assert n != 2 or EXACT.sqrt(q * q) == q


def _tolerance_literals(path):
    return [(path.name, node.lineno, node.value)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-3]


def test_tolerance_ladder_lives_in_context():
    """Every float tolerance of the package is a named constant in context.py
    (the selftest states its own check bounds)."""
    found = [hit for path in sorted(SRC.glob("*.py"))
             if path.name not in ("context.py", "selftest.py")
             for hit in _tolerance_literals(path)]
    assert found == []
    assert _tolerance_literals(SRC / "context.py")


# A line that re-makes the exact/float choice outside context.py: by naming
# the lane, or by a type test for floats.
LANE_FORK = re.compile(
    r"\b(if|elif)\b.*(\bexact\b|is_exact|_exact_rows)|(\bexact\b|is_exact).*\belse\b"
    r"|isinstance\(.*\bfloat\b")
KERNEL_MODULES = ("ratlin", "exterior", "g2core", "bryant", "liegroup", "models", "cli")
# Functions that detect a lane by its values' type rather than fork on it.
LANE_DETECTORS = {("exterior", "_normalize"), ("exterior", "KForm.is_exact"),
                  ("exterior", "Metric.is_exact")}


def _function_lines(tree):
    """{qualified name: its line numbers} for every function in a module."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found[name] = range(child.lineno, child.end_lineno + 1)
                visit(child, name + ".")

    visit(tree, "")
    return found


def test_lane_forks_are_counted():
    """The kernel modules keep at most 3 lane forks, the places where the
    lanes still run different algorithms:
    - metric_from_phi's normalization (a rational ninth root in exact mode,
      the 1/9 power and the non-finite refusal in float mode);
    - Metric's positive definiteness test (in exact mode the leading
      minors, all from one Bareiss pass on the int rows, whose last pivot
      is det g's numerator; in float mode the eigenvalues);
    - matrix_exp's refusal of exact input.
    Determinants, inverses, ranks, kernels, spans and integer scaling are
    Context methods, not forks, and every table of minors comes from
    exterior.compound in both lanes.  A type test for floats counts as a fork
    outside the lane detectors (_normalize, KForm.is_exact, Metric.is_exact).
    A new fork raises this count and has to be stated here."""
    forks, detectors = [], set()
    for name in KERNEL_MODULES:
        text = (SRC / f"{name}.py").read_text(encoding="utf-8")
        exempt = set()
        for qualname, lines in _function_lines(ast.parse(text)).items():
            if (name, qualname) in LANE_DETECTORS:
                detectors.add((name, qualname))
                exempt.update(lines)
        forks += [(name, line) for n, line in enumerate(text.splitlines(), 1)
                  if n not in exempt and LANE_FORK.search(line)]
    assert detectors == LANE_DETECTORS
    assert len(forks) <= 3, forks


# Context methods that read a scaled kernel through ratio instead of forking on the lane.
LANE_FREE_VIEWS = ("inv", "nullspace", "eigenvalue")


def test_only_ratlin_defines_a_matvec():
    """ratlin.matvec is the package's one matrix-vector product: no other
    module defines a matvec or _matvec, and no module keeps a per-lane
    eigen check (eigenvalue_exact, eigenvalue_float) with products of its
    own."""
    products = [(path.stem, node.name) for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in ("matvec", "_matvec", "eigenvalue_exact", "eigenvalue_float")]
    assert products == [("ratlin", "matvec")]


def test_one_bareiss_pass():
    """ratlin._bareiss is the package's one Bareiss elimination: rank_exact,
    det_exact and definite_det read its pivots, so it is the only function
    that divides by a previous pivot (a floor division by a name prev)."""
    found = [(path.stem, qualname) for path in sorted(SRC.glob("*.py"))
             for tree in [ast.parse(path.read_text(encoding="utf-8"))]
             for qualname, lines in _function_lines(tree).items()
             if any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                    and isinstance(node.right, ast.Name) and node.right.id == "prev"
                    and node.lineno in lines for node in ast.walk(tree))]
    assert found == [("ratlin", "_bareiss")]


def test_inv_and_nullspace_make_no_lane_test():
    """Context.inv, Context.nullspace and Context.eigenvalue read the scaled
    kernels, matvec and scaled through ratio, scaled_zero and is_zero: none
    reads is_exact or mode, so each operation picks its lane once."""
    tree = ast.parse((SRC / "context.py").read_text(encoding="utf-8"))
    (context,) = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Context"]
    views = {node.name: node for node in context.body
             if isinstance(node, ast.FunctionDef) and node.name in LANE_FREE_VIEWS}
    assert set(views) == set(LANE_FREE_VIEWS)
    tests = [(name, read) for name, view in views.items() for node in ast.walk(view)
             if (read := getattr(node, "attr", getattr(node, "id", None))) in ("is_exact", "mode")]
    assert tests == []


# The pieces of the family's metric test and of recover's residual bound,
# kept inside g2core.
METRIC_TEST_PIECES = {"_contraction_matrix", "_normalized_metric", "_retwist_bound", "_retwist_terms"}


def test_the_metric_test_has_one_home():
    """G2Structure.check_metric is the family's one metric test, and
    G2Structure.check_retwist the one reader of recover's residual bound:
    the package raises MetricMismatchError in one place, in g2core, and no
    other module imports or reads the pieces (_contraction_matrix,
    _normalized_metric, _retwist_bound, _retwist_terms)."""
    raises, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "MetricMismatchError":
                    raises.append(path.stem)
            if path.stem == "g2core":
                continue
            if isinstance(node, ast.ImportFrom):
                reads += [(path.stem, a.name) for a in node.names if a.name in METRIC_TEST_PIECES]
            elif isinstance(node, ast.Attribute) and node.attr in METRIC_TEST_PIECES:
                reads.append((path.stem, node.attr))
    assert raises == ["g2core"]
    assert reads == []


def test_g2core_reaches_no_numpy():
    """g2core runs on lane scalars alone: it imports no numpy and reads no
    name np, so the float lane's contractions, metric test and residual
    bound load nothing beyond the package."""
    tree = ast.parse((SRC / "g2core.py").read_text(encoding="utf-8"))
    imports = [a.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names if a.name == "np" or a.name.split(".")[0] == "numpy"]
    imports += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"]
    names = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "np"]
    assert imports == [] and names == []


def test_no_kernel_function_takes_an_exact_flag():
    """A lane is named by a Context, never by a bool parameter `exact`."""
    flagged = [(name, node.name) for name in KERNEL_MODULES
               for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and "exact" in {arg.arg for arg in (*node.args.posonlyargs, *node.args.args,
                                                    *node.args.kwonlyargs)}]
    assert flagged == []


@pytest.mark.parametrize("build", [
    phi0,
    symmetric_basis,
    so7_basis,
    lambda lane: basis_vector(1, lane),
    lambda lane: KForm.zero(3, lane),
    lambda lane: KForm.from_entries(1, {(1,): 1}, lane),
], ids=["phi0", "symmetric_basis", "so7_basis", "basis_vector", "zero", "from_entries"])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_never_picks_a_lane(build, flag):
    with pytest.raises(AttributeError):
        build(flag)


def _unused_imports(path):
    """Names a module imports and never references (outside __all__)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return sorted(imported - used - exported)


def test_no_unused_imports():
    """The package's lint step: every imported name is referenced or re-exported."""
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := _unused_imports(path))}
    assert found == {}


def _references(tree, stems):
    """(names, attrs, modules, exports) for one file: every name it reads
    (loaded names, attributes, imported names and strings that are
    identifiers, since monkeypatch.setattr names its target); the subset a
    method can be reached by (attributes and identifier strings); the
    package modules, of the given stems, that it imports itself or a name
    from; and the names it imports from the package g2kit itself."""
    found, attrs, modules, exports = set(), set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            attrs.add(node.value)
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[1] for a in node.names
                           if a.name.startswith("g2kit."))
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not node.level:
                if source != "g2kit" and not source.startswith("g2kit."):
                    continue
                source = source[len("g2kit."):]
            if source:
                modules.add(source.split(".")[0])
            else:
                modules.update(a.name for a in node.names if a.name in stems)
                exports.update(a.name for a in node.names if a.name not in stems)
    return found | attrs, attrs, modules, exports


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _dead_definitions(package, others, exported=()):
    """(module, name) for every module-level function and class of the
    package sources {module stem: text} (dunders aside) that no source of
    the package or of others {file name: text} references and that is not
    exported, and (module, "Class.method") for every method and property
    (dunders aside) that no source reads as an attribute or names in a
    string.  Such a read counts only where it can reach the class: in the
    defining module, in a file that imports that module or a name from it,
    and in a file that imports the class from g2kit."""
    refs = {name: _references(ast.parse(text), package)
            for name, text in (*package.items(), *others.items())}
    used = set(exported).union(*(r[0] for r in refs.values()))
    dead = []
    for stem, text in package.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not _is_dunder(node.name) and node.name not in used:
                dead.append((stem, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            attrs = set().union(*(attrs for name, (_, attrs, modules, exports) in refs.items()
                                  if name == stem or stem in modules or node.name in exports))
            dead += [(stem, f"{node.name}.{item.name}") for item in node.body
                     if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not _is_dunder(item.name) and item.name not in attrs]
    return dead


def _sources(folder):
    return {path: path.read_text(encoding="utf-8") for path in sorted(folder.glob("*.py"))}


def test_no_dead_definitions():
    """The package's lint step: every module-level function and class of
    g2kit (module dunders aside) is referenced from the package, the tests
    or perfbench, or is exported in g2kit.__all__; every method and
    property of a g2kit class (dunders aside) is read as an attribute or
    named in a string where the class can be reached (_dead_definitions)."""
    root = Path(__file__).resolve().parents[1]
    package = {path.stem: text for path, text in _sources(SRC).items()}
    others = {**_sources(root / "tests"), **_sources(root / "perfbench")}
    assert _dead_definitions(package, others, g2kit.__all__) == []


def test_a_method_read_only_off_an_unrelated_object_is_dead():
    """A method counts as read only where its class can be reached: an
    unrelated args.trace in a file that imports nothing of the package
    does not keep SymTensor.trace alive; an import of the module, of a name
    from it, of the module from g2kit or of the class from g2kit does, and
    so does a relative import of the module inside the package."""
    package = {"tensors": "class SymTensor:\n    def trace(self):\n        return 0\n",
               "__init__": "from .tensors import SymTensor\n"}
    bench = {"run.py": "import argparse\nargs = argparse.Namespace(trace=1)\nprint(args.trace)\n"}
    assert _dead_definitions(package, bench) == [("tensors", "SymTensor.trace")]
    for reader in ("from g2kit.tensors import SymTensor\nSymTensor().trace()\n",
                   "import g2kit.tensors\nprint(g2kit.tensors.SymTensor().trace)\n",
                   "from g2kit import tensors\ntensors.SymTensor().trace()\n",
                   "from g2kit import SymTensor\nSymTensor().trace()\n"):
        assert _dead_definitions(package, {**bench, "use.py": reader}) == []
    reads = "def run(s):\n    return s.trace()\n\n\nrun(0)\n"
    assert _dead_definitions({**package, "other": "from . import tensors\n" + reads}, bench) == []
    assert _dead_definitions({**package, "other": reads}, bench) == [("tensors", "SymTensor.trace")]


def test_context_carries_no_test_only_method():
    """Every method and property of Context (dunders aside) is read as an
    attribute in the package or perfbench: the tests do not keep one
    alive on their own."""
    (context,) = [node for node in ast.parse((SRC / "context.py").read_text(encoding="utf-8")).body
                  if isinstance(node, ast.ClassDef) and node.name == "Context"]
    methods = [item.name for item in context.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not _is_dunder(item.name)]
    root = Path(__file__).resolve().parents[1]
    read = {node.attr for folder in (SRC, root / "perfbench")
            for text in _sources(folder).values()
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Attribute)}
    assert methods and [name for name in methods if name not in read] == []


def _name_of(node):
    """The name a decorator or a call's callee goes by: f, or attr of x.attr."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _knobs(tree):
    """(label, callee, slot) for every defaulted parameter of a function or
    method of one module, nested ones included, and every defaulted field of
    its dataclasses.  callee is the name a call uses: the function's, the
    method's, or the class's for __init__ and for fields; slot is the
    parameter's positional index (self and cls aside), None for a
    keyword-only one."""
    found = []

    def visit(body, cls=None):
        fields = 0
        is_dataclass = cls is not None and any(
            _name_of(d) == "dataclass" for d in cls.decorator_list)
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                skip = int(cls is not None
                           and "staticmethod" not in map(_name_of, node.decorator_list))
                first = len(positional) - len(args.defaults)
                if cls is None:
                    label, callee = node.name, node.name
                elif node.name == "__init__":
                    label, callee = cls.name, cls.name
                else:
                    label, callee = f"{cls.name}.{node.name}", node.name
                found.extend((f"{label}.{a.arg}", callee, i - skip)
                             for i, a in enumerate(positional) if i >= first)
                found.extend((f"{label}.{a.arg}", callee, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(node.body)
            elif is_dataclass and isinstance(node, ast.AnnAssign):
                if node.value is not None:
                    found.append((f"{cls.name}.{node.target.id}", cls.name, fields))
                fields += 1

    visit(tree.body)
    return found


def _unset_knobs(package, sources):
    """Labels of the knobs (_knobs) of the package sources {module stem: text}
    that no call sets, sorted.  Calls are read from the package and from
    the sources {path: text} outside a tests folder: the tests are no
    caller.  A call by the callee's name sets a knob when it names it by
    keyword, passes more positional arguments than its slot, unpacks
    *args (any positional knob) or unpacks **kwargs (any knob)."""
    calls = {}
    texts = [*package.values(),
             *(text for path, text in sources.items() if Path(path).parent.name != "tests")]
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(_name_of(node), []).append((
                    sum(not isinstance(a, ast.Starred) for a in node.args), starred,
                    {k.arg for k in node.keywords}))

    def is_set(name, slot, call):
        count, starred, keywords = call
        return None in keywords or name in keywords or (
            slot is not None and (starred or count > slot))

    return sorted(label for text in package.values() for label, callee, slot in _knobs(ast.parse(text))
                  if not any(is_set(label.rsplit(".", 1)[1], slot, call)
                             for call in calls.get(callee, ())))


# Parameters kept with no setter in the package or perfbench, and why.
KNOBS_WITHOUT_CALLER = {
    "coset_tangent_dim.s": "the tests drive the float algebra lane through it",
    "float_antisymmetric.span": "a test draws at 3.0",
}


def test_no_unset_knobs():
    """The package's lint step: every defaulted parameter of a g2kit function
    or method and every defaulted dataclass field is set by some call in the
    package or perfbench (_unset_knobs), KNOBS_WITHOUT_CALLER aside.  A value
    no caller sets is a constant."""
    root = Path(__file__).resolve().parents[1]
    package = {path.stem: text for path, text in _sources(SRC).items()}
    others = {**_sources(root / "tests"), **_sources(root / "perfbench")}
    assert _unset_knobs(package, others) == sorted(KNOBS_WITHOUT_CALLER)


def test_a_default_set_only_by_the_tests_is_unset():
    """The helper on synthetic sources: a default that only a tests file sets
    is flagged; a perfbench call that passes it by keyword, by position or
    through *args sets it, and so does a class-name call for a dataclass
    field.  A keyword-only default is set by keyword or **kwargs only."""
    package = {"mod": "from dataclasses import dataclass\n\n\n"
                      "def scale(x, factor=2, *, shift=0):\n    return x * factor + shift\n\n\n"
                      "@dataclass\nclass Box:\n    side: int\n    label: str = ''\n\n"
                      "    def area(self, times=1):\n        return self.side ** 2 * times\n"}
    tests = {"tests/test_mod.py": "scale(1, 3, shift=1)\nBox(1, 'a').area(2)\n"}
    assert _unset_knobs(package, tests) == ["Box.area.times", "Box.label", "scale.factor",
                                            "scale.shift"]
    for call, left in (("scale(1, factor=3)\n", ["scale.shift"]),
                       ("scale(1, 3)\n", ["scale.shift"]),
                       ("scale(*args)\n", ["scale.shift"]),
                       ("scale(**kwargs)\n", [])):
        bench = {"perfbench/run.py": call + "Box(1, 'a').area(times=2)\n"}
        assert _unset_knobs(package, {**tests, **bench}) == left, call
    bench = {"perfbench/run.py": "scale(1, 3, shift=1)\nBox(side=1).area(2)\n"}
    assert _unset_knobs(package, bench) == ["Box.label"]
