"""Static checks on the package source, with the standard library's ast.

They keep one definition of each helper, no dead functions or methods,
every attribute of FDAlgebra declared in algebra.py itself, the structure
constants `FDAlgebra.mult` read in algebra.py alone, no assertions in the
package, sympy imported in one place only and neither sympy nor numpy
loaded by importing the package, the CRT idempotent called only by the
one idempotent splitter, one chain of Ω links (`strip_projectives` called
only by `syzygy`, a projective cover's kernel taken only by `omega`, and no
cokernel in `homology` but the transpose's), sums of projectives built only
by `projective_sum`, one exactness certificate
(`ModuleMap.rank` read only by `_certify_exact`, `is_injective` and
`is_surjective`), `Fraction` named only where QQ scalars are made or
printed, no imported name left unused, no write through `Matrix.data` (a
dense copy, so such a write is silently lost), package imports at module
level outside the CLI, and no private attribute written from outside its
own object.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import fdhom

SRC = Path(fdhom.__file__).resolve().parent
TREES = {p.name: ast.parse(p.read_text(), filename=str(p))
         for p in sorted(SRC.glob("*.py"))}
# the tests and the benchmark, which may be the only callers of public API
ROOT = Path(__file__).resolve().parent.parent
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))
OTHER_TREES = [ast.parse(p.read_text(), filename=str(p))
               for p in TEST_FILES + sorted((ROOT / "perfbench").glob("*.py"))]


def _module_functions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _definitions(tree):
    """(name, node) for every module-level function and every method of a
    module-level class."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield item.name, item


def _references(trees) -> Counter:
    # a reference is a use as a name or an attribute; an import alone is not
    counts: Counter = Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
    return counts


def _unreferenced(private: bool, trees) -> list[str]:
    """Functions and methods of the package, private or public ones, with
    no reference in trees outside their own body (so recursion alone does
    not count); dunder methods are called by the language."""
    counts = _references(trees)
    return [f"{name}:{fn}" for name, tree in TREES.items()
            for fn, node in _definitions(tree)
            if not fn.startswith("__") and fn.startswith("_") == private
            and counts[fn] == _references([node])[fn]]


def test_no_function_name_defined_in_two_modules():
    where: dict[str, list[str]] = {}
    for name, tree in TREES.items():
        for fn in _module_functions(tree):
            where.setdefault(fn, []).append(name)
    assert {fn: mods for fn, mods in where.items() if len(mods) > 1} == {}


def test_every_private_function_is_referenced():
    assert _unreferenced(True, TREES.values()) == []


def test_every_public_function_is_referenced_in_the_package_tests_or_benchmark():
    assert _unreferenced(False, list(TREES.values()) + OTHER_TREES) == []


def test_fdalgebra_attributes_are_set_only_in_algebra_py():
    def is_fdalgebra(node):
        return isinstance(node, ast.Name) and node.id == "FDAlgebra"

    found = []
    for name, tree in TREES.items():
        if name == "algebra.py":
            continue
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "setattr" and node.args
                  and is_fdalgebra(node.args[0])):
                found.append(f"{name}:{node.lineno}")
            for t in targets:
                if isinstance(t, ast.Attribute) and is_fdalgebra(t.value):
                    found.append(f"{name}:{t.lineno}")
    assert found == []


def test_structure_constants_are_read_only_in_algebra_py():
    # one module knows the layout of the table, mult[s] = {t: b_s b_t}; every
    # other module multiplies elements with FDAlgebra.multiply
    found = [f"{name}:{node.lineno}" for name, tree in TREES.items()
             if name != "algebra.py" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "mult"]
    assert found == []


def test_no_assert_or_assertion_error_in_the_package():
    # internal checks raise CertificateFailed, which the CLI maps to exit
    # code 4; an AssertionError would escape it and exit 1, "refuted", and an
    # assert statement vanishes under python -O
    found = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                    isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def _imports_sympy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "sympy" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "sympy"
    return False


def test_sympy_is_imported_only_by_crt_idempotent():
    # the one use of sympy is factoring minimal polynomials for idempotent
    # splitting; radicals and isomorphism tests need no symbolic algebra
    found = [f"{name}:<module>" for name, tree in TREES.items()
             for node in tree.body if _imports_sympy(node)]
    found += [f"{name}:{fn.name}" for name, tree in TREES.items()
              for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if _imports_sympy(node)]
    assert found == ["algebra.py:_crt_idempotent"]


def test_crt_idempotent_has_one_caller_the_splitter():
    # idempotent splitting has one implementation: decompose's endomorphism
    # search and primitive_idempotents both go through _split_idempotent
    found = [f"{name}:{fname}" for name, tree in TREES.items()
             for fname, fn in _definitions(tree)
             for node in ast.walk(fn)
             if (isinstance(node, ast.Name) and node.id == "_crt_idempotent")
             or (isinstance(node, ast.Attribute) and node.attr == "_crt_idempotent")]
    assert found == ["algebra.py:_split_idempotent"]


def _callers(names) -> dict:
    """{"file:function": the names of `names` it calls}, for every function
    and method of the package that calls one of them by name."""
    found = {}
    for name, tree in TREES.items():
        for fname, fn in _definitions(tree):
            called = {node.func.id for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id in names}
            if called:
                found[f"{name}:{fname}"] = called
    return found


def test_strip_projectives_has_one_caller_the_syzygy():
    # projective summands are split off once, at the end of a walk along the
    # Ω links; τ and τ_n need no stripping, since τ kills projective summands
    assert list(_callers({"strip_projectives"})) == ["modules.py:syzygy"]


def test_only_omega_takes_the_kernel_of_a_projective_cover():
    # every syzygy in the package is an Ω link kept on its module
    both = {"projective_cover", "kernel"}
    assert [fn for fn, called in _callers(both).items()
            if called == both] == ["modules.py:omega"]


def test_only_projective_sum_passes_projectives_to_direct_sum():
    # a sum of projectives is one object per algebra and vertex tuple, kept
    # with its dual: covers with one top, star modules and the terms of the
    # coresolution of A share it instead of summing the P_v afresh
    assert [fn for fn, called in _callers({"direct_sum", "projective_module"}).items()
            if len(called) == 2] == ["modules.py:projective_sum"]


def test_only_transpose_takes_a_cokernel_in_homology():
    # the cosyzygies of A are read off the Ω links of the D(A e_v), so the
    # coresolution of A has one route and no envelope/cokernel loop
    assert [fn for fn in _callers({"cokernel"})
            if fn.startswith("homology.py:")] == ["homology.py:transpose"]


def test_module_map_rank_is_read_only_by_the_exactness_certificate():
    # exactness has one certificate, `_certify_exact`, run once per Ω link;
    # a rank read anywhere else would be a second, hand-written check
    found = sorted({f"{name}:{fname}" for name, tree in TREES.items()
                    for fname, fn in _definitions(tree)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "rank"})
    assert found == ["modules.py:_certify_exact", "modules.py:is_injective",
                     "modules.py:is_surjective"]


def test_importing_the_package_loads_neither_numpy_nor_sympy():
    # import time is paid by every CLI call and every benchmark setup; a
    # fresh interpreter, since the tests themselves may have loaded either
    mods = ", ".join(f"fdhom.{Path(name).stem}" for name in TREES
                     if name != "__init__.py")
    code = (f"import sys, {mods}; "
            "print(sorted({'numpy', 'sympy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fraction_is_named_only_in_linalg_mckay_and_cli():
    # a QQ scalar is an int when it is integral; FieldSpec.of and the
    # operations of linalg make that form, so a Fraction built anywhere else
    # could carry an integral value as a Fraction.  mckay computes with
    # cyclotomic coefficients and cli reads and prints rationals
    found = sorted({name for name, tree in TREES.items() for node in ast.walk(tree)
                    if (isinstance(node, ast.Name) and node.id == "Fraction")
                    or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
                    or (isinstance(node, ast.alias)
                        and node.name in ("Fraction", "fractions"))})
    assert set(found) <= {"linalg.py", "mckay.py", "cli.py"}


def _unused_imports(tree) -> list[str]:
    """Names that an import binds and its scope never reads: the function
    the import sits in, or the whole module for a top-level import.  A read
    is a use as a name; `fdhom.homology.tau` reads `fdhom`."""
    found = []

    def visit(scope, node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and \
                    getattr(child, "module", None) != "__future__":
                read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
                bound = [alias.asname or alias.name.split(".")[0]
                         for alias in child.names]
                found.extend(f"{b}:{child.lineno}" for b in bound if b not in read)
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child if is_fn else scope, child)

    visit(tree, tree)
    return found


def test_every_imported_name_is_used():
    # __init__.py imports only to re-export the public API
    assert {name: _unused_imports(tree) for name, tree in TREES.items()
            if name != "__init__.py" and _unused_imports(tree)} == {}


def _store_targets(node):
    """The expressions a statement assigns to or deletes, tuples unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return []
    out = []
    while todo:
        t = todo.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            todo.extend(t.elts)
        elif isinstance(t, ast.Starred):
            todo.append(t.value)
        else:
            out.append(t)
    return out


def _strip_items(node):
    """x for x[i][j:k]."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _reads_data(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "data"
               for n in ast.walk(node))


def _writes_through_data(tree) -> list[int]:
    """Lines that assign to `<expr>.data` or to an item of it at any depth
    (`m.data[i][j] = x`), and lines that assign to an item of a loop
    variable that iterates over something read from `.data`
    (`for row in m.data: row[j] = x`)."""
    lines = []
    for node in ast.walk(tree):
        for t in _store_targets(node):
            base = _strip_items(t)
            if isinstance(base, ast.Attribute) and base.attr == "data":
                lines.append(node.lineno)
        if isinstance(node, ast.For) and _reads_data(node.iter):
            names = {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    for t in _store_targets(sub):
                        base = _strip_items(t)
                        if (t is not base and isinstance(base, ast.Name)
                                and base.id in names):
                            lines.append(sub.lineno)
    return sorted(set(lines))


def test_nothing_writes_through_matrix_data():
    # Matrix.data is a dense copy, so a write through it would be lost
    found = {name: _writes_through_data(tree) for name, tree in TREES.items()}
    found.update({p.name: _writes_through_data(ast.parse(p.read_text()))
                  for p in TEST_FILES})
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_package_modules_import_fdhom_only_at_module_level():
    # a function-local import runs on every call, inside loops too; only the
    # CLI imports per command, so that each command loads what it needs
    found = {f"{name}:{node.lineno}" for name, tree in TREES.items()
             if name != "cli.py"
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if (isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "fdhom")
             or (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "fdhom" for a in node.names))}
    assert found == set()


def test_private_attributes_are_written_only_through_self():
    # what an object keeps for reuse goes through its own memo (`Memo.memo`),
    # never through x._name = ... from another object or module
    found = [f"{name}:{node.lineno}" for name, tree in TREES.items()
             if name != "cli.py" for node in ast.walk(tree)
             for t in _store_targets(node)
             if isinstance(base := _strip_items(t), ast.Attribute)
             and base.attr.startswith("_")
             and not (isinstance(base.value, ast.Name)
                      and base.value.id in ("self", "cls"))]
    assert found == []
