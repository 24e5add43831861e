"""Source hygiene: no unused imports, no dead private functions, no public
names that only tests use, no private imports across modules and no ring
value typed by ``Fraction``.

No linter ships with the project, so these scans are the check.  The first
parses each module of the package (except ``__init__.py``, whose imports are
its exports) and of the test suite, and reports an imported name that the
module never references.  A quoted annotation counts as a reference to the
names in it.  The second reports a private (single-underscore, non-dunder)
function or method of the package whose name nothing in the package refers
to, as a plain name or as an attribute.  The third reports a public function,
class or method of the package whose name nothing outside ``tests/`` refers
to: not the package (outside the name's own definition and ``__init__.py``),
not ``demos/`` and not ``perfbench/``.  There a string constant counts as a
reference too, since the benchmark names the methods it traces in strings.  A
method counts as referenced only through an attribute or a string, so a local
variable of the same name does not hide it.  The fourth reports a private
(single-underscore, non-dunder) name that a module of the package imports from
another module of the package: a helper that two modules share is public.
The fifth reports a package module other than ``rings.py`` that tells a value
by the ``Fraction`` class (``isinstance`` or ``type(...) is``): a rational ring
value is an int when integral, so only the ring may look at its type.  The
sixth reports a module other than ``uea.py`` (in the package, the tests, the
demos or the benchmark) that names the PBW monomial class ``_Monomial`` or
calls ``tuple.__new__`` on anything but its own ``cls``: a monomial made that
way is not the canonical one, so it would miss every dict keyed by monomials,
and ``uea.monomial`` is the one way to make one.  The seventh reports a package
module other than ``uea.py`` that calls ``monomial``: the other modules take
their monomials from ``uea``'s helpers and maps, so the engine builds monomial
keys in one module.  The eighth reports a module other than ``verify.py`` (in
the package, the tests, the demos or the benchmark) that names
``ENUMERATION_LIMIT``: ``verify.is_enumerable`` is the one rule for which
shapes have their restricted basis enumerated, and the ``dims`` verb and the
``dims`` suite both ask it.  The ninth pins the public names that only the
benchmark keeps alive: the third scan with the demos as the only users outside
the tests, so that a new one shows, and a change to the benchmark that stops
tracing one deletes it with its span.  The tenth reports a package module that
reads a private (single-underscore, non-dunder) attribute, on anything but
``self`` or ``cls``, that only other modules of the package define: a method or
field that another module calls is public.  The eleventh reports a ``del x[...]``
in the package outside ``rings.accumulate``: a sparse sum drops a key whose value
cancels in that one place, so no kernel hand-copies it.  The twelfth reports a
module other than ``rings.py`` (in the package, the tests, the demos or the
benchmark) that names the t-ring value class ``_TValue``, in code or in an import:
``rings._t_value`` is the one way to make such a value, so every value a series or
quotient ring hands out is the canonical one its memos are keyed by.  The thirteenth
reports a module other than ``rings.py`` (in the package, the tests, the demos or the
benchmark) that names ``tuple.__new__``: ``rings.Canonical.of`` is the one maker of
basis symbols, monomials and t-ring values, and a tuple subclass built past it is not
the canonical object its dicts are keyed by.  The fourteenth reports a call in ``verify.py``
to ``EnvelopingAlgebra``, ``WittAlgebra``, ``WPlusAlgebra`` or ``JacobsonWitt``: every
context a suite checks comes from the factories of ``twist.py``, so ``verify.py`` holds
no second copy of a construction they own.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "wittquant").glob("*.py"))
USERS = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import -> line number, skipping ``__future__`` and ``*``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def annotations(tree: ast.Module):
    """Annotation expressions of arguments, annotated assignments and returns."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            yield node.returns


def referenced_names(tree: ast.Module) -> set:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= referenced_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = referenced_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau as t\nimport a.b\nprint(pi, a)\n"
    assert unused_imports(source) == [(1, "os"), (2, "t")]
    assert unused_imports("from x import Y\ndef f(v: 'Y'): pass\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_functions(sources: dict) -> list:
    """(module, name) of each private function or method that no other node references."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    )


def test_scan_finds_a_dead_private_function():
    a = "def _live(): pass\ndef _dead(): pass\nclass K:\n    def _gone(self): pass\n    def __eq__(self, o): pass\n"
    b = "from a import _live\ndef f(k): return _live() or k._kept()\ndef _kept(): pass\n"
    assert dead_private_functions({"a": a, "b": b}) == [("a", "_dead"), ("a", "_gone")]


def test_no_dead_private_functions():
    assert dead_private_functions({p.name: p.read_text() for p in PACKAGE}) == []


# Public names that only tests call but that the project documents for users.
DOCUMENTED = {"parse_element"}  # the README's element grammar


def _references(tree, skip=None) -> tuple:
    """(plain names, attributes and string constants) referenced in tree, outside
    the definitions named skip."""
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def _public_definitions(tree):
    """(qualified name, name) of each public module-level function or class and
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.ClassDef) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def names_only_tests_use(package: dict, users: dict) -> list:
    """(module, qualified name) of each public definition of package (module -> source)
    that no module of package other than ``__init__.py`` references outside the
    name's own definitions, and that no module of users references.  A method is
    referenced only as an attribute or a string: a plain name of the same spelling
    is some other binding, such as a local variable."""
    trees = {name: ast.parse(src) for name, src in package.items() if name != "__init__.py"}
    outside = [_references(ast.parse(src)) for src in users.values()]
    flagged = []
    for module, tree in trees.items():
        for qualified, name in _public_definitions(tree):
            method = "." in qualified

            def used(refs):
                names, attributes = refs
                return name in attributes or (not method and name in names)

            if name in DOCUMENTED or any(map(used, outside)):
                continue
            if not any(used(_references(other, skip=name)) for other in trees.values()):
                flagged.append((module, qualified))
    return sorted(flagged)


def test_scan_finds_a_public_name_only_tests_use():
    a = (
        "def used(): pass\n"
        "def only_tested(): return only_tested()\n"
        "class K:\n"
        "    def m(self): return self.gone()\n"
        "    def gone(self): pass\n"
        "    def traced(self): pass\n"
        "    def tested(self): pass\n"
        "    def shadowed(self): pass\n"
        "def parse_element(text): pass\n"
        "def local(): shadowed = 1; return shadowed\n"
    )
    b = "from a import used, local\nused()\nlocal()\nK().m()\n"
    init = "from .a import only_tested\n"
    bench = "SPANS = ('traced',)\n"
    got = names_only_tests_use({"a": a, "b": b, "__init__.py": init}, {"bench": bench})
    assert got == [("a", "K.shadowed"), ("a", "K.tested"), ("a", "only_tested")]


def test_no_public_names_that_only_tests_use():
    package = {p.name: p.read_text() for p in PACKAGE}
    assert names_only_tests_use(package, {str(p): p.read_text() for p in USERS}) == []


BENCHMARK_ONLY = [  # kept only because perfbench/spans.py traces them by name
    ("twist.py", "QuantizedHopf.antipode_mono"),
    ("uea.py", "TensorElement.map_slot"),
    ("uea.py", "TensorElement.multiply_out"),
]


def test_the_names_only_the_benchmark_keeps_alive_are_pinned():
    package = {p.name: p.read_text() for p in PACKAGE}
    demos = {str(p): p.read_text() for p in USERS if p.parent.name == "demos"}
    assert names_only_tests_use(package, demos) == BENCHMARK_ONLY


def private_imports(sources: dict) -> list:
    """(module, name) of each private name that a module of sources imports from
    the package, relatively or by the package's absolute name."""
    flagged = []
    for module, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "wittquant"):
                flagged += [
                    (module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not (alias.name.startswith("__") and alias.name.endswith("__"))
                ]
    return sorted(flagged)


def test_scan_finds_a_private_import_across_modules():
    a = (
        "from .b import _shared, public\n"
        "from wittquant.c import _absolute\n"
        "from . import _module\n"
        "from .d import __version__\n"
        "from os import _exit\n"
    )
    got = private_imports({"a": a, "b": "def _own(): pass\n"})
    assert got == [("a", "_absolute"), ("a", "_module"), ("a", "_shared")]


def test_no_private_imports_across_modules():
    assert private_imports({p.name: p.read_text() for p in PACKAGE}) == []


def _names_fraction(node) -> bool:
    """Whether node is ``Fraction`` or ``<module>.Fraction``, or a tuple holding one."""
    if isinstance(node, ast.Tuple):
        return any(map(_names_fraction, node.elts))
    return (isinstance(node, ast.Name) and node.id == "Fraction") or (
        isinstance(node, ast.Attribute) and node.attr == "Fraction"
    )


def _is_type_of(node) -> bool:
    """Whether node is ``type(x)`` or ``x.__class__``."""
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"
    ) or (isinstance(node, ast.Attribute) and node.attr == "__class__")


def fraction_type_tests(sources: dict) -> list:
    """(module, line) of each place outside ``rings.py`` that tells a value's type by
    ``Fraction``: ``isinstance(x, Fraction)`` or ``type(x) is Fraction`` (also with
    ``is not``, ``==``, ``!=`` or ``x.__class__``).  A rational ring value is an int
    when integral and a Fraction otherwise, so such a test splits one ring's values."""
    flagged = []
    for module, src in sources.items():
        if module == "rings.py":
            continue
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                if len(node.args) == 2 and _names_fraction(node.args[1]):
                    flagged.append((module, node.lineno))
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(map(_is_type_of, sides)) and any(map(_names_fraction, sides)):
                    flagged.append((module, node.lineno))
    return sorted(flagged)


def test_scan_finds_a_ring_value_typed_by_fraction():
    a = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "def f(x, y):\n"
        "    if isinstance(x, Fraction): pass\n"
        "    if isinstance(y, (int, fractions.Fraction)): pass\n"
        "    if type(x) is Fraction or type(y) is not Fraction: pass\n"
        "    if x.__class__ == Fraction: pass\n"
        "    return isinstance(x, int), type(x) is int, x < 0, Fraction(x)\n"
    )
    rings = "def f(x): return isinstance(x, Fraction)\n"
    assert fraction_type_tests({"a.py": a, "rings.py": rings}) == [("a.py", 4), ("a.py", 5), ("a.py", 6), ("a.py", 6), ("a.py", 7)]


def test_no_ring_value_typed_by_fraction_outside_rings():
    assert fraction_type_tests({p.name: p.read_text() for p in PACKAGE}) == []


def _builds_a_foreign_tuple(node) -> bool:
    """Whether node calls ``tuple.__new__(c, ...)`` with c other than the name ``cls``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    func, args = node.func, node.args
    own = args and isinstance(args[0], ast.Name) and args[0].id == "cls"
    return func.attr == "__new__" and isinstance(func.value, ast.Name) and func.value.id == "tuple" and not own


def monomials_made_outside_uea(sources: dict) -> list:
    """(module, line) of each place outside ``uea.py`` that names ``_Monomial`` or could
    make a monomial without ``uea.monomial``: ``tuple.__new__`` on a class other than
    its own ``cls``."""
    flagged = []
    for module, src in sources.items():
        if module == "uea.py":
            continue
        for node in ast.walk(ast.parse(src)):
            named = (isinstance(node, ast.Name) and node.id == "_Monomial") or (
                isinstance(node, ast.Attribute) and node.attr == "_Monomial"
            )
            if named or _builds_a_foreign_tuple(node):
                flagged.append((module, node.lineno))
    return sorted(flagged)


def test_scan_finds_a_monomial_made_outside_uea():
    a = (
        "from wittquant import uea\n"
        "from wittquant.uea import monomial\n"
        "m = uea._Monomial(((b, 1),))\n"
        "n = tuple.__new__(type(m), ((b, 2),))\n"
        "class K(tuple):\n"
        "    def __new__(cls, key): return tuple.__new__(cls, key)\n"
        "ok = monomial(((b, 1),)), type(m) is tuple, tuple(m)\n"
    )
    uea = "class _Monomial(tuple): pass\ndef monomial(p): return tuple.__new__(_Monomial, p)\n"
    assert monomials_made_outside_uea({"a.py": a, "uea.py": uea}) == [("a.py", 3), ("a.py", 4)]


def test_only_uea_makes_monomials():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in {*PACKAGE, *MODULES, *USERS}}
    sources["uea.py"] = sources.pop("src/wittquant/uea.py")
    assert monomials_made_outside_uea(sources) == []


def monomial_calls_outside_uea(sources: dict) -> list:
    """(module, line) of each call to ``monomial`` or ``<module>.monomial`` outside ``uea.py``."""
    flagged = []
    for module, src in sources.items():
        if module == "uea.py":
            continue
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "monomial") or (
                    isinstance(func, ast.Attribute) and func.attr == "monomial"
                ):
                    flagged.append((module, node.lineno))
    return sorted(flagged)


def test_scan_finds_a_monomial_call_outside_uea():
    a = (
        "from wittquant import uea\n"
        "from wittquant.uea import monomial\n"
        "m = monomial(((b, 1),))\n"
        "n = uea.monomial(m)\n"
        "f = monomial\n"
        "k = U.mono_mul(m, n), drop_last(m)\n"
    )
    uea = "def monomial(p): return p\nm = monomial(())\n"
    assert monomial_calls_outside_uea({"a.py": a, "uea.py": uea}) == [("a.py", 3), ("a.py", 4)]


def test_only_uea_calls_monomial_in_the_package():
    assert monomial_calls_outside_uea({p.name: p.read_text() for p in PACKAGE}) == []


def named_outside(sources: dict, name: str, home: str) -> list:
    """(module, line) of each place outside the module ``home`` that names ``name``: as a
    plain name, as an attribute or in an import."""
    flagged = []
    for module, src in sources.items():
        if module == home:
            continue
        for node in ast.walk(ast.parse(src)):
            named = (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
            )
            if named:
                flagged.append((module, node.lineno))
    return sorted(flagged)


def test_scan_finds_the_enumeration_limit_outside_verify():
    a = (
        "from wittquant.verify import ENUMERATION_LIMIT\n"
        "from wittquant import verify\n"
        "ok = 3**2 <= ENUMERATION_LIMIT\n"
        "big = verify.ENUMERATION_LIMIT + 1\n"
        "fine = verify.is_enumerable(3, 2), DIMS_ENUMERATION_LIMIT\n"
    )
    verify = "ENUMERATION_LIMIT = 5000\ndef is_enumerable(p, e): return p**e <= ENUMERATION_LIMIT\n"
    assert named_outside({"a.py": a, "verify.py": verify}, "ENUMERATION_LIMIT", "verify.py") == [("a.py", 1), ("a.py", 3), ("a.py", 4)]


def test_only_verify_names_the_enumeration_limit():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in {*PACKAGE, *MODULES, *USERS}}
    sources["verify.py"] = sources.pop("src/wittquant/verify.py")
    assert named_outside(sources, "ENUMERATION_LIMIT", "verify.py") == []


def _private_definitions(tree) -> set:
    """Names a module defines: functions, classes, and assigned names and attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
    return out


def private_reads_across_modules(sources: dict) -> list:
    """(module, line, attribute) of each read of a private attribute that another module
    of sources defines and the reading module does not.  A read on ``self`` or ``cls``
    is the class's own business (an inherited helper), so it is not flagged."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    defined = {module: _private_definitions(tree) for module, tree in trees.items()}
    flagged = []
    for module, tree in trees.items():
        foreign = set().union(*(names for other, names in defined.items() if other != module)) - defined[module]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            name = node.attr
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                continue
            if name in foreign:
                flagged.append((module, node.lineno, name))
    return sorted(flagged)


def test_scan_finds_a_private_read_across_modules():
    a = (
        "class A:\n"
        "    def __init__(self): self._cache = {}\n"
        "    def _helper(self): return self._cache\n"
        "def _free(): pass\n"
    )
    b = (
        "from a import A\n"
        "class B(A):\n"
        "    def m(self, other): return self._helper(), other._helper()\n"
        "def f(x): return x.uea._cache, x._own, x.__class__, x._unknown\n"
        "def g(x): x._own = 1\n"
        "import a\n"
        "h = a._free\n"
    )
    got = private_reads_across_modules({"a": a, "b": b})
    assert got == [("b", 3, "_helper"), ("b", 4, "_cache"), ("b", 7, "_free")]


def test_no_private_reads_across_modules():
    assert private_reads_across_modules({p.name: p.read_text() for p in PACKAGE}) == []


def dict_deletions(sources: dict) -> list:
    """(module, line) of each ``del x[...]`` outside the function ``accumulate`` of ``rings.py``."""
    flagged = []
    for module, src in sources.items():
        tree = ast.parse(src)
        skip = set()
        if module == "rings.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "accumulate":
                    skip |= {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Delete) and id(node) not in skip:
                flagged += [(module, node.lineno) for target in node.targets if isinstance(target, ast.Subscript)]
    return sorted(flagged)


def test_scan_finds_a_dict_deletion_outside_accumulate():
    a = (
        "def f(out, k, obj, name):\n"
        "    del out[k]\n"
        "    del obj.field, name\n"
        "    del out[k], obj[0]\n"
    )
    rings = (
        "def accumulate(radd, out, pairs):\n"
        "    for k, v in pairs:\n"
        "        del out[k]\n"
        "def other(out, k):\n"
        "    del out[k]\n"
    )
    assert dict_deletions({"a.py": a, "rings.py": rings}) == [("a.py", 2), ("a.py", 4), ("a.py", 4), ("rings.py", 5)]


def test_only_accumulate_deletes_a_dict_key():
    assert dict_deletions({p.name: p.read_text() for p in PACKAGE}) == []


def test_scan_finds_the_t_value_class_outside_rings():
    a = (
        "from wittquant.rings import _TValue\n"
        "from wittquant import rings\n"
        "v = rings._TValue((1,))\n"
        "ok = type(v) is _TValue\n"
        "fine = rings.t_quotient(3, 1).one, rings._t_value((1,)), TValue\n"
    )
    ring = "class _TValue(tuple): pass\ndef _t_value(v): return _TValue(v)\n"
    assert named_outside({"a.py": a, "rings.py": ring}, "_TValue", "rings.py") == [("a.py", 1), ("a.py", 3), ("a.py", 4)]


def test_only_rings_names_the_t_value_class():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in {*PACKAGE, *MODULES, *USERS}}
    sources["rings.py"] = sources.pop("src/wittquant/rings.py")
    assert named_outside(sources, "_TValue", "rings.py") == []
    assert named_outside({"rings.py": sources["rings.py"]}, "_TValue", None)  # the name the scan looks for exists


def tuple_new_outside_rings(sources: dict) -> list:
    """(module, line) of each ``tuple.__new__`` outside ``rings.py``, called or not."""
    flagged = []
    for module, src in sources.items():
        if module == "rings.py":
            continue
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Attribute) and node.attr == "__new__":
                if isinstance(node.value, ast.Name) and node.value.id == "tuple":
                    flagged.append((module, node.lineno))
    return sorted(flagged)


def test_scan_finds_tuple_new_outside_rings():
    a = (
        "class K(tuple):\n"
        "    def __new__(cls, key): return tuple.__new__(cls, key)\n"
        "make = tuple.__new__\n"
        "ok = K.of((1,)), tuple((1,)), object.__new__(K), super().__new__(K), tuple\n"
    )
    ring = "class Canonical(tuple):\n    def of(cls, key): return tuple.__new__(cls, key)\n"
    assert tuple_new_outside_rings({"a.py": a, "rings.py": ring}) == [("a.py", 2), ("a.py", 3)]


def test_only_rings_calls_tuple_new():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in {*PACKAGE, *MODULES, *USERS}}
    sources["rings.py"] = sources.pop("src/wittquant/rings.py")
    assert tuple_new_outside_rings(sources) == []
    assert tuple_new_outside_rings({"rings": sources["rings.py"]})  # the call the scan looks for exists


ALGEBRA_CLASSES = {"EnvelopingAlgebra", "WittAlgebra", "WPlusAlgebra", "JacobsonWitt"}


def algebra_calls(src: str) -> list:
    """Line of each call to a Lie or enveloping algebra class, by plain name or as an attribute."""
    flagged = []
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ALGEBRA_CLASSES:
                flagged.append(node.lineno)
    return sorted(flagged)


def test_scan_finds_an_algebra_built_by_hand():
    src = (
        "from wittquant.liealg import WittAlgebra\n"
        "from wittquant import uea\n"
        "W = WittAlgebra(2)\n"
        "U = uea.EnvelopingAlgebra(W, QQ)\n"
        "fine = char0_general(rm, cap=4).uea, WittAlgebra, isinstance(U.alg, JacobsonWitt)\n"
        "J, P = liealg.JacobsonWitt(1, 3), WPlusAlgebra(1)\n"
    )
    assert algebra_calls(src) == [3, 4, 6, 6]


def test_verify_builds_no_algebra_of_its_own():
    package = {p.name: p.read_text() for p in PACKAGE}
    assert algebra_calls(package["verify.py"]) == []
    assert algebra_calls(package["twist.py"])  # the factories the scan sends every context to
