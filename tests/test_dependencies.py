"""The library runs on the standard library alone; test tools stay in the tests.

Its records are named tuples and its other value classes plain classes with
``__slots__``, so it imports neither ``dataclasses`` nor ``typing``.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "lra").glob("*.py"))


def imported_modules(tree):
    """Top-level names of the modules a parsed file imports; relative imports are ``lra``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "lra" if node.level else node.module.partition(".")[0]


def test_the_check_sees_third_party_imports():
    tree = ast.parse("import os.path\nfrom . import poly\nfrom sympy import groebner\nimport hypothesis")
    assert list(imported_modules(tree)) == ["os", "lra", "sympy", "hypothesis"]


UNUSED = {"dataclasses", "typing"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_only_the_standard_library(path):
    names = set(imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
    assert names <= (set(sys.stdlib_module_names) - UNUSED) | {"lra"}


def loaded_modules(module):
    """The modules a fresh interpreter holds after importing ``module`` from
    this tree; ``-S`` keeps the site hook's imports out."""
    src = str(SOURCES[0].parent.parent)
    probe = "import sys; sys.path.insert(0, %r); import %s; print(*sys.modules)" % (src, module)
    run = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_the_command_line_loads_no_declaration_helpers():
    """``inspect`` comes in with ``dataclasses``."""
    loaded = loaded_modules("lra.cli")
    assert "lra.cli" in loaded
    assert not {"dataclasses", "inspect", "typing"} & loaded


def test_the_package_loads_no_layer():
    """``lra`` binds no name but ``__version__``: each name is imported from its module."""
    loaded = loaded_modules("lra")
    assert "lra" in loaded
    assert not {name for name in loaded if name.startswith("lra.")}


def relative_imports(tree):
    """The modules of ``lra`` that a parsed file imports by relative import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module
            else:
                yield from (alias.name for alias in node.names)


def test_the_check_sees_relative_imports():
    tree = ast.parse("from . import documents as docs\nfrom .budget import budget\nimport os")
    assert list(relative_imports(tree)) == ["documents", "budget"]


def test_groupoid_layer_loads_no_polynomial_module():
    """The groupoid layer imports only the step budget and the verdict reports."""
    path = SOURCES[0].parent / "groupoid.py"
    assert set(relative_imports(ast.parse(path.read_text(encoding="utf-8")))) == {"budget", "verdict"}


def definitions(tree):
    """Each top-level function or class of a parsed file as ``(name, False)``
    and each method of a top-level class, dunders left out, as ``(name, True)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, True) for item in node.body if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def references(tree):
    """Every name a parsed file reads, with whether it reads it as an
    attribute; an import is not a reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True


def unreached(trees):
    """The defined names that no parsed file reads.  A method is read only as
    an attribute, so a local variable of the same name does not hide it; a
    top-level function or class is read either way."""
    read = {ref for tree in trees for ref in references(tree)}
    return {name for tree in trees for name, method in definitions(tree)
            if (name, True) not in read and (method or (name, False) not in read)}


def test_the_check_sees_definitions_and_references():
    tree = ast.parse("from .x import f\nclass C:\n    def m(self): g.h\n    def n(self): n = m\n"
                     "    def __eq__(self, o): k(o)\ndef d(): C().m()")
    assert list(definitions(tree)) == [("C", False), ("m", True), ("n", True), ("d", False)]
    assert set(references(tree)) == {
        ("g", False), ("h", True), ("n", False), ("m", False), ("k", False), ("o", False), ("C", False), ("m", True)
    }
    assert unreached([tree]) == {"n", "d"}


# Python API that no command and no library function reaches yet: each name
# here is placed by a command or moved to the tests before it leaves the list.
UNREACHED = {
    "action_as_comorphism", "compose_grpd_comorphisms", "compose_grpd_morphisms", "default_step_cap",
    "direct_sum", "find_isomorphism", "free", "induced_groupoid_action", "induced_infinitesimal_action",
    "iter_candidate_maps", "make_action", "make_cotangent_poisson", "make_der", "make_klie",
    "psisum_anchor", "save_document", "triple_inclusion_check",
}


def test_every_library_name_is_reached_or_listed():
    """A function, class or method that no ``lra`` module references is on
    the committed list of unreached names, and every listed name is unreached."""
    assert unreached([ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]) == UNREACHED
