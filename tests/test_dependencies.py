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


def test_the_command_line_loads_no_declaration_helpers():
    """``inspect`` comes in with ``dataclasses``; ``-S`` keeps the site hook's imports out."""
    src = str(SOURCES[0].parent.parent)
    probe = "import sys; sys.path.insert(0, %r); import lra.cli; print(*sys.modules)" % src
    run = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert "lra.cli" in loaded
    assert not {"dataclasses", "inspect", "typing"} & loaded


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
    """Each top-level function or class of a parsed file and each method of a
    top-level class, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def references(tree):
    """Every name a parsed file reads, as a variable or as an attribute;
    an import is not a reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_the_check_sees_definitions_and_references():
    tree = ast.parse("from .x import f\nclass C:\n    def m(self): g.h\n    def __eq__(self, o): k(o)\ndef d(): pass")
    assert (list(definitions(tree)), set(references(tree))) == (["C", "m", "d"], {"g", "h", "k", "o"})


# Python API that no command and no library function reaches yet: each name
# here is placed by a command or moved to the tests before it leaves the list.
UNREACHED = {
    "action_as_comorphism", "algebra_document", "algmorphism_document", "compose_grpd_comorphisms",
    "compose_grpd_morphisms", "default_step_cap", "derivation_document", "direct_sum", "element_document",
    "find_isomorphism", "free", "grpdmap_document", "induced_groupoid_action", "induced_infinitesimal_action",
    "iter_candidate_maps", "leading", "make_action", "make_cotangent_poisson", "make_der", "make_klie",
    "orbit_condition", "palg_document", "psisum_anchor", "save_document", "triple_inclusion_check", "zero_element",
}


def test_every_library_name_is_reached_or_listed():
    """A function, class or method that no ``lra`` module references is on
    the committed list of unreached names, and every listed name is unreached."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    defined = {name for tree in trees for name in definitions(tree)}
    referenced = {name for tree in trees for name in references(tree)}
    assert defined - referenced == UNREACHED
