import ast
from pathlib import Path

import prphase

SRC = Path(prphase.__file__).resolve().parent

#: Public names that nothing in the package calls.  ``solve_spd`` is the
#: entry point for one solve; ``run`` solves every step in one reduced system
#: it builds for its march, through the same core.
UNUSED_BY_DESIGN = {"__version__", "solve_spd"}


def parsed_modules():
    """(path, AST) of every module of the package."""
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]


def used_names():
    """Names read anywhere in the package outside ``__init__.py``, bare or
    as an attribute of one of its modules (``diagnostics.admissible_interval``).
    Definitions, imports and attributes of other objects are not reads."""
    trees = [(path, tree) for path, tree in parsed_modules() if path.name != "__init__.py"]
    modules = {path.stem for path, _ in trees}
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                names.add(node.attr)
    return names


def public_definitions():
    """(module, name) of every public module-level function and class."""
    return [(path.stem, node.name) for path, tree in parsed_modules() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def test_every_public_name_is_used_in_the_package():
    assert UNUSED_BY_DESIGN <= set(prphase.__all__)
    unused = set(prphase.__all__) - UNUSED_BY_DESIGN - used_names()
    assert not unused, f"public names that nothing in src/prphase uses: {sorted(unused)}"


def test_every_public_definition_is_used_in_the_package():
    used = used_names()
    unused = [f"{module}.{name}" for module, name in public_definitions()
              if name not in used | UNUSED_BY_DESIGN]
    assert not unused, f"public functions and classes that nothing in src/prphase reads: {unused}"
