import ast
from pathlib import Path

import prphase

SRC = Path(prphase.__file__).resolve().parent

#: Public names that nothing in the package calls.
UNUSED_BY_DESIGN = {"__version__"}


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


def read_names():
    """Names read anywhere in the package outside ``__init__.py``, bare or
    as an attribute of any object (``self.reduce``, ``cfg.resolved_max_iter``)."""
    names = set()
    for path, tree in parsed_modules():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def private_functions_and_methods():
    """(qualified name, name) of every private module-level function and of
    every method of a module-level class, dunders left out."""
    found = []
    for path, tree in parsed_modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                found.append((f"{path.stem}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                found += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                          for item in node.body if isinstance(item, ast.FunctionDef)]
    return [(qualified, name) for qualified, name in found
            if not (name.startswith("__") and name.endswith("__"))]


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
              if name not in used]
    assert not unused, f"public functions and classes that nothing in src/prphase reads: {unused}"


def test_every_private_function_and_method_is_read_in_the_package():
    # code that only tests read is dead code for the package
    read = read_names()
    unread = [qualified for qualified, name in private_functions_and_methods() if name not in read]
    assert not unread, f"private functions and methods that nothing in src/prphase reads: {unread}"


def test_every_import_is_read_in_its_module():
    # __init__.py imports to re-export, and __future__ imports switch features
    unread = []
    for path, tree in parsed_modules():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.stem}: {name}")
    assert not unread, f"imports that nothing in their module reads: {unread}"
