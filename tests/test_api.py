import ast
from pathlib import Path

import prphase

SRC = Path(prphase.__file__).resolve().parent

#: Public names that nothing in the package calls.  The eos and ef formulas
#: are independent references for the paper's per-term expressions, against
#: which the tests check the fused pointwise kernel.
UNUSED_BY_DESIGN = {
    "bulk_free_energy", "bulk_chemical_potential", "pressure", "FreeEnergyBreakdown",
    "g_and_gprime", "mu_attraction", "semi_implicit_potentials", "__version__",
}


def used_names():
    """Names read anywhere in the package outside ``__init__.py``, bare or
    as an attribute of one of its modules (``diagnostics.admissible_interval``).
    Definitions, imports and attributes of other objects are not reads."""
    paths = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    modules = {path.stem for path in paths}
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_in_the_package():
    assert UNUSED_BY_DESIGN <= set(prphase.__all__)
    unused = set(prphase.__all__) - UNUSED_BY_DESIGN - used_names()
    assert not unused, f"public names that nothing in src/prphase uses: {sorted(unused)}"
