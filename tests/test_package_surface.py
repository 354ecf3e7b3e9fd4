"""Every public module-level function of ``diskarea`` is used by the program.

A function that only the tests call is an oracle and belongs in
``tests/oracles.py``.  The program is every module of the package except
``__init__``, whose re-exports do not count as uses.  A use is a name, an
attribute, or a string equal to the function's name (``area.REGISTRY`` names
its estimators that way); a function's uses of itself do not count.
"""

import ast
import pathlib

import diskarea

PACKAGE = pathlib.Path(diskarea.__file__).parent

# Public functions the program does not call, each with the reason it stays.
UNUSED_BY_DESIGN = {
    "circle_maps.to_json": "BoundaryMap wire format, documented in the README",
    "circle_maps.from_json": "BoundaryMap wire format, documented in the README",
    "proof_checks.random_profile": "called by the proof-bounds benchmark warm-up",
    "proof_checks.reflect_profile": "called by the proof-bounds benchmark warm-up",
    "proof_checks.profile_gap_integral": "called by the proof-bounds benchmark warm-up",
    "proof_checks.check_reduction_chain": "called by the proof-bounds benchmark warm-up",
}


class _Uses(ast.NodeVisitor):
    """Names used in a module, outside the module-level function they name."""

    def __init__(self):
        self.names = set()
        self._inside = None

    def visit_FunctionDef(self, node):
        if self._inside is None:
            self._inside = node.name
            self.generic_visit(node)
            self._inside = None
        else:
            self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _use(self, name):
        if name != self._inside:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._use(node.value)


def _program():
    """(public module-level functions as "module.name", names the program uses)."""
    public, uses = set(), _Uses()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                public.add(f"{path.stem}.{node.name}")
        uses.visit(tree)
    return public, uses.names


def test_every_public_function_is_used_by_the_program():
    public, used = _program()
    unused = {name for name in public if name.split(".", 1)[1] not in used}
    assert unused == set(UNUSED_BY_DESIGN)
