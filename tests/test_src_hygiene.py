"""Static checks on src/corrconc: no module-level import goes unused, no
private module-level constant is left that its module never reads, no
module reads the environment, no private module-level function or class
is left that nothing calls, and no field of a private named tuple is left
that nothing reads."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "corrconc"
MODULES = sorted(PACKAGE.glob("*.py"))

# Imports kept for a reader outside the package: bench/tracer.py wraps
# exactdist.log_gamma to count calls.
UNUSED_IMPORTS_ALLOWED = {("exactdist", "log_gamma")}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(node):
    # Every name a node reads, as a bare name or as an attribute.
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_module_level_import_is_used(path):
    tree = _tree(path)
    used = set(_references(tree))
    imported = [
        (alias.asname or alias.name).partition(".")[0]
        for stmt in tree.body
        if isinstance(stmt, ast.Import)
        or isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
        for alias in stmt.names
    ]
    unused = [name for name in imported
              if name not in used and (path.stem, name) not in UNUSED_IMPORTS_ALLOWED]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_constant_is_read(path):
    tree = _tree(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    targets = [target for stmt in tree.body if isinstance(stmt, ast.Assign)
               for target in stmt.targets]
    targets += [stmt.target for stmt in tree.body if isinstance(stmt, ast.AnnAssign)]
    constants = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)
                 and node.id.startswith("_") and not node.id.endswith("__")]
    assert [name for name in constants if name not in read] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_reads_the_environment(path):
    # A run's output depends on its arguments alone: os.environ,
    # os.environb and os.getenv are read neither as attributes nor as names.
    assert set(_references(_tree(path))) & {"environ", "environb", "getenv"} == set()


def test_every_private_function_and_class_is_referenced():
    # A definition's own body does not count as a reference to it.
    statements = [stmt for path in MODULES for stmt in _tree(path).body]
    private = [
        stmt for stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.endswith("__")
    ]
    orphans = [
        definition.name for definition in private
        if not any(definition.name in _references(stmt)
                   for stmt in statements if stmt is not definition)
    ]
    assert orphans == []


def _private_tuple_fields(tree):
    # (tuple, field) for each private namedtuple("_Name", fields) call and
    # each private class whose base is NamedTuple.
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "namedtuple" and node.args[0].value.startswith("_")):
            fields = node.args[1]
            if isinstance(fields, ast.Constant):
                names = fields.value.replace(",", " ").split()
            else:
                names = [element.value for element in fields.elts]
            yield from ((node.args[0].value, name) for name in names)
        elif (isinstance(node, ast.ClassDef) and node.name.startswith("_")
              and any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases)):
            yield from ((node.name, stmt.target.id) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign))


def test_every_private_named_tuple_field_is_read():
    # A field counts as read where src/ loads an attribute of that name.
    trees = [_tree(path) for path in MODULES]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [field for tree in trees for field in _private_tuple_fields(tree)]
    assert fields
    assert [field for field in fields if field[1] not in read] == []
