"""Static checks on src/corrconc: no module-level import goes unused, no
private module-level constant is left that its module never reads, no
module reads the environment, no private module-level function or class
is left that nothing calls, no field of a private named tuple is left
that nothing reads, and cli.py reads or overrides only the private
argparse names listed here."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "corrconc"
MODULES = sorted(PACKAGE.glob("*.py"))

# Imports kept for a reader outside the package: bench/tracer.py wraps
# exactdist.log_gamma to count calls.
UNUSED_IMPORTS_ALLOWED = {("exactdist", "log_gamma")}

# The private argparse names cli.py reads or overrides, for its direct parse
# and its "--" check.  A Python release may change any of them without
# notice, so each one is a risk of an upgrade, and a new one is listed here.
ARGPARSE_PRIVATE_NAMES = {
    "_AppendAction", "_StoreAction", "_actions", "_get_values", "_group_actions",
    "_has_negative_number_optionals", "_mutually_exclusive_groups", "_negative_number_matcher",
}


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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_cli_private_argparse_names_are_listed():
    # A private attribute that cli.py reads and never sets itself, or a
    # private method that one of its classes defines (an argparse override).
    tree = _tree(PACKAGE / "cli.py")
    attributes = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)]
    own = {node.attr for node in attributes if isinstance(node.ctx, ast.Store)}
    names = {node.attr for node in attributes if isinstance(node.ctx, ast.Load)} - own
    names |= {stmt.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for stmt in cls.body
              if isinstance(stmt, ast.FunctionDef) and _private(stmt.name)}
    assert names == ARGPARSE_PRIVATE_NAMES


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
