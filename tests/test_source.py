"""Guards on the source tree itself."""
import ast
from pathlib import Path

import groupcut
from test_benchmark_entry_points import WORKLOADS, _gc_lookups

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "groupcut"
TREES = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
# exports that no CLI verb, src module or benchmark lookup reaches
KEPT_EXPORTS = {
    "interval_system": "the paper's six intervals of a level, which the tests read",
    "equality_structure": "the additive vertices and faces; ROADMAP item 1 decides its fate",
}


def _private_definitions(tree):
    """The top-level functions and classes, and the methods of top-level
    classes, whose names start with '_' but are not dunders."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in (node, *members):
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and d.name.startswith("_") and not d.name.endswith("__")):
                yield d


def _unused(definitions) -> list:
    """Each (path, definition) whose name no Name or Attribute in src/ uses
    outside the definition itself, as 'file:line name'."""
    uses = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for path, tree in TREES.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    return [f"{path.name}:{d.lineno} {d.name}" for path, d in definitions
            if not any(name == d.name and not (
                p == path and d.lineno <= line <= d.end_lineno)
                for p, line, name in uses)]


def test_every_private_definition_is_used_in_src():
    unused = _unused((path, d) for path, tree in TREES.items()
                     for d in _private_definitions(tree))
    assert not unused, f"private definitions no code in src/ uses: {unused}"


def test_every_export_is_used_in_src_or_by_the_benchmark():
    # the package exports what the CLI, the benchmark and its own modules
    # call; a checker that only tests call belongs in tests/oracles.py
    exported = set(groupcut.__all__)
    definitions = [(path, d) for path, tree in TREES.items() for d in tree.body
                   if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name in exported]
    assert {d.name for _, d in definitions} == exported
    looked_up = {names[1] for names in _gc_lookups(ast.parse(WORKLOADS.read_text()))}
    unused = {entry.split()[-1] for entry in _unused(definitions)} - looked_up
    assert unused == set(KEPT_EXPORTS), sorted(unused ^ set(KEPT_EXPORTS))


def test_oracles_import_public_names_only():
    # the test-side checkers stay independent of the package's internals:
    # groupcut is reached only through `from groupcut import <exported names>`
    found = [ast.unparse(node) for node in ast.walk(ast.parse((TESTS / "oracles.py").read_text()))
             if isinstance(node, (ast.Import, ast.ImportFrom)) and "groupcut" in ast.unparse(node)
             and not (isinstance(node, ast.ImportFrom) and node.module == "groupcut"
                      and {a.name for a in node.names} <= set(groupcut.__all__))]
    assert not found, found


def _floats(tree):
    """(name, line) of every float() call and float literal in the tree,
    name being the top-level definition it sits in (None at module level)."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                    or isinstance(node, ast.Constant) and isinstance(node.value, float)):
                yield getattr(top, "name", None), node.lineno


def test_floats_appear_only_where_plot_maps_coordinates():
    # exact arithmetic everywhere: plot turns exact values into drawing
    # coordinates at the very end, and nothing else makes a float
    allowed = {("cli.py", "_svg"), ("cli.py", "cmd_plot")}
    found = {(path.name, name, line) for path, tree in TREES.items()
             for name, line in _floats(tree)}
    assert {(p, name) for p, name, _ in found} == allowed, sorted(found)


def _may_write(call) -> bool:
    """Whether a call can open a file for writing: write_text, write_bytes,
    os.open, and an open whose mode holds w, a, x or + or is no literal."""
    func, callee = call.func, ast.unparse(call.func)
    if callee == "os.open" or callee.endswith((".write_text", ".write_bytes")):
        return True
    if callee in ("open", "io.open"):
        mode = call.args[1:2]           # open(file, mode)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode = call.args[:1]            # Path(...).open(mode)
    else:
        return False
    mode = [k.value for k in call.keywords if k.arg == "mode"] or mode
    return bool(mode) and not (isinstance(mode[0], ast.Constant)
                               and set(str(mode[0].value)).isdisjoint("wax+"))


def test_every_file_is_written_by_one_writer():
    # `_write` writes every --out in place and in one way; `_discard_stdout`
    # opens the null device to put under standard output, and writes no file
    allowed = {("cli.py", "_write"), ("cli.py", "_discard_stdout")}
    found = {(path.name, getattr(top, "name", None), node.lineno)
             for path, tree in TREES.items() for top in tree.body
             for node in ast.walk(top) if isinstance(node, ast.Call) and _may_write(node)}
    assert {(p, name) for p, name, _ in found} == allowed, sorted(found)


def _foreign_attribute_writes(tree):
    """(line, target) of every assignment or deletion of an attribute, and
    every setattr/delattr call, whose object is not the name `self`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            obj = node.value
        elif (isinstance(node, ast.Call) and node.args
              and (isinstance(node.func, ast.Name) and node.func.id in ("setattr", "delattr")
                   or isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("__setattr__", "__delattr__"))):
            obj = node.args[0]
        else:
            continue
        if not (isinstance(obj, ast.Name) and obj.id == "self"):
            yield node.lineno, ast.unparse(node)


def test_no_code_sets_an_attribute_on_another_object():
    # an object's state is set by its own methods: a path flag written on a
    # shared object would steer every later reader of that object
    found = [f"{path.name}:{line} {text}" for path, tree in TREES.items()
             for line, text in _foreign_attribute_writes(tree)]
    assert not found, found


def test_no_module_imports_argparse():
    # the CLI reads argv against its one verb table; a second parser would
    # let the accepted spellings and the usage text drift apart
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
             for path in sorted(SRC.parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Import)
             and any(a.name.partition(".")[0] == "argparse" for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").partition(".")[0] == "argparse"]
    assert not found, found


def test_choice_flag_rule_is_written_once():
    # which flags a choice reads is named in the verb table and enforced by
    # one rule in _parse; merge's --b2 depends on the inner file's content,
    # so its two lines are the one check a handler keeps
    tree = TREES[SRC / "cli.py"]
    found = sorted((getattr(top, "name", None), literal)
                   for top in tree.body for node in ast.walk(top)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   for literal in ("applies only to", " requires ")
                   if literal in node.value)
    assert found == [("_parse", " requires "), ("_parse", "applies only to"),
                     ("cmd_merge", " requires "), ("cmd_merge", "applies only to")]
