"""Guards on the source tree itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "groupcut"


def _private_definitions(tree):
    """The top-level functions and classes, and the methods of top-level
    classes, whose names start with '_' but are not dunders."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in (node, *members):
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and d.name.startswith("_") and not d.name.endswith("__")):
                yield d


def test_every_private_definition_is_used_in_src():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = [(path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = [f"{path.name}:{d.lineno} {d.name}"
              for path, tree in trees.items() for d in _private_definitions(tree)
              if not any(name == d.name and not (
                  p == path and d.lineno <= line <= d.end_lineno)
                  for p, line, name in uses)]
    assert not unused, f"private definitions no code in src/ uses: {unused}"


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
    found = {(path.name, name, line) for path in sorted(SRC.glob("*.py"))
             for name, line in _floats(ast.parse(path.read_text(), str(path)))}
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
    found = [f"{path.name}:{line} {text}" for path in sorted(SRC.glob("*.py"))
             for line, text in _foreign_attribute_writes(ast.parse(path.read_text()))]
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
    tree = ast.parse((SRC / "cli.py").read_text())
    found = sorted((getattr(top, "name", None), literal)
                   for top in tree.body for node in ast.walk(top)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   for literal in ("applies only to", " requires ")
                   if literal in node.value)
    assert found == [("_parse", " requires "), ("_parse", "applies only to"),
                     ("cmd_merge", " requires "), ("cmd_merge", "applies only to")]
