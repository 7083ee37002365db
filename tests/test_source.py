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
