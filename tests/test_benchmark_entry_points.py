import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _gc_lookups(tree):
    """Every attribute chain gc.<module>.<name>[.<attr>...] in the tree, as
    the tuple of names after `gc`; `gc` may itself be an attribute, as in
    inp.gc or self.gc."""
    found = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            continue
        names = [node.id, *reversed(names)]
        if "gc" in names[:-2]:
            found.add(tuple(names[names.index("gc") + 1:]))
    return found


def test_every_benchmark_lookup_resolves_on_the_package():
    # the benchmark reaches groupcut through gc.<module>.<name>; a name
    # deleted from the library must not leave a workload failing at run time
    lookups = _gc_lookups(ast.parse(WORKLOADS.read_text()))
    assert {("cli", "main"), ("constructions", "pi_k")} <= lookups
    for module, *attrs in sorted(lookups):
        obj = importlib.import_module(f"groupcut.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), (module, *attrs)
            obj = getattr(obj, attr)
