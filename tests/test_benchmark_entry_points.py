import ast
import importlib
import subprocess
import sys
from pathlib import Path

from groupcut.pwl import PeriodicPWL
from groupcut.seqmerge import MergedFn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


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


def test_every_traced_method_is_defined_on_its_class():
    # the tracer patches cls.__dict__[m] for each m of PWL_METHODS and
    # MERGED_METHODS; a method deleted from the library must not leave a
    # traced run failing with a KeyError
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    owners = {"PWL_METHODS": PeriodicPWL, "MERGED_METHODS": MergedFn}
    tuples = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id in owners}
    for name, cls in owners.items():
        assert tuples[name], name
        for method in tuples[name]:
            assert method in cls.__dict__, (cls.__name__, method)


def test_benchmark_smoke_round_checks_every_output():
    # one round of each workload, every output checked against the
    # benchmark's independent reference: a change that breaks a workload's
    # output fails here, not only in the benchmark
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
