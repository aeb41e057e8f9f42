import ast
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_bench_installs_its_hooks():
    # the traced bench wraps library functions by name: a deleted one stops it
    # with a KeyError.  run.py's MODULES are read without running run.py
    tree = ast.parse((BENCH / "run.py").read_text())
    names = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "MODULES"
    )
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install(tracer, [importlib.import_module(f"musym.{name}") for name in names])
    finally:
        tracer.uninstall()
