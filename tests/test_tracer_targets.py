"""Every function the benchmark's traced run wraps still exists in the package.

``perfbench/tracer.py`` lists ``(module, attribute)`` targets and replaces
each with a span recorder before running the commands; a target renamed or
deleted in ``src/`` would crash that run.  The list is read from the
tracer's source, so this test neither imports nor writes anything under
``perfbench/``.
"""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {TRACER}")


@pytest.mark.parametrize("module, attr", _targets())
def test_target_resolves(module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        # the tracer wraps the entry in the class's own namespace
        cls_name, meth = attr.split(".")
        raw = vars(getattr(mod, cls_name))[meth]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
    else:
        fn = getattr(mod, attr)
    assert callable(fn)
