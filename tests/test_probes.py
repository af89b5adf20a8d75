"""The names perfbench instruments must exist in trilnd.

perfbench/tracing.py rebinds (module, attribute) pairs listed in its SPANS
and COUNTED tables; a renamed or removed function there would only show
up as a crash of ``perfbench/run.py --trace 1``. The tables are read as
literals, without importing or running the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def probe_tables():
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, member = attr.split(".")
        cls = getattr(module, cls_name, None)
        return cls is not None and member in cls.__dict__
    return hasattr(module, attr)


def test_trace_probes_resolve():
    tables = probe_tables()
    assert tables.keys() == {"SPANS", "COUNTED"}
    assert tables["SPANS"] and tables["COUNTED"]
    missing = [
        (module_name, attr)
        for table in tables.values()
        for module_name, attr, _ in table
        if not resolves(module_name, attr)
    ]
    assert missing == []
