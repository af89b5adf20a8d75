"""Every name the perfbench tracer wraps still exists where it looks.

perfbench/tracing.py lists the functions and class members it wraps in
SPANS and COUNTED, and rebinds each by name at run time; a rename in
trilnd would break only a traced benchmark run. This reads the two
lists from the file as it is and resolves each entry the way its
_rebind does: a module attribute, or for "Class.member" an entry of the
class __dict__.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _name in (*tracing.SPANS, *tracing.COUNTED)]


@pytest.mark.parametrize("module_name, attr", traced_names(), ids=lambda value: value)
def test_a_traced_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, member = attr.split(".")
        assert member in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
