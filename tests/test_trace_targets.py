"""Every function the benchmark traces by name still resolves.

perfbench/layertrace.py wraps the functions it names in TARGETS and
raises LookupError when one is gone, which only a traced benchmark run
would show.  This resolves every target the same way, read only: no
wrapper is installed.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("layertrace_targets", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = load_targets()
    assert targets
    for prefix, module_name, path in targets:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        # a method must be defined on its class itself, as the tracer wraps it there
        found = owner.__dict__.get(attr) if owners else getattr(owner, attr, None)
        assert callable(found), f"{prefix}: {module_name}.{path} does not resolve"
