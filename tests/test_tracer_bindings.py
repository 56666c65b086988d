"""The benchmark's tracer wraps library functions by module and name, and
a binding that no longer resolves only makes its layer's metrics read
zero.  Every binding must resolve here, so a rename or deletion shows up
as a failing test instead."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# the greedy pricer is gone; ROADMAP item 1 drops its binding and metrics
KNOWN_ABSENT = {"colgen.price_greedy"}


def tracer_bindings():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


def test_every_tracer_binding_resolves():
    unresolved = set()
    for mod_name, attr, _, _ in tracer_bindings():
        owner = importlib.import_module(f"boolrules.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.add(f"{mod_name}.{attr}")
    assert unresolved <= KNOWN_ABSENT
