"""The benchmark's span tracer still finds every function it wraps."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    # a rename in src/ would otherwise only show as "[absent]" layers in a
    # benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        tracer = module.Tracer()
        tracer.install()
        try:
            assert tracer.absent == set()
            assert tracer.present
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[spec.name]
