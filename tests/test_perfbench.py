"""The benchmark's traced mode can wrap every span it lists."""

import importlib
import importlib.util
from pathlib import Path

import modwron  # noqa: F401  (loads every modwron.* module)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_name_resolves_in_the_package():
    """Tracer.install looks each (module, attr) up with vars(owner)[attr],
    so a wrapped name that leaves the package breaks `--trace 1` with a
    KeyError."""
    spans = _load_spans()
    for module, attr, _ in spans.WRAPPED:
        owner = importlib.import_module("modwron." + module)
        if attr.startswith("QSeries."):
            owner, attr = owner.QSeries, attr.split(".", 1)[1]
        assert callable(vars(owner).get(attr)), (module, attr)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer._undo
    finally:
        tracer.uninstall()
