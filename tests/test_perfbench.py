"""The benchmark's entry points resolve in the package: every span its
traced mode wraps, and every name its workloads call."""

import ast
import importlib
import importlib.util
from pathlib import Path

import modwron  # noqa: F401  (loads every modwron.* module)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"
# the modwron modules that workloads.py binds to names of its own
WORKLOAD_MODULES = ("cli", "etaprod", "partitions", "ssing", "symmpow",
                    "wronskian")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _load_spans():
    return _load("perfbench_spans", SPANS)


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


def test_every_name_the_workloads_read_resolves_in_the_package():
    """A workload that calls a name the package no longer has fails only
    when the benchmark runs; this reads every <module>.<attr> off the
    workloads' source instead."""
    tree = ast.parse(WORKLOADS.read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in WORKLOAD_MODULES}
    assert {module for module, _ in used} == set(WORKLOAD_MODULES)
    for module, attr in sorted(used):
        owner = importlib.import_module("modwron." + module)
        assert hasattr(owner, attr), (module, attr)


def test_every_workload_builds_its_checks():
    workloads = _load("perfbench_workloads", WORKLOADS)
    for name in workloads.WORKLOADS:
        checks = workloads.checks(name)
        assert checks and all(callable(run) for _, run in checks), name


# the cheapest check of each workload, by its check id
CHEAPEST = {
    "symquot_weber": "sym_weber_m1",
    "etapower_ch": "eta_power_ch_m1",
    "identities": "r12_roots",
    "ssing_primes": "ssing_p5",
    "identities_ssing": "verify_chprod",
}


def test_the_cheapest_check_of_every_workload_passes():
    """A report field a workload reads (rep.routes_agree, rep.oracle_match,
    cong.ok, rep.polynomial) that leaves the package fails only when the
    benchmark runs; this runs one check of each workload and asserts that
    it passes."""
    workloads = _load("perfbench_workloads", WORKLOADS)
    assert set(CHEAPEST) == set(workloads.WORKLOADS)
    for name, check in CHEAPEST.items():
        ok, detail = dict(workloads.checks(name))[check]()
        assert ok, (name, check, detail)
