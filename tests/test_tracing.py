"""The benchmark's per-layer tracer still binds every function it times.

``perfbench/tracing.py`` wraps the functions named in its ``TARGETS`` and
rebinds every module attribute that refers to one; a target that no module
binds makes ``install`` raise.  A workload's ``main_layer`` names must be
traced span names, or its traced runs record no calls for them.
"""

import sys

import sfspectrum.cli  # noqa: F401  (loads every layer module)
from conftest import perfbench_module

tracing = perfbench_module("tracing")
workloads = perfbench_module("workloads")


def bindings() -> dict:
    """Every attribute of every sfspectrum module and of every traced class."""
    owners = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "sfspectrum"]
    for layer, funcs in tracing.TARGETS.items():
        for func in funcs:
            if "." in func:
                owners.append(getattr(sys.modules[f"sfspectrum.{layer}"], func.split(".")[0]))
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_install_binds_every_target_and_uninstall_restores_the_originals():
    spans = {
        tracing.span_name(layer, func)
        for layer, funcs in tracing.TARGETS.items()
        for func in funcs
    }
    for workload in workloads.WORKLOADS.values():
        assert set(workload.main_layer) <= spans, workload.name
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for layer, funcs in tracing.TARGETS.items():
            home = sys.modules[f"sfspectrum.{layer}"]
            for func in funcs:
                owner, _, attr = func.rpartition(".")
                target = getattr(home, owner) if owner else home
                assert hasattr(vars(target)[attr], "__wrapped__"), f"{layer}.{func}"
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
