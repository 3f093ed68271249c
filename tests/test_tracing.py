"""The benchmark's per-layer tracer still binds every function it times.

``perfbench/tracing.py`` wraps the functions named in its ``TARGETS`` and
rebinds every module attribute that refers to one; a target that no module
binds makes ``install`` raise.  A workload's ``main_layer`` names must be
traced span names, or its traced runs record no calls for them.
"""

import contextlib
import io
import sys

import sfspectrum.cli  # noqa: F401  (loads every layer module)
from conftest import PERFBENCH, perfbench_module, two_channel_shared_params

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


def test_main_layers_record_calls():
    """One decide_linear call on a full-rank system and one analyze call of a
    system with a fixed mode record a call of every main layer of
    linear-scale and analyze: the routes still call through the traced names."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from sfspectrum import decide_linear  # the traced binding, as the workload imports it

        tracer.run_op(0, decide_linear, two_channel_shared_params())
        demo = PERFBENCH.parent / "demos" / "systems" / "chain_fixed_mode.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.run_op(1, sfspectrum.cli.main, ["analyze", str(demo), "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0
    by_op = tracer.calls_by_op()
    for op, name in ((0, "linear-scale"), (1, "analyze")):
        missing = [layer for layer in workloads.WORKLOADS[name].main_layer if not by_op[op][layer]]
        assert missing == [], name
