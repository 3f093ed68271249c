"""The benchmark's per-layer tracer still binds every function it times.

``perfbench/tracing.py`` wraps the functions named in its ``TARGETS`` and
rebinds every module attribute that refers to one; a target that no module
binds makes ``install`` raise.  A workload's ``main_layer`` names must be
traced span names, or its traced runs record no calls for them.
"""

import contextlib
import io
import json
import sys

import sfspectrum.cli  # noqa: F401  (loads every layer module)
from sfspectrum.ensembles import random_binary_system
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
    """One call per workload records a call of every main layer of it: a
    decide_linear call on a full-rank system (linear-scale), an analyze call
    and a fixed-modes call of a system with a fixed mode (analyze,
    fixed-modes), and a decide_graphical call of a binary system with a cycle
    cover whose colors repeat, so classes are enumerated (graph).  The routes
    still call through the traced names."""
    demo = PERFBENCH.parent / "demos" / "systems" / "chain_fixed_mode.json"
    binary = random_binary_system(seed=12)  # n 4, k 2, not unitary
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the traced bindings, as the workloads import them
        from sfspectrum import decide_graphical, decide_linear

        tracer.run_op(0, decide_linear, two_channel_shared_params())
        with contextlib.redirect_stdout(io.StringIO()):
            analyzed = tracer.run_op(1, sfspectrum.cli.main,
                                     ["analyze", str(demo), "--format", "json"])
        graphical = tracer.run_op(2, decide_graphical, binary, None, workloads.GRAPH_BUDGET)
        fixed_out = io.StringIO()
        with contextlib.redirect_stdout(fixed_out):
            fixed = tracer.run_op(3, sfspectrum.cli.main,
                                  ["fixed-modes", str(demo), "--set", "p1=1", "--format", "json"])
    finally:
        tracer.uninstall()
    assert analyzed == 0 and fixed == 0
    assert graphical.diagnostics["method"] == "enumeration"
    assert json.loads(fixed_out.getvalue())["pencil_route"]  # a fixed mode at p1 = 1
    by_op = tracer.calls_by_op()
    for op, name in ((0, "linear-scale"), (1, "analyze"), (2, "graph"), (3, "fixed-modes")):
        missing = [layer for layer in workloads.WORKLOADS[name].main_layer if not by_op[op][layer]]
        assert missing == [], name
