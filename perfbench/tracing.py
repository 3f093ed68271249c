"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of the ``sfspectrum`` layers and
rebinds every module attribute that refers to an original, so a call through
an imported name (``structural`` binds ``split`` and ``rank_exact``, ``cli``
binds the ``decide_*`` functions) is traced as well.  Each call records a span
``[name, start, end, parent span, operation id]`` on the process CPU clock;
spans stay in memory until the run writes them out.  A span's self time is
its duration minus the durations of its direct children (calls nest
strictly: one thread).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer -> public functions timed on that layer ("Class.method" for methods)
TARGETS = {
    "cli": ("main", "parse_system", "report_json"),
    "system": ("detect_linear_parameterization", "split"),
    "polymatrix": ("ParamMatrix.evaluate_at", "rank_exact"),
    "structural": (
        "decide_polynomial",
        "pencil_drop_at_point",
        "char_poly_exact",
        "poly_gcd",
        "decide_linear",
        "closed_loop_generic_rank",
        "markov_identity",
        "generic_dims",
    ),
    "graph": (
        "decide_graphical",
        "build_graph",
        "enumerate_cycle_subgraphs",
        "similarity_classes",
        "strongly_connected_components",
    ),
    "fixedmodes": ("fixed_spectrum", "pencil_rank_deficient", "random_feedback_oracle"),
}

OP_SPAN = "bench.op"


def span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.split('.')[-1]}"


def _evaluate_at_stat(counts, args, kwargs, result):
    modulus = args[2] if len(args) > 2 else kwargs.get("modulus")
    key = "polymatrix.evaluate_at.rational.calls" if modulus is None else "polymatrix.evaluate_at.mod_p.calls"
    counts[key] += 1


def _rank_exact_stat(counts, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    rows = len(matrix)
    counts["polymatrix.rank_exact.cells"] += rows * (len(matrix[0]) if rows else 0)


def _pencil_drop_stat(counts, args, kwargs, result):
    if not result:
        counts["structural.pencil_drop_at_point.certified"] += 1


def _subgraphs_stat(counts, args, kwargs, result):
    counts["graph.enumerate_cycle_subgraphs.subgraphs"] += len(result)


STATS = {
    "polymatrix.evaluate_at": _evaluate_at_stat,
    "polymatrix.rank_exact": _rank_exact_stat,
    "structural.pencil_drop_at_point": _pencil_drop_stat,
    "graph.enumerate_cycle_subgraphs": _subgraphs_stat,
}


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = STATS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.process_time  # host steal inflates wall time, not CPU time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if stat is not None:
                stat(counts, args, kwargs, result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation under a root span tagged ``op_id``."""
        self.op_id = op_id
        return self._wrap(OP_SPAN, fn)(*args)

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        import sfspectrum  # noqa: F401  (loads every layer module)

        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "sfspectrum" or name.startswith("sfspectrum.")
        ]
        for layer, funcs in TARGETS.items():
            home = sys.modules[f"sfspectrum.{layer}"]
            for func in funcs:
                name = span_name(layer, func)
                if "." in func:
                    cls_name, attr = func.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(home, func)
                wrapper = self._wrap(name, original)
                bound = 0
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
                            bound += 1
                if bound == 0:
                    raise RuntimeError(f"no module binds {layer}.{func}")

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: call count and summed self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def calls_by_op(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for name, _, _, _, op in self.spans:
            out[op][name] += 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
