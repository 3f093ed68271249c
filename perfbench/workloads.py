"""The four benchmark workloads: corpus, one operation, and the output checks.

Each workload drives one public entry point of ``sfspectrum`` with a seeded
corpus chosen so that a different layer does most of the work:

* ``analyze`` -- ``cli.main(["analyze", ...])``: the pencil route dominates;
* ``linear-scale`` -- ``decide_linear(system, seed=s)``: linearity detection,
  prime-field evaluation, ranks and Krylov products;
* ``graph`` -- ``decide_graphical(system, budget=B)``: cycle-subgraph
  enumeration;
* ``fixed-modes`` -- ``cli.main(["fixed-modes", ...])``: SVD pencil tests and
  the random-gain oracle.

Each workload walks a fixed cycle of cells (kind, n, k, planted or not) with
the size factor varying fastest, once per structure variant.  The structures are
drawn from fixed seeds; the workload seed draws everything that leaves the
verdict alone: coefficients, a relabelling of states and channels, the
decision seeds and the evaluation points.  So every run times the same
structural mix in the same order, and a time-bounded run's prefix is nearly
the same whatever the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import corpus
from corpus import Spec

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "linear_manifest.json"
MANIFEST_SEED = "manifest"  # value seed of the documents the manifest digests

GRAPH_BUDGET = 200_000  # enumeration steps; about a quarter of the graph corpus exhausts it
DEMOS = {
    "two_channel_shared": {"has_sfs": False, "witness": None},
    "chain_fixed_mode": {"has_sfs": True, "witness": [1]},
}
PLANTED = ("unobservable", "uncontrollable")


@dataclass
class Item:
    """One corpus entry as the timed operation sees it."""

    name: str
    spec: Spec | None
    path: Path
    expect: dict = field(default_factory=dict)
    argv: list[str] = field(default_factory=list)
    system: object = None  # parsed MultiChannelSystem (library workloads)
    op_seed: int = 0


@dataclass
class Outcome:
    """Checked result of one operation: "ok", "inconclusive" or "error"."""

    status: str
    verdict: object = None  # compared between the untraced and the traced pass
    detail: str = ""
    sfs: bool | None = None  # SFS verdict (fixed-modes: fixed spectrum nonempty)


def doc_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def doc_sha256(doc: dict) -> str:
    return hashlib.sha256(doc_text(doc).encode()).hexdigest()


def _write(workdir: Path, name: str, doc: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(doc_text(doc), encoding="utf-8")
    return path


def _cells(kinds, sizes, ks):
    """One cycle of (kind, n, k, planted) cells: size fastest, then planted, k, kind.

    Half the cells carry a planted fixed mode, so a cycle is short and a
    time-bounded run covers several, whatever the seed.
    """
    return [
        (kind, n, k, planted)
        for kind in kinds
        for k in ks
        for planted in (False, True)
        for n in sizes
    ]


def generate(workload: str, seed, cells, variants: int, density):
    """(spec, document, value rng) for every variant of every cell, in walk order.

    ``density`` maps a kind to the density of its pattern.  A planted cell
    alternates between an unobservable and an uncontrollable mode with k
    and the variant.
    """
    for variant in range(variants):
        for pos, (kind, n, k, planted) in enumerate(cells):
            plant = PLANTED[(k + variant) % 2] if planted else None
            base = f"{workload}/{pos}/{variant}"
            spec = Spec(name=f"{kind}-n{n}-k{k}-{plant or 'free'}-{pos}v{variant}",
                        kind=kind, n=n, k=k, plant=plant)
            values = random.Random(f"{base}/{seed}")
            doc = corpus.make_system(random.Random(base), values, kind, n, k, plant, density[kind])
            yield spec, doc, values


# -- CLI runner --------------------------------------------------------------


def run_cli(argv: list[str]):
    """In-process ``cli.main`` with stdout and stderr captured."""
    from sfspectrum import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        return ("raised", repr(exc))
    return (code, out.getvalue(), err.getvalue())


def _parsed_report(raw):
    if raw[0] == "raised":
        return None, f"raised {raw[1]}"
    code, out, err = raw
    if code not in (0, 2):
        return None, f"exit {code}: {err.strip()}"
    try:
        return json.loads(out), ""
    except json.JSONDecodeError as exc:
        return None, f"unparseable report: {exc}"


def _write_all(workload, seed, workdir: Path) -> list[Item]:
    items = []
    for spec, doc, values in generate(workload.name, seed, workload.cells, workload.variants,
                                      workload.density):
        item = Item(name=spec.name, spec=spec, path=_write(workdir, spec.name, doc),
                    op_seed=values.randrange(10**6))
        workload.prepare(item, doc, values)
        items.append(item)
    return items


class Workload:
    """Shared corpus plumbing; subclasses set the cells and the operation."""

    name: str
    entry: str
    library: bool  # True: parsed systems go to a library call; False: files go to cli.main
    main_layer: tuple[str, ...]
    cells: list
    variants: int
    density: dict

    def build(self, seed: int, workdir: Path, repo: Path) -> list[Item]:
        return _write_all(self, seed, workdir)

    def prepare(self, item: Item, doc: dict, values: random.Random) -> None:
        """Fill in what the operation needs besides the file."""


# -- analyze -----------------------------------------------------------------


class Analyze(Workload):
    name = "analyze"
    entry = "sfspectrum.cli.main analyze --format json"
    library = False
    main_layer = (
        "structural.decide_polynomial",
        "structural.pencil_drop_at_point",
        "structural.char_poly_exact",
        "structural.poly_gcd",
    )
    cells = _cells(("polynomial", "linear", "unitary"), (4, 6, 8), (2, 3))
    variants = 2
    density = {"polynomial": 0.3, "linear": 0.3, "unitary": 0.3}

    def build(self, seed: int, workdir: Path, repo: Path) -> list[Item]:
        demos = [
            Item(name=demo, spec=None, path=repo / "demos" / "systems" / f"{demo}.json",
                 expect=dict(expect), op_seed=seed)
            for demo, expect in DEMOS.items()
        ]
        items = demos + _write_all(self, seed, workdir)
        for item in items:
            item.argv = ["analyze", str(item.path), "--seed", str(item.op_seed), "--format", "json"]
        return items

    def op(self, item: Item):
        return run_cli(item.argv)

    def check(self, item: Item, raw) -> Outcome:
        if raw[0] == 3:
            return Outcome("inconclusive", "budget", "enumeration budget exceeded")
        report, why = _parsed_report(raw)
        if report is None:
            return Outcome("error", detail=why)
        values = report["consistency"]["has_sfs_values"]
        witness = report["verdicts"]["pencil_sampling"]["witness"]
        verdict = (tuple(values), witness)
        if raw[0] != 0 or not report["consistency"]["agree"]:
            return Outcome("error", verdict, f"routes disagree: {values}")
        if item.spec is None:
            want = item.expect
            if (values[0], witness) != (want["has_sfs"], want["witness"]):
                return Outcome("error", verdict, f"demo answer {verdict} != documented {want}")
        elif item.spec.planted and not values[0]:
            return Outcome("error", verdict, "planted fixed mode reported as no SFS")
        return Outcome("ok", verdict, sfs=values[0])


# -- linear-scale ------------------------------------------------------------


class LinearScale(Workload):
    """``decide_linear`` on a fixed pool of structures listed in the manifest.

    Every structure's expected verdict is recorded once in
    ``linear_manifest.json`` with how it was cross-checked; a run compares
    against it.  The manifest also holds a digest of each structure, taken
    on its document generated with the value seed ``MANIFEST_SEED``.
    """

    name = "linear-scale"
    entry = "sfspectrum.decide_linear(system, seed=s), decomp=None"
    library = True
    main_layer = (
        "system.detect_linear_parameterization",
        "structural.decide_linear",
        "structural.closed_loop_generic_rank",
        "structural.markov_identity",
        "structural.generic_dims",
        "polymatrix.evaluate_at",
        "polymatrix.rank_exact",
    )
    cells = _cells(("linear",), (8, 12, 16, 20, 24), (3, 4))
    variants = 4
    density = {"linear": 0.1}

    def build(self, seed: int, workdir: Path, repo: Path) -> list[Item]:
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))["entries"]
        digests = {spec.name: doc_sha256(doc)
                   for spec, doc, _ in generate(self.name, MANIFEST_SEED, self.cells,
                                                self.variants, self.density)}
        items = _write_all(self, seed, workdir)
        for item in items:
            entry = manifest.get(item.name)
            item.expect = {
                "has_sfs": None if entry is None else entry["has_sfs"],
                "listed": entry is not None and entry["sha256"] == digests[item.name],
            }
        return items

    def op(self, item: Item):
        from sfspectrum import decide_linear

        try:
            return decide_linear(item.system, seed=item.op_seed)
        except Exception as exc:  # a crash is a failed operation
            return exc

    def check(self, item: Item, raw) -> Outcome:
        if isinstance(raw, Exception):
            return Outcome("error", detail=f"raised {raw!r}")
        verdict = (raw.has_sfs, raw.reason)
        if not item.expect["listed"]:
            return Outcome("error", verdict, "structure missing from the manifest or changed")
        if item.spec.planted and not raw.has_sfs:
            return Outcome("error", verdict, "planted fixed mode reported as no SFS")
        if raw.has_sfs != item.expect["has_sfs"]:
            return Outcome("error", verdict, f"verdict != manifest {item.expect['has_sfs']}")
        return Outcome("ok", verdict, sfs=raw.has_sfs)


# -- graph -------------------------------------------------------------------


class Graph(Workload):
    name = "graph"
    entry = f"sfspectrum.decide_graphical(system, budget={GRAPH_BUDGET})"
    library = True
    main_layer = ("graph.enumerate_cycle_subgraphs",)
    cells = _cells(("unitary", "binary"), (10, 11, 12, 13, 14), (2, 3))
    variants = 2
    density = {"unitary": 0.25, "binary": 0.12}

    def __init__(self):
        self._reference: dict[str, bool] = {}

    def op(self, item: Item):
        from sfspectrum import decide_graphical

        try:
            return decide_graphical(item.system, budget=GRAPH_BUDGET)
        except Exception as exc:  # budget exhaustion or a crash; check() tells them apart
            return exc

    def reference(self, item: Item) -> bool:
        """Untimed algebraic verdict on the same system."""
        from sfspectrum import decide_linear

        if item.name not in self._reference:
            self._reference[item.name] = decide_linear(item.system, seed=item.op_seed).has_sfs
        return self._reference[item.name]

    def check(self, item: Item, raw) -> Outcome:
        from sfspectrum import EnumerationBudgetExceeded

        if isinstance(raw, EnumerationBudgetExceeded):
            return Outcome("inconclusive", "budget", "enumeration budget exceeded")
        if isinstance(raw, Exception):
            return Outcome("error", detail=f"raised {raw!r}")
        verdict = (raw.has_sfs, raw.reason)
        if item.spec.planted and not raw.has_sfs:
            return Outcome("error", verdict, "planted fixed mode reported as no SFS")
        if raw.has_sfs != self.reference(item):
            return Outcome("error", verdict, "graphical verdict != decide_linear")
        return Outcome("ok", verdict, sfs=raw.has_sfs)


# -- fixed-modes -------------------------------------------------------------


class FixedModes(Workload):
    name = "fixed-modes"
    entry = "sfspectrum.cli.main fixed-modes --set ... --format json"
    library = False
    main_layer = (
        "fixedmodes.fixed_spectrum",
        "fixedmodes.pencil_rank_deficient",
        "fixedmodes.random_feedback_oracle",
    )
    cells = _cells(("linear",), (16, 24, 32), (3, 4, 5))
    variants = 5
    density = {"linear": 0.1}

    def prepare(self, item: Item, doc: dict, values: random.Random) -> None:
        item.argv = ["fixed-modes", str(item.path), "--format", "json"]
        for param in doc["parameters"]:
            # nonzero values keep every structural nonzero nonzero
            value = values.choice((-1, 1)) * values.randint(1, 30)
            item.argv += ["--set", f"{param}={value}"]

    def op(self, item: Item):
        return run_cli(item.argv)

    def check(self, item: Item, raw) -> Outcome:
        report, why = _parsed_report(raw)
        if report is None:
            return Outcome("error", detail=why)
        verdict = (len(report["pencil_route"]), len(report["oracle_route"]), report["agree"])
        if raw[0] != 0 or not report["agree"]:
            return Outcome("error", verdict, "pencil route and oracle disagree")
        if item.spec.planted and not report["pencil_route"]:
            return Outcome("error", verdict, "planted fixed mode missing from the fixed spectrum")
        return Outcome("ok", verdict, sfs=bool(report["pencil_route"]))


WORKLOADS = {w.name: w for w in (Analyze, LinearScale, Graph, FixedModes)}
