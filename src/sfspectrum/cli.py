"""File-based front end: parse system files, run the decisions, emit reports.

System files are JSON with exact rational coefficients ("num" or "num/den"
strings, no decimals).  Reports are JSON with a stable field layout, byte
identical for identical inputs and settings.  Exit codes: 0 success or
agreement, 1 usage/parse error, 2 analysis inconsistency, 3 enumeration
budget exhausted (``analyze`` still emits its report).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys as _sys
from fractions import Fraction
from pathlib import Path

from .fixedmodes import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_RANK_TOL,
    FloatRangeError,
    NumericSystem,
    fixed_spectrum,
    random_feedback_oracle,
)
from .graph import (
    DEFAULT_BUDGET,
    EnumerationBudgetExceeded,
    NonBinaryParameterization,
    build_graph,
    decide_graphical,
    export_dot,
    similarity_classes,
    enumerate_cycle_subgraphs,
)
from .polymatrix import FALLBACK_PRIME, FIELD_PRIME, ParamMatrix, ParamPoint, ParamPoly
from .structural import (
    closed_loop_generic_rank,
    decide_linear,
    decide_polynomial,
    rank_failure_bound,
)
from .system import (
    ChannelSubset,
    MultiChannelSystem,
    NotLinearlyParameterized,
    classify,
)

__all__ = [
    "SystemFileError",
    "parse_system",
    "parse_system_dict",
    "serialize_system",
    "cmd_analyze",
    "cmd_fixed_modes",
    "cmd_graph",
    "cmd_crosscheck",
    "main",
]

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_BUDGET = 3
REASON_BUDGET_EXHAUSTED = "budget-exhausted"

_COEFF_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class SystemFileError(ValueError):
    """A system file failed to parse; the message names the offending field."""


def _require_keys(obj: dict, keys: set[str], where: str):
    """Fails unless ``obj`` has exactly the fields ``keys``."""
    unknown = set(obj) - keys
    if unknown:
        raise SystemFileError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = keys - set(obj)
    if missing:
        raise SystemFileError(f"{where}: missing field(s) {sorted(missing)}")


def _parse_coeff(text) -> Fraction | None:
    """The value of a decimal-free 'num' or 'num/den' string, None for anything else."""
    if not isinstance(text, str) or not _COEFF_RE.match(text):
        return None
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _spot(where: str, pos: int, tpos: int | None = None) -> str:
    """Where entry ``pos`` (and its term ``tpos``) sits, for an error message."""
    return f"{where}, entry {pos}" if tpos is None else f"{where}, entry {pos}, term {tpos}"


_ENTRY_KEYS = {"row", "col", "terms"}
_TERM_KEYS = {"coeff", "monomial"}


def _parse_matrix(
    raw, rows: int, cols: int, param_index: dict[str, int], where: str
) -> ParamMatrix:
    if not isinstance(raw, list):
        raise SystemFileError(f"{where}: expected a list of entries")
    entries: dict[tuple[int, int], ParamPoly] = {}
    for pos, item in enumerate(raw):
        if not isinstance(item, dict):
            raise SystemFileError(f"{_spot(where, pos)}: expected an object")
        if item.keys() != _ENTRY_KEYS:
            _require_keys(item, _ENTRY_KEYS, _spot(where, pos))
        row, col = item["row"], item["col"]
        if not (type(row) is int and 0 <= row < rows):
            raise SystemFileError(f"{_spot(where, pos)}: row {row!r} outside 0..{rows - 1}")
        if not (type(col) is int and 0 <= col < cols):
            raise SystemFileError(f"{_spot(where, pos)}: col {col!r} outside 0..{cols - 1}")
        if (row, col) in entries:
            raise SystemFileError(f"{_spot(where, pos)}: duplicate entry for ({row}, {col})")
        terms: dict = {}
        if not isinstance(item["terms"], list):
            raise SystemFileError(f"{_spot(where, pos)}: terms must be a list")
        for tpos, term in enumerate(item["terms"]):
            if not isinstance(term, dict):
                raise SystemFileError(f"{_spot(where, pos, tpos)}: expected an object")
            if term.keys() != _TERM_KEYS:
                _require_keys(term, _TERM_KEYS, _spot(where, pos, tpos))
            text = term["coeff"]
            coeff = _parse_coeff(text)
            if coeff is None:
                raise SystemFileError(
                    f"{_spot(where, pos, tpos)}: coefficient must be a decimal-free 'num' or "
                    f"'num/den' string, got {text!r}"
                )
            if coeff.denominator % FIELD_PRIME == 0 and coeff.denominator % FALLBACK_PRIME == 0:
                raise SystemFileError(
                    f"{_spot(where, pos, tpos)}: coefficient {text} has a denominator divisible "
                    f"by both evaluation primes {FIELD_PRIME} and {FALLBACK_PRIME}, so no prime "
                    "field can evaluate it"
                )
            monomial = term["monomial"]
            if not isinstance(monomial, dict):
                raise SystemFileError(f"{_spot(where, pos, tpos)}: monomial must be an object")
            factors = []
            for name, exp in monomial.items():
                if name not in param_index:
                    raise SystemFileError(f"{_spot(where, pos, tpos)}: unknown parameter {name!r}")
                if type(exp) is not int or exp < 1:
                    raise SystemFileError(
                        f"{_spot(where, pos, tpos)}: exponent of {name!r} must be an integer >= 1"
                    )
                factors.append((param_index[name], exp))
            key = tuple(sorted(factors))
            if key in terms:
                raise SystemFileError(f"{_spot(where, pos, tpos)}: duplicate monomial")
            terms[key] = coeff
        # the keys are canonical: sorted, one factor per distinct parameter
        entries[(row, col)] = ParamPoly._of_checked({m: c for m, c in terms.items() if c})
    entries = {at: poly for at, poly in entries.items() if poly.terms}
    return ParamMatrix._of_checked(rows, cols, entries, len(param_index))


def parse_system_dict(doc: dict, where: str = "system") -> tuple[MultiChannelSystem, list[str]]:
    """Parse an in-memory system description; returns (system, parameter names)."""
    if not isinstance(doc, dict):
        raise SystemFileError(f"{where}: expected a JSON object")
    _require_keys(doc, {"schema_version", "n", "parameters", "channels", "A", "B", "C"}, where)
    # integer fields test ``type(x) is int``: a JSON true is a bool, an int subclass,
    # and a JSON 1.0 is a float equal to 1
    if type(doc["schema_version"]) is not int or doc["schema_version"] != SCHEMA_VERSION:
        raise SystemFileError(
            f"{where}: unsupported schema_version {doc['schema_version']!r}"
        )
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise SystemFileError(f"{where}: n must be a positive integer")
    names = doc["parameters"]
    if not isinstance(names, list) or not all(isinstance(s, str) and s for s in names):
        raise SystemFileError(f"{where}: parameters must be a list of nonempty names")
    if len(set(names)) != len(names):
        raise SystemFileError(f"{where}: parameter names must be unique")
    param_index = {name: i for i, name in enumerate(names)}
    q = len(names)
    channels = []
    if not isinstance(doc["channels"], list) or not doc["channels"]:
        raise SystemFileError(f"{where}: channels must be a nonempty list")
    for pos, ch in enumerate(doc["channels"]):
        spot = f"{where}, channel {pos + 1}"
        if not isinstance(ch, dict):
            raise SystemFileError(f"{spot}: expected an object")
        _require_keys(ch, {"m", "l"}, spot)
        if not all(type(ch[x]) is int and ch[x] >= 0 for x in ("m", "l")):
            raise SystemFileError(f"{spot}: m and l must be nonnegative integers")
        channels.append((ch["m"], ch["l"]))
    k = len(channels)
    A = _parse_matrix(doc["A"], n, n, param_index, f"{where}.A")
    for block_name, count in (("B", k), ("C", k)):
        if not isinstance(doc[block_name], list) or len(doc[block_name]) != count:
            raise SystemFileError(f"{where}.{block_name}: expected one entry list per channel")
    B_blocks = tuple(
        _parse_matrix(doc["B"][i], n, channels[i][0], param_index, f"{where}.B[{i + 1}]")
        for i in range(k)
    )
    C_blocks = tuple(
        _parse_matrix(doc["C"][i], channels[i][1], n, param_index, f"{where}.C[{i + 1}]")
        for i in range(k)
    )
    try:
        system = MultiChannelSystem(
            n=n, channels=tuple(channels), A=A, B_blocks=B_blocks, C_blocks=C_blocks, q=q
        )
    except ValueError as err:  # each evaluation prime divides some denominator
        raise SystemFileError(f"{where}: {err}") from err
    return system, list(names)


def parse_system(path: str | Path) -> tuple[MultiChannelSystem, list[str]]:
    """Parse a system file; raises SystemFileError with field context."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise SystemFileError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SystemFileError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
    return parse_system_dict(doc, where=str(path))


def _entries_doc(mat: ParamMatrix, names: list[str]) -> list[dict]:
    out = []
    for (i, j), poly in mat.items():
        terms = []
        for mono, coeff in sorted(poly.terms.items()):
            terms.append(
                {
                    "coeff": str(coeff),
                    "monomial": {names[idx]: exp for idx, exp in mono},
                }
            )
        out.append({"row": i, "col": j, "terms": terms})
    return out


def serialize_system(sys: MultiChannelSystem, names: list[str]) -> dict:
    """Round-trippable JSON document for a system."""
    return {
        "schema_version": SCHEMA_VERSION,
        "n": sys.n,
        "parameters": list(names),
        "channels": [{"m": m_i, "l": l_i} for m_i, l_i in sys.channels],
        "A": _entries_doc(sys.A, names),
        "B": [_entries_doc(B, names) for B in sys.B_blocks],
        "C": [_entries_doc(C, names) for C in sys.C_blocks],
    }


# -- report helpers --------------------------------------------------------------


def _complex_doc(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _subset_doc(s: ChannelSubset | None):
    return None if s is None else [i + 1 for i in s.members]


def _verdict_doc(verdict) -> dict:
    return {
        "has_sfs": verdict.has_sfs,
        "route": verdict.route,
        "reason": verdict.reason,
        "witness": _subset_doc(verdict.witness),
        "diagnostics": verdict.diagnostics,
    }


def _fixed_spectrum_doc(result) -> list[dict]:
    return [
        {
            "eigenvalue": _complex_doc(fe.value),
            "witnesses": [_subset_doc(w) for w in fe.witnesses],
        }
        for fe in result.fixed_eigenvalues
    ]


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- subcommands ---------------------------------------------------------------


def cmd_analyze(
    path: str | Path,
    seed: int = 0,
    trials: int = 10,
    tol: float = DEFAULT_RANK_TOL,
    budget: int = DEFAULT_BUDGET,
    dot: str | Path | None = None,
) -> tuple[dict, int]:
    """Classify, run every applicable decision route, and cross-check them.

    When the graphical route exhausts ``budget``, its verdict is reported as
    undecided (``has_sfs`` null, reason ``budget-exhausted``), stays out of
    the cross-check, and the exit code is 3 unless the other routes disagree.
    With ``dot`` set, a binary linear system's colored graph is also written
    there as DOT; other systems have no graph and get no file.
    """
    system, names = parse_system(path)
    cls = classify(system)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "input": str(path),
        "settings": {
            "seed": seed,
            "trials": trials,
            "tol": tol,
            "budget": budget,
        },
        "classification": cls.as_dict(),
    }
    verdicts: dict = {"pencil_sampling": None, "algebraic": None, "graphical": None}
    exit_code = EXIT_OK
    v1 = decide_polynomial(system, trials=trials, seed=seed)
    verdicts["pencil_sampling"] = _verdict_doc(v1)
    computed = [v1.has_sfs]
    if cls.linear:
        v2 = decide_linear(system, cls.decomposition, trials=trials, seed=seed)
        verdicts["algebraic"] = _verdict_doc(v2)
        computed.append(v2.has_sfs)
    if cls.binary:
        try:
            v3 = decide_graphical(system, cls.decomposition, budget=budget)
        except EnumerationBudgetExceeded:
            verdicts["graphical"] = {
                "has_sfs": None,
                "route": "graphical",
                "reason": REASON_BUDGET_EXHAUSTED,
                "witness": None,
                "diagnostics": {"budget": budget, "steps": budget},
            }
            exit_code = EXIT_BUDGET
        else:
            verdicts["graphical"] = _verdict_doc(v3)
            computed.append(v3.has_sfs)
    report["verdicts"] = verdicts
    agree = len(set(computed)) == 1
    report["consistency"] = {
        "agree": agree,
        "has_sfs_values": computed,
    }
    if not agree:
        report["consistency"]["error"] = "decision routes disagree; see diagnostics"
        exit_code = EXIT_INCONSISTENT
    samples = []
    for i in (1, 2, 3):
        rng_seed = seed + 7919 * i
        rng = random.Random(rng_seed)
        values = tuple(Fraction(rng.randint(-30, 30)) for _ in range(system.q))
        point = ParamPoint(values=values, seed=rng_seed)
        sample = {
            "point": {names[idx]: str(v) for idx, v in enumerate(values)},
            "seed": rng_seed,
        }
        try:
            result = fixed_spectrum(NumericSystem.from_system(system, point), tol=tol)
        except FloatRangeError as err:  # this sample only; the verdicts are exact
            sample["fixed_eigenvalues"] = None
            sample["failure"] = str(err)
        else:
            sample["fixed_eigenvalues"] = _fixed_spectrum_doc(result)
        samples.append(sample)
    report["fixed_spectrum_samples"] = samples
    if dot is not None and cls.binary:
        Path(dot).write_text(
            export_dot(build_graph(system, cls.decomposition)), encoding="utf-8", newline="\n"
        )
    return report, exit_code


def cmd_fixed_modes(
    path: str | Path,
    assignments: dict[str, Fraction],
    tol: float = DEFAULT_RANK_TOL,
    samples: int = 1000,
    seed: int = 0,
) -> tuple[dict, int]:
    """Numeric fixed spectrum at one parameter point, pencil route and oracle."""
    system, names = parse_system(path)
    missing = [name for name in names if name not in assignments]
    if missing:
        raise SystemFileError(f"missing parameter assignment(s): {', '.join(missing)}")
    unknown = [name for name in assignments if name not in names]
    if unknown:
        raise SystemFileError(f"unknown parameter(s) assigned: {', '.join(unknown)}")
    values = tuple(assignments[name] for name in names)
    numeric = NumericSystem.from_system(system, ParamPoint(values=values, seed=seed))
    result = fixed_spectrum(numeric, tol=tol)
    oracle = random_feedback_oracle(numeric, samples=samples, seed=seed)
    pencil_values = result.values()
    matched = len(pencil_values) == len(oracle) and all(
        min((abs(z - w) for w in oracle), default=float("inf")) <= DEFAULT_CLUSTER_TOL
        for z in pencil_values
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": str(path),
        "point": {name: str(assignments[name]) for name in names},
        "settings": {"tol": tol, "samples": samples, "seed": seed},
        "pencil_route": _fixed_spectrum_doc(result),
        "oracle_route": [_complex_doc(z) for z in oracle],
        "agree": matched,
    }
    return report, EXIT_OK if matched else EXIT_INCONSISTENT


def cmd_graph(path: str | Path, out: str | Path | None = None) -> tuple[str, int]:
    """DOT rendering of the colored graph; rejects non-binary systems."""
    system, _ = parse_system(path)
    dot = export_dot(build_graph(system))
    if out is not None:
        Path(out).write_text(dot, encoding="utf-8", newline="\n")
    return dot, EXIT_OK


def cmd_crosscheck(
    path: str | Path,
    seed: int = 0,
    trials: int = 10,
    budget: int = DEFAULT_BUDGET,
) -> tuple[dict, int]:
    """Independent rank and graph routes for the closed-loop rank criterion.

    Exit 0 iff the generic-rank computation and the cycle-subgraph balance
    computation give the same verdict.
    """
    system, _ = parse_system(path)
    g = closed_loop_generic_rank(system, trials=trials, seed=seed)
    rank_deficient = g < system.n
    graph = build_graph(system)
    subs = enumerate_cycle_subgraphs(graph, budget=budget)
    classes = similarity_classes(subs)
    unbalanced = [sorted(c.color_set) for c in classes if not c.balanced]
    no_unbalanced = not unbalanced
    agree = rank_deficient == no_unbalanced
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": str(path),
        "settings": {"seed": seed, "trials": trials, "budget": budget},
        "rank_route": {
            "closed_loop_grank": g,
            "n": system.n,
            "deficient": rank_deficient,
            "failure_bound": rank_failure_bound(system, trials) if rank_deficient else 0.0,
        },
        "graph_route": {
            "subgraph_count": len(subs),
            "class_count": len(classes),
            "unbalanced_classes": unbalanced,
            "no_unbalanced_class": no_unbalanced,
        },
        "agree": agree,
    }
    return report, EXIT_OK if agree else EXIT_INCONSISTENT


# -- entry point ----------------------------------------------------------------


def _format_analyze_text(report: dict) -> str:
    lines = [f"system: {report['input']}"]
    cls = report["classification"]
    flags = ", ".join(
        name for name in ("polynomial", "linear", "binary", "unitary") if cls[name]
    )
    lines.append(f"classification: {flags or 'none'}")
    if cls["linear_failure"]:
        lines.append(f"  not linear: {cls['linear_failure']}")
    for key, label in (
        ("pencil_sampling", "pencil sampling"),
        ("algebraic", "algebraic"),
        ("graphical", "graphical"),
    ):
        verdict = report["verdicts"][key]
        if verdict is None:
            lines.append(f"{label}: not applicable")
            continue
        out = f"{label}: structurally fixed spectrum = {verdict['has_sfs']}"
        if verdict["reason"]:
            out += f" ({verdict['reason']}"
            if verdict["witness"] is not None:
                out += f", witness channels {verdict['witness']}"
            out += ")"
        lines.append(out)
    lines.append(f"routes agree: {report['consistency']['agree']}")
    for sample in report["fixed_spectrum_samples"]:
        eigs = sample["fixed_eigenvalues"]
        if eigs is None:
            shown = f"not computed ({sample['failure']})"
        else:
            shown = (
                ", ".join(
                    f"{e['eigenvalue']['re']:.6g}{e['eigenvalue']['im']:+.6g}j" for e in eigs
                )
                or "empty"
            )
        lines.append(f"fixed spectrum at sample (seed {sample['seed']}): {shown}")
    return "\n".join(lines) + "\n"


def _format_fixed_modes_text(report: dict) -> str:
    lines = [f"system: {report['input']}", f"point: {report['point']}"]
    pencil = report["pencil_route"]
    if pencil:
        for item in pencil:
            z = item["eigenvalue"]
            lines.append(
                f"fixed eigenvalue {z['re']:.6g}{z['im']:+.6g}j "
                f"(witness channel subsets: {item['witnesses']})"
            )
    else:
        lines.append("fixed spectrum: empty")
    oracle = ", ".join(f"{z['re']:.6g}{z['im']:+.6g}j" for z in report["oracle_route"])
    lines.append(f"oracle spectrum: {oracle or 'empty'}")
    lines.append(f"routes agree: {report['agree']}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error exiting EXIT_USAGE; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(
        prog="sfspectrum",
        description="Decide structurally fixed spectra of parameterized multi-channel systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol: bool):
        p.add_argument("path", help="system file (JSON)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--trials",
            type=int,
            default=10,
            help="cap on the sample points per randomized claim; sampling stops "
            "earlier once the claim's failure bound is at most 2^-40 (default 10)",
        )
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_RANK_TOL)
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_analyze = sub.add_parser("analyze", help="classify and run every decision route")
    common(p_analyze, tol=True)
    p_analyze.add_argument("--dot", metavar="PATH", help="also write the colored graph as DOT")
    p_analyze.add_argument("--out", metavar="PATH", help="write the JSON report to a file")

    p_fixed = sub.add_parser("fixed-modes", help="numeric fixed spectrum at a parameter point")
    p_fixed.add_argument("path", help="system file (JSON)")
    p_fixed.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=None,  # a fresh list per parse: the cached parser shares its defaults
        metavar="NAME=VALUE",
        help="assign a parameter an exact rational value (repeatable, once per parameter)",
    )
    p_fixed.add_argument("--tol", type=float, default=DEFAULT_RANK_TOL)
    p_fixed.add_argument(
        "--samples",
        type=int,
        default=1000,
        help="random gains the oracle may draw; eigenvalues of gain-free components need none",
    )
    p_fixed.add_argument("--seed", type=int, default=0)
    p_fixed.add_argument("--format", choices=("text", "json"), default="text")

    p_graph = sub.add_parser("graph", help="export the colored graph as DOT")
    p_graph.add_argument("path", help="system file (JSON)")
    p_graph.add_argument("--dot", metavar="PATH", help="output path (stdout when omitted)")

    p_cross = sub.add_parser(
        "crosscheck", help="compare the rank route and the graph route independently"
    )
    common(p_cross, tol=False)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argparse's reading of ``argv``, with the ``--set`` pairs of ``fixed-modes`` kept out
    of its option scan, which grows with the square of the option count.  They come out
    first only where argparse would read each as one ``--set`` occurrence, in order, and
    the other tokens as with them in: no ``--`` or ``--set=`` token, and each ``--set``
    between tokens not starting with '-' (its value is an argument, and no option before
    it loses a value)."""
    sets = [i for i, token in enumerate(argv) if token == "--set"]
    if (
        argv[:1] != ["fixed-modes"]
        or any(token == "--" or token.startswith("--set=") for token in argv)
        or any(i + 1 == len(argv) or "-" in (argv[i - 1][:1], argv[i + 1][:1]) for i in sets)
    ):
        sets = []
    pulled = {j for i in sets for j in (i, i + 1)}
    args = _build_parser().parse_args([t for j, t in enumerate(argv) if j not in pulled])
    if sets:
        args.assignments = [argv[i + 1] for i in sets]
    return args


def main(argv=None) -> int:
    args = _parse_args(_sys.argv[1:] if argv is None else list(argv))
    try:
        for cap in ("trials", "samples", "budget"):
            if getattr(args, cap, 1) < 1:
                raise SystemFileError(f"--{cap} must be at least 1, got {getattr(args, cap)}")
        if not 0 < getattr(args, "tol", 1.0) < float("inf"):
            raise SystemFileError(f"--tol must be finite and positive, got {args.tol}")
        if args.command == "analyze":
            report, code = cmd_analyze(
                args.path,
                seed=args.seed,
                trials=args.trials,
                tol=args.tol,
                budget=args.budget,
                dot=args.dot,
            )
            if args.dot is not None and not report["classification"]["binary"]:
                print(
                    f"note: no DOT written to {args.dot}: the colored graph needs a "
                    "binary linear parameterization",
                    file=_sys.stderr,
                )
            doc = report_json(report) if args.out or args.format == "json" else None
            if args.out:
                Path(args.out).write_text(doc, encoding="utf-8", newline="\n")
            _sys.stdout.write(doc if args.format == "json" else _format_analyze_text(report))
            return code
        if args.command == "fixed-modes":
            assignments = {}
            for item in args.assignments or ():
                name, sep, value = item.partition("=")
                coeff = _parse_coeff(value) if sep else None
                if coeff is None:
                    raise SystemFileError(
                        f"--set expects NAME=NUM or NAME=NUM/DEN, got {item!r}"
                    )
                if name in assignments:
                    raise SystemFileError(f"--set assigns parameter {name!r} twice")
                assignments[name] = coeff
            report, code = cmd_fixed_modes(
                args.path,
                assignments,
                tol=args.tol,
                samples=args.samples,
                seed=args.seed,
            )
            text = (
                report_json(report)
                if args.format == "json"
                else _format_fixed_modes_text(report)
            )
            _sys.stdout.write(text)
            return code
        if args.command == "graph":
            dot, code = cmd_graph(args.path, out=args.dot)
            if args.dot is None:
                _sys.stdout.write(dot)
            return code
        if args.command == "crosscheck":
            report, code = cmd_crosscheck(
                args.path, seed=args.seed, trials=args.trials, budget=args.budget
            )
            if args.format == "json":
                _sys.stdout.write(report_json(report))
            else:
                rank = report["rank_route"]
                graph = report["graph_route"]
                _sys.stdout.write(
                    f"rank route: closed-loop generic rank {rank['closed_loop_grank']}"
                    f" of n = {rank['n']} (deficient: {rank['deficient']})\n"
                    f"graph route: {graph['subgraph_count']} cycle subgraphs in "
                    f"{graph['class_count']} classes; no unbalanced class: "
                    f"{graph['no_unbalanced_class']}\n"
                    f"routes agree: {report['agree']}\n"
                )
            return code
        raise AssertionError(f"unhandled command {args.command}")
    # OSError: an output file (--out, --dot) could not be written; FloatRangeError: the
    # fixed-modes point gives an entry beyond the float range
    except (
        SystemFileError,
        NonBinaryParameterization,
        NotLinearlyParameterized,
        OSError,
        FloatRangeError,
    ) as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_USAGE
    except EnumerationBudgetExceeded as err:
        print(f"error: {err}", file=_sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
