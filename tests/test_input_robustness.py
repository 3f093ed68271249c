"""Malformed and degenerate inputs end in a report or in one error line.

Each case mutates one of the two demo documents in a small way and runs
``analyze``, ``fixed-modes`` (one ``--set`` per parameter), ``graph`` and
``crosscheck`` in process.  A run must end either with exit 0, 2 or 3 and
a parseable report (JSON, or DOT for ``graph``), or with exit 1, an empty
stdout and exactly one ``error:`` line on stderr.  No exception may escape
``main``.
"""

import copy
import json
from pathlib import Path

import pytest

from sfspectrum.cli import EXIT_USAGE, main

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "systems"
DOCS = {name: json.loads((DEMOS / f"{name}.json").read_text(encoding="utf-8"))
        for name in ("two_channel_shared", "chain_fixed_mode")}
# one distinct nonzero integer per parameter for fixed-modes
SET_VALUES = (2, 3, 5, 7)


def _first_term(doc):
    return doc["A"][0]["terms"][0]


def _set(path, value):
    """A mutation setting ``doc[path[0]][path[1]]...`` to ``value``."""
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _drop(key):
    def mutate(doc):
        del doc[key]
    return mutate


def _no_parameters(doc):
    doc["parameters"] = []
    for entry in doc["A"] + [e for block in doc["B"] + doc["C"] for e in block]:
        for term in entry["terms"]:
            term["monomial"] = {}


def _channel_width_zero(side, block):
    """Channel 1 gets width 0 on one side, and its then out-of-range entries go."""
    def mutate(doc):
        doc["channels"][0][side] = 0
        doc[block][0] = []
    return mutate


def _empty_channels(doc):
    doc["channels"], doc["B"], doc["C"] = [], [], []


def _monomial(exponents):
    def mutate(doc):
        _first_term(doc)["monomial"] = exponents(doc["parameters"][0])
    return mutate


def _duplicate_entry(doc):
    doc["A"].append(copy.deepcopy(doc["A"][0]))


def _row_out_of_range(doc):
    doc["A"][0]["row"] = doc["n"]


MUTATIONS = {
    "missing-field": _drop("channels"),
    "extra-field": _set(["comment"], "x"),
    "extra-entry-field": _set(["A", 0, "weight"], 1),
    "bool-n": _set(["n"], True),
    "float-n": _set(["n"], 2.0),
    "bool-width": _set(["channels", 0, "m"], True),
    "float-row": _set(["A", 0, "row"], 0.0),
    "n-zero": _set(["n"], 0),
    "empty-channels": _empty_channels,
    "m-zero": _channel_width_zero("m", "B"),
    "l-zero": _channel_width_zero("l", "C"),
    "no-parameters": _no_parameters,
    "coeff-decimal": lambda doc: _first_term(doc).update(coeff="1.5"),
    "coeff-zero-denominator": lambda doc: _first_term(doc).update(coeff="1/0"),
    "coeff-number": lambda doc: _first_term(doc).update(coeff=1),
    "huge-exponent": _monomial(lambda name: {name: 1000000}),
    "float-exponent": _monomial(lambda name: {name: 1.0}),
    "unknown-parameter": _monomial(lambda name: {"zz": 1}),
    "duplicate-entry": _duplicate_entry,
    "row-out-of-range": _row_out_of_range,
    "schema-version-2": _set(["schema_version"], 2),
}
# whole-document texts that are no system object at all
TEXTS = {"invalid-json": '{"schema_version": 1, "n": ', "json-array": "[1, 2, 3]"}


def _cases():
    cases = []
    for doc_name, doc in DOCS.items():
        for name, mutate in MUTATIONS.items():
            mutated = copy.deepcopy(doc)
            mutate(mutated)
            cases.append(pytest.param(json.dumps(mutated), id=f"{doc_name}-{name}"))
    for name, text in TEXTS.items():
        cases.append(pytest.param(text, id=name))
    return cases


def _argv(command, path, names):
    if command == "graph":
        return [command, str(path)]
    argv = [command, str(path), "--format", "json"]
    if command == "fixed-modes":
        for name, value in zip(names, SET_VALUES):
            argv += ["--set", f"{name}={value}"]
    return argv


@pytest.mark.parametrize("text", _cases())
@pytest.mark.parametrize("command", ["analyze", "fixed-modes", "graph", "crosscheck"])
def test_a_report_or_one_error_line(tmp_path, capsys, command, text):
    path = tmp_path / "system.json"
    path.write_text(text, encoding="utf-8")
    try:
        names = json.loads(text)["parameters"]
    except (ValueError, TypeError, KeyError):
        names = DOCS["two_channel_shared"]["parameters"]
    code = main(_argv(command, path, names))
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code == EXIT_USAGE:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert code in (0, 2, 3)
    if command == "graph":
        assert out.startswith("digraph system_graph {\n") and out.endswith("}\n")
    else:
        assert isinstance(json.loads(out), dict)
