"""System file parsing, report generation, subcommands, and exit codes."""

import argparse
import json
from fractions import Fraction
from pathlib import Path

import pytest

from sfspectrum import cli
from sfspectrum.cli import (
    EXIT_BUDGET,
    EXIT_INCONSISTENT,
    EXIT_OK,
    EXIT_USAGE,
    SystemFileError,
    _Parser,
    _build_parser,
    _parse_args,
    cmd_analyze,
    cmd_crosscheck,
    cmd_fixed_modes,
    cmd_graph,
    main,
    parse_system,
    parse_system_dict,
    report_json,
    serialize_system,
)
from sfspectrum import (
    FloatRangeError,
    MultiChannelSystem,
    NumericSystem,
    ParamMatrix,
    ParamPoly,
    decide_linear,
)
from sfspectrum.ensembles import random_binary_system
from sfspectrum.polymatrix import FALLBACK_PRIME, FIELD_PRIME
from conftest import (
    repeated_diagonal_counterexample,
    two_channel_shared_params,
)

NAMES = ["p1", "p2", "p3", "p4"]


@pytest.fixture
def worked_file(tmp_path):
    doc = serialize_system(two_channel_shared_params(), NAMES)
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def counterexample_file(tmp_path):
    doc = serialize_system(repeated_diagonal_counterexample(), NAMES)
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def classic_chain_file(tmp_path) -> Path:
    """The chain instance as a one-parameter file (scaled by p1)."""
    doc = {
        "schema_version": 1,
        "n": 3,
        "parameters": ["p1"],
        "channels": [{"m": 1, "l": 1}, {"m": 1, "l": 1}],
        "A": [
            {"row": 0, "col": 0, "terms": [{"coeff": "1", "monomial": {"p1": 1}}]},
            {"row": 1, "col": 0, "terms": [{"coeff": "1", "monomial": {"p1": 1}}]},
            {"row": 1, "col": 1, "terms": [{"coeff": "2", "monomial": {"p1": 1}}]},
            {"row": 2, "col": 1, "terms": [{"coeff": "1", "monomial": {"p1": 1}}]},
            {"row": 2, "col": 2, "terms": [{"coeff": "3", "monomial": {"p1": 1}}]},
        ],
        "B": [
            [{"row": 2, "col": 0, "terms": [{"coeff": "1", "monomial": {}}]}],
            [{"row": 0, "col": 0, "terms": [{"coeff": "1", "monomial": {}}]}],
        ],
        "C": [
            [{"row": 0, "col": 2, "terms": [{"coeff": "1", "monomial": {}}]}],
            [{"row": 0, "col": 0, "terms": [{"coeff": "1", "monomial": {}}]}],
        ],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestParsing:
    def test_round_trip_identity(self, worked_file):
        system, names = parse_system(worked_file)
        doc = serialize_system(system, names)
        system2, names2 = parse_system_dict(doc)
        assert serialize_system(system2, names2) == doc

    def test_round_trip_on_random_corpus(self):
        for seed in range(12):
            sys_ = random_binary_system(seed=seed + 7500)
            names = [f"p{i + 1}" for i in range(sys_.q)]
            doc = serialize_system(sys_, names)
            sys2, names2 = parse_system_dict(doc)
            assert serialize_system(sys2, names2) == doc

    def test_unknown_top_level_field(self):
        doc = serialize_system(two_channel_shared_params(), NAMES)
        doc["surprise"] = 1
        with pytest.raises(SystemFileError, match="surprise"):
            parse_system_dict(doc)

    def test_unknown_parameter_in_monomial(self):
        doc = serialize_system(two_channel_shared_params(), NAMES)
        doc["A"][0]["terms"][0]["monomial"] = {"p9": 1}
        with pytest.raises(SystemFileError, match="p9"):
            parse_system_dict(doc)

    def test_decimal_coefficient_rejected(self):
        doc = serialize_system(two_channel_shared_params(), NAMES)
        doc["A"][0]["terms"][0]["coeff"] = "1.5"
        with pytest.raises(SystemFileError, match="decimal-free"):
            parse_system_dict(doc)

    def test_duplicate_entry_rejected(self):
        doc = serialize_system(two_channel_shared_params(), NAMES)
        doc["A"].append(doc["A"][0])
        with pytest.raises(SystemFileError, match="duplicate"):
            parse_system_dict(doc)

    def test_duplicate_parameter_names(self):
        doc = serialize_system(two_channel_shared_params(), NAMES)
        doc["parameters"] = ["p1", "p1", "p3", "p4"]
        with pytest.raises(SystemFileError, match="unique"):
            parse_system_dict(doc)

    def test_bad_exponent(self):
        doc = serialize_system(two_channel_shared_params(), NAMES)
        doc["A"][0]["terms"][0]["monomial"] = {"p1": 0}
        with pytest.raises(SystemFileError, match="exponent"):
            parse_system_dict(doc)

    def test_row_out_of_range(self):
        doc = serialize_system(two_channel_shared_params(), NAMES)
        doc["A"][0]["row"] = 7
        with pytest.raises(SystemFileError, match="row"):
            parse_system_dict(doc)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}", encoding="utf-8")
        with pytest.raises(SystemFileError, match="line 2"):
            parse_system(path)


class TestAnalyze:
    def test_worked_example_report(self, worked_file):
        report, code = cmd_analyze(worked_file, seed=3)
        assert code == EXIT_OK
        cls = report["classification"]
        assert cls["polynomial"] and cls["linear"] and cls["binary"]
        assert not cls["unitary"]
        for key in ("pencil_sampling", "algebraic", "graphical"):
            assert report["verdicts"][key]["has_sfs"] is False
        assert report["consistency"]["agree"] is True
        assert len(report["fixed_spectrum_samples"]) == 3
        for sample in report["fixed_spectrum_samples"]:
            assert sample["fixed_eigenvalues"] == []

    def test_counterexample_only_pencil_route(self, counterexample_file):
        report, code = cmd_analyze(counterexample_file, seed=3)
        assert code == EXIT_OK
        assert report["classification"]["linear"] is False
        assert report["classification"]["linear_failure"]
        assert report["verdicts"]["pencil_sampling"] is not None
        assert report["verdicts"]["algebraic"] is None
        assert report["verdicts"]["graphical"] is None

    def test_chain_has_sfs_with_witness(self, tmp_path):
        path = classic_chain_file(tmp_path)
        report, code = cmd_analyze(path, seed=1)
        assert code == EXIT_OK
        verdict = report["verdicts"]["pencil_sampling"]
        assert verdict["has_sfs"] is True
        assert verdict["witness"] == [1]
        for sample in report["fixed_spectrum_samples"]:
            assert len(sample["fixed_eigenvalues"]) >= 1

    def test_determinism_byte_identical(self, worked_file):
        r1, _ = cmd_analyze(worked_file, seed=11)
        r2, _ = cmd_analyze(worked_file, seed=11)
        assert report_json(r1) == report_json(r2)

    def test_report_round_trips_losslessly(self, worked_file):
        report, _ = cmd_analyze(worked_file, seed=11)
        assert json.loads(report_json(report)) == report


class TestFixedModes:
    def test_worked_example_all_ones_empty(self, worked_file):
        assigned = {name: Fraction(1) for name in NAMES}
        report, code = cmd_fixed_modes(worked_file, assigned, samples=200, seed=2)
        assert code == EXIT_OK
        assert report["pencil_route"] == []
        assert report["oracle_route"] == []
        assert report["agree"] is True

    def test_chain_fixed_eigenvalue(self, tmp_path):
        path = classic_chain_file(tmp_path)
        report, code = cmd_fixed_modes(path, {"p1": Fraction(1)}, samples=500, seed=4)
        assert code == EXIT_OK
        values = [e["eigenvalue"] for e in report["pencil_route"]]
        assert len(values) == 1 and abs(values[0]["re"] - 2.0) < 1e-6
        assert report["agree"] is True

    def test_zero_width_channel_gives_whole_spectrum(self, tmp_path):
        doc = {
            "schema_version": 1,
            "n": 2,
            "parameters": ["p1"],
            "channels": [{"m": 0, "l": 0}],
            "A": [
                {"row": 0, "col": 0, "terms": [{"coeff": "5", "monomial": {"p1": 1}}]},
                {"row": 1, "col": 1, "terms": [{"coeff": "7", "monomial": {"p1": 1}}]},
            ],
            "B": [[]],
            "C": [[]],
        }
        path = tmp_path / "isolated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        report, code = cmd_fixed_modes(path, {"p1": Fraction(1)}, samples=20, seed=1)
        assert code == EXIT_OK
        values = sorted(e["eigenvalue"]["re"] for e in report["pencil_route"])
        assert values == [5.0, 7.0]
        assert report["agree"] is True

    def test_missing_assignment_listed(self, worked_file):
        with pytest.raises(SystemFileError, match="p2, p3"):
            cmd_fixed_modes(worked_file, {"p1": Fraction(1), "p4": Fraction(2)})

    def test_unknown_assignment(self, worked_file):
        assigned = {name: Fraction(1) for name in NAMES}
        assigned["zz"] = Fraction(1)
        with pytest.raises(SystemFileError, match="zz"):
            cmd_fixed_modes(worked_file, assigned)


class TestGraphCommand:
    def test_writes_dot(self, worked_file, tmp_path):
        out = tmp_path / "graph.dot"
        dot, code = cmd_graph(worked_file, out=out)
        assert code == EXIT_OK
        assert out.read_text(encoding="utf-8") == dot
        assert dot.count("->") == 10

    def test_non_binary_rejected_via_main(self, counterexample_file, capsys):
        code = main(["graph", str(counterexample_file)])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err


class TestCrosscheck:
    def test_worked_example_agrees(self, worked_file):
        report, code = cmd_crosscheck(worked_file, seed=5)
        assert code == EXIT_OK
        assert report["agree"] is True
        assert report["rank_route"]["deficient"] is False
        assert report["graph_route"]["no_unbalanced_class"] is False

    def test_full_rank_reports_zero_bound(self, worked_file):
        report, _ = cmd_crosscheck(worked_file, seed=5)
        assert report["rank_route"]["failure_bound"] == 0.0

    def test_deficient_rank_reports_the_algebraic_bound(self, tmp_path):
        # x2 has no incoming arc, so A + B F C keeps a zero second row
        q = 3
        sys_ = MultiChannelSystem(
            n=2,
            channels=((1, 1),),
            A=ParamMatrix.from_rows([[ParamPoly.param(0), 0], [0, 0]], q),
            B_blocks=(ParamMatrix.from_rows([[ParamPoly.param(1)], [0]], q),),
            C_blocks=(ParamMatrix.from_rows([[ParamPoly.param(2), 0]], q),),
            q=q,
        )
        path = tmp_path / "deficient.json"
        path.write_text(json.dumps(serialize_system(sys_, NAMES[:q])), encoding="utf-8")
        for trials in (1, 10):
            report, code = cmd_crosscheck(path, seed=4, trials=trials)
            assert code == EXIT_OK
            rank = report["rank_route"]
            assert rank["deficient"] is True and rank["closed_loop_grank"] == 1
            # degree n max(d_A, d_B + d_C + 1) = 2 * 3 at one point of the system prime
            assert rank["failure_bound"] == float(Fraction(6, FIELD_PRIME))
            verdict = decide_linear(sys_, trials=trials, seed=4)
            assert verdict.reason == "generic-rank-deficient"
            assert rank["failure_bound"] == verdict.diagnostics["failure_bound"]

    def test_random_corpus_agrees(self, tmp_path):
        for seed in range(8):
            sys_ = random_binary_system(seed=seed + 600)
            names = [f"p{i + 1}" for i in range(sys_.q)]
            path = tmp_path / f"rand{seed}.json"
            path.write_text(json.dumps(serialize_system(sys_, names)), encoding="utf-8")
            report, code = cmd_crosscheck(path, seed=seed)
            assert code == EXIT_OK, report


class TestMainEntry:
    def test_analyze_json_format(self, worked_file, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", str(worked_file), "--seed", "9", "--format", "json", "--out", str(out)]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert json.loads(captured)["consistency"]["agree"] is True
        assert out.read_text(encoding="utf-8") == captured

    def test_analyze_serializes_its_report_once(self, worked_file, capsys, tmp_path,
                                                monkeypatch):
        calls = []

        def counted(report):
            calls.append(report)
            return report_json(report)

        monkeypatch.setattr(cli, "report_json", counted)
        out = tmp_path / "report.json"
        for fmt, extra, serialized in (("json", ["--out", str(out)], 1),
                                       ("text", ["--out", str(out)], 1), ("text", [], 0)):
            calls.clear()
            assert main(["analyze", str(worked_file), "--format", fmt] + extra) == EXIT_OK
            captured = capsys.readouterr().out
            assert len(calls) == serialized
            if fmt == "json":
                assert out.read_bytes() == captured.encode("utf-8")
            else:
                assert not captured.startswith("{")

    def test_analyze_writes_dot(self, worked_file, tmp_path, capsys):
        dot_path = tmp_path / "g.dot"
        code = main(["analyze", str(worked_file), "--dot", str(dot_path)])
        assert code == EXIT_OK
        assert dot_path.read_text(encoding="utf-8").startswith("digraph")

    def test_analyze_dot_equals_graph_command(self, tmp_path, capsys):
        demo = Path(__file__).resolve().parent.parent / "demos" / "systems" / "two_channel_shared.json"
        dot_path = tmp_path / "g.dot"
        assert main(["analyze", str(demo), "--dot", str(dot_path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["graph", str(demo)]) == EXIT_OK
        assert dot_path.read_bytes() == capsys.readouterr().out.encode("utf-8")

    @pytest.mark.parametrize("block, linear", [("A", False), ("B", True)])
    def test_analyze_dot_skipped_for_non_binary(self, tmp_path, capsys, block, linear):
        # coefficient 2 on A's p1 entry breaks p1's rank-one rectangle;
        # on B's p3 entry it keeps the system linear but not binary
        doc = _shared_demo_doc()
        entry = doc["A"][0] if block == "A" else doc["B"][1][0]
        entry["terms"][0]["coeff"] = "2"
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        dot_path, out = tmp_path / "g.dot", tmp_path / "report.json"
        code = main(["analyze", str(path), "--format", "json", "--dot", str(dot_path),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        report = json.loads(captured.out)
        assert report["classification"]["linear"] is linear
        assert not report["classification"]["binary"]
        assert out.read_text(encoding="utf-8") == captured.out
        assert not dot_path.exists()
        assert "no DOT written" in captured.err and captured.err.count("\n") == 1
        assert main(["analyze", str(path), "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == captured.out

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code = main(["analyze", str(tmp_path / "absent.json")])
        assert code == EXIT_USAGE

    def test_budget_exhaustion_exit_code(self, worked_file, capsys):
        code = main(["crosscheck", str(worked_file), "--budget", "2"])
        assert code == EXIT_BUDGET

    def test_analyze_keeps_its_report_when_the_graph_budget_runs_out(self, tmp_path, capsys):
        demo = Path(__file__).resolve().parent.parent / "demos" / "systems" / "two_channel_shared.json"
        out = tmp_path / "report.json"
        code = main(["analyze", str(demo), "--budget", "1", "--format", "json", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == EXIT_BUDGET
        report = json.loads(captured)
        assert out.read_text(encoding="utf-8") == captured
        verdicts = report["verdicts"]
        assert verdicts["graphical"] == {
            "has_sfs": None,
            "route": "graphical",
            "reason": "budget-exhausted",
            "witness": None,
            "diagnostics": {"budget": 1, "steps": 1},
        }
        assert verdicts["pencil_sampling"]["has_sfs"] is False
        assert verdicts["algebraic"]["has_sfs"] is False
        assert report["consistency"] == {"agree": True, "has_sfs_values": [False, False]}
        # the exact verdicts are those of a run with the default budget
        assert main(["analyze", str(demo), "--format", "json"]) == EXIT_OK
        full = json.loads(capsys.readouterr().out)
        for key in ("pencil_sampling", "algebraic"):
            assert full["verdicts"][key] == verdicts[key]
        assert main(["analyze", str(demo), "--budget", "1"]) == EXIT_BUDGET
        assert "graphical: structurally fixed spectrum = None (budget-exhausted)" in (
            capsys.readouterr().out
        )

    def test_fixed_modes_flags(self, worked_file, capsys):
        code = main(
            ["fixed-modes", str(worked_file), "--samples", "50"]
            + [f"--set={n}=1" for n in NAMES]
        )
        assert code == EXIT_OK
        assert "routes agree: True" in capsys.readouterr().out

    def test_bad_set_syntax(self, worked_file, capsys):
        code = main(["fixed-modes", str(worked_file), "--set", "p1=0.5"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, flag",
        [("analyze", "--trials"), ("crosscheck", "--trials"), ("fixed-modes", "--samples")],
    )
    def test_sampling_cap_below_one_is_a_usage_error(self, worked_file, capsys, command, flag):
        for value in ("0", "-3"):
            argv = [command, str(worked_file), flag, value]
            if command == "fixed-modes":
                argv += [f"--set={n}=1" for n in NAMES]
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {flag} must be at least 1, got {value}\n"

    def test_consecutive_calls_keep_their_own_assignments(self, worked_file, capsys):
        """The parser is built once per process; no call sees another's --set values."""
        base = ["fixed-modes", str(worked_file), "--samples", "20", "--format", "json"]
        points = []
        for value in ("2", "-3/2"):
            assert main(base + [f"--set={n}={value}" for n in NAMES]) == EXIT_OK
            points.append(json.loads(capsys.readouterr().out)["point"])
        assert points == [{n: "2" for n in NAMES}, {n: "-3/2" for n in NAMES}]
        # a call with only p1 set must not inherit p2..p4 from the calls before it
        assert main(base + ["--set", "p1=5"]) == EXIT_USAGE
        assert "missing parameter assignment(s): p2, p3, p4" in capsys.readouterr().err
        assert main(base) == EXIT_USAGE
        assert "p1, p2, p3, p4" in capsys.readouterr().err


def _shared_demo_doc() -> dict:
    path = Path(__file__).resolve().parent.parent / "demos" / "systems" / "two_channel_shared.json"
    return json.loads(path.read_text(encoding="utf-8"))


class TestEvaluationPrime:
    """Coefficient denominators divisible by FIELD_PRIME switch every GF(p) route."""

    def _write(self, tmp_path, doc) -> Path:
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def _analyze(self, tmp_path, doc, capsys) -> dict:
        code = main(["analyze", str(self._write(tmp_path, doc)), "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["consistency"]["agree"] is True
        return report

    def test_demo_keeps_field_prime(self):
        system, _ = parse_system_dict(_shared_demo_doc())
        assert system.prime == FIELD_PRIME

    def test_linear_system_with_field_prime_denominator(self, tmp_path, capsys):
        doc = _shared_demo_doc()
        doc["B"][0][0]["terms"][0]["coeff"] = f"1/{FIELD_PRIME}"
        assert parse_system_dict(doc)[0].prime == FALLBACK_PRIME
        report = self._analyze(tmp_path, doc, capsys)
        assert report["verdicts"]["algebraic"]["has_sfs"] is False
        assert report["verdicts"]["pencil_sampling"]["has_sfs"] is False

    def test_nonlinear_system_with_field_prime_denominator(self, tmp_path, capsys):
        doc = _shared_demo_doc()
        doc["B"][0][0]["terms"][0]["coeff"] = f"1/{FIELD_PRIME}"
        doc["A"][0]["terms"][0]["monomial"] = {"p1": 2}
        report = self._analyze(tmp_path, doc, capsys)
        assert report["verdicts"]["algebraic"] is None
        assert report["verdicts"]["pencil_sampling"]["has_sfs"] is False

    def test_denominator_divisible_by_both_primes_rejected(self, tmp_path, capsys):
        doc = _shared_demo_doc()
        doc["B"][0][0]["terms"][0]["coeff"] = f"1/{FIELD_PRIME * FALLBACK_PRIME}"
        with pytest.raises(SystemFileError, match=r"B\[1\], entry 0, term 0: coefficient 1/"):
            parse_system_dict(doc)
        assert main(["analyze", str(self._write(tmp_path, doc))]) == EXIT_USAGE
        assert "both evaluation primes" in capsys.readouterr().err

    def test_primes_blocked_by_different_coefficients_rejected(self):
        doc = _shared_demo_doc()
        doc["B"][0][0]["terms"][0]["coeff"] = f"3/{FIELD_PRIME}"
        doc["C"][0][0]["terms"][0]["coeff"] = f"1/{FALLBACK_PRIME}"
        with pytest.raises(SystemFileError, match="no evaluation prime fits"):
            parse_system_dict(doc)


# -- the lean entry parser: the parent's messages and values ----------------------


def _set_coeff(block, pos, tpos, value):
    def mutate(doc):
        entries = doc["A"] if block == "A" else doc[block[0]][int(block[2]) - 1]
        entries[pos]["terms"][tpos]["coeff"] = value
    return mutate


def _set_term(key, value):
    def mutate(doc):
        doc["A"][0]["terms"][0][key] = value
    return mutate


# each message is the one the parser gave before integer coefficients skipped
# the string round trip and locations were built only on error
PARSE_ERRORS = {
    "A not a list": (
        lambda d: d.__setitem__("A", {}),
        "system.A: expected a list of entries",
    ),
    "entry not an object": (
        lambda d: d["A"].__setitem__(0, []),
        "system.A, entry 0: expected an object",
    ),
    "entry missing terms": (
        lambda d: d["A"][0].pop("terms"),
        "system.A, entry 0: missing field(s) ['terms']",
    ),
    "entry unknown field": (
        lambda d: d["A"][0].__setitem__("extra", 1),
        "system.A, entry 0: unknown field(s) ['extra']",
    ),
    "row out of range": (
        lambda d: d["A"][0].__setitem__("row", 2),
        "system.A, entry 0: row 2 outside 0..1",
    ),
    "col not an int": (
        lambda d: d["A"][0].__setitem__("col", "0"),
        "system.A, entry 0: col '0' outside 0..1",
    ),
    "duplicate entry": (
        lambda d: d["A"].append(dict(d["A"][0])),
        "system.A, entry 3: duplicate entry for (0, 0)",
    ),
    "duplicate zero entry": (
        lambda d: d["A"].extend(
            [{"row": 1, "col": 0, "terms": [{"coeff": "0", "monomial": {}}]}] * 2
        ),
        "system.A, entry 4: duplicate entry for (1, 0)",
    ),
    "duplicate empty entry": (
        lambda d: d["A"].extend([{"row": 1, "col": 0, "terms": []}] * 2),
        "system.A, entry 4: duplicate entry for (1, 0)",
    ),
    "terms not a list": (
        lambda d: d["A"][0].__setitem__("terms", {}),
        "system.A, entry 0: terms must be a list",
    ),
    "term not an object": (
        lambda d: d["A"][0]["terms"].__setitem__(0, "1"),
        "system.A, entry 0, term 0: expected an object",
    ),
    "term missing monomial": (
        lambda d: d["A"][0]["terms"][0].pop("monomial"),
        "system.A, entry 0, term 0: missing field(s) ['monomial']",
    ),
    "term unknown field": (
        _set_term("power", 2),
        "system.A, entry 0, term 0: unknown field(s) ['power']",
    ),
    "decimal coefficient": (
        _set_coeff("A", 0, 0, "1.5"),
        "system.A, entry 0, term 0: coefficient must be a decimal-free 'num' or 'num/den' "
        "string, got '1.5'",
    ),
    "integer coefficient": (
        _set_coeff("A", 0, 0, 3),
        "system.A, entry 0, term 0: coefficient must be a decimal-free 'num' or 'num/den' "
        "string, got 3",
    ),
    "zero denominator": (
        _set_coeff("A", 0, 0, "1/0"),
        "system.A, entry 0, term 0: coefficient must be a decimal-free 'num' or 'num/den' "
        "string, got '1/0'",
    ),
    "padded coefficient": (
        _set_coeff("A", 0, 0, " 1"),
        "system.A, entry 0, term 0: coefficient must be a decimal-free 'num' or 'num/den' "
        "string, got ' 1'",
    ),
    "both primes": (
        _set_coeff("B[2]", 0, 0, f"1/{FIELD_PRIME * FALLBACK_PRIME}"),
        "system.B[2], entry 0, term 0: coefficient 1/5316911983139663523897030370113093617 "
        "has a denominator divisible by both evaluation primes 2305843009213693967 and "
        "2305843009213693951, so no prime field can evaluate it",
    ),
    "coefficient in C[2]": (
        _set_coeff("C[2]", 1, 0, "x"),
        "system.C[2], entry 1, term 0: coefficient must be a decimal-free 'num' or 'num/den' "
        "string, got 'x'",
    ),
    "monomial not an object": (
        _set_term("monomial", []),
        "system.A, entry 0, term 0: monomial must be an object",
    ),
    "unknown parameter": (
        _set_term("monomial", {"p9": 1}),
        "system.A, entry 0, term 0: unknown parameter 'p9'",
    ),
    "zero exponent": (
        _set_term("monomial", {"p1": 0}),
        "system.A, entry 0, term 0: exponent of 'p1' must be an integer >= 1",
    ),
    "string exponent": (
        _set_term("monomial", {"p1": "1"}),
        "system.A, entry 0, term 0: exponent of 'p1' must be an integer >= 1",
    ),
    "zero term then the same monomial": (
        lambda d: d["A"][0].__setitem__("terms", [
            {"coeff": "0", "monomial": {"p1": 1}}, {"coeff": "2", "monomial": {"p1": 1}}
        ]),
        "system.A, entry 0, term 1: duplicate monomial",
    ),
}


class TestEntryParser:
    @pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
    def test_error_messages_are_unchanged(self, case):
        mutate, message = PARSE_ERRORS[case]
        doc = _shared_demo_doc()
        mutate(doc)
        with pytest.raises(SystemFileError) as err:
            parse_system_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text", ["+3", "-0", "3/1", "-6/4", f"1/{FIELD_PRIME}", "5\n", "-7/2\n", "12", "0"]
    )
    def test_coefficients_equal_the_fraction_of_their_text(self, text):
        doc = _shared_demo_doc()
        doc["A"][0]["terms"] = [{"coeff": text, "monomial": {"p1": 1, "p3": 2}}]
        doc["A"][0]["terms"].append({"coeff": "4", "monomial": {"p2": 1}})
        A = parse_system_dict(doc)[0].A
        # the entry as ParamPoly built it from the term map, zero terms dropped
        want = ParamPoly({((0, 1), (2, 2)): Fraction(text), ((1, 1),): Fraction(4)})
        got = dict(A.items())[(0, 0)]
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is Fraction for c in got.terms.values())
        assert (((0, 1), (2, 2)) in got.terms) == (Fraction(text) != 0)

    def test_an_entry_of_zero_terms_is_not_stored(self):
        doc = _shared_demo_doc()
        doc["A"].append({"row": 1, "col": 0, "terms": [{"coeff": "0", "monomial": {}}]})
        doc["A"].append({"row": 0, "col": 1, "terms": []})  # replaces the p1 entry at (0, 1)
        doc["A"].pop(1)
        A = parse_system_dict(doc)[0].A
        assert [pos for pos, _ in A.items()] == [(0, 0), (1, 1)]
        assert A == ParamMatrix(2, 2, {(0, 0): ParamPoly.param(0), (1, 1): ParamPoly.param(1)}, 4)

    @pytest.mark.parametrize("value", ["0.5", "1/0", "", "p2", "1 ", "--3"])
    def test_bad_set_values_keep_their_message(self, worked_file, capsys, value):
        argv = ["fixed-modes", str(worked_file), "--set", f"p1={value}"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: --set expects NAME=NUM or NAME=NUM/DEN, got {'p1=' + value!r}\n"
        assert main(["fixed-modes", str(worked_file), "--set", "p1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: --set expects NAME=NUM or NAME=NUM/DEN, got 'p1'\n"

    @pytest.mark.parametrize("second", ["5", "2", "4/2"])
    @pytest.mark.parametrize("form", ["pair", "equals"])
    def test_a_parameter_set_twice_is_refused(self, worked_file, capsys, second, form):
        # the same value or another, read by the fast path or by argparse
        sets = ["p1=2", f"p1={second}", "p2=1", "p3=1", "p4=1"]
        argv = ["fixed-modes", str(worked_file)]
        for item in sets:
            argv += ["--set", item] if form == "pair" else [f"--set={item}"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: --set assigns parameter 'p1' twice\n")

    def test_set_values_are_exact(self, worked_file, capsys):
        argv = ["fixed-modes", str(worked_file), "--samples", "20", "--format", "json"]
        values = {"p1": "+3", "p2": "-6/4", "p3": "3/1", "p4": f"1/{FIELD_PRIME}"}
        argv += [f"--set={name}={value}" for name, value in values.items()]
        assert main(argv) == EXIT_OK
        point = json.loads(capsys.readouterr().out)["point"]
        assert point == {name: str(Fraction(value)) for name, value in values.items()}


# -- integer fields refuse JSON true and false ----------------------------------------

# bool is an int subclass: an isinstance(x, int) check would read each of these as 0 or 1
BOOL_FIELDS = {
    "schema_version": (
        lambda d: d.__setitem__("schema_version", True),
        "system: unsupported schema_version True",
    ),
    "n": (lambda d: d.__setitem__("n", True), "system: n must be a positive integer"),
    "channel m": (
        lambda d: d["channels"][0].__setitem__("m", True),
        "system, channel 1: m and l must be nonnegative integers",
    ),
    "channel l": (
        lambda d: d["channels"][1].__setitem__("l", False),
        "system, channel 2: m and l must be nonnegative integers",
    ),
    "row": (
        lambda d: d["A"][0].__setitem__("row", True),
        "system.A, entry 0: row True outside 0..1",
    ),
    "col": (
        lambda d: d["C"][0][0].__setitem__("col", False),
        "system.C[1], entry 0: col False outside 0..1",
    ),
    "exponent": (
        _set_term("monomial", {"p1": True}),
        "system.A, entry 0, term 0: exponent of 'p1' must be an integer >= 1",
    ),
}


class TestBoolFields:
    @pytest.mark.parametrize("case", sorted(BOOL_FIELDS))
    def test_refused_with_a_message_naming_the_field(self, case):
        mutate, message = BOOL_FIELDS[case]
        doc = _shared_demo_doc()
        mutate(doc)
        with pytest.raises(SystemFileError) as err:
            parse_system_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "field, line",
        [("schema_version", "unsupported schema_version True"),
         ("n", "n must be a positive integer")],
    )
    def test_analyze_refuses_a_true_field(self, tmp_path, capsys, field, line):
        path = classic_chain_file(tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[field] = True
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {line}\n"


class TestSchemaVersionType:
    def test_a_float_version_equal_to_1_is_refused(self):
        doc = _shared_demo_doc()
        doc["schema_version"] = 1.0
        with pytest.raises(SystemFileError) as err:
            parse_system_dict(doc)
        assert str(err.value) == "system: unsupported schema_version 1.0"

    def test_analyze_refuses_it(self, tmp_path, capsys):
        path = tmp_path / "float_version.json"
        path.write_text(json.dumps(_shared_demo_doc()).replace(
            '"schema_version": 1,', '"schema_version": 1.0,'), encoding="utf-8")
        assert main(["analyze", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: unsupported schema_version 1.0\n"


# -- a numeric sample whose entries leave the float range ----------------------------

HUGE_FAILURE = "entry (1, 0) of B[1] evaluates to a value too large for a float"


@pytest.fixture
def huge_entry_file(tmp_path):
    """The shared demo with B_1 = p1^1000000: beyond the float range unless |p1| <= 1."""
    doc = _shared_demo_doc()
    doc["B"][0][0]["terms"] = [{"coeff": "1", "monomial": {"p1": 1000000}}]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestFailedSample:
    def test_analyze_keeps_its_report(self, huge_entry_file, capsys):
        assert main(["analyze", str(huge_entry_file), "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["consistency"]["agree"] and report["verdicts"]["pencil_sampling"]
        samples = report["fixed_spectrum_samples"]
        failed = [sample for sample in samples if sample["fixed_eigenvalues"] is None]
        # p1 is -1 at the third point, so that sample stays finite
        assert [sample["point"]["p1"] for sample in samples] == ["10", "-21", "-1"]
        assert failed == samples[:2]
        assert all(sample["failure"] == HUGE_FAILURE for sample in failed)
        assert samples[2]["fixed_eigenvalues"] == [] and "failure" not in samples[2]

    def test_analyze_text_says_not_computed(self, huge_entry_file, capsys):
        assert main(["analyze", str(huge_entry_file)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[-3:] == [
            f"fixed spectrum at sample (seed 7919): not computed ({HUGE_FAILURE})",
            f"fixed spectrum at sample (seed 15838): not computed ({HUGE_FAILURE})",
            "fixed spectrum at sample (seed 23757): empty",
        ]

    def test_fixed_modes_prints_one_error_line(self, huge_entry_file, capsys):
        argv = ["fixed-modes", str(huge_entry_file), "--set", "p1=2", "--set", "p2=1",
                "--set", "p3=1", "--set", "p4=1"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {HUGE_FAILURE}\n"
        # at p1 = 1 the entry is 1 and the point is reported as usual
        argv[3] = "p1=1"
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "" and "routes agree: True" in captured.out


TINY_FAILURE = "entry (1, 0) of B[1] evaluates to a nonzero value too small for a float"


@pytest.fixture
def tiny_entry_file(tmp_path):
    """The shared demo with B_1 = p2 / 2^1100: nonzero, but 0.0 as a float unless p2 is huge."""
    doc = _shared_demo_doc()
    doc["B"][0][0]["terms"][0]["coeff"] = f"1/{2 ** 1100}"
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestUnderflowingSample:
    """A nonzero entry that rounds to 0.0 fails the sample, as one too large does."""

    def test_analyze_keeps_its_report(self, tiny_entry_file, capsys):
        assert main(["analyze", str(tiny_entry_file), "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        # the exact routes see the tiny entry: no SFS, and they agree
        assert report["consistency"]["agree"]
        assert set(report["consistency"]["has_sfs_values"]) == {False}
        samples = report["fixed_spectrum_samples"]
        assert all(sample["point"]["p2"] != "0" for sample in samples)
        assert all(sample["fixed_eigenvalues"] is None for sample in samples)
        assert all(sample["failure"] == TINY_FAILURE for sample in samples)

    def test_fixed_modes_prints_one_error_line(self, tiny_entry_file, capsys):
        argv = ["fixed-modes", str(tiny_entry_file), "--set", "p1=2", "--set", "p2=3",
                "--set", "p3=5", "--set", "p4=7"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {TINY_FAILURE}\n"
        # at p2 = 0 the entry is an exact zero and the point is reported as usual
        argv[5] = "p2=0"
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "" and "routes agree: True" in captured.out

    def test_subnormal_entries_convert(self):
        # 2^-1074 is the smallest subnormal float; half of it rounds to 0.0
        ok = NumericSystem.build(A=[[Fraction(1, 2**1074)]], B_blocks=[[[1]]], C_blocks=[[[1]]])
        assert ok.A_array()[0, 0] == 2.0**-1074
        tiny = NumericSystem.build(A=[[1]], B_blocks=[[[1]]], C_blocks=[[[Fraction(1, 2**1076)]]])
        with pytest.raises(FloatRangeError, match=r"entry \(0, 0\) of C\[1\] evaluates to a "
                           "nonzero value too small for a float"):
            tiny.C_array()


# -- argv: the --set pairs kept out of argparse's scan ------------------------------

# (argv, whether the --set pairs come out before argparse runs)
SET_ARGVS = [
    (["fixed-modes", "x.json", "--set", "p1=1", "--set", "p2=-2"], True),
    (["fixed-modes", "x.json", "--format", "json", "--set", "p1=1", "--samples", "5"], True),
    (["fixed-modes", "--set", "p1=1", "x.json", "--set", "p2=1/2"], True),
    (["fixed-modes", "x.json", "--set", "p1=1", "--set", "p1=2"], True),
    (["fixed-modes", "x.json", "--set", "p1=1", "extra"], True),
    (["fixed-modes", "x.json", "extra", "--set", "p1=1"], True),
    (["fixed-modes", "--set", "p1=1"], True),
    (["fixed-modes", "x.json", "--set", ""], True),
    (["fixed-modes", "x.json", "--set", "p1 = 1"], True),
    (["fixed-modes", "x.json", "--set", "p1=1", "--unknown"], True),
    (["fixed-modes", "x.json", "--set", "p1=1", "--se", "p2=1"], True),
    (["fixed-modes", "x.json", "--tol", "0.5", "--set", "p1=1"], True),
    (["fixed-modes", "x.json", "--set", "p1=1", "--set=p1=2"], False),
    (["fixed-modes", "x.json", "--set=p1=2", "--set", "p1=1"], False),
    (["fixed-modes", "x.json", "--set"], False),
    (["fixed-modes", "x.json", "--set", "p1=1", "--set"], False),
    (["fixed-modes", "x.json", "--set", "--tol"], False),
    (["fixed-modes", "x.json", "--tol", "--set", "p1=1", "0.5"], False),
    (["fixed-modes", "x.json", "--seed", "--set", "p1=1"], False),
    (["fixed-modes", "x.json", "--set", "p1=1", "--", "--set", "p2=1"], False),
    (["fixed-modes", "--set", "p1=1", "--", "x.json"], False),
    (["fixed-modes", "x.json", "--se", "p1=1"], False),
    (["fixed-modes", "x.json", "--set", "-3"], False),
    (["fixed-modes", "x.json", "--set", "p1=1", "--set", "-p2=1"], False),
    (["fixed-modes", "x.json", "--set", "p1=1", "--set", "--set", "p2=2"], False),
    (["fixed-modes", "x.json", "-h", "--set", "p1=1"], False),
    (["analyze", "x.json", "--set", "p1=1"], False),
    (["--set", "p1=1", "fixed-modes", "x.json"], False),
    ([], False),
    (["analyze"], False),
    (["analyze", "x.json", "--trials", "x"], False),
]


def _argparse_outcome(parse, argv, capsys):
    """The Namespace, or the exit code and output of a refused argv."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestSetPairs:
    @pytest.mark.parametrize("argv, split", SET_ARGVS)
    def test_argparse_reads_the_same(self, argv, split, capsys, monkeypatch):
        parser = _build_parser()
        argparse_alone = parser.parse_args
        handed = []

        def spy(args):
            handed.append(args)
            return argparse_alone(args)

        monkeypatch.setattr(parser, "parse_args", spy)
        got = _argparse_outcome(_parse_args, argv, capsys)
        want = _argparse_outcome(argparse_alone, argv, capsys)
        assert got == want
        # the pairs came out before argparse ran, or argv went to it whole
        assert (handed == [argv]) != split
        assert not split or "--set" not in handed[0]

    @pytest.mark.parametrize(
        "argv",
        [[], ["analyze"], ["analyze", "x.json", "--trials", "x"], ["graph", "x.json", "--tol", "1"]],
    )
    def test_usage_errors_exit_1_with_the_text_of_argparse(self, argv, capsys, monkeypatch):
        got = _argparse_outcome(_parse_args, argv, capsys)
        monkeypatch.setattr(_Parser, "error", argparse.ArgumentParser.error)
        want = _argparse_outcome(_parse_args, argv, capsys)
        # the same usage and message on stderr; exit 1, not argparse's 2
        assert want[0] == ("exit", 2) and want[2].startswith("usage: sfspectrum")
        assert got == (("exit", EXIT_USAGE), want[1], want[2])

    def test_main_reads_the_pulled_values_in_order(self, worked_file, capsys):
        base = ["fixed-modes", str(worked_file), "--samples", "20", "--format", "json"]
        sets = [arg for n in NAMES for arg in ("--set", f"{n}=1")]
        assert main(base + sets) == EXIT_OK
        first = capsys.readouterr().out
        assert main(base + sets[2:] + sets[:2]) == EXIT_OK  # the first pair moved last
        assert capsys.readouterr().out == first
        # the first malformed pair in argv order is the one reported
        bad = ["--set", "p2=x", "--set", "p1=y"]
        assert main(base + bad + sets) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: --set expects NAME=NUM or NAME=NUM/DEN, got 'p2=x'\n"
        # a repeated name is refused, before or after the others
        for argv in (base + ["--set", "p1=7"] + sets, base + sets + ["--set", "p1=7"]):
            assert main(argv) == EXIT_USAGE
            assert capsys.readouterr() == ("", "error: --set assigns parameter 'p1' twice\n")


# -- option values ------------------------------------------------------------------


def _option_cases():
    """(command, extra argv, error line) for every refused option value.

    A case keeps the id it had when crosscheck also took --tol (cases 4 to 7).
    """
    cases = []
    # argparse itself refuses "-inf": it reads as an option, not a value
    tol_values = (("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0"))
    for command, first in (("analyze", 0), ("fixed-modes", 8)):
        for i, (value, shown) in enumerate(tol_values):
            line = f"error: --tol must be finite and positive, got {shown}"
            cases.append(pytest.param(command, ["--tol", value], line,
                                      id=f"{command}-extra{first + i}-{line}"))
    for command, first in (("analyze", 12), ("crosscheck", 14)):
        for i, value in enumerate(("0", "-5")):
            line = f"error: --budget must be at least 1, got {value}"
            cases.append(pytest.param(command, ["--budget", value], line,
                                      id=f"{command}-extra{first + i}-{line}"))
    return cases


class TestOptionValues:
    @pytest.mark.parametrize("command, extra, line", _option_cases())
    def test_refused_with_one_error_line(self, worked_file, capsys, command, extra, line):
        argv = [command, str(worked_file)] + extra
        if command == "fixed-modes":
            argv += [arg for n in NAMES for arg in ("--set", f"{n}=1")]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_crosscheck_takes_no_tol(self, worked_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["crosscheck", str(worked_file), "--tol", "1e-9"])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("sfspectrum: error: unrecognized arguments: --tol 1e-9\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{file}", "--out", "{missing}/report.json"],
            ["analyze", "{file}", "--dot", "{missing}/g.dot"],
            ["graph", "{file}", "--dot", "{missing}/g.dot"],
        ],
    )
    def test_unwritable_output_is_one_error_line(self, worked_file, tmp_path, capsys, argv):
        missing = tmp_path / "absent"
        argv = [a.format(file=worked_file, missing=missing) for a in argv]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(missing) in captured.err
        assert not missing.exists()

    @pytest.mark.parametrize(
        "command, extra",
        [("analyze", ["--tol", "1e-300", "--budget", "1"]), ("crosscheck", ["--budget", "1"]),
         ("fixed-modes", ["--tol", "0.5"])],
    )
    def test_smallest_accepted_values_still_run(self, worked_file, capsys, command, extra):
        argv = [command, str(worked_file)] + extra
        if command == "fixed-modes":
            argv += [arg for n in NAMES for arg in ("--set", f"{n}=1")]
        assert main(argv) in (EXIT_OK, EXIT_INCONSISTENT, EXIT_BUDGET)
        assert "must be" not in capsys.readouterr().err
