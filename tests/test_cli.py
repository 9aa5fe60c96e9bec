"""Command line reports: exit codes, payloads, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finalg
from finalg.algebra import CapExceeded
from finalg.cli import EXIT_CAPPED, EXIT_INPUT, EXIT_OK, EXIT_WITNESS, main

FIXTURES = Path(finalg.__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write_algebra(tmp_path, name, size, operations):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "size": size, "operations": operations}))
    return path


def cyclic_path(tmp_path, n):
    return write_algebra(
        tmp_path,
        f"Z{n}",
        n,
        [
            {"name": "+", "arity": 2, "table": [(a + b) % n for a in range(n) for b in range(n)]},
            {"name": "neg", "arity": 1, "table": [(-a) % n for a in range(n)]},
            {"name": "zero", "arity": 0, "table": [0]},
        ],
    )


class TestAnalyze:
    def test_z4_headline_numbers(self, capsys):
        code, report, _ = run_cli(capsys, "analyze", FIXTURES / "z4.json")
        assert code == EXIT_OK
        res = report["results"]
        assert res["congruences"] == 3
        assert res["height"] == 2
        assert res["nilpotency_class"] == 1
        assert res["congruence_uniform"] is True
        assert "+" in res["malcev_term"]
        assert report["command"] == "analyze"
        assert len(report["input_digest"]) == 64

    def test_lattice_is_not_nilpotent_and_has_no_witness(self, capsys):
        code, report, _ = run_cli(capsys, "analyze", FIXTURES / "lattice2.json")
        assert code == EXIT_OK
        res = report["results"]
        assert res["nilpotency_class"] == "not nilpotent"
        assert res["malcev_term"] is None

    def test_one_element_algebra_degenerates_gracefully(self, capsys, tmp_path):
        path = write_algebra(
            tmp_path, "point", 1, [{"name": "f", "arity": 1, "table": [0]}]
        )
        code, report, _ = run_cli(capsys, "analyze", path)
        assert code == EXIT_OK
        assert report["results"]["congruences"] == 1
        assert report["results"]["height"] == 0

    def test_sixteen_element_group_is_analyzed(self, capsys, tmp_path):
        # its pair subalgebras have 256 elements, one more than an input may
        code, report, _ = run_cli(capsys, "analyze", cyclic_path(tmp_path, 16))
        assert code == EXIT_OK
        assert report["results"]["nilpotency_class"] == 1
        assert report["results"]["congruences"] == 5

    def test_sixteen_element_ternary_operation_is_analyzed(self, capsys, tmp_path):
        # x - y + z mod 16 alone: a ternary operation on 256-element pair
        # subalgebras, which the congruence worklist must not flood
        table = [(a - b + c) % 16 for a in range(16) for b in range(16) for c in range(16)]
        path = write_algebra(tmp_path, "p16", 16, [{"name": "p", "arity": 3, "table": table}])
        code, report, _ = run_cli(capsys, "analyze", path)
        assert code == EXIT_OK
        assert report["results"]["nilpotency_class"] == 1
        assert report["wall_time_seconds"] < 20.0


class TestExpand:
    def test_sixteen_element_group_passes_every_check(self, capsys, tmp_path):
        code, report, _ = run_cli(capsys, "expand", cyclic_path(tmp_path, 16))
        assert code == EXIT_OK
        checks = report["results"]["checks"]
        assert [c["name"] for c in checks] == [
            "series-congruences-preserved",
            "group-structure",
            "alignment-relations-preserved",
            "nilpotency-bound",
        ]
        assert all(c["passed"] for c in checks)
        assert report["results"]["group_factors"] == [2, 2, 2, 2]
        # the alignment check alone took minutes when it ran on the full
        # relation, at 32,768 rows on the top level
        assert report["wall_time_seconds"] < 30.0

    def test_z4_gains_a_klein_addition(self, capsys, tmp_path):
        out = tmp_path / "z4.expanded.json"
        code, report, _ = run_cli(
            capsys, "expand", FIXTURES / "z4.json", "--out", out
        )
        assert code == EXIT_OK
        res = report["results"]
        assert res["group_factors"] == [2, 2]
        assert res["all_passed"] is True
        names = [op["name"] for op in res["expanded_algebra"]["operations"]]
        assert names == ["+", "neg", "zero", "+2", "neg2"]
        assert json.loads(out.read_text())["size"] == 4

    def test_round_trip_class_stays_within_series_length(self, capsys, tmp_path):
        out = tmp_path / "expanded.json"
        _, expand_report, _ = run_cli(capsys, "expand", FIXTURES / "z4.json", "--out", out)
        code, analyze_report, _ = run_cli(capsys, "analyze", out)
        assert code == EXIT_OK
        klass = analyze_report["results"]["nilpotency_class"]
        assert klass <= expand_report["results"]["series_length"]

    def test_already_group_shaped_input_is_unchanged(self, capsys):
        code, report, _ = run_cli(capsys, "expand", FIXTURES / "m.json")
        assert code == EXIT_OK
        names = [op["name"] for op in report["results"]["expanded_algebra"]["operations"]]
        assert names == ["+", "mul", "neg", "zero"]

    @pytest.mark.parametrize("fixture", ["semilattice2.json", "lattice2.json"])
    def test_refusal_exits_with_witness_code(self, capsys, fixture):
        code, report, _ = run_cli(capsys, "expand", FIXTURES / fixture)
        assert code == EXIT_WITNESS
        assert "no Mal'cev term" in report["results"]["refused"]


class TestBoundVerify:
    def test_m_full_verification(self, capsys):
        code, report, _ = run_cli(capsys, "bound-verify", FIXTURES / "m.json")
        assert code == EXIT_OK
        res = report["results"]
        assert (res["q"], res["m"], res["h"], res["bound_s"]) == (4, 2, 2, 6)
        assert res["observed_degree"] == 2
        assert res["absorbing_arity_check"]["ok"] is True
        assert res["degree_check"]["verified_degree"] == 2
        assert res["lower_degree_refuted"] is True
        assert res["reduct_term_condition"]["witness"] is None
        assert res["triangle"]["consistent"] is True
        assert report["caps_hit"] == []

    def test_z4_expansion_verifies_degree_two(self, capsys):
        code, report, _ = run_cli(capsys, "bound-verify", FIXTURES / "z4.json")
        assert code == EXIT_OK
        res = report["results"]
        assert res["bound_s"] == 6
        assert res["degree_check"]["verified_degree"] == 2
        assert res["triangle"]["spectrum_estimate"] == 1
        assert res["triangle"]["consistent"] is True

    @pytest.mark.parametrize("fixture", ["d4.json", "q8.json"])
    def test_dihedral_and_quaternion_degrade_under_caps(self, capsys, fixture):
        code, report, _ = run_cli(
            capsys, "bound-verify", FIXTURES / fixture, "--size-cap", 6000
        )
        assert code == EXIT_CAPPED
        res = report["results"]
        assert (res["q"], res["h"], res["bound_s"]) == (8, 3, 196)
        assert res["lower_degree_refuted"] is True
        assert res["degree_check"]["verified_degree"] is None
        assert report["caps_hit"]

    def test_mixed_order_input_warns_and_skips_the_arity_check(self, capsys, tmp_path):
        code, report, _ = run_cli(
            capsys, "bound-verify", cyclic_path(tmp_path, 6), "--size-cap", 4000
        )
        assert code == EXIT_CAPPED
        res = report["results"]
        assert "not a prime power" in res["warning"]
        assert res["log_order_bound"]["ceiling"] == 39
        assert "skipped" in res["absorbing_arity_check"]


class TestSpectrum:
    def test_ring_counts_and_estimate(self, capsys):
        code, report, _ = run_cli(capsys, "spectrum", FIXTURES / "m.json")
        assert code == EXIT_OK
        res = report["results"]
        assert res["counts"] == [4, 32, 512]
        assert res["log2_counts"] == [2.0, 5.0, 9.0]
        assert res["degree_estimate"] == 2

    def test_cyclic_group_is_linear(self, capsys):
        code, report, _ = run_cli(capsys, "spectrum", FIXTURES / "z4.json")
        assert code == EXIT_OK
        assert report["results"]["log2_counts"] == [2.0, 4.0, 6.0]
        assert report["results"]["degree_estimate"] == 1

    def test_cap_prevents_a_verdict(self, capsys):
        code, report, _ = run_cli(
            capsys, "spectrum", FIXTURES / "d4.json", "--size-cap", 10
        )
        assert code == EXIT_CAPPED
        assert report["caps_hit"] == ["free spectrum capped"]


class TestPolyclone:
    def test_generator_build(self, capsys):
        code, report, _ = run_cli(
            capsys, "polyclone", "build-h", "--field", "2",
            "--polys", "x1*x2", "--window", 2,
        )
        assert code == EXIT_OK
        assert report["results"]["elements"] == ["0", "x1^2", "x1*x2", "x2^2"]

    def test_component_split_over_f17(self, capsys):
        code, report, _ = run_cli(
            capsys, "polyclone", "hoc", "--field", "17",
            "--polys", "5*x1*x2^2 + 7*x1*x2 + 13*x2 + 4",
        )
        assert code == EXIT_OK
        assert report["results"]["elements"] == [
            "0", "4", "13*x2", "7*x1*x2 + 5*x1*x2^2"
        ]

    def test_component_on_missing_support_is_zero(self, capsys):
        code, report, _ = run_cli(
            capsys, "polyclone", "hoc", "--field", "17",
            "--polys", "x2^2 + x3", "--variables", "2,3",
        )
        assert code == EXIT_OK
        assert report["results"]["elements"] == ["0"]

    def test_split_check_passes_for_a_single_product(self, capsys):
        code, report, _ = run_cli(
            capsys, "polyclone", "lclo-check", "--field", "2",
            "--polys", "x1*x2", "--window", 2,
        )
        assert code == EXIT_OK
        res = report["results"]
        assert res["ok"] is True
        assert all(c["equal"] and c["conclusive"] for c in res["arities"])

    def test_split_check_reports_a_cap_instead_of_a_traceback(self, capsys, monkeypatch):
        def capped(*args, **kwargs):
            raise CapExceeded("generator span exceeds the cap")

        monkeypatch.setattr("finalg.cli.verify_homovariate_split", capped)
        code, report, _ = run_cli(
            capsys, "polyclone", "lclo-check", "--field", "2",
            "--polys", "x1*x2*x3*x4", "--window", 4,
        )
        assert code == EXIT_CAPPED
        assert report["results"] == {"skipped": "generator span exceeds the cap"}
        assert report["caps_hit"] == ["homovariate split capped"]

    def test_product_substitutes_both_sides(self, capsys):
        code, report, _ = run_cli(
            capsys, "polyclone", "product", "--field", "2",
            "--a", "x1*x2", "--b", "x1; x1+x2",
        )
        assert code == EXIT_OK
        assert report["results"]["elements"] == [
            "x1^2", "x1^2 + x1*x2", "x1^2 + x2^2"
        ]

    def test_span_of_two_generators(self, capsys):
        code, report, _ = run_cli(
            capsys, "polyclone", "span", "--field", "2",
            "--polys", "x1*x2; x1", "--window", 2,
        )
        assert code == EXIT_OK
        assert report["results"]["count"] == 4

    def test_unreduced_substitution_closure_caps(self, capsys):
        code, report, _ = run_cli(
            capsys, "polyclone", "clop", "--field", "2",
            "--polys", "x1*x2", "--window", 2, "--size-cap", 64,
        )
        assert code == EXIT_CAPPED
        assert report["results"]["capped"] is True

    def test_empty_generator_set(self, capsys):
        code, report, _ = run_cli(capsys, "polyclone", "hoc", "--field", "2", "--polys", "")
        assert code == EXIT_OK
        assert report["results"]["elements"] == []


class TestErrorsAndDeterminism:
    def test_missing_file(self, capsys):
        code, report, err = run_cli(capsys, "analyze", "/nonexistent/algebra.json")
        assert code == EXIT_INPUT
        assert report is None
        assert "cannot read" in err

    def test_bad_field_order(self, capsys):
        code, _, err = run_cli(capsys, "polyclone", "span", "--field", "6", "--polys", "x1")
        assert code == EXIT_INPUT
        assert "field order" in err or "unsupported" in err

    def test_bad_polynomial(self, capsys):
        code, _, err = run_cli(capsys, "polyclone", "span", "--field", "2", "--polys", "x1+**")
        assert code == EXIT_INPUT
        assert "bad polynomial" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--bogus", "x.json")
        assert code == EXIT_INPUT
        assert "unrecognized" in err

    def test_zero_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "expand", FIXTURES / "z4.json", "--zero", 9)
        assert code == EXIT_INPUT
        assert "zero element" in err

    def test_product_requires_both_sides(self, capsys):
        code, _, err = run_cli(capsys, "polyclone", "product", "--field", "2", "--a", "x1")
        assert code == EXIT_INPUT
        assert "--b" in err

    def test_reports_are_stable_modulo_wall_time(self, capsys):
        _, first, _ = run_cli(capsys, "bound-verify", FIXTURES / "m.json")
        _, second, _ = run_cli(capsys, "bound-verify", FIXTURES / "m.json")
        first.pop("wall_time_seconds")
        second.pop("wall_time_seconds")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_json_out_mirrors_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, report, _ = run_cli(
            capsys, "analyze", FIXTURES / "z4.json", "--json-out", out
        )
        assert code == EXIT_OK
        assert json.loads(out.read_text()) == report

    def test_module_entry_point(self):
        # the child interpreter imports finalg from this checkout's sources
        src = str(Path(finalg.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "finalg.cli", "analyze", str(FIXTURES / "z4.json")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["congruences"] == 3
