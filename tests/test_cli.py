"""Tests for the command line interface.

Everything goes through main(argv) so exit codes and emitted text are
checked exactly as a shell would see them.  Byte determinism matters:
two identical invocations must print identical bytes.
"""

import argparse
import hashlib
import json
import math
import time

import pytest

from dnzeta.claims import k_table, schottky_pair
from dnzeta import cli
from dnzeta.cli import main
from dnzeta.hyperbolic import LengthSpectrum, SpectrumEntry, spectrum_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cyclic_spectrum(path, length=1.0, reflections=None):
    entry = SpectrumEntry(length=length, multiplicity=2, reflections=reflections)
    spectrum = LengthSpectrum(
        entries=(entry,), cutoff=10.0 * length, complete_up_to=10.0 * length
    )
    path.write_text(spectrum_to_json(spectrum), encoding="utf-8")
    return str(path)


def write_generator_pair(path):
    # the Schottky pair of the verify suites: translation lengths 2.0, 2.4
    gens = [
        {"a": g.a, "b": g.b, "c": g.c, "d": g.d, "label": label}
        for g, label in zip(schottky_pair().generators, "AB")
    ]
    path.write_text(json.dumps({"generators": gens}), encoding="utf-8")
    return str(path)


class TestGeometrySubcommands:
    def test_disc_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "disc", "--radius", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert len(doc["fingerprint"]) == 12
        int(doc["fingerprint"], 16)
        assert abs(doc["report"]["ratio"] - 1.0) < 1e-12
        assert abs(doc["report"]["value"] - 2.0 * math.pi) < 1e-11

    def test_disc_json_is_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "disc", "--radius", "2.5")
        assert code == 0
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_disc_plain_format(self, capsys):
        code, out, _ = run_cli(capsys, "disc", "--radius", "1.0", "--format", "plain")
        assert code == 0
        assert "ratio = " in out
        assert out.rstrip().splitlines()[-1].startswith("fingerprint: ")

    def test_format_flag_position_is_flexible(self, capsys):
        _, after, _ = run_cli(capsys, "disc", "--radius", "3.0", "--format", "plain")
        _, before, _ = run_cli(capsys, "--format", "plain", "disc", "--radius", "3.0")
        assert before == after

    def test_verbose_goes_to_stderr_only(self, capsys):
        code, quiet_out, quiet_err = run_cli(capsys, "disc", "--radius", "1.5")
        assert code == 0 and quiet_err == ""
        code, out, err = run_cli(capsys, "disc", "--radius", "1.5", "-v")
        assert code == 0
        assert out == quiet_out
        assert "fingerprint=" in err

    def test_annulus_ratio_matches_log_law(self, capsys):
        code, out, _ = run_cli(capsys, "annulus", "--rho", "2.0")
        assert code == 0
        doc = json.loads(out)
        expected = 2.0 * math.pi / math.log(2.0)
        assert abs(doc["report"]["ratio"] - expected) < 1e-10

    def test_annulus_modes_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "annulus", "--rho", "2.0", "--modes", "3", "--format", "plain"
        )
        assert code == 0
        mode_lines = [l for l in out.splitlines() if l.startswith("mode ")]
        assert len(mode_lines) == 4
        first = mode_lines[0].split(":")[1].split(",")
        assert float(first[0]) == 0.0
        pair = (1.0 + 2.0) / (2.0 * math.log(2.0))
        assert abs(float(first[1]) - pair) < 1e-12

    def test_cylinder_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "cylinder", "--ell", "2.5")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["report"]["value"] - 2.0 * 2.5**2 / math.pi) < 1e-13
        rho = math.exp(2.0 * math.pi**2 / 2.5)
        assert abs(doc["geometry"]["bridge_rho"] / rho - 1.0) < 1e-13

    def test_validation_failures_exit_one(self, capsys):
        assert run_cli(capsys, "disc", "--radius", "-2.0")[0] == 1
        assert run_cli(capsys, "annulus", "--rho", "1.0")[0] == 1
        assert run_cli(capsys, "cylinder", "--ell", "0.0")[0] == 1

    def test_unknown_arguments_exit_one(self, capsys):
        assert run_cli(capsys, "disc")[0] == 1
        assert run_cli(capsys, "disc", "--radius", "1.0", "--bogus")[0] == 1
        assert run_cli(capsys, "no-such-command")[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["disc", "--radius", "1e308"],
            ["cylinder", "--ell", "1e300"],
            ["theorem4", "--zg1", "1", "--zg01", "1", "--chi", "-1", "--ell", "1e4"],
            ["theorem4", "--zg1", "1e300", "--zg01", "1e-5", "--chi", "-1", "--ell", "1"],
            ["disc", "--radius", "1e-320"],
            ["annulus", "--rho", "1e308"],
            ["theorem4", "--zg1", "1e308", "--zg01", "1", "--chi", "-1", "--ell", "1"],
            ["theorem4", "--zg1", "1e-300", "--zg01", "1e-170", "--chi", "-1", "--ell", "1"],
            ["theorem4", "--zg1", "1", "--zg01", "1", "--chi", "-1", "--ell", "2837"],
            ["theorem4", "--zg1", "1", "--zg01", "1", "--chi", "-1", "--ell", "2838"],
        ],
    )
    def test_finite_out_of_range_inputs_are_refused(self, capsys, argv):
        # Finite flags whose result or derived eigenvalue leaves the float
        # range: a validation error, not a traceback or a contract violation.
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestParserReuse:
    """main() builds its parser once per process; no call leaks into the next."""

    def test_parser_is_built_on_the_first_call_only(self, capsys, monkeypatch):
        cli._build_parser.cache_clear()
        built = [0]
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_cli(capsys, "disc", "--radius", "1.0")[0] == 0
        # the root, the shared-flag parent and one parser per subcommand
        tree = 2 + len(cli._DISPATCH)
        assert built[0] == tree
        assert run_cli(capsys, "annulus", "--rho", "2.0")[0] == 0
        assert built[0] == tree

    def test_format_does_not_carry_over(self, capsys):
        code, plain, _ = run_cli(capsys, "disc", "--radius", "1.0", "--format", "plain")
        assert code == 0 and plain.startswith("radius = ")
        code, out, _ = run_cli(capsys, "disc", "--radius", "1.0")
        assert code == 0
        assert json.loads(out)["subcommand"] == "disc"

    def test_verbosity_does_not_carry_over(self, capsys):
        code, _, err = run_cli(capsys, "-v", "disc", "--radius", "1.0", "-v")
        assert code == 0 and "fingerprint=" in err
        code, _, err = run_cli(capsys, "disc", "--radius", "1.0")
        assert code == 0 and err == ""

    def test_usage_error_leaves_no_state(self, capsys):
        code, fresh, _ = run_cli(capsys, "cylinder", "--ell", "2.0", "--format", "plain")
        assert code == 0
        code, out, err = run_cli(capsys, "cylinder", "--format", "plain", "--bogus")
        assert code == 1 and out == "" and "error:" in err
        code, again, err = run_cli(capsys, "cylinder", "--ell", "2.0", "--format", "plain")
        assert code == 0 and err == ""
        assert again == fresh

    def test_help_is_identical_on_repeat(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        for argv in (("--help",), ("zeta", "--help")):
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first[0] == second[0] == 0
            assert first[1] and first[1] == second[1]
        # the width is read when help is printed, not when the parser was built
        monkeypatch.setenv("COLUMNS", "40")
        narrow = run_cli(capsys, "zeta", "--help")[1]
        assert narrow != first[1]
        assert max(len(line) for line in narrow.splitlines()) < max(
            len(line) for line in first[1].splitlines()
        )


class TestByteDeterminism:
    def test_json_repeat_runs_identical(self, capsys):
        _, first, _ = run_cli(capsys, "annulus", "--rho", "2.71828")
        _, second, _ = run_cli(capsys, "annulus", "--rho", "2.71828")
        assert first == second

    def test_csv_repeat_runs_identical(self, capsys, tmp_path):
        spec = write_cyclic_spectrum(tmp_path / "s.json")
        argv = (
            "zeta", "--spectrum", spec, "--kind", "selberg",
            "--lambda", "1.0:3.0:0.5", "--delta-hint", "0.0", "--format", "csv",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_fingerprint_tracks_inputs(self, capsys):
        _, one, _ = run_cli(capsys, "disc", "--radius", "1.0")
        _, two, _ = run_cli(capsys, "disc", "--radius", "2.0")
        fp_one = json.loads(one)["fingerprint"]
        fp_two = json.loads(two)["fingerprint"]
        assert fp_one != fp_two


class TestSpectrumSubcommand:
    def test_spectrum_round_trip_into_zeta(self, capsys, tmp_path):
        gens = write_generator_pair(tmp_path / "gens.json")
        out_path = tmp_path / "spectrum.json"
        code, out, _ = run_cli(
            capsys, "spectrum", "--generators", gens,
            "--max-word-len", "6", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["classes"] >= 4
        stored = json.loads(out_path.read_text(encoding="utf-8"))
        lengths = [e["length"] for e in stored["entries"]]
        assert lengths == sorted(lengths)
        assert abs(lengths[0] - 2.0) < 1e-9
        code, out, _ = run_cli(
            capsys, "zeta", "--spectrum", str(out_path), "--kind", "ruelle",
            "--lambda", "2.0", "--delta-hint", "0.55",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["log_value"]["re"] < 0.0
        assert row["tail_bound"] < 1e-2

    def test_default_cutoff_is_word_depth_consistent(self, capsys, tmp_path):
        gens = write_generator_pair(tmp_path / "gens.json")
        out_path = tmp_path / "spectrum.json"
        code, out, _ = run_cli(
            capsys, "spectrum", "--generators", gens,
            "--max-word-len", "6", "--out", str(out_path),
        )
        assert code == 0
        # shortest generator displacement 2.0, so depth 6 certifies 6.0
        assert json.loads(out)["cutoff"] == 6.0

    def test_explicit_cutoff_respected(self, capsys, tmp_path):
        gens = write_generator_pair(tmp_path / "gens.json")
        out_path = tmp_path / "spectrum.json"
        code, out, _ = run_cli(
            capsys, "spectrum", "--generators", gens, "--max-word-len", "6",
            "--cutoff", "5.0", "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out)["cutoff"] == 5.0

    def test_over_budget_depth_is_refused(self, capsys, tmp_path):
        # Two generators have 9,565,936 reduced words up to depth 14.
        gens = write_generator_pair(tmp_path / "gens.json")
        out_path = tmp_path / "spectrum.json"
        code, out, err = run_cli(
            capsys, "spectrum", "--generators", gens,
            "--max-word-len", "14", "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("EnumerationBudgetError: word depth 14 needs more than 5000000 words")
        assert not out_path.exists()

    def test_one_generator_deep_walk_exits_cleanly(self, capsys, tmp_path):
        # depth 3000 on one dilation of length 2 used to end in an
        # uncaught RecursionError; only g and g^-1 are primitive
        gens = tmp_path / "dilation.json"
        gens.write_text(
            json.dumps({"generators": [{"a": math.e, "b": 0.0, "c": 0.0, "d": 1.0 / math.e}]}),
            encoding="utf-8",
        )
        out_path = tmp_path / "spectrum.json"
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "spectrum", "--generators", str(gens),
            "--max-word-len", "3000", "--out", str(out_path),
        )
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        assert json.loads(out)["total_multiplicity"] == 2
        stored = json.loads(out_path.read_text(encoding="utf-8"))
        assert [e["multiplicity"] for e in stored["entries"]] == [2]

    def test_generator_file_schema_rejections(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"wrong": []}', encoding="utf-8")
        args = ("spectrum", "--generators", str(bad), "--max-word-len", "4",
                "--out", str(tmp_path / "o.json"))
        assert run_cli(capsys, *args)[0] == 1
        bad.write_text('{"generators": [{"a": 2.0, "b": 0.0, "c": 0.0}]}',
                       encoding="utf-8")
        assert run_cli(capsys, *args)[0] == 1
        bad.write_text("not json", encoding="utf-8")
        assert run_cli(capsys, *args)[0] == 1

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "spectrum", "--generators", str(tmp_path / "nope.json"),
            "--max-word-len", "4", "--out", str(tmp_path / "o.json"),
        )
        assert code == 1
        assert "cannot read" in err


class TestZetaSubcommand:
    def test_cyclic_ruelle_matches_closed_form(self, capsys, tmp_path):
        spec = write_cyclic_spectrum(tmp_path / "s.json", length=1.0)
        code, out, _ = run_cli(
            capsys, "zeta", "--spectrum", spec, "--kind", "ruelle",
            "--lambda", "1.0", "--delta-hint", "0.0",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        expected = 2.0 * math.log(-math.expm1(-1.0))
        assert abs(row["log_value"]["re"] - expected) < 1e-12
        assert row["log_value"]["im"] == 0.0
        assert row["tail_bound"] > 0.0

    def test_grid_csv_layout(self, capsys, tmp_path):
        spec = write_cyclic_spectrum(tmp_path / "s.json")
        code, out, _ = run_cli(
            capsys, "zeta", "--spectrum", spec, "--kind", "selberg",
            "--lambda", "1.0:3.0:0.5", "--delta-hint", "0.0", "--format", "csv",
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0].startswith("# fingerprint: ")
        assert lines[1] == "re_lambda,im_lambda,log_abs,arg,tail_bound"
        assert len(lines) == 7
        res = [float(l.split(",")[0]) for l in lines[2:]]
        assert res == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_grid_endpoint_inclusive_despite_rounding(self, capsys, tmp_path):
        spec = write_cyclic_spectrum(tmp_path / "s.json")
        code, out, _ = run_cli(
            capsys, "zeta", "--spectrum", spec, "--kind", "ruelle",
            "--lambda", "0.5:1.5:0.1", "--delta-hint", "0.0",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 11
        assert abs(rows[-1]["lambda"]["re"] - 1.5) < 1e-12

    def test_grid_json_rows_carry_error_fields(self, capsys, tmp_path):
        spec = write_cyclic_spectrum(tmp_path / "s.json")
        code, out, _ = run_cli(
            capsys, "zeta", "--spectrum", spec, "--kind", "selberg",
            "--lambda", "1.0:2.0:0.5", "--delta-hint", "0.0",
        )
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert row["tail_bound"] >= 0.0
            assert row["convergence_abscissa_used"] == 0.0

    def test_complex_lambda(self, capsys, tmp_path):
        spec = write_cyclic_spectrum(tmp_path / "s.json")
        code, out, _ = run_cli(
            capsys, "zeta", "--spectrum", spec, "--kind", "ruelle",
            "--lambda", "1.5+0.5j", "--delta-hint", "0.0",
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["lambda"]["im"] == 0.5
        assert row["log_value"]["im"] != 0.0

    def test_malformed_lambda_specs(self, capsys, tmp_path):
        spec = write_cyclic_spectrum(tmp_path / "s.json")
        base = ("zeta", "--spectrum", spec, "--kind", "ruelle",
                "--delta-hint", "0.0", "--lambda")
        for bad in ("2.0:1.0:0.5", "1.0:2.0:0.0", "1.0:2.0:-0.5",
                    "a:b:c", "1.0:2.0", "zzz"):
            assert run_cli(capsys, *base, bad)[0] == 1

    def test_list_lengths_are_bounded(self, capsys, tmp_path):
        # 10001 rows is one past the limit; 0:1:1e-12 would be 1e12 points,
        # and the last grid's point count overflows a float
        spec = write_cyclic_spectrum(tmp_path / "s.json")
        base = ("zeta", "--spectrum", spec, "--kind", "ruelle", "--lambda")
        for grid in ("1:10001:1", "0:1:1e-12", "0:1e308:1e-300"):
            code, _, err = run_cli(capsys, *base, grid)
            assert code == 1
            assert "points" in err
        assert run_cli(capsys, "annulus", "--rho", "2.0", "--modes", "10000")[0] == 1

    def test_boundary_flag_rules(self, capsys, tmp_path):
        plain = write_cyclic_spectrum(tmp_path / "plain.json")
        refl = write_cyclic_spectrum(tmp_path / "refl.json", reflections=2)
        # selberg-g0 needs --boundary and reflection counts
        args = ("zeta", "--spectrum", refl, "--kind", "selberg-g0",
                "--lambda", "1.5", "--delta-hint", "0.0")
        assert run_cli(capsys, *args)[0] == 1
        code, out, _ = run_cli(capsys, *args, "--boundary", "1.0,1.0")
        assert code == 0
        assert json.loads(out)["rows"][0]["log_value"]["re"] < 0.0
        # reflection-free spectrum cannot feed the boundary zeta
        args = ("zeta", "--spectrum", plain, "--kind", "selberg-g0",
                "--lambda", "1.5", "--delta-hint", "0.0", "--boundary", "1.0,1.0")
        assert run_cli(capsys, *args)[0] == 1
        # and the other kinds reject --boundary outright
        args = ("zeta", "--spectrum", plain, "--kind", "ruelle",
                "--lambda", "1.5", "--delta-hint", "0.0", "--boundary", "1.0")
        assert run_cli(capsys, *args)[0] == 1

    def test_below_abscissa_is_validation_error(self, capsys, tmp_path):
        spec = write_cyclic_spectrum(tmp_path / "s.json")
        code, _, err = run_cli(
            capsys, "zeta", "--spectrum", spec, "--kind", "ruelle",
            "--lambda", "1.0", "--delta-hint", "5.0",
        )
        assert code == 1
        assert "convergence region" in err

    def test_ladder_overflow_is_contract_violation(self, capsys, tmp_path):
        # a 1e-4 length would need ~370k Selberg factors; the ladder caps
        # out and must report the violated invariant by name on exit 2
        spec = write_cyclic_spectrum(tmp_path / "s.json", length=1e-4)
        code, _, err = run_cli(
            capsys, "zeta", "--spectrum", spec, "--kind", "selberg",
            "--lambda", "0.5", "--delta-hint", "0.0",
        )
        assert code == 2
        assert "ConvergenceError" in err


    def test_selberg_ladders_stdout_is_pinned(self, capsys, tmp_path, monkeypatch):
        # sha256 of the full stdout of both ladders on a spectrum with
        # reflection counts and one entry beyond the window; a relative
        # path keeps the plain listing and the fingerprint fixed
        monkeypatch.chdir(tmp_path)
        entries = tuple(
            SpectrumEntry(length=length, multiplicity=mult, reflections=refl)
            for length, mult, refl in ((0.9, 2, 1), (1.3, 1, 0), (2.2, 3, 2), (3.1, 2, 3), (4.5, 1, 1))
        )
        spectrum = LengthSpectrum(entries=entries, cutoff=5.0, complete_up_to=4.0)
        (tmp_path / "refl.json").write_text(spectrum_to_json(spectrum), encoding="utf-8")
        digests = {}
        for kind, extra in (("selberg", ()), ("selberg-g0", ("--boundary", "1.0,2.5"))):
            for fmt in ("json", "plain", "csv"):
                code, out, _ = run_cli(
                    capsys, "zeta", "--spectrum", "refl.json", "--kind", kind,
                    "--lambda", "0.8:1.8:0.5", "--delta-hint", "0.3", "--format", fmt, *extra,
                )
                assert code == 0
                digests[kind, fmt] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == {
            ("selberg", "json"): "bd0f83283648bb33965b1af8c0bc1786294434e9f952f193ede35c8bd1cfe288",
            ("selberg", "plain"): "96225c24da27e76485277cfa4361e848c062887ec9b591a6d8a7a49d229cf976",
            ("selberg", "csv"): "af38c625032c33dd42259c1f9c039d36a4995b4ee59a9fa4e9de3366465ef2cd",
            ("selberg-g0", "json"): "f76669bd11528eefc978f2d76b2f575e6866b64d94b4088f61dee200bab2ca30",
            ("selberg-g0", "plain"): "9d78b080b6375e414555059a0893860cf542428a7bf336dd62293cc73014e014",
            ("selberg-g0", "csv"): "08d0c8ff0c8814d72d02292e2dde0e4e4e891e8be9fee5aec1aba58eb91be687",
        }

class TestDetSubcommands:
    def test_detdn_disc_like(self, capsys):
        code, out, _ = run_cli(capsys, "detdn", "--chi", "1")
        assert code == 0
        assert json.loads(out)["report"]["value"] == 1.0

    def test_detdn_cylinder(self, capsys):
        code, out, _ = run_cli(capsys, "detdn", "--chi", "0", "--ell", "3.0")
        assert code == 0
        assert abs(json.loads(out)["report"]["value"] - 3.0 / math.pi) < 1e-14

    def test_detdn_negative_chi(self, capsys):
        code, out, _ = run_cli(capsys, "detdn", "--chi", "-2", "--limit", "0.125")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["inputs"]["supplied_limit"] == 0.125

    def test_detdn_stdout_is_pinned(self, capsys):
        # chi = 1 reports exactly 1.0 and 0.0, so these bytes hold everywhere
        _, out, _ = run_cli(capsys, "detdn", "--chi", "1")
        assert out == (
            '{\n  "chi": 1,\n  "fingerprint": "550716a24f9c",\n  "report": {\n'
            '    "error_estimate": 0.0,\n    "inputs": {\n      "boundary_components": 1,\n'
            '      "euler": 1,\n      "genus": 0\n    },\n    "method": "closed_form",\n'
            '    "ratio": 1.0,\n    "value": 1.0\n  },\n  "schema": 1,\n  "subcommand": "detdn"\n}\n'
        )
        _, out, _ = run_cli(capsys, "detdn", "--chi", "1", "--format", "plain")
        assert out == (
            "chi = 1\nvalue = 1\nratio = 1\nmethod = closed_form\nerror_estimate = 0\n"
            "input boundary_components = 1\ninput euler = 1\ninput genus = 0\n"
            "fingerprint: 9ab20fd36937\n"
        )

    def test_detdn_missing_requirements(self, capsys):
        assert run_cli(capsys, "detdn", "--chi", "0")[0] == 1
        assert run_cli(capsys, "detdn", "--chi", "-1")[0] == 1

    def test_theorem4_two_path(self, capsys):
        code, out, _ = run_cli(
            capsys, "theorem4", "--zg1", "0.25", "--zg01", "1.5",
            "--chi", "-1", "--ell", "4.0",
        )
        assert code == 0
        doc = json.loads(out)
        inputs = doc["report"]["inputs"]
        assert abs(inputs["ratio_bfk"] / inputs["ratio_closed"] - 1.0) < 1e-10
        assert doc["report"]["error_estimate"] < 1e-10


class TestVerifySubcommand:
    def test_bridge_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "bridge")
        assert code == 0
        assert "suite bridge: 8/8 passed" in out
        assert out.count("PASS") == 8
        assert "FAIL" not in out

    def test_lemma_suite_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 3
        assert all(c["passed"] for c in doc["checks"])
        assert all(c["max_err"] <= c["tolerance"] for c in doc["checks"])

    def test_numericdn_suite_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "numericdn", "--format", "csv"
        )
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[1] == "k,residual"
        assert len(lines) == 5
        ks = [int(l.split(",")[0]) for l in lines[2:]]
        residuals = [float(l.split(",")[1]) for l in lines[2:]]
        assert ks == [16, 32, 64]
        assert all(r <= 1e-9 for r in residuals)
        rows = k_table()
        assert lines[2:] == [f"{k},{r:.17g}" for k, r in rows]
        code, out, _ = run_cli(capsys, "verify", "--suite", "numericdn", "--format", "json")
        assert code == 0
        assert json.loads(out)["k_table"] == [{"k": k, "residual": r} for k, r in rows]

    def test_csv_limited_to_numericdn(self, capsys):
        assert run_cli(capsys, "verify", "--suite", "lemma", "--format", "csv")[0] == 1

    def test_unknown_suite_exits_one(self, capsys):
        assert run_cli(capsys, "verify", "--suite", "everything")[0] == 1
