"""Tests for the command line interface.

Everything goes through main(argv) so exit codes and emitted text are
checked exactly as a shell would see them.  Byte determinism matters:
two identical invocations must print identical bytes.
"""

import argparse
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from dnzeta.claims import SUITES, schottky_pair
from dnzeta import cli, hyperbolic
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
        assert json.loads(err) == {"fingerprint": json.loads(quiet_out)["fingerprint"], "subcommand": "disc"}

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

    @pytest.mark.parametrize(
        "argv, ratio, ratio_bfk",
        [
            # 2 det'(Delta_M) overflowed before the division by vol(M) det(Delta)^2; the
            # inf bar then raised ValueError
            (["--zg1", "280453528137227.16", "--zg01", "4.478967234699173e-144", "--chi", "-1000",
              "--ell", "3.8557317297239475"], 5.8338602596295023e+297, 5.833860259650128e+297),
            # det(Delta)^2 overflows, so the composition reads 0 and the bar is the whole ratio
            (["--zg1", "1.111459008327098e168", "--zg01", "1.3877356333553645e194", "--chi", "-3",
              "--ell", "1.182684966337537"], 4.1151648353357641e-222, 0.0),
        ],
        ids=["two-det-overflows", "det-squared-overflows"],
    )
    def test_theorem4_answers_where_an_assembly_passes_the_float_range(self, capsys, argv, ratio, ratio_bfk):
        code, out, err = run_cli(capsys, "theorem4", *argv)
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert (report["ratio"], report["inputs"]["ratio_bfk"]) == (ratio, ratio_bfk)
        assert report["error_estimate"] == abs(ratio - ratio_bfk)


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
        assert code == 0 and set(json.loads(err)) == {"fingerprint", "subcommand"}
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

    # Each row runs through main() twice: as is, where an argv that starts
    # with a subcommand name goes straight to that subcommand's parser, and
    # with that map emptied, so the whole tree parses every row.
    @pytest.mark.parametrize(
        "argv",
        [
            ("--format", "plain", "annulus", "--rho", "2"),
            ("annulus", "--rho", "2", "--format", "plain"),
            ("-v", "disc", "--radius", "1", "-v"),
            ("-vv", "disc", "--radius", "1"),
            ("disc", "--radius", "1", "-vv"),
            ("-h",),
            ("zeta", "-h"),
            (),
            ("no-such-command",),
            ("annulus", "--rho", "2", "extra"),
            ("cylinder", "--format", "plain", "--bogus"),
            ("annulus",),
            ("annulus", "--rho", "two"),
            ("annulus", "--", "--rho", "2"),
            ("annulus", "--rho", "-2"),
            ("disc", "--rad", "3"),
            ("disc", "--radius", "3", "--form", "plain"),
            None,
        ],
        ids=lambda argv: "argv=None" if argv is None else " ".join(argv) or "empty",
    )
    def test_direct_dispatch_matches_the_tree(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        if argv is None:
            monkeypatch.setattr(sys, "argv", ["dnzeta", "disc", "--radius", "2", "--format", "plain"])

        def run():
            code = main(None if argv is None else list(argv))
            return (code, *capsys.readouterr())

        direct = run()
        tree, _ = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: (tree, {}))
        assert run() == direct

    def test_named_subcommand_skips_the_tree(self, capsys, monkeypatch):
        tree, _ = cli._build_parser()
        parsed = []
        parse_args = tree.parse_args
        monkeypatch.setattr(tree, "parse_args", lambda argv: parsed.append(argv) or parse_args(argv))
        assert run_cli(capsys, "annulus", "--rho", "2", "--format", "plain")[0] == 0
        assert parsed == []
        # leftover strings and leading shared flags are the tree's to parse
        assert run_cli(capsys, "annulus", "--rho", "2", "extra")[0] == 1
        assert run_cli(capsys, "--format", "plain", "annulus", "--rho", "2")[0] == 0
        assert parsed == [["annulus", "--rho", "2", "extra"], ["--format", "plain", "annulus", "--rho", "2"]]


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

    def test_non_positive_depth_names_max_word_len(self, capsys, tmp_path):
        # the default cutoff is the depth times the displacement floor: the depth
        # is checked first, so the refusal names the flag given, not l_max
        gens = write_generator_pair(tmp_path / "gens.json")
        for depth in ("0", "-3", "1" + "0" * 400):
            code, out, err = run_cli(
                capsys, "spectrum", "--generators", gens, "--max-word-len", depth, "--out", str(tmp_path / "s.json"),
            )
            assert (code, out) == (1, "")
            assert err.startswith("error: max_word_len must be an integer >= 1, got ") and err.count("\n") == 1

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
        # At depth 24 the pair's pruned walk builds more than 5M words; it
        # stops there, and no spectrum file is written.
        gens = write_generator_pair(tmp_path / "gens.json")
        out_path = tmp_path / "spectrum.json"
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "spectrum", "--generators", gens,
            "--max-word-len", "24", "--out", str(out_path),
        )
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert out == ""
        assert err == "EnumerationBudgetError: the walk to word depth 24 builds more than 5000000 words\n"
        assert not out_path.exists()

    def test_verbose_reports_the_walk_on_stderr_only(self, capsys, tmp_path):
        gens = write_generator_pair(tmp_path / "gens.json")
        out_path = tmp_path / "spectrum.json"
        argv = ("spectrum", "--generators", gens, "--max-word-len", "8", "--out", str(out_path))
        code, quiet_out, quiet_err = run_cli(capsys, *argv)
        quiet_file = out_path.read_bytes()
        assert (code, quiet_err) == (0, "")
        code, loud_out, loud_err = run_cli(capsys, *argv, "-v")
        assert code == 0
        # stdout, and with it the fingerprint, and the spectrum file are unchanged
        assert loud_out == quiet_out and out_path.read_bytes() == quiet_file
        fingerprint, record = loud_err.splitlines()
        assert json.loads(fingerprint) == {"fingerprint": json.loads(quiet_out)["fingerprint"], "subcommand": "spectrum"}
        work = json.loads(record)
        assert work == {
            "subcommand": "spectrum", "certificate": "ping-pong", "depth": 8,
            "min_w": work["min_w"], "prefixes_expanded": work["prefixes_expanded"],
            "classes_kept": json.loads(quiet_out)["total_multiplicity"], "screen": "none, ping-pong certified",
        }
        assert 0.5 < work["min_w"] < 2.0 and 0 < work["prefixes_expanded"] < 2000

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
        # matrix entries are JSON numbers: a string or a boolean is refused, not converted
        # and so is an integer past the largest double, or past Python's 4300-digit parse limit
        for entries in ('"a": "7.389", "b": 0.0', '"a": 7.389, "b": false',
                        '"a": 1' + '0' * 400 + ', "b": 0.0', '"a": 1' + '0' * 5000 + ', "b": 0.0'):
            bad.write_text(f'{{"generators": [{{{entries}, "c": 0.0, "d": 0.1353}}]}}', encoding="utf-8")
            assert run_cli(capsys, *args)[0] == 1

    def test_bad_matrix_refusal_names_its_generator(self, capsys, tmp_path):
        # as a missing entry does ("generator 0 missing entry: 'd'"), a refused matrix names its generator
        bad = tmp_path / "bad.json"
        args = ("spectrum", "--generators", str(bad), "--max-word-len", "4", "--out", str(tmp_path / "o.json"))
        good = '{"a": 2.0, "b": 0.0, "c": 0.0, "d": 0.5}'
        for second, message in (('{"a": "2", "b": 0.0, "c": 0.0, "d": 0.5}', "matrix entry must be a finite real, got '2'"),
                                ('{"a": 1.0, "b": 0.0, "c": 0.0, "d": -1.0}',
                                 "need a positive determinant (orientation-preserving), got det = -1.0")):
            bad.write_text(f'{{"generators": [{good}, {second}]}}', encoding="utf-8")
            assert run_cli(capsys, *args) == (1, "", f"error: generator 1: {message}\n")
        assert not (tmp_path / "o.json").exists()

    def test_more_than_128_generators_exit_one(self, capsys, tmp_path):
        # a word stores one letter per byte: 130 generators ended in an IndexError
        gens = tmp_path / "many.json"
        dilation = {"a": math.e, "b": 0.0, "c": 0.0, "d": 1.0 / math.e}
        gens.write_text(json.dumps({"generators": [dilation] * 130}), encoding="utf-8")
        out_path = tmp_path / "o.json"
        code, out, err = run_cli(capsys, "spectrum", "--generators", str(gens), "--max-word-len", "4",
                                 "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: at most 128 generators fit the walk's one-byte letters, got 130\n"
        assert not out_path.exists()

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "spectrum", "--generators", str(tmp_path / "nope.json"),
            "--max-word-len", "4", "--out", str(tmp_path / "o.json"),
        )
        assert code == 1
        assert "cannot read" in err


class TestSpectrumOut:
    """spectrum rewrites --out in place: no O_TRUNC, then a regular file is cut to the bytes written."""

    def spectrum(self, capsys, tmp_path, out, depth="8"):
        gens = write_generator_pair(tmp_path / "gens.json")
        return run_cli(capsys, "spectrum", "--generators", gens, "--max-word-len", depth, "--out", str(out))

    def fresh(self, capsys, tmp_path):
        out = tmp_path / "fresh.json"
        assert self.spectrum(capsys, tmp_path, out)[0] == 0
        return out.read_bytes()

    def test_longer_file_ends_as_a_fresh_write(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        out.write_bytes(b"x" * 100_000)
        code, _, err = self.spectrum(capsys, tmp_path, out)
        assert (code, err) == (0, "")
        assert out.read_bytes() == self.fresh(capsys, tmp_path)

    def test_hard_link_sees_the_new_bytes(self, capsys, tmp_path):
        # the inode is kept, as O_TRUNC kept it; a rename over the path would not
        out, link = tmp_path / "s.json", tmp_path / "link.json"
        out.write_bytes(b"x" * 10_000)
        os.link(out, link)
        inode = out.stat().st_ino
        assert self.spectrum(capsys, tmp_path, out)[0] == 0
        assert out.stat().st_ino == inode
        assert link.read_bytes() == out.read_bytes() == self.fresh(capsys, tmp_path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs and /dev/null")
    def test_devnull_and_fifo_are_written_not_cut(self, capsys, tmp_path):
        # neither has a length to cut, and ftruncate would refuse both
        code, _, err = self.spectrum(capsys, tmp_path, "/dev/null")
        assert (code, err) == (0, "")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, err = self.spectrum(capsys, tmp_path, fifo)
        reader.join(10.0)
        assert (code, err) == (0, "")
        assert received == [self.fresh(capsys, tmp_path)]

    def test_refused_walk_leaves_the_file_as_it_was(self, capsys, tmp_path):
        # the word budget refuses depth 24 inside the walk, before --out is opened
        out = tmp_path / "s.json"
        out.write_bytes(b"old bytes\n")
        code, out_text, err = self.spectrum(capsys, tmp_path, out, depth="24")
        assert (code, out_text) == (2, "") and err.startswith("EnumerationBudgetError: ")
        assert out.read_bytes() == b"old bytes\n"

    def test_out_is_opened_without_o_trunc(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "s.json"
        out.write_bytes(b"x" * 10_000)
        flags, real_open = [], os.open

        def spy(path, flag, *rest):
            if os.fspath(path) == str(out):
                flags.append(flag)
            return real_open(path, flag, *rest)

        monkeypatch.setattr(os, "open", spy)
        assert self.spectrum(capsys, tmp_path, out)[0] == 0
        assert len(flags) == 1 and flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC

    @pytest.mark.parametrize("target, errno_", [("missing/s.json", errno.ENOENT), (".", errno.EISDIR)])
    def test_unwritable_out_names_the_path(self, capsys, tmp_path, target, errno_):
        out = str(tmp_path / target)
        code, out_text, err = self.spectrum(capsys, tmp_path, out)
        assert (code, out_text) == (1, "")
        assert err == f"error: cannot write {out}: {OSError(errno_, os.strerror(errno_), out)}\n"


class TestZetaSubcommand:
    def test_kind_choices_are_the_keys_of_kinds(self):
        # --kind offers exactly the keys of cli._KINDS, in order, and the
        # grid takes each value as a kind of product
        from dnzeta import zeta_dyn

        _, subparsers = cli._build_parser()
        [kind] = [action for action in subparsers["zeta"]._actions if action.dest == "kind"]
        assert list(kind.choices) == list(cli._KINDS) == ["ruelle", "selberg", "selberg-g0"]
        assert "--kind {ruelle,selberg,selberg-g0}" in subparsers["zeta"].format_usage()
        spectrum = LengthSpectrum(entries=(SpectrumEntry(1.0, 2, 0),), cutoff=2.0, complete_up_to=2.0)
        for name in cli._KINDS.values():
            [value] = zeta_dyn._zeta_grid(name, spectrum, [2.0], 0.0)
            assert value.log_value.real < 0.0

    def test_verbose_reports_ladder_work_on_stderr_only(self, capsys, tmp_path):
        # past a few factors the entry at length 3 falls below 2^-60 and skips libm
        entries = (SpectrumEntry(length=1.0, multiplicity=2, reflections=1),
                   SpectrumEntry(length=3.0, multiplicity=1, reflections=2))
        spec = tmp_path / "s.json"
        spec.write_text(spectrum_to_json(LengthSpectrum(entries=entries, cutoff=4.0, complete_up_to=4.0)),
                        encoding="utf-8")
        # columns per factor, and log1p terms per factor: Z_g0 takes two on each interior column
        for kind, boundary, columns, logs in (("ruelle", (), 2, 2), ("selberg", (), 2, 2),
                                              ("selberg-g0", ("--boundary", "1.0,2.5"), 4, 6)):
            argv = ("zeta", "--spectrum", str(spec), "--kind", kind, "--lambda", "1.0:2.0:0.5",
                    "--delta-hint", "0.0", *boundary)
            code, quiet_out, quiet_err = run_cli(capsys, *argv)
            assert (code, quiet_err) == (0, "")
            code, loud_out, loud_err = run_cli(capsys, *argv, "-v")
            assert code == 0 and loud_out == quiet_out
            fingerprint, *records = loud_err.splitlines()
            assert json.loads(fingerprint) == {"fingerprint": json.loads(quiet_out)["fingerprint"], "subcommand": "zeta"}
            rows = json.loads(quiet_out)["rows"]
            assert len(records) == len(rows)
            for row, line in zip(rows, records):
                work = json.loads(line)
                assert set(work) == {"subcommand", "lambda", "factors", "entry_terms", "libm_terms"}
                assert (work["subcommand"], work["lambda"]) == ("zeta", row["lambda"])
                assert work["factors"] * columns == work["entry_terms"]
                if kind == "ruelle":
                    assert work["factors"] == 1 and work["libm_terms"] == logs
                else:
                    assert work["factors"] > 10 and 0 < work["libm_terms"] < work["factors"] * logs

    def test_non_utf8_spectrum_is_refused(self, capsys, tmp_path):
        # bytes that are not UTF-8 are refused with one "error: ..." line and
        # exit 1, as the generators file refuses them, not a UnicodeDecodeError
        path = tmp_path / "s.json"
        path.write_bytes(b'\xff\xfe{"cutoff": 4.0, "complete_up_to": 4.0, "entries": []}')
        code, out, err = run_cli(capsys, "zeta", "--spectrum", str(path), "--kind", "ruelle",
                                 "--lambda", "1.5", "--delta-hint", "0.0")
        assert (code, out) == (1, "")
        assert err == (f"error: invalid spectrum JSON in {path}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")
        code, out, err = run_cli(capsys, "spectrum", "--generators", str(path), "--max-word-len", "4",
                                 "--out", str(tmp_path / "out.json"))
        assert (code, out) == (1, "")
        assert err == (f"error: malformed generators JSON in {path}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")

    def test_too_deeply_nested_json_is_refused(self, capsys, tmp_path):
        # 1200 nested brackets passed json's nesting depth and ended in a
        # RecursionError traceback; both files are refused with one line
        path = tmp_path / "deep.json"
        path.write_text('{"entries": ' + "[" * 1200 + "]" * 1200 + "}", encoding="utf-8")
        code, out, err = run_cli(capsys, "zeta", "--spectrum", str(path), "--kind", "ruelle",
                                 "--lambda", "1.5", "--delta-hint", "0.0")
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith(f"error: invalid spectrum JSON in {path}: ")
        code, out, err = run_cli(capsys, "spectrum", "--generators", str(path), "--max-word-len", "4",
                                 "--out", str(tmp_path / "out.json"))
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith(f"error: malformed generators JSON in {path}: ")

    @pytest.mark.parametrize("text", ["{not json", "{not json \u00e9"])
    def test_text_that_is_not_json_names_the_file(self, capsys, tmp_path, text):
        # an ASCII text goes through the parse cache, a non-ASCII one straight to the parser
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "zeta", "--spectrum", str(path), "--kind", "ruelle",
                                 "--lambda", "1.5", "--delta-hint", "0.0")
        assert (code, out) == (1, "")
        assert err == (f"error: invalid spectrum JSON in {path}: Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1)\n")

    def test_verbose_records_are_built_only_under_v(self, capsys, tmp_path, monkeypatch):
        # without -v no subcommand reaches _note, so no record is built
        spec = write_cyclic_spectrum(tmp_path / "s.json")
        gens = write_generator_pair(tmp_path / "gens.json")
        cases = (("zeta", "--spectrum", spec, "--kind", "selberg", "--lambda", "1.0:2.0:0.5", "--delta-hint", "0.0"),
                 ("verify", "--suite", "all"),
                 ("spectrum", "--generators", gens, "--max-word-len", "4", "--out", str(tmp_path / "out.json")))
        quiet = [run_cli(capsys, *argv) for argv in cases]
        loud = [run_cli(capsys, *argv, "-v") for argv in cases]
        assert [err.count("\n") for _, _, err in loud] == [4, 7, 2]

        def refuse(*record):
            raise AssertionError(f"-v record built without -v: {record}")

        monkeypatch.setattr(cli, "_note", refuse)
        assert [run_cli(capsys, *argv) for argv in cases] == quiet
        assert all(err == "" for _, _, err in quiet)

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

    def test_grid_pass_prints_what_one_call_per_lambda_printed(self, capsys, tmp_path, monkeypatch):
        # The parsed lambdas are replaced by lists with a refusal after the
        # first row (by the phase, by the entry-term cap); stdout, the -v
        # records, the error and the exit code must be those of one call per
        # lambda in turn.
        from dnzeta import zeta_dyn

        entries = tuple(SpectrumEntry(length=0.5 + 0.4 * i, multiplicity=1 + i % 3, reflections=i % 4) for i in range(3))
        spec = tmp_path / "s.json"
        spec.write_text(spectrum_to_json(LengthSpectrum(entries=entries, cutoff=2.0, complete_up_to=1.5)), encoding="utf-8")
        monkeypatch.setattr(zeta_dyn, "_MAX_ENTRY_TERMS", 150)

        grid = zeta_dyn._zeta_grid

        def one_call_per_lambda(kind, spectrum, lams, delta_hint, boundary=()):
            # one-point grids of the unpatched pass; the patched name is what
            # cli._run_zeta looks up in zeta_dyn
            for lam in lams:
                [value] = grid(kind, spectrum, [lam], delta_hint, boundary)
                yield value

        seen = set()
        for lams in ([1.5, 2.0, 2.5 + 1.0j], [40.0, complex(2.0, 1e12), 3.0], [40.0, 41.0, 1.0]):
            monkeypatch.setattr(cli, "_parse_lambda_spec", lambda text: list(lams))
            for kind, extra in (("ruelle", ()), ("selberg", ()), ("selberg-g0", ("--boundary", "1.0,2.5"))):
                argv = ("zeta", "--spectrum", str(spec), "--kind", kind, "--lambda", "1", "--format", "csv", "-v", *extra)
                got = run_cli(capsys, *argv)
                with monkeypatch.context() as patched:
                    patched.setattr(zeta_dyn, "_zeta_grid", one_call_per_lambda)
                    assert got == run_cli(capsys, *argv)
                seen.add((got[0], len(got[2].splitlines())))
        # rows, a phase refusal (exit 1) and a ladder refusal (exit 2), each after a -v record
        assert {(0, 4), (1, 3), (2, 4)} <= seen

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
        # and the other kinds reject --boundary outright, an empty list too
        for kind in ("ruelle", "selberg"):
            for boundary in ("1.0", ""):
                args = ("zeta", "--spectrum", plain, "--kind", kind,
                        "--lambda", "1.5", "--delta-hint", "0.0", "--boundary", boundary)
                code, _, err = run_cli(capsys, *args)
                assert code == 1 and err == "error: --boundary applies to kind selberg-g0 only\n"

    def test_below_abscissa_is_validation_error(self, capsys, tmp_path):
        spec = write_cyclic_spectrum(tmp_path / "s.json")
        code, _, err = run_cli(
            capsys, "zeta", "--spectrum", spec, "--kind", "ruelle",
            "--lambda", "1.0", "--delta-hint", "5.0",
        )
        assert code == 1
        assert "convergence region" in err

    @pytest.mark.parametrize(
        "kind, extra",
        [("ruelle", ()), ("selberg", ()), ("selberg-g0", ("--boundary", "1.0"))],
    )
    def test_phase_past_float_digits_is_refused(self, capsys, tmp_path, kind, extra):
        # |Im lambda| * l = 1e17 > 2^30: the float phase keeps no digit
        spec = write_cyclic_spectrum(tmp_path / "s.json", reflections=1)
        code, out, err = run_cli(
            capsys, "zeta", "--spectrum", spec, "--kind", kind,
            "--lambda", "2+1e16j", "--delta-hint", "0.0", *extra,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "2^30" in err

    @pytest.mark.parametrize(
        "kind, extra",
        [("ruelle", ()), ("selberg", ()), ("selberg-g0", ("--boundary", "1.0"))],
    )
    def test_sub_resolution_lambda_and_huge_multiplicity_are_refused(self, capsys, tmp_path, kind, extra):
        # a factor or tail denominator that rounds to 0, and a total multiplicity
        # past a double, ended in a traceback (ValueError, ZeroDivisionError, OverflowError)
        spec = write_cyclic_spectrum(tmp_path / "s.json", reflections=1)
        empty = tmp_path / "empty.json"
        empty.write_text('{"cutoff": 4.0, "complete_up_to": 4.0, "entries": []}', encoding="utf-8")
        huge = tmp_path / "huge.json"
        entries = [{"length": 1.0 + 0.05 * i, "multiplicity": 10**307, "reflections": 0} for i in range(20)]
        huge.write_text(json.dumps({"cutoff": 21.0, "complete_up_to": 20.0, "entries": entries}), encoding="utf-8")
        cases = [(spec, lam) for lam in ("1e-17", "1e-300", "1e-17+1e-17j", "1e-12+1e-9j")]
        cases += [(str(empty), "1e-17"), (str(huge), "30")]
        for path, lam in cases:
            code, out, err = run_cli(
                capsys, "zeta", "--spectrum", path, "--kind", kind, "--lambda", lam, "--delta-hint", "0.0", *extra,
            )
            assert (code, out) == (1, ""), (path, lam)
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_boundary_zeta_takes_multiplicity_past_int64(self, capsys, tmp_path):
        # 2^64 raised TypeError in the Z_g0 columns; as a float weight it is 2^64 - 1's
        outputs = []
        for m in (2**64, 2**64 - 1):
            spec = tmp_path / f"m{m}.json"
            entry = {"length": 1.0, "multiplicity": m, "reflections": 0}
            spec.write_text(json.dumps({"cutoff": 2.0, "complete_up_to": 2.0, "entries": [entry]}), encoding="utf-8")
            code, out, err = run_cli(capsys, "zeta", "--spectrum", str(spec), "--kind", "selberg-g0",
                                     "--boundary", "1.0", "--lambda", "30", "--delta-hint", "0", "--format", "csv")
            assert (code, err) == (0, "")
            outputs.append(out.splitlines()[-1])
        assert outputs[0] == outputs[1]

    def test_string_cutoff_exits_one(self, capsys, tmp_path):
        # so does an integer past the largest double, whose float() raised OverflowError
        spec = tmp_path / "s.json"
        for cutoff in ('"4.0"', "1" + "0" * 400):
            spec.write_text(f'{{"cutoff": {cutoff}, "complete_up_to": 4.0, "entries": [{{"length": 1.0, "multiplicity": 2}}]}}',
                            encoding="utf-8")
            code, out, err = run_cli(capsys, "zeta", "--spectrum", str(spec), "--kind", "ruelle",
                                     "--lambda", "1.5", "--delta-hint", "0.0")
            assert (code, out) == (1, "") and err.startswith("error: ") and "cutoff must be a finite real > 0" in err

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
                argv = ("zeta", "--spectrum", "refl.json", "--kind", kind,
                        "--lambda", "0.8:1.8:0.5", "--delta-hint", "0.3", "--format", fmt, *extra)
                # a parse of the file, then the spectrum the cache kept from it
                hyperbolic._parsed_spectrum.cache_clear()
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                assert run_cli(capsys, *argv) == (0, out, "")
                assert hyperbolic._parsed_spectrum.cache_info()[:2] == (1, 1)  # hits, misses
                digests[kind, fmt] = hashlib.sha256(out.encode()).hexdigest()
        assert digests == {
            ("selberg", "json"): "bd0f83283648bb33965b1af8c0bc1786294434e9f952f193ede35c8bd1cfe288",
            ("selberg", "plain"): "96225c24da27e76485277cfa4361e848c062887ec9b591a6d8a7a49d229cf976",
            ("selberg", "csv"): "af38c625032c33dd42259c1f9c039d36a4995b4ee59a9fa4e9de3366465ef2cd",
            ("selberg-g0", "json"): "f76669bd11528eefc978f2d76b2f575e6866b64d94b4088f61dee200bab2ca30",
            ("selberg-g0", "plain"): "9d78b080b6375e414555059a0893860cf542428a7bf336dd62293cc73014e014",
            ("selberg-g0", "csv"): "08d0c8ff0c8814d72d02292e2dde0e4e4e891e8be9fee5aec1aba58eb91be687",
        }

class TestSpectrumCache:
    """zeta parses each small spectrum text once per process; the file is read on every call."""

    ARGV = ("--kind", "ruelle", "--lambda", "1.0:2.0:0.5", "--delta-hint", "0.0")

    def zeta(self, capsys, path):
        return run_cli(capsys, "zeta", "--spectrum", str(path), *self.ARGV)

    def fresh(self, capsys, path):
        hyperbolic._parsed_spectrum.cache_clear()
        return self.zeta(capsys, path)

    @pytest.fixture
    def parses(self, monkeypatch):
        """The texts hyperbolic.spectrum_from_json parses, those it does not find in its cache."""
        texts = []
        parse = hyperbolic._spectrum_from_text
        monkeypatch.setattr(hyperbolic, "_spectrum_from_text", lambda text: texts.append(text) or parse(text))
        return texts

    def test_rewritten_file_is_parsed_again(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        write_cyclic_spectrum(path, length=1.0)
        first = self.zeta(capsys, path)
        size = path.stat().st_size
        write_cyclic_spectrum(path, length=2.0)
        assert path.stat().st_size == size
        second = self.zeta(capsys, path)
        assert second[0] == 0 and second != first
        assert second == self.fresh(capsys, path)

    def test_refusals_are_not_cached(self, capsys, tmp_path, parses):
        path = tmp_path / "s.json"
        path.write_text('{"cutoff": "4.0", "complete_up_to": 4.0, "entries": []}', encoding="utf-8")
        for _ in range(2):
            code, out, err = self.zeta(capsys, path)
            assert (code, out) == (1, "") and "cutoff must be a finite real > 0" in err
        assert len(parses) == 2
        write_cyclic_spectrum(path)
        answer = self.zeta(capsys, path)
        assert answer[0] == 0 and answer == self.fresh(capsys, path)

    def test_cache_is_bounded(self, capsys, tmp_path, parses):
        path = tmp_path / "s.json"
        text = spectrum_to_json(LengthSpectrum(entries=(SpectrumEntry(1.0, 2),), cutoff=10.0, complete_up_to=10.0))
        # JSON whitespace pads a text to the bound, and one past it; a
        # non-ASCII text is parsed on every call whatever its length
        cases = ((text.ljust(64 * 1024), 1), (text.ljust(64 * 1024 + 1), 2),
                 (text[:-1] + ', "note": "\u00e9"}', 2))
        for padded, reached in cases:
            hyperbolic._parsed_spectrum.cache_clear()
            parses.clear()
            path.write_text(padded, encoding="utf-8")
            outputs = {self.zeta(capsys, path) for _ in range(2)}
            assert len(outputs) == 1 and outputs.pop()[0] == 0
            assert len(parses) == reached
        # the 32 texts used last are kept, and no more
        hyperbolic._parsed_spectrum.cache_clear()
        for i in range(40):
            path.write_text(text.ljust(len(text) + i), encoding="utf-8")
            assert self.zeta(capsys, path)[0] == 0
        assert hyperbolic._parsed_spectrum.cache_info()[2:] == (32, 32)  # maxsize, currsize

    def test_library_callers_share_the_cache(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "s.json"
        text = Path(write_cyclic_spectrum(path)).read_text(encoding="utf-8")
        made, parse = [], hyperbolic._spectrum_from_text
        monkeypatch.setattr(hyperbolic, "_spectrum_from_text", lambda text: made.append(parse(text)) or made[-1])
        # a zeta call parses the text, and the library's call on it finds that spectrum
        assert self.fresh(capsys, path)[0] == 0
        assert hyperbolic.spectrum_from_json(text) is made[0]
        assert hyperbolic._parsed_spectrum.cache_info()[:2] == (1, 1)  # hits, misses
        # a text past 64 KiB or not ASCII, and bytes or bytearray, are parsed on every call and not kept
        kept = hyperbolic._parsed_spectrum.cache_info()
        for other in (text.ljust(64 * 1024 + 1), text[:-1] + ', "note": "\u00e9"}', text.encode(),
                      bytearray(text.encode())):
            assert hyperbolic.spectrum_from_json(other) == made[0]
        assert len(made) == 5
        assert hyperbolic._parsed_spectrum.cache_info() == kept


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("--chi", "1", "--ell", "5"),
            ("--chi", "0", "--ell", "3", "--limit", "7"),
            ("--chi", "-1", "--limit", "2", "--ell", "3"),
        ],
    )
    def test_detdn_refuses_a_flag_its_chi_does_not_use(self, capsys, argv):
        code, out, err = run_cli(capsys, "detdn", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("detdn", "--chi", "2"),
            ("theorem4", "--zg1", "0.25", "--zg01", "1.5", "--chi", "3", "--ell", "4"),
        ],
    )
    def test_chi_above_one_is_refused_by_its_flag(self, capsys, argv):
        # a bordered surface has chi = 2 - 2g - n <= 1; chi = 2 was refused
        # as "boundary count ... got 0", a value no flag had given
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: --chi must be at most 1") and err.count("\n") == 1
        assert f"got {argv[argv.index('--chi') + 1]}" in err

    # sha256 of the stdout of each subcommand in each format it prints: the
    # subcommands that read the mode-0 eigenvalue, the disc geometry and
    # theorem2_value's case split, and one call of every other subcommand.
    # spectrum and zeta run in the test's directory on relative paths, as a
    # path enters the document and the fingerprint.
    PINNED_ARGVS = {
        "annulus-2": ("annulus", "--rho", "2", "--modes", "3"),
        "annulus-1.0001": ("annulus", "--rho", "1.0001", "--modes", "0"),
        "disc": ("disc", "--radius", "2.5"),
        "detdn-0": ("detdn", "--chi", "0", "--ell", "3"),
        "detdn-2": ("detdn", "--chi", "-2", "--limit", "0.125"),
        "theorem4": ("theorem4", "--zg1", "0.25", "--zg01", "1.5", "--chi", "-1", "--ell", "4"),
        "cylinder": ("cylinder", "--ell", "3"),
        "verify": ("verify", "--suite", "appendix"),
        "spectrum": ("spectrum", "--generators", "gens.json", "--max-word-len", "8", "--out", "pair.json"),
        "zeta": ("zeta", "--spectrum", "pair.json", "--kind", "ruelle", "--lambda", "1.0:3.0:0.5", "--delta-hint", "0.55"),
    }
    PINNED = {
        ("annulus-2", "json"): "73afee6e68e9da3d2e4d0b6ce5af8fc2bce76ebfa1a54bd61f0e63af2b3c5157",
        ("annulus-2", "plain"): "a669a80488cdd8204c4e1ae40499469db8a2eb29bac6c642b996a849534e3867",
        ("annulus-1.0001", "json"): "e3406c9851d71be533f6ed453c37b40cc3c9c1d186c8cd37f701adde57179c3f",
        ("annulus-1.0001", "plain"): "643fae91600873b9392a77c0fcec0222e77b8c9f62583c457b9f61191248ec5a",
        ("disc", "json"): "78b10de8cabf4bf3e047a9bd2e2d9b0fb5088ac89e5d1b95108def4ea8084a1c",
        ("disc", "plain"): "23a954377baf91269a2a486afbed67bf21a7ac893ab90fe5d55fcd751ee949e7",
        ("detdn-0", "json"): "371ced73bac5fbd19375627ca165b385b9497481dce2b6aec021f79528935c60",
        ("detdn-0", "plain"): "0ae7c530e92e374afee6a060ce46e88eb3e5cc752d2bae0042652e34b38715af",
        ("detdn-2", "json"): "1557c6bf4738a93890a45aea396a9dc573518a56e2fb81f2961b04be5648d4bb",
        ("detdn-2", "plain"): "22fd11e400a9598f7499e91923f66272838bcca8a05eae54337f020da2b5865d",
        ("theorem4", "json"): "782f17d49788e74272c53e62587b6cd2fd5cebc54f1e548f204e58e646d5b2ce",
        ("theorem4", "plain"): "ca2437ecde31f170f8d407c5db9524402a23dbfa28ff754b6ffd2f5a0cf8e7bb",
        ("cylinder", "json"): "9516f59f740bc7f49aa7b237250b31a9817c57d0588a62b9038f503cfce180a8",
        ("cylinder", "plain"): "e7b3e79209567aab5cdfebe3ed0511420607071532ac9e030bc3fe74a0209a65",
        ("verify", "json"): "a443c840903cf773f75ec6849c3aef73210fd841ea404d9522ea2ec1bd705a86",
        ("verify", "plain"): "98f87037afa6ad6ab0aa2a321f46459e37a503e1ab9ad399641d607791f7a172",
        ("spectrum", "json"): "418ef17df72c31503fd1241a73dbb30dd8fd5d7351afc69fcef250ed9c257b1c",
        ("spectrum", "plain"): "fe9963de1af01feb1a2a59703bb95939a36d25bfa6a1f6f50ee33129dcb9265e",
        ("zeta", "json"): "bfff2d08ce01715753ecfa6fcc93dcca63ed50d3fe12bb20c67bf0e9e2f57ac8",
        ("zeta", "plain"): "8e00e41c733116f7f1251d587559f356ba29ca069d3b7f79f84bc5a476b0cd6d",
        ("zeta", "csv"): "a474e9c9a1143da2975b59d62a5725af78d950b766312dfd76abdb3ad7c09120",
    }

    def pinned_digests(self, capsys, tmp_path, monkeypatch, formats):
        """(key, format) -> sha256 of stdout, for each pinned case printed in one of formats."""
        monkeypatch.chdir(tmp_path)
        write_generator_pair(tmp_path / "gens.json")
        digests = {}
        for key, argv in self.PINNED_ARGVS.items():
            for fmt in formats:
                if (key, fmt) in self.PINNED:
                    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
                    assert code == 0, (key, fmt)
                    digests[key, fmt] = hashlib.sha256(out.encode()).hexdigest()
        return digests

    def test_rewired_stdout_is_pinned(self, capsys, tmp_path, monkeypatch):
        assert self.pinned_digests(capsys, tmp_path, monkeypatch, ("json", "plain", "csv")) == self.PINNED

    def test_each_format_is_rendered_only_when_printed(self, capsys, tmp_path, monkeypatch):
        # a json call formats no plain line or csv row, and a plain or csv
        # call writes no json document; each still prints its pinned bytes
        def refuse(*args):
            raise AssertionError("rendered a format that is not printed")

        monkeypatch.setattr(cli, "_fmt", refuse)
        json_digests = self.pinned_digests(capsys, tmp_path, monkeypatch, ("json",))
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_json", refuse)
        text_digests = self.pinned_digests(capsys, tmp_path, monkeypatch, ("plain", "csv"))
        assert {**json_digests, **text_digests} == self.PINNED

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
        assert "suite bridge: 3/3 passed" in out
        assert out.count("PASS") == 3
        assert "FAIL" not in out
        # -v names each suite on stderr as it starts; stdout is unchanged
        code, loud_out, err = run_cli(capsys, "verify", "--suite", "bridge", "-v")
        assert (code, loud_out) == (0, out)
        assert err.endswith('{"subcommand": "verify", "suite": "bridge"}\n')

    def test_lemma_suite_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 4
        assert all(c["passed"] for c in doc["checks"])
        assert all(c["max_err"] <= c["tolerance"] for c in doc["checks"])

    def test_numericdn_suite_csv(self, capsys):
        # csv is for lambda grids: the numericdn suite, and all, refuse it
        for suite in ("numericdn", "all"):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--format", "csv")
            assert (code, out) == (1, "")
            assert err == "error: csv output applies to lambda grids only\n"

    def test_csv_limited_to_lambda_grids(self, capsys):
        for argv in (("verify", "--suite", "lemma"), ("disc", "--radius", "1.0"), ("detdn", "--chi", "-1")):
            code, out, err = run_cli(capsys, *argv, "--format", "csv")
            assert (code, out) == (1, "")
            assert err == "error: csv output applies to lambda grids only\n"

    @pytest.mark.parametrize("suite", [*SUITES, "all"])
    def test_output_is_the_checks_the_summary_and_the_fingerprint(self, capsys, suite):
        code, doc, _ = run_cli(capsys, "verify", "--suite", suite, "--format", "json")
        doc = json.loads(doc)
        assert code == 0
        assert set(doc) == {"checks", "fingerprint", "passed", "schema", "subcommand", "suite"}
        checks = doc["checks"]
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(checks) + 2
        for line, c in zip(lines, checks):
            assert line == f"PASS  {c['name']}  max_err={c['max_err']:.3e}  tol={c['tolerance']:.3e}"
        assert lines[-2] == f"suite {suite}: {len(checks)}/{len(checks)} passed"
        assert lines[-1].startswith("fingerprint: ") and len(lines[-1]) == len("fingerprint: ") + 12

    def test_unknown_suite_exits_one(self, capsys):
        assert run_cli(capsys, "verify", "--suite", "everything")[0] == 1


class TestJsonWriter:
    """_emit's writer gives the bytes of json.dumps(doc, sort_keys=True, indent=2)."""

    def test_every_document_the_cli_emits(self, capsys, monkeypatch, tmp_path):
        docs = []
        emit = cli._emit

        def recording_emit(doc, args, fmt, fingerprint):
            docs.append(dict(doc, schema=1, fingerprint=fingerprint))
            emit(doc, args, fmt, fingerprint)

        monkeypatch.setattr(cli, "_emit", recording_emit)
        gens = write_generator_pair(tmp_path / "gens.json")
        # a path with a quote, a backslash, a tab and non-ASCII letters
        out_path = str(tmp_path / 'sp\u00e9c "\\ \t\u2202.json')
        spectrum = write_cyclic_spectrum(tmp_path / "s.json", reflections=1)
        grid = ("--lambda", "1.0:2.0:0.5", "--delta-hint", "0.0")
        commands = [
            ("annulus", "--rho", "2", "--modes", "3"),
            ("disc", "--radius", "1"),
            ("cylinder", "--ell", "2.5"),
            ("spectrum", "--generators", gens, "--max-word-len", "4", "--out", out_path),
            ("zeta", "--spectrum", spectrum, "--kind", "ruelle", *grid),
            ("zeta", "--spectrum", spectrum, "--kind", "selberg", *grid),
            ("zeta", "--spectrum", spectrum, "--kind", "selberg-g0", "--boundary", "1.0,2.5", *grid),
            ("detdn", "--chi", "1"),
            ("detdn", "--chi", "0", "--ell", "3"),
            ("detdn", "--chi", "-2", "--limit", "0.125"),
            ("theorem4", "--zg1", "0.25", "--zg01", "1.5", "--chi", "-1", "--ell", "4.0"),
            ("verify", "--suite", "all", "--format", "json"),
        ]
        for argv in commands:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert out == json.dumps(docs[-1], sort_keys=True, indent=2) + "\n"
        assert len(docs) == len(commands)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            [{}, [], {"b": [], "a": {}}],
            [{"z": 1, "a": 2}, {"m": [1, 2], "c": (3, 4)}],
            {"zeta": 1, "alpha": {"y": 2, "b": None}, "mid": [True, False]},
            'quote " backslash \\ controls \x00\x1f\n\t\x7f non-ASCII \u00e9 \u2202 \U0001f600',
            {"k\u00e9y \"\\\n": "v"},
            [-0.0, 5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308, np.float64(0.1), np.float64(-2.5e300)],
            [10**30, -(10**30), 0, True, False, None],
            [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)],
            1.5,
            None,
        ],
    )
    def test_edge_documents(self, doc):
        assert cli._json(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize("doc", [{"a": object()}, [np.int64(3)]])
    def test_what_json_cannot_write_is_a_type_error(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc)
        with pytest.raises(TypeError):
            cli._json(doc)

    def test_keys_must_be_strings(self):
        # json.dumps would write the key 1 as "1"; every CLI document has string keys
        with pytest.raises(TypeError):
            cli._json({1: "int key"})


class TestColdStart:
    # The explicit routes, detdn, theorem4 and the verify suites that need no
    # numpy start without it; numpy alone costs more than their whole cold start.
    ARGVS = [
        ["annulus", "--rho", "2", "--modes", "2"],
        ["disc", "--radius", "1"],
        ["cylinder", "--ell", "2.5"],
        ["detdn", "--chi", "1"],
        ["detdn", "--chi", "0", "--ell", "3"],
        ["detdn", "--chi", "-2", "--limit", "0.7"],
        ["theorem4", "--zg1", "0.25", "--zg01", "1.5", "--chi", "-1", "--ell", "4.0"],
        ["verify", "--suite", "appendix"],
        ["verify", "--suite", "lemma"],
        ["verify", "--suite", "theorem4"],
    ]
    # dnzeta.__all__ before its names were resolved on first use
    PUBLIC = (
        "AnnulusGeometry BarnesZeroError ConformalFactor ConvergenceError CylinderGeometry DetReport DiscGeometry "
        "DnZetaError DomainError EigenSequence EnumerationBudgetError EvalResult GroupPresentation "
        "InvalidSequenceError LengthSpectrum MobiusTransform PoleError RegularizedDet SpectrumEntry SurfaceTopology "
        "TruncationError ZetaValue annulus_det_prime annulus_eigenvalues cylinder_det_prime "
        "disc_det_prime enumerate_primitive_classes eta_constant functional_equation_rhs k_convergence_table "
        "log_barnes_g log_det log_dirichlet_det log_gamma required_tail_length ruelle "
        "selberg spectrum_from_json spectrum_to_json theorem2_value theorem4_pipeline translation_length"
    ).split()

    @staticmethod
    def _python(code, *args):
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", code, src, *args], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_route_one_subcommands_never_load_numpy(self):
        code = (
            "import contextlib, io, json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from dnzeta.cli import main\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[2]):\n"
            "    for fmt in ('json', 'plain'):\n"
            "        with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "            rc = main([*argv, '--format', fmt])\n"
            "        runs.append([' '.join(argv), fmt, rc, len(out.getvalue()), 'numpy' in sys.modules])\n"
            "print(json.dumps(runs))\n"
        )
        runs = self._python(code, json.dumps(self.ARGVS))
        assert len(runs) == 2 * len(self.ARGVS)
        assert [run for run in runs if run[2] != 0 or not run[3] or run[4]] == []

    def test_import_loads_names_on_first_use(self):
        code = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import dnzeta\n"
            "bare = sorted(m for m in sys.modules if m.split('.')[0] == 'dnzeta')\n"
            "names = {}\n"
            "exec('from dnzeta import *', names)\n"
            "del names['__builtins__']\n"
            "same = all(names[k] is getattr(dnzeta, k) for k in names)\n"
            "homes = {k: v.__module__ for k, v in names.items()}\n"
            "print(json.dumps([bare, sorted(names), same, homes, dnzeta.__all__, sorted(set(dnzeta.__all__) - set(dir(dnzeta)))]))\n"
        )
        bare, star, same, homes, public, undir = self._python(code)
        assert bare == ["dnzeta"]
        assert star == public == sorted(self.PUBLIC) and len(star) == 42
        assert same and undir == []
        assert all(home.startswith("dnzeta.") for home in homes.values())
