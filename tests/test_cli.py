"""CLI behavior: exit codes, deterministic JSON, file outputs."""

import json
import math
import tracemalloc

import pytest

from lyapdisp import catalog, digitsum, mcsim
from lyapdisp.cli import build_parser, dumps_fixed, main
from oracles import family_to_dict


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDumpsFixed:
    def test_sorted_keys_and_precision(self):
        text = dumps_fixed({"b": 1.5, "a": [1, 2.0, None, True]})
        assert text == '{"a":[1,2,null,true],"b":1.5}'

    def test_seventeen_digits(self):
        assert dumps_fixed(math.pi) == "3.1415926535897931"

    def test_non_finite_to_null(self):
        assert dumps_fixed(float("nan")) == "null"
        assert dumps_fixed(float("inf")) == "null"

    def test_string_escaping(self):
        assert dumps_fixed('a"b') == '"a\\"b"'
        assert dumps_fixed("a\tb\n") == '"a\\tb\\n"'
        assert json.loads(dumps_fixed({"k\x01": "\u00e9"})) == {"k\x01": "\u00e9"}


class TestCommands:
    def test_catalog(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert out.count("\n") == 8
        assert "g6" in out

    def test_catalog_json(self, capsys, tmp_path):
        json_path = tmp_path / "catalog.json"
        code, _, _ = run(capsys, "catalog", "--json", str(json_path))
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data.keys() == {"schema_version", "families"}
        assert [row["name"] for row in data["families"]] == \
            list(catalog.family_names())

    def test_exponents_json_and_csv(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "partials.csv"
        code, out, _ = run(
            capsys, "exponents", "--family", "g1",
            "--json", str(json_path), "--csv", str(csv_path),
        )
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data["family"] == "g1"
        assert data["lambda"]["accel"] == pytest.approx(math.log(2) / 2)
        assert csv_path.read_text().splitlines()[0] == \
            "len,words,Slambda,Skappa,Smu"

    def test_exponents_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "exponents", "--family", "g1")
        code2, out2, _ = run(capsys, "exponents", "--family", "g1")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_lt(self, capsys):
        code, out, _ = run(capsys, "lt", "--family", "g1", "--t", "2")
        assert code == 0
        data = json.loads(out)
        assert data["L"] == pytest.approx(math.log(2.5), abs=1e-7)

    @pytest.mark.parametrize("t", ["45", "60"])
    def test_lt_beyond_the_bracket_is_an_error(self, capsys, t):
        # L(45) = 30.50 and L(60) = 40.90: s(t) lies below the bracket's 1e-12
        code, out, err = run(capsys, "lt", "--family", "g1", "--t", t,
                             "--max-len", "8")
        assert code == 1
        assert out == ""
        assert f"L({float(t)})" in err

    def test_replica(self, capsys):
        code, out, _ = run(capsys, "replica", "--family", "g2", "--t", "2")
        data = json.loads(out)
        assert code == 0
        assert data["exp_L"] == pytest.approx(2.8136065, abs=1e-5)

    def test_simulate(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--family", "g1", "--k", "32",
            "--trials", "2000", "--seed", "7",
        )
        data = json.loads(out)
        assert code == 0
        assert data["lyap_hat"] == pytest.approx(math.log(2) / 2, abs=0.05)

    def test_simulate_moment_mode(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--family", "g1", "--k", "16",
            "--trials", "500", "--t", "1.0",
        )
        data = json.loads(out)
        assert code == 0
        assert "moment_rate" in data

    @pytest.mark.parametrize("extra", [[], ["--t", "2"]], ids=["base", "t2"])
    def test_simulate_csv_runs_one_simulation(self, capsys, tmp_path,
                                              monkeypatch, extra):
        calls = []
        original = mcsim.log_product_norms

        def counted(config):
            calls.append(original(config))
            return calls[-1]

        monkeypatch.setattr(mcsim, "log_product_norms", counted)
        csv_path = tmp_path / "trials.csv"
        code, _, _ = run(
            capsys, "simulate", "--family", "g2", "--k", "32",
            "--trials", "200", "--seed", "3", "--csv", str(csv_path), *extra,
        )
        assert code == 0
        assert len(calls) == 1
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trial,log_norm"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == calls[0][0].tolist()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--family", "g2", "--k", "32", "--trials", "50"],
        ["simulate", "--family", "g2", "--k", "32", "--trials", "50",
         "--t", "2"],
        ["phi", "--jmax", "16", "--samples", "64"],
        ["psi", "--jmax", "16", "--samples", "64"],
    ], ids=["simulate", "simulate-t2", "phi", "psi"])
    def test_csv_fields_are_numbers(self, capsys, tmp_path, argv):
        csv_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, *argv, "--csv", str(csv_path))
        assert code == 0
        header, *lines = csv_path.read_text().splitlines()
        assert lines
        for line in lines:
            fields = line.split(",")
            assert len(fields) == len(header.split(","))
            for field in fields:
                float(field)  # raises on e.g. "np.float64(...)"

    def test_regroup_check(self, capsys):
        code, out, _ = run(capsys, "regroup-check", "--t", "1")
        data = json.loads(out)
        assert code == 0
        assert data["samples"][0]["abs_diff"] < 1e-8

    def test_phi_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "samples.csv"
        density = tmp_path / "density.csv"
        code, out, _ = run(
            capsys, "phi", "--jmax", "14", "--samples", "1024",
            "--csv", str(csv_path), "--density-csv", str(density),
        )
        data = json.loads(out)
        assert code == 0
        assert data["sup"] == 0.0
        assert csv_path.read_text().startswith("n,x,value")
        assert density.read_text().startswith("bin_lo,bin_hi,mass")

    def test_phi_tables_are_streamed(self, tmp_path):
        """Both CSV tables add little to the traced peak: their rows are
        written as they are formed, not held as one list and one joined
        string (which added about 10 MB at --jmax 24)."""
        base = ["phi", "--jmax", "24", "--json", str(tmp_path / "r.json")]
        full = base + ["--csv", str(tmp_path / "s.csv"),
                       "--density-csv", str(tmp_path / "d.csv")]
        peaks = []
        for argv in (base, full):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + (2 << 20)

    def test_psi(self, capsys):
        code, out, _ = run(capsys, "psi", "--jmax", "12", "--samples", "512")
        data = json.loads(out)
        assert code == 0
        assert data["sup"] == 1.0

    def test_dispersion(self, capsys, tmp_path):
        csv_path = tmp_path / "trend.csv"
        code, out, _ = run(
            capsys, "dispersion", "--family", "g2", "--jmax", "14",
            "--csv", str(csv_path),
        )
        data = json.loads(out)
        assert code == 0
        assert data["typ_slope"] == pytest.approx(0.1747633335, abs=0.05)
        assert csv_path.read_text().startswith("j,var,var_ln")

    def test_digits(self, capsys):
        code, out, _ = run(
            capsys, "digits", "--j", "14", "--samples", "5000"
        )
        data = json.loads(out)
        assert code == 0
        assert data["a"] == 3

    def test_fit(self, capsys):
        code, out, _ = run(capsys, "fit", "--family", "g3", "--ncheck", "512")
        data = json.loads(out)
        assert code == 0
        assert data["validated_n"] == 512

    @pytest.mark.parametrize("argv", [
        ["catalog"],
        ["exponents", "--family", "g1", "--max-len", "12"],
        ["lt", "--family", "g1", "--t", "2"],
        ["replica", "--family", "g2", "--t", "2"],
        ["simulate", "--family", "g1", "--k", "16", "--trials", "100"],
        ["regroup-check", "--t", "1"],
        ["phi", "--jmax", "12", "--samples", "64"],
        ["psi", "--jmax", "12", "--samples", "64"],
        ["dispersion", "--family", "g2", "--jmax", "12"],
        ["digits", "--j", "12", "--samples", "1000"],
        ["fit", "--family", "g3", "--ncheck", "512"],
        ["verify", "--family", "g1"],
    ], ids=lambda argv: argv[0])
    def test_every_json_report_has_schema_version(self, capsys, tmp_path, argv):
        json_path = tmp_path / "out.json"
        code, _, _ = run(capsys, *argv, "--json", str(json_path))
        assert code == 0
        assert '"schema_version":1' in json_path.read_text()

    def test_family_file_input(self, capsys, tmp_path):
        fam_path = tmp_path / "custom.json"
        fam_path.write_text(json.dumps(
            family_to_dict(catalog.get_family("g1"))
        ))
        code, out, _ = run(
            capsys, "exponents", "--family", f"@{fam_path}"
        )
        data = json.loads(out)
        assert code == 0
        assert data["lambda"]["accel"] == pytest.approx(math.log(2) / 2)


    def test_family_file_name_with_newline(self, capsys, tmp_path):
        data = family_to_dict(catalog.get_family("g2"))
        data["name"] = "a\nb"
        fam_path = tmp_path / "newline.json"
        fam_path.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, "fit", "--family", f"@{fam_path}", "--ncheck", "512")
        assert code == 0
        assert json.loads(out)["family"] == "a\nb"


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["nosuchcommand"])
        assert info.value.code == 2

    def test_missing_required_flag_is_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["exponents"])
        assert info.value.code == 2

    def test_no_accel_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["exponents", "--family", "g2", "--max-len", "8",
                  "--no-accel"])
        assert info.value.code == 2

    def test_two_partial_sums_are_reported(self, capsys):
        # at depth 1 each series has two partial sums and no Wynn column
        code, out, _ = run(capsys, "exponents", "--family", "g2",
                           "--max-len", "1")
        assert code == 0
        data = json.loads(out)
        for key in ("lambda", "kappa", "mu"):
            assert data[key]["accel"] == data[key]["raw"]

    def test_computation_error_is_one(self, capsys):
        code, out, err = run(capsys, "exponents", "--family", "nosuch")
        assert code == 1
        assert "unknown family" in err

    def test_digits_past_int64_is_one(self, capsys):
        code, out, err = run(capsys, "digits", "--a", "100003", "--b", "0",
                             "--j", "48", "--samples", "1000", "--seed", "1")
        assert code == 1
        assert out == ""
        assert "must be below 2^63" in err

    @pytest.mark.parametrize("argv,message", [
        (["phi", "--jmax", "12", "--samples", "0"],
         "samples_per_octave must be >= 1"),
        (["psi", "--jmax", "12", "--samples", "-3"],
         "samples_per_octave must be >= 1"),
        (["digits", "--j", "0", "--samples", "100"], "j must be >= 1"),
        (["digits", "--j", "12", "--samples", "0"], "n_samples must be >= 1"),
    ], ids=["phi-samples-0", "psi-samples-negative", "digits-j-0",
            "digits-samples-0"])
    def test_empty_sampling_is_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("argv,message", [
        (["psi", "--jmax", "39"], "need 2 <= j_max <= 38"),
        (["dispersion", "--family", "h4", "--jmax", "31"],
         "j_max = 31 exceeds the limit 30"),
    ], ids=["psi-jmax-39", "dispersion-h4-jmax-31"])
    def test_out_of_range_is_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("ncheck", ["300000", "100000000"])
    def test_fit_ncheck_past_the_oracle_is_one(self, capsys, monkeypatch,
                                               ncheck):
        """--ncheck is refused by its own name before any count is formed."""
        def refuse(*args):
            raise AssertionError("counts formed before n_check was checked")

        monkeypatch.setattr(digitsum, "counts_via_representation", refuse)
        code, out, err = run(capsys, "fit", "--family", "g2", "--ncheck", ncheck)
        assert (code, out) == (1, "")
        assert f"n_check = {ncheck} exceeds the limit 2^18" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--family", "g2", "--k", "4", "--trials", "20",
         "--t", "nan"],
        ["lt", "--family", "g2", "--max-len", "8", "--t", "nan"],
        ["exponents", "--family", "g2", "--max-len", "8", "--t", "inf"],
        ["regroup-check", "--t", "nan"],
    ], ids=["simulate", "lt", "exponents", "regroup-check"])
    def test_non_finite_t_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "t must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["lt", "--family", "g1", "--t", "20", "--tol", "nan"],
        ["regroup-check", "--tol", "inf"],
    ], ids=["lt", "regroup-check"])
    def test_bad_tol_is_one(self, capsys, argv):
        # both used to exit 0 with values the tolerance did not hold
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "tol must be finite and positive" in err

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    @pytest.mark.parametrize("argv", [
        ["lt", "--family", "g2", "--max-len", "8", "--t"],
        ["exponents", "--family", "g2", "--max-len", "8", "--t"],
        ["simulate", "--family", "g2", "--k", "4", "--trials", "20", "--t"],
    ], ids=["lt", "exponents", "simulate"])
    def test_signed_non_finite_t_is_one(self, capsys, argv, value):
        # argparse would read "-inf" as an option and exit 2
        code, out, err = run(capsys, *argv, value)
        assert (code, out) == (1, "")
        assert "t must be finite" in err

    def test_signed_values_keep_their_meaning(self, capsys):
        assert run(capsys, "lt", "--family", "g1", "--max-len", "12",
                   "--t", "-1e0")[:2] == \
            run(capsys, "lt", "--family", "g1", "--max-len", "12",
                "--t=-1")[:2]

    def test_broken_family_file_is_one(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, "lt", "--family", f"@{path}", "--t", "1")
        assert code == 1

    def test_verify_pass_is_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "g1")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_verify_failure_is_three(self, capsys, tmp_path):
        data = family_to_dict(catalog.get_family("g1"))
        data["name"] = "wrong"
        data["constants"]["lambda"] = "0.9999999999"
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--family", f"@{path}")
        assert code == 3
        assert "FAIL" in out

    @pytest.mark.parametrize("name", ["g1", "g2"])
    def test_verify_depth_zero_has_no_error_bar(self, capsys, name):
        """At --max-len 1 each series is a raw partial sum at Wynn depth 0,
        far off its reference; |last - second| must not widen its
        tolerance, nor that of the sigma^2 built from it."""
        code, out, _ = run(capsys, "verify", "--family", name, "--max-len", "1")
        assert code == 3
        for quantity in ("lambda", "sigma2", "sigma2_over_ln2"):
            assert f"FAIL {name}  {quantity} " in out

    def test_verify_all_families_runs_and_flags(self, capsys):
        # truncating every series at length 10 makes some constants miss, so
        # this exercises the all-families loop and the exit-3 path cheaply
        code, out, _ = run(capsys, "verify", "--max-len", "10")
        assert code == 3
        for name in catalog.family_names():
            assert f" {name} " in out or out.count(name) > 0
        assert "FAIL" in out

    def test_verify_json_rows(self, capsys, tmp_path):
        out_path = tmp_path / "rows.json"
        code, _, _ = run(
            capsys, "verify", "--family", "g1", "--json", str(out_path)
        )
        assert code == 0
        rows = json.loads(out_path.read_text())["rows"]
        assert all(row["pass"] for row in rows)
        assert {row["quantity"] for row in rows} >= {"lambda", "sigma2"}


class TestParserReuse:
    """`main` parses with one parser per process, built on first use."""

    SUBCOMMANDS = ("catalog", "exponents", "lt", "replica", "simulate",
                   "regroup-check", "phi", "psi", "dispersion", "digits",
                   "fit", "verify")

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_appended_values_do_not_leak(self, capsys):
        for ts in (["0.5", "1"], ["2"], ["0.5", "1"]):
            argv = ["regroup-check"]
            for t in ts:
                argv += ["--t", t]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert [row["t"] for row in json.loads(out)["samples"]] == \
                [float(t) for t in ts]
        code, out, _ = run(capsys, "regroup-check")
        assert [row["t"] for row in json.loads(out)["samples"]] == \
            [0.0, 0.5, 1.0, 2.0]

    @pytest.mark.parametrize("command", (None,) + SUBCOMMANDS)
    def test_help_unchanged(self, capsys, command):
        """--help after other commands ran prints what a new parser prints."""
        run(capsys, "regroup-check", "--t", "1")
        argv = ["--help"] if command is None else [command, "--help"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        shown = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser.__wrapped__().parse_args(argv)
        assert shown == capsys.readouterr().out
        assert shown.startswith("usage: lyapdisp")
