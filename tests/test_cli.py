"""CLI behavior: exit codes, deterministic JSON, file outputs."""

import json
import math

import pytest

from lyapdisp import catalog, mcsim
from lyapdisp.cli import dumps_fixed, main


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

    def test_family_file_input(self, capsys, tmp_path):
        fam_path = tmp_path / "custom.json"
        fam_path.write_text(json.dumps(
            catalog.family_to_dict(catalog.get_family("g1"))
        ))
        code, out, _ = run(
            capsys, "exponents", "--family", f"@{fam_path}"
        )
        data = json.loads(out)
        assert code == 0
        assert data["lambda"]["accel"] == pytest.approx(math.log(2) / 2)


    def test_family_file_name_with_newline(self, capsys, tmp_path):
        data = catalog.family_to_dict(catalog.get_family("g2"))
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
        data = catalog.family_to_dict(catalog.get_family("g1"))
        data["name"] = "wrong"
        data["constants"]["lambda"] = "0.9999999999"
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--family", f"@{path}")
        assert code == 3
        assert "FAIL" in out

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
