import csv
import io
import math

import pytest

import diskarea.cli as cli
from diskarea import runner

TWO_PI = 2.0 * math.pi


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestAreaCommand:
    def test_identity_green_spectral(self, capsys):
        code, out, _ = run_cli(capsys, "area", "--family", "identity", "--r", "0.5",
                               "--method", "green-spectral")
        assert code == 0
        rows = parse_csv(out)
        assert abs(float(rows[0]["value"]) - 0.7853981633974483) < 1e-10

    def test_shear_jacobian_formula(self, capsys):
        code, out, _ = run_cli(capsys, "area", "--family", "shear:0.3", "--r", "0.8",
                               "--method", "jacobian")
        assert code == 0
        rows = parse_csv(out)
        assert abs(float(rows[0]["value"]) - math.pi * 0.566272) < 1e-6

    def test_kernel_pair_rows_agree(self, capsys):
        code, out, _ = run_cli(capsys, "area", "--family", "random:7:0.5", "--r", "0.6",
                               "--method", "kernel-fft,kernel-direct", "--resolution", "512")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        vals = {row["method"]: float(row["value"]) for row in rows}
        assert abs(vals["kernel-fft"] - vals["kernel-direct"]) <= 1e-10 * abs(vals["kernel-fft"])

    def test_jsonl_format(self, capsys):
        import json

        code, out, _ = run_cli(capsys, "area", "--family", "identity", "--r", "0.5",
                               "--format", "jsonl")
        assert code == 0
        doc = json.loads(out.splitlines()[0])
        assert doc["map_id"] == "identity"

    def test_usage_error_on_bad_family(self, capsys):
        code, _, err = run_cli(capsys, "area", "--family", "bogus:1", "--r", "0.5")
        assert code == 64
        assert "usage error" in err

    def test_usage_error_on_radius_cap(self, capsys):
        code, _, _ = run_cli(capsys, "area", "--family", "identity", "--r", "0.99")
        assert code == 64

    def test_usage_error_on_too_few_kernel_samples(self, capsys):
        for method in ("kernel-fft", "kernel-direct"):
            for resolution in ("0", "1"):
                code, out, err = run_cli(capsys, "area", "--family", "identity", "--r", "0.5",
                                         "--method", method, "--resolution", resolution)
                assert code == 64, (method, resolution)
                assert "n_samples" in err and out == ""

    def test_empty_method_list_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "area", "--family", "identity", "--r", "0.5", "--method", ",")
        assert code == 64
        assert "area method" in err and out == ""

    def test_hypothesis_violation_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "area", "--family", "shear:0.3", "--r", "0.5",
                                 "--method", "kernel-fft")
        assert code == 65
        assert err.startswith("hypothesis violation: ")
        assert "usage error" not in err and out == ""

    @pytest.mark.parametrize("argv", [
        ("area", "--family", "mobius:0.3", "--r", "0.5", "--method", "green-spectral"),
        ("verify", "--suite", "contraction", "--seeds", "0", "--radii", "0.5", "--mollify", "0.5"),
    ])
    def test_numerical_failure_exit_code(self, capsys, monkeypatch, argv):
        # boundary samples of modulus 2 carry power 4: valid input, broken invariant
        from diskarea import poisson

        real = poisson.boundary_values
        monkeypatch.setattr(poisson, "boundary_values", lambda bmap, t: 2.0 * real(bmap, t))
        code, out, err = run_cli(capsys, *argv)
        assert code == 70
        assert err.startswith("numerical failure: ") and "coefficient power" in err
        assert "usage error" not in err and out == ""
        assert not issubclass(poisson.NumericalFailureError, ValueError)

    def test_step_map_jacobian_is_a_hypothesis_violation(self, capsys):
        code, out, err = run_cli(capsys, "area", "--family", "step:1.5707963,4.712389@3.14159,6.2831853",
                                 "--r", "0.5", "--method", "jacobian")
        assert code == 65
        assert err.startswith("hypothesis violation: ")
        assert out == ""

    def test_exact_on_families_without_closed_form_is_a_hypothesis_violation(self, capsys):
        for family in ("random:0", "step:1.5707963,4.712389@3.14159,6.2831853"):
            code, out, err = run_cli(capsys, "area", "--family", family, "--r", "0.5", "--method", "exact")
            assert code == 65, family
            assert err.startswith("hypothesis violation: ") and "closed-form" in err
            assert out == ""

    @pytest.mark.parametrize("family", ["rotation:nan", "rotation:inf", "step:1,nan@1,2", "mobius:nan"])
    def test_non_finite_map_usage_error(self, capsys, family):
        # NaN passes every comparison the map constructors make unless each
        # is written to fail on it; no row may come from such a map
        code, out, err = run_cli(capsys, "area", "--family", family, "--r", "0.5",
                                 "--method", "green-spectral,jacobian,exact", "--format", "jsonl")
        assert code == 64
        assert err.startswith("usage error: bad family spec") and out == ""

    def test_method_help_lists_the_registry(self, capsys):
        import pytest

        import diskarea as da

        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["area", "--help"])
        # argparse may wrap the list at a hyphen
        out = "".join(capsys.readouterr().out.split())
        assert ",".join(da.METHODS) in out
        assert "|".join(family.spec for family in da.area.FAMILIES.values()) in out

    def test_usage_error_on_missing_args(self, capsys):
        code, _, _ = run_cli(capsys, "area", "--family", "identity")
        assert code == 64

    def test_output_file_and_outdir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DISKAREA_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "area", "--family", "identity", "--r", "0.5",
                             "--out", "report.csv")
        assert code == 0
        assert (tmp_path / "report.csv").exists()

    def test_unwritable_report_path_exit_73(self, capsys, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        for command in (("area", "--family", "identity", "--r", "0.5"), ("verify", "--suite", "boundary"),
                        ("bench", "--sizes", "64", "--repeat", "1")):
            code, out, err = run_cli(capsys, *command, "--out", str(blocker / "report.csv"))
            assert code == 73, command
            assert err.startswith("cannot write report: ") and "Traceback" not in err
            assert err.count("\n") == 1 and out == ""


class TestVerifyCommand:
    def test_proof_suite_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "proof", "--radii", "0.6")
        assert code == 0
        assert "failed=0" in err

    def test_contraction_small(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "contraction",
                                 "--seeds", "0..4", "--radii", "0.25,0.9")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5 * 3 * 2  # seeds x mollification levels x radii
        assert all(row["passed"] == "true" for row in rows)

    def test_convexity_reports_designed_failure(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "convexity",
                               "--family", "shear:0.3", "--radii", "0.5")
        assert code == 0
        rows = parse_csv(out)
        shear = [row for row in rows if row["check_name"] == "convexity-fails-for-shear"]
        assert shear and all(row["passed"] == "true" for row in shear)
        assert all(float(row["lhs"]) > float(row["rhs"]) for row in shear)

    def test_convexity_family_sets_the_shear_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "convexity",
                               "--family", "shear:0.2", "--radii", "0.5")
        assert code == 0
        shear = [row for row in parse_csv(out) if row["check_name"] == "convexity-fails-for-shear"]
        assert [(row["map_id"], row["params"]) for row in shear] == [("shear:0.2", "c=0.2")]

    def test_convexity_non_shear_family_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "convexity",
                                 "--family", "mobius:0.3", "--radii", "0.5")
        assert code == 64
        assert "usage error" in err and out == ""

    def test_non_finite_area_is_inconclusive(self, capsys, monkeypatch):
        import diskarea as da

        nan_area = lambda coeffs, r, order: da.AreaEstimate(math.nan, "green-spectral", 8, 0.0)
        monkeypatch.setattr(da.area, "area_green_spectral", nan_area)
        code, out, err = run_cli(capsys, "verify", "--suite", "contraction", "--seeds", "0..0",
                                 "--radii", "0.5", "--mollify", "0.5", "--order", "8")
        assert code == 2
        assert [row["passed"] for row in parse_csv(out)] == ["inconclusive"]
        assert "inconclusive=1" in err

    def test_equality_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "equality", "--radii", "0.5")
        assert code == 0

    def test_empty_mollify_list_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "contraction", "--seeds", "0..0",
                                 "--radii", "0.5", "--mollify", ",")
        assert code == 64
        assert "smoothing width" in err and out == ""

    def test_empty_mollify_string_usage_error(self, capsys):
        # an empty --mollify lists no width, like ",": it must not fall back to the defaults
        code, out, err = run_cli(capsys, "verify", "--suite", "contraction", "--seeds", "0..0",
                                 "--radii", "0.5", "--mollify", "")
        assert code == 64
        assert "smoothing width" in err and out == ""

    def test_family_outside_convexity_usage_error(self, capsys):
        # a flag that only one suite reads is rejected, by name, with any other suite
        for argv, flag in (
            (("--suite", "boundary", "--family", "shear:0.3"), "--family"),
            (("--suite", "proof", "--radii", "0.5", "--seeds", "0", "--mollify", "0.5"), "--mollify"),
        ):
            code, out, err = run_cli(capsys, "verify", *argv)
            assert code == 64
            assert flag in err and out == ""

    def test_verify_conjugate_flag_removed(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "boundary", "--conjugate")
        assert code == 64
        assert "usage error" in err and out == ""

    def test_bad_suite_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 64

    def test_empty_seed_range_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "contraction", "--seeds", "5..3")
        assert code == 64
        assert "empty seed range" in err
        assert out == ""

    def test_single_radius_flag_removed(self, capsys):
        # --r was a one-radius alias that silently won over --radii; a prefix
        # of --radii still reads as it
        (verify,) = [action.choices["verify"] for action in cli.build_parser()._subparsers._group_actions]
        assert "--r" not in verify._option_string_actions
        code, out, _ = run_cli(capsys, "verify", "--suite", "contraction", "--seeds", "0", "--r", "0.5",
                               "--radii", "0.1,0.2")
        assert code == 0
        assert {row["r"] for row in parse_csv(out)} == {"0.1", "0.2"}

    def test_workers_flag_removed(self, capsys):
        for command in (("area", "--family", "identity", "--r", "0.5", "--workers", "2"),
                        ("verify", "--suite", "boundary", "--workers", "2"),
                        ("verify", "--suite", "boundary", "--tol", "area-contraction=1")):
            code, _, _ = run_cli(capsys, *command)
            assert code == 64

    @pytest.mark.parametrize("suite, radii", [("boundary", "5"), ("schwarz", "5,-1")])
    def test_suites_without_radius_rows_validate_radii(self, capsys, suite, radii):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seeds", "0", "--radii", radii)
        assert code == 64
        assert "outside (0, 0.97]" in err and out == ""

    def test_determinism_modulo_wall_time(self, capsys):
        args = ("verify", "--suite", "schwarz", "--seeds", "0..2", "--radii", "0.5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)

        def strip(text):
            rows = parse_csv(text)
            return [{k: v for k, v in row.items() if k != "wall_time_ms"} for row in rows]

        assert strip(out1) == strip(out2)


class TestBenchCommand:
    def test_small_sizes_agree_and_report(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--sizes", "256,512", "--repeat", "1")
        assert code == 0
        rows = parse_csv(out)
        methods = {row["method"] for row in rows}
        assert methods == {"kernel-fft", "kernel-direct"}
        for row in rows:
            assert float(row["rel_diff_vs_fft"]) <= 1e-10

    def test_resolution_column_present(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--sizes", "256", "--repeat", "1")
        rows = parse_csv(out)
        assert {row["resolution"] for row in rows} == {"256"}

    def test_usage_errors(self, capsys):
        for argv in (("--repeat", "0", "--sizes", "64"), ("--repeat", "-1", "--sizes", "64"),
                     ("--sizes", "0"), ("--sizes", "64,1")):
            code, out, err = run_cli(capsys, "bench", *argv)
            assert code == 64, argv
            assert "usage error" in err and out == ""

    def test_empty_size_list_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--sizes", ",", "--repeat", "1")
        assert code == 64
        assert "--sizes" in err and out == ""

    def test_radius_outside_open_disk_usage_error(self, capsys):
        for r in ("0", "1", "-0.5"):
            code, out, err = run_cli(capsys, "bench", "--sizes", "64", "--repeat", "1", "--r", r)
            assert code == 64, r
            assert "usage error" in err and out == ""

    def test_direct_row_is_the_kernel_direct_estimate(self, capsys):
        import json

        import diskarea as da

        code, out, _ = run_cli(capsys, "bench", "--sizes", "64,300", "--repeat", "1", "--format", "jsonl")
        assert code == 0
        bmap = da.mollify_map(da.make_random_homeomorphism(7, roughness=0.5))
        rows = [json.loads(line) for line in out.splitlines()]
        assert {row["schema"] for row in rows} == {runner.SCHEMA_VERSION}
        direct = [row for row in rows if row["method"] == "kernel-direct"]
        assert [row["resolution"] for row in direct] == [64, 300]
        for row in direct:
            assert row["value"] == da.area_kernel_direct(bmap, 0.6, row["resolution"]).value

    def test_direct_row_is_the_kept_estimate_over_lag_blocks(self, capsys):
        import json

        import diskarea as da

        # another radius first, so the estimate at r = 0.6 reads lag sums kept for the map
        bmap = da.mollify_map(da.make_random_homeomorphism(7, roughness=0.5))
        for m in (2049, 5000):
            da.area_kernel_direct(bmap, 0.9, m)
        code, out, _ = run_cli(capsys, "bench", "--sizes", "2049,5000", "--repeat", "1", "--format", "jsonl")
        assert code == 0
        direct = [json.loads(line) for line in out.splitlines() if '"kernel-direct"' in line]
        assert [row["resolution"] for row in direct] == [2049, 5000]
        for row in direct:
            assert row["value"] == da.area_kernel_direct(bmap, 0.6, row["resolution"]).value

    def test_routes_disagreeing_beyond_1e_10_exit_1(self, capsys, monkeypatch):
        from diskarea import pair_sums

        real = pair_sums.direct_sine_lag_sums
        monkeypatch.setattr(pair_sums, "direct_sine_lag_sums", lambda xi: real(xi) * (1.0 + 1e-9))
        code, _, err = run_cli(capsys, "bench", "--sizes", "64,300", "--repeat", "1")
        assert code == 1
        assert err.count("disagrees with kernel-fft") == 2

    def test_repeats_take_the_direct_lag_sums_afresh(self, capsys, monkeypatch):
        from diskarea import pair_sums

        sizes = []
        real = pair_sums.direct_sine_lag_sums
        monkeypatch.setattr(pair_sums, "direct_sine_lag_sums", lambda xi: sizes.append(len(xi)) or real(xi))
        code, _, _ = run_cli(capsys, "bench", "--sizes", "64,300", "--repeat", "3")
        assert code == 0
        assert sizes == [64, 64, 64, 300, 300, 300]
