import collections
import json
import math
import time

import numpy as np
import pytest

import diskarea as da
from diskarea import area, cli, pair_sums, poisson, proof_checks, runner, verify

TWO_PI = 2.0 * math.pi


class TestFamilyParsing:
    def test_identity(self):
        (inst,) = runner.parse_family("identity")
        assert inst.map_id == "identity"
        assert isinstance(inst.source, da.BoundaryMap)

    def test_rotation_and_mobius(self):
        (rot,) = runner.parse_family("rotation:1.5")
        assert abs(rot.source.omega - np.exp(1.5j)) < 1e-15
        (mob,) = runner.parse_family("mobius:0.3")
        assert isinstance(mob.source, da.BoundaryMap)

    def test_complex_mobius_parameter(self):
        (mob,) = runner.parse_family("mobius:0.2+0.3j")
        assert isinstance(mob.source, da.BoundaryMap)

    def test_shear_yields_coefficients(self):
        (sh,) = runner.parse_family("shear:0.3")
        assert isinstance(sh.source, da.FourierCoeffs)

    def test_instances_carry_the_parsed_parameter(self):
        assert runner.parse_family("identity")[0].param is None
        assert runner.parse_family("rotation:1.5")[0].param == 1.5
        assert runner.parse_family("mobius:0.2+0.3j")[0].param == 0.2 + 0.3j
        assert runner.parse_family("shear:0.3")[0].param == 0.3
        assert runner.parse_family("random:0")[0].param is None
        config = runner.SweepConfig(families=["mobius:0.2+0.3j"], conjugate=True)
        (conj,) = runner.expand_families(config)
        assert conj.map_id == "mobius:0.2+0.3j|conj" and conj.param == 0.2 + 0.3j

    def test_random_range(self):
        insts = runner.parse_family("random:0..4:0.5")
        assert len(insts) == 5
        assert insts[0].map_id == "random:0:0.5"

    def test_step(self):
        (inst,) = runner.parse_family(f"step:{math.pi/2},{3*math.pi/2}@{math.pi},{TWO_PI}")
        assert inst.source.kind == da.NONDECREASING_STEP

    def test_seed_range_single(self):
        assert runner.parse_seed_range("7") == [7]
        assert runner.parse_seed_range("3..5") == [3, 4, 5]
        with pytest.raises(runner.ConfigError):
            runner.parse_seed_range("5..3")

    def test_bad_specs(self):
        for spec in ("bogus", "mobius:2.0", "random:x:0.5", "step:1.0@", "identity:0.3", "mobius:0.3:junk",
                     "random:0:0.5:9", "random"):
            with pytest.raises(runner.ConfigError):
                runner.parse_family(spec)


class TestFamilyTable:
    @pytest.fixture
    def toy(self, monkeypatch):
        """One entry of area.FAMILIES, and its named builders: z + b conj(z), of image area pi r^2 (1 - b^2)."""
        monkeypatch.setattr(area, "_toy_b", float, raising=False)
        monkeypatch.setattr(area, "_toy_coeffs", lambda b: da.FourierCoeffs.from_dict({1: 1.0, -1: b}), raising=False)
        monkeypatch.setattr(area, "_toy_area", lambda r, b: math.pi * r * r * (1.0 - b * b), raising=False)
        entry = area.MapFamily("toy:b", (1,), "_toy_b", "_toy_coeffs", None, "_toy_area")
        monkeypatch.setitem(area.FAMILIES, "toy", entry)

    def test_one_entry_adds_a_family(self, toy, capsys):
        (inst,) = runner.parse_family("toy:0.1")
        assert (inst.family, inst.params, inst.map_id, inst.param) == ("toy", "b=0.1", "toy:0.1", 0.1)
        assert isinstance(inst.source, da.FourierCoeffs)
        code = cli.main(["area", "--family", "toy:0.1", "--r", "0.5", "--method", "exact,green-spectral",
                         "--format", "jsonl"])
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert [(row["map_id"], row["method"]) for row in rows] == [("toy:0.1", "exact"), ("toy:0.1", "green-spectral")]
        assert rows[0]["value"] == math.pi * 0.25 * 0.99
        assert abs(rows[1]["value"] - rows[0]["value"]) < 1e-15
        # the command line's parser is built at import; a fresh one reads the table as it is now
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["area", "--help"])
        assert "toy:b" in capsys.readouterr().out
        with pytest.raises(da.HypothesisViolationError, match=r"\(identity, rotation, shear, mobius, toy\)"):
            da.estimate_area(runner.parse_family("random:0")[0], 0.5, "exact")

    def test_builders_are_looked_up_when_called(self, monkeypatch):
        calls = []
        real = area.make_mobius_boundary
        monkeypatch.setattr(area, "make_mobius_boundary", lambda a: calls.append(a) or real(a))
        (inst,) = runner.parse_family("mobius:0.3")
        assert calls == [0.3] and inst.source.kind == da.HOMEOMORPHISM


class TestSweepConfig:
    def test_radius_cap(self):
        config = runner.SweepConfig(families=["identity"], radii=[0.99])
        with pytest.raises(runner.ConfigError):
            config.validate_radii()

    def test_empty_radii(self):
        config = runner.SweepConfig(families=["identity"], radii=[])
        with pytest.raises(runner.ConfigError):
            config.validate_radii()

    def test_empty_families(self):
        config = runner.SweepConfig(families=[], radii=[0.5])
        with pytest.raises(runner.ConfigError):
            runner.expand_families(config)


class TestRunArea:
    def test_identity_green_spectral_row(self):
        config = runner.SweepConfig(families=["identity"], radii=[0.5])
        rows = runner.run_area(config)
        assert len(rows) == 1
        assert abs(rows[0]["value"] - math.pi * 0.25) < 1e-10
        assert rows[0]["schema"] == 1

    def test_kernel_pair_agreement(self):
        config = runner.SweepConfig(
            families=["random:7:0.5"],
            radii=[0.6],
            methods=["kernel-fft", "kernel-direct"],
            resolution=512,
        )
        rows = runner.run_area(config)
        vals = {row["method"]: row["value"] for row in rows}
        assert abs(vals["kernel-fft"] - vals["kernel-direct"]) <= 1e-10 * abs(vals["kernel-fft"])

    def test_rows_sorted_deterministically(self):
        config = runner.SweepConfig(
            families=["rotation:1.0", "identity"], radii=[0.5, 0.25], methods=["exact", "green-spectral"]
        )
        rows1 = runner.run_area(config)
        rows2 = runner.run_area(config)
        strip = lambda rows: [{k: v for k, v in row.items() if k != "wall_time_ms"} for row in rows]
        assert strip(rows1) == strip(rows2)
        keys = [(row["map_id"], row["r"], row["method"]) for row in rows1]
        assert keys == sorted(keys)

    def test_conjugate_flag(self):
        plain = runner.SweepConfig(families=["mobius:0.4"], radii=[0.5])
        conj = runner.SweepConfig(families=["mobius:0.4"], radii=[0.5], conjugate=True)
        v1 = runner.run_area(plain)[0]["value"]
        v2 = runner.run_area(conj)[0]["value"]
        assert abs(v1 - v2) < 1e-9  # mirror image has the same area

    def test_rows_and_their_times(self):
        # as in the suites, each row is timed from the previous one and the
        # first from the call, so the family expansion lands on the first
        # row and the rows add up to at most the run's elapsed time
        config = runner.SweepConfig(families=["identity", "random:0..1:0.5", "shear:0.3"],
                                    radii=[0.25, 0.5, 0.9], methods=["green-spectral", "jacobian"], order=64)
        for _ in range(2):
            t0 = time.perf_counter()
            rows = runner.run_area(config)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            assert len(rows) == 4 * 3 * 2
            times = [row["wall_time_ms"] for row in rows]
            assert sum(times) <= elapsed_ms + 0.0005 * len(rows) + 1e-9
            assert sum(times) > 0.0

    def test_unknown_method(self):
        config = runner.SweepConfig(families=["identity"], radii=[0.5], methods=["fancy"])
        with pytest.raises(runner.ConfigError):
            runner.run_area(config)


class TestSuites:
    def test_contraction_small(self):
        config = runner.SweepConfig(radii=[0.25, 0.9], seeds=[0, 1, 2], mollify=[TWO_PI / 64])
        rows = runner.run_contraction_suite(config)
        assert len(rows) == 6
        assert all(row["passed"] == "true" for row in rows)
        assert runner.exit_code_for(rows) == 0

    def test_equality_suite(self):
        config = runner.SweepConfig(radii=[0.5], seeds=[0, 1])
        rows = runner.run_equality_suite(config)
        assert all(row["passed"] == "true" for row in rows)

    def test_equality_suite_extracts_each_map_once(self, monkeypatch):
        # 4 rotations and 20 random maps, each extracted once for all 4 radii
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (runner, area):
            monkeypatch.setattr(module, "fourier_from_boundary",
                                counting("extract", module.fourier_from_boundary))
        monkeypatch.setattr(runner, "make_rotation", counting("rotation", runner.make_rotation))
        config = runner.SweepConfig(radii=[0.25, 0.5, 0.75, 0.9], seeds=list(range(20)))
        rows = runner.run_equality_suite(config)
        assert len(rows) == 96
        assert calls == {"extract": 24, "rotation": 4}

    def test_equality_rotation_lhs_is_the_contraction_slack(self):
        config = runner.SweepConfig(radii=[0.25, 0.9], seeds=[0])
        rows = [row for row in runner.run_equality_suite(config) if row["check_name"] == "equality-rotation"]
        assert len(rows) == 8
        phis = {f"phi={phi:g}": phi for phi in (0.0, 1.0, math.pi / 2, math.pi)}  # the suite's rotations
        for row in rows:
            phi = phis[row["params"]]
            rec = da.check_area_contraction(da.make_rotation(phi), row["r"], order=config.order)
            assert row["lhs"] == abs(rec.slack)

    def test_schwarz_suite(self):
        config = runner.SweepConfig(radii=[0.5], seeds=[0, 1])
        rows = runner.run_schwarz_suite(config)
        assert all(row["passed"] == "true" for row in rows)
        names = {row["check_name"] for row in rows}
        assert "schwarz-sharpness" in names

    def test_boundary_suite(self):
        rows = runner.run_boundary_suite(runner.SweepConfig(radii=[0.5]))
        assert all(row["passed"] == "true" for row in rows)

    def test_convexity_suite_passes_because_shear_fails(self):
        rows = runner.run_convexity_suite(runner.SweepConfig(radii=[0.5]))
        shear_rows = [row for row in rows if row["check_name"] == "convexity-fails-for-shear"]
        assert shear_rows and all(row["passed"] == "true" for row in shear_rows)
        assert runner.exit_code_for(rows) == 0

    def test_convexity_suite_rejects_uncertified_series(self, monkeypatch):
        # z + 0.6 z^2: f' vanishes inside the disk, so no certificate exists
        monkeypatch.setitem(runner.HOLOMORPHIC_SERIES, "z+0.6z^2", [1.0, 0.6])
        with pytest.raises(da.HypothesisViolationError, match="not certified univalent"):
            runner.run_convexity_suite(runner.SweepConfig(radii=[0.5]))

    def test_convexity_suite_reads_shear_specs_from_families(self):
        config = runner.SweepConfig(families=["shear:0.1", "shear:0.4"], radii=[0.5])
        rows = runner.run_convexity_suite(config)
        shear_rows = [row for row in rows if row["check_name"] == "convexity-fails-for-shear"]
        assert [row["map_id"] for row in shear_rows] == ["shear:0.1", "shear:0.4"]
        assert all(row["passed"] == "true" for row in shear_rows)
        with pytest.raises(runner.ConfigError):
            runner.run_convexity_suite(runner.SweepConfig(families=["identity"], radii=[0.5]))

    @pytest.mark.parametrize(
        "suite, counts",
        [
            ("contraction", {"area-contraction": 10}),
            ("equality", {"equality-rotation": 20, "equality-separation": 10}),
            ("schwarz", {"schwarz-bound": 6, "schwarz-sharpness": 1}),
            ("boundary", {"boundary-flux": 5}),
            ("convexity", {"convexity-fails-for-shear": 5, "holomorphic-convexity": 20}),
            (
                "proof",
                {"cos-identity": 10, "gap-double-integral": 10, "mirror-pair-identity": 5,
                 "profile-gap-integral": 1, "reduction-chain": 1, "reflection-invariance": 1,
                 "strict-interior-positivity": 1, "tangent-gap-signs": 1},
            ),
        ],
    )
    def test_rows_and_their_times(self, suite, counts):
        # each row is timed from the previous one, so no work is counted
        # twice: with five radii per map, a per-map clock would count the
        # Fourier extraction five times.  The second call is warm, so no
        # one-off start-up cost in the elapsed time hides a double count.
        config = runner.SweepConfig(radii=[0.1, 0.25, 0.5, 0.75, 0.9], seeds=[0, 1], mollify=[TWO_PI / 64])
        for _ in range(2):
            t0 = time.perf_counter()
            rows = runner._SUITE_RUNNERS[suite](config)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            assert collections.Counter(row["check_name"] for row in rows) == counts
            times = [row["wall_time_ms"] for row in rows]
            assert sum(times) <= elapsed_ms + 0.0005 * len(rows) + 1e-9
            assert sum(times) > 0.0

    def test_schwarz_suite_builds_one_power_table_per_order(self, monkeypatch):
        built = []
        build = poisson._power_table

        def recording(rho, top):
            built.append(top)
            return build(rho, top)

        verify._schwarz_powers.cache_clear()
        for order in (64, 512):
            config = runner.SweepConfig(radii=[0.5], seeds=[0, 1, 2], order=order)
            with monkeypatch.context() as patch:
                # verify builds the memoized table; poisson builds any table it is not given
                patch.setattr(verify, "_power_table", recording)
                patch.setattr(poisson, "_power_table", recording)
                runner.run_schwarz_suite(config)
                rows = runner.run_schwarz_suite(config)
            assert not verify._schwarz_powers(order).flags.writeable
            # each record is the one the check gives when the series builds its own powers
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_schwarz_powers", lambda order: None)
                for inst in runner._schwarz_corpus(config):
                    if inst.family != "step":
                        rec = verify.schwarz_bound_check(inst.source, map_id=inst.map_id, order=order)
                        (row,) = [row for row in rows if row["map_id"] == inst.map_id]
                        assert row["lhs"] == rec.lhs and row["passed"] == "true"
        # over two runs at each order, the identity, the rotation and three
        # random maps read one table per order; the step maps read none
        assert built == [64, 512]

    def test_schwarz_suite_builds_each_step_map_once(self, monkeypatch):
        # the sharpness row reads the corpus's two-jump map
        built = []
        make = runner.make_step_map
        monkeypatch.setattr(runner, "make_step_map", lambda jumps, values: built.append(jumps) or make(jumps, values))
        rows = runner.run_schwarz_suite(runner.SweepConfig(radii=[0.5], seeds=[0], order=32))
        assert len(built) == 2
        assert [row["map_id"] for row in rows if row["check_name"] == "schwarz-sharpness"] == ["step:2jump"]

    def test_uncentered_map_stops_the_schwarz_suite(self, monkeypatch):
        corpus = runner._schwarz_corpus

        def with_uncentered(config):
            yield from corpus(config)
            yield runner.FamilyInstance("random", "", "random:0", da.make_random_homeomorphism(0))

        monkeypatch.setattr(runner, "_schwarz_corpus", with_uncentered)
        with pytest.raises(da.HypothesisViolationError, match="not centered"):
            runner.run_schwarz_suite(runner.SweepConfig(radii=[0.5], seeds=[0], order=32))

    def test_mirror_pair_checked_once_per_capped_radius(self, monkeypatch):
        checked = []
        check = proof_checks.check_mirror_pair_identity
        monkeypatch.setattr(proof_checks, "check_mirror_pair_identity", lambda r: checked.append(r) or check(r))
        monkeypatch.setattr(runner, "PROOF_PROFILES", 2)
        monkeypatch.setattr(runner, "PROOF_CHAINS", 2)
        rows = runner.run_proof_suite(runner.SweepConfig(radii=[0.25, 0.75, 0.5, 0.9], seeds=[0]))
        assert checked == [0.25, 0.7, 0.5]
        mirror = [row for row in rows if row["check_name"] == "mirror-pair-identity"]
        assert [row["r"] for row in mirror] == [0.25, 0.5, 0.7, 0.7]
        for row in mirror:
            want = dict(runner._record_row(check(row["r"]), "", ""), schema=runner.SCHEMA_VERSION)
            assert {k: v for k, v in row.items() if k != "wall_time_ms"} == want

    def test_proof_suite_takes_one_pair_of_gap_sums_per_map_and_radius(self, monkeypatch, capsys):
        # 5 maps x 4 default radii: each pair of gap sums gives the cos-identity
        # and the gap-double-integral row of its map and radius
        calls = []
        gap_pair_sums = pair_sums.gap_pair_sums
        monkeypatch.setattr(pair_sums, "gap_pair_sums", lambda *args: calls.append(args) or gap_pair_sums(*args))
        assert cli.main(["verify", "--suite", "proof", "--seeds", "0..4", "--format", "jsonl"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(calls) == 20
        for name in ("cos-identity", "gap-double-integral"):
            assert len([row for row in rows if row["check_name"] == name]) == 20

    def test_proof_suite_rows_are_the_check_records(self, monkeypatch):
        # unsorted radii: the grid rows are labelled with the largest radius
        monkeypatch.setattr(runner, "PROOF_PROFILES", 2)
        monkeypatch.setattr(runner, "PROOF_CHAINS", 2)
        rows = runner.run_proof_suite(runner.SweepConfig(radii=[0.9, 0.25], seeds=[3]))
        signs, strict = proof_checks.check_tangent_gap_signs(256, (0.9, 0.25))
        bmap = da.make_random_homeomorphism(3, roughness=0.5)
        records = [(signs, "", ""), (strict, "grid", "")] + [
            (rec, "random", "seed=3")
            for r in (0.9, 0.25) for rec in proof_checks.check_gap_double_integral(bmap, r, 512, "random:3:0.5")
        ]
        for rec, family, params in records:
            key = (rec.check_name, rec.map_id, rec.r)
            (row,) = [row for row in rows if (row["check_name"], row["map_id"], row["r"]) == key]
            want = dict(runner._record_row(rec, family, params), schema=runner.SCHEMA_VERSION)
            assert {k: v for k, v in row.items() if k != "wall_time_ms"} == want
        grid = ("tangent-gap-signs", "strict-interior-positivity")
        assert {row["check_name"]: row["r"] for row in rows if row["check_name"] in grid} == dict.fromkeys(grid, 0.9)

    def test_contraction_tolerance_is_relative_to_the_disk(self):
        config = runner.SweepConfig(radii=[0.5], seeds=[0], mollify=[TWO_PI / 64])
        (row,) = runner.run_contraction_suite(config)
        assert row["tolerance"] == 1e-6 * math.pi * 0.25

    def test_contraction_rows_are_the_check_records(self):
        # a low order leaves a nonzero error indicator on every row
        config = runner.SweepConfig(radii=[0.3, 0.9], seeds=[4], mollify=[TWO_PI / 32, TWO_PI / 128], order=16)
        rows = runner.run_contraction_suite(config)
        assert len(rows) == 4
        for row in rows:
            (inst,) = [i for i in runner._contraction_tasks(config) if i.map_id == row["map_id"]]
            coeffs = da.fourier_from_boundary(inst.source, order=config.order)
            rec = da.check_area_contraction(coeffs, row["r"])
            for key in ("lhs", "error_indicator", "method", "tolerance"):
                assert row[key] == getattr(rec, key), key
            assert row["error_indicator"] > 0.0

    def test_exit_code_fail_dominates(self):
        rows = [{"passed": "true"}, {"passed": "inconclusive"}, {"passed": "false"}]
        assert runner.exit_code_for(rows) == 1
        assert runner.exit_code_for(rows[:2]) == 2
        assert runner.exit_code_for(rows[:1]) == 0

    def test_unknown_suite(self):
        with pytest.raises(runner.ConfigError):
            runner.run_suite("nope", runner.SweepConfig(radii=[0.5]))

    def test_all_runs_every_suite_in_order(self):
        assert runner.SUITES == ("contraction", "equality", "schwarz", "boundary", "convexity", "proof", "all")
        config = runner.SweepConfig(radii=[0.5], seeds=[0])
        strip = lambda rows: [{k: v for k, v in row.items() if k != "wall_time_ms"} for row in rows]
        each = [row for name in runner.SUITES[:-1] for row in runner.run_suite(name, config)]
        assert strip(runner.run_suite("all", config)) == strip(each)


class TestEmission:
    def test_csv_columns_fixed(self):
        config = runner.SweepConfig(radii=[0.5], seeds=[0], mollify=[TWO_PI / 64])
        rows = runner.run_contraction_suite(config)
        text = runner.format_csv(rows, runner.VERIFY_COLUMNS)
        header = text.splitlines()[0]
        assert header == ",".join(runner.VERIFY_COLUMNS)

    def test_jsonl_round_trip(self):
        config = runner.SweepConfig(families=["identity"], radii=[0.5])
        rows = runner.run_area(config)
        lines = runner.format_jsonl(rows).splitlines()
        docs = [json.loads(line) for line in lines]
        assert docs[0]["value"] == rows[0]["value"]
