"""End-to-end command-line checks.

Every subcommand is exercised in-process through run(), and its documents
are read back as JSON.  The exact bytes of seeded output are pinned in
test_output_pins.py.
"""

import json
import time
import tracemalloc
from fractions import Fraction

import pytest

import spongedim as sd
from spongedim.cli import _build_parser, run
from spongedim.measure import weights_to_json


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestDims:
    def test_output_is_library_serialization(self, capsys, spec_dir):
        path = str(spec_dir / "sponge_234.json")
        rc, out, _ = invoke(capsys, "dims", path)
        assert rc == 0
        expected = sd.report_to_json(sd.dim_report(sd.load_sponge(path)))
        assert out == expected + "\n"

    def test_values(self, capsys, spec_dir):
        rc, out, _ = invoke(capsys, "dims", str(spec_dir / "sponge_234.json"))
        doc = json.loads(out)
        assert doc["assouad"] == pytest.approx(2.792481250360578, abs=1e-9)
        assert doc["hausdorff"] == pytest.approx(2.2955153783447644, abs=1e-9)
        assert doc["dichotomy"] == "AllDistinct"

    def test_repeated_bases_degrade_gracefully(self, capsys, spec_dir):
        rc, out, _ = invoke(capsys, "dims", str(spec_dir / "sponge_344.json"))
        assert rc == 0
        doc = json.loads(out)
        assert doc["box"] is not None
        assert doc["assouad"] is None
        assert set(doc["errors"]) == {
            "assouad",
            "lower",
            "lower_via_zprime",
            "dichotomy",
        }
        assert all(v == "NonStrictBases" for v in doc["errors"].values())

    def test_missing_file(self, capsys):
        rc, out, err = invoke(capsys, "dims", "no_such_file.json")
        assert rc == 1
        assert out == ""
        assert err != ""


class TestValidate:
    def test_reference_flags(self, capsys, spec_dir):
        rc, out, _ = invoke(capsys, "validate", str(spec_dir / "sponge_234.json"))
        assert rc == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["bases"] == [2, 3, 4]
        assert doc["digit_count"] == 10
        assert doc["strict_bases"] is True
        assert doc["uniform_fibres"] is False
        assert doc["vssc"] is False

    def test_separated_carpet_flags(self, capsys, spec_dir):
        rc, out, _ = invoke(
            capsys, "validate", str(spec_dir / "carpet_vssc_34.json")
        )
        doc = json.loads(out)
        assert doc["vssc"] is True
        assert doc["uniform_fibres"] is True

    def test_invalid_file_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bases": [2, 2], "digits": [[0, 0], [1, 0]]}')
        rc, out, err = invoke(capsys, "validate", str(bad))
        assert rc == 1
        assert "DegenerateCoordinate" in err or "degenerate" in err.lower()


class TestWeights:
    def test_reference_table(self, capsys, spec_dir):
        rc, out, _ = invoke(capsys, "weights", str(spec_dir / "sponge_234.json"))
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        table = doc["weights"]
        assert table["0,0,0"] == "1/8"
        assert table["0,1,2"] == "1/4"
        assert sum(Fraction(v) for v in table.values()) == 1

    def test_output_loads_back_as_measure(self, capsys, spec_dir, tmp_path):
        path = str(spec_dir / "sponge_234.json")
        rc, out, _ = invoke(capsys, "weights", path)
        side = tmp_path / "w.json"
        side.write_text(out)
        args = ["cube-measure", path, "--word", "0,0,0;0,0,0", "--scale", "1/4"]
        rc1, default_out, _ = invoke(capsys, *args)
        rc2, explicit_out, _ = invoke(capsys, *args, "--measure", str(side))
        assert rc1 == rc2 == 0
        assert default_out == explicit_out


class TestCubeMeasure:
    def test_exact_value(self, capsys, spec_dir):
        rc, out, _ = invoke(
            capsys,
            "cube-measure",
            str(spec_dir / "sponge_234.json"),
            "--word",
            "0,0,0;0,0,0",
            "--scale",
            "1/4",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["exact"] == "1/16"
        assert doc["value"] == pytest.approx(1 / 16)

    def test_short_word_is_domain_error(self, capsys, spec_dir):
        rc, _, err = invoke(
            capsys,
            "cube-measure",
            str(spec_dir / "sponge_234.json"),
            "--word",
            "0,0,0",
            "--scale",
            "1/16",
        )
        assert rc == 1
        assert "WordTooShort" in err

    def test_malformed_word_is_usage_error(self, capsys, spec_dir):
        rc, _, _ = invoke(
            capsys,
            "cube-measure",
            str(spec_dir / "sponge_234.json"),
            "--word",
            "0,x,0",
            "--scale",
            "1/4",
        )
        assert rc == 2

    def test_scale_above_one_is_domain_error(self, capsys, spec_dir):
        rc, _, err = invoke(
            capsys,
            "cube-measure",
            str(spec_dir / "sponge_234.json"),
            "--word",
            "0,0,0",
            "--scale",
            "2",
        )
        assert rc == 1
        assert "ScaleOutOfRange" in err


class TestCount:
    def test_reference_count(self, capsys, spec_dir):
        rc, out, _ = invoke(
            capsys, "count", str(spec_dir / "sponge_234.json"), "--scale", "1/4"
        )
        assert rc == 0
        assert out == "20\n"

    def test_decimal_scale_equivalent(self, capsys, spec_dir):
        path = str(spec_dir / "sponge_234.json")
        _, exact_out, _ = invoke(capsys, "count", path, "--scale", "1/4")
        _, decimal_out, _ = invoke(capsys, "count", path, "--scale", "0.25")
        assert exact_out == decimal_out

    def test_unrepresentable_decimal_snaps_with_note(self, capsys, spec_dir):
        rc, out, err = invoke(
            capsys,
            "count",
            str(spec_dir / "sponge_234.json"),
            "--scale",
            "0.33333333333333331",
        )
        assert rc == 0
        assert "snapped" in err

    @pytest.mark.parametrize("text", ["1e-10", "0.0000000001"])
    def test_small_decimal_is_never_snapped_to_zero(self, capsys, spec_dir, text):
        rc, out, err = invoke(
            capsys, "count", str(spec_dir / "sponge_234.json"), "--scale", text
        )
        assert rc == 0
        assert out == "51200000000000000000000\n"
        assert err == ""

    def test_small_decimal_grid_step_kept_exact(self, capsys, spec_dir):
        rc, _, err = invoke(capsys, "doubling", str(spec_dir / "sponge_234.json"),
                            "--grid", "1e-10", "--max-depth", "2")
        assert rc == 1
        assert err.startswith("EnumerationTooLarge: grid step 1/10000000000 ")

    @pytest.mark.parametrize(
        "lam, label",
        [("1e-10", "1/10000000000"), ("1/1" + "0" * 400, "1/1" + "0" * 400)],
        ids=["decimal", "below-float-range"],
    )
    def test_family_parameter_near_zero(self, capsys, lam, label):
        start = time.perf_counter()
        rc, out, err = invoke(capsys, "family-lg", "--min", lam, "--max", lam,
                              "--step", "1/2")
        assert time.perf_counter() - start < 1.0
        assert rc == 0
        assert err == ""
        rows = out.splitlines()
        assert len(rows) == 2
        assert rows[1].startswith(f"{label},1.0,")

    def test_exact_fraction_is_never_snapped(self, capsys, spec_dir):
        rc, out, err = invoke(
            capsys,
            "count",
            str(spec_dir / "sponge_234.json"),
            "--scale",
            "1/1073741824",
        )
        assert rc == 0
        assert out == "512000000000000000000\n"
        assert err == ""


class TestScan:
    def test_clean_and_deterministic(self, capsys, spec_dir):
        args = [
            "scan",
            str(spec_dir / "sponge_234.json"),
            "--samples",
            "30",
            "--seed",
            "5",
            "--depth",
            "10",
        ]
        rc1, out1, _ = invoke(capsys, *args)
        rc2, out2, _ = invoke(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert json.loads(out1)["violation_count"] == 0

    def test_deep_scan_reports_overflowing_ratios(self, capsys, spec_dir):
        rc, out, err = invoke(
            capsys,
            "scan",
            str(spec_dir / "sponge_234.json"),
            "--samples",
            "50",
            "--seed",
            "1",
            "--depth",
            "1000",
        )
        assert rc == 0
        assert "Traceback" not in err
        assert json.loads(out)["violation_count"] == 0

    def test_samples_csv_side_file(self, capsys, spec_dir, tmp_path):
        side = tmp_path / "rows.csv"
        rc, _, err = invoke(
            capsys,
            "scan",
            str(spec_dir / "sponge_234.json"),
            "--samples",
            "10",
            "--seed",
            "1",
            "--depth",
            "8",
            "--samples-csv",
            str(side),
        )
        assert rc == 0
        assert "wrote 10 sample rows" in err
        lines = side.read_text().strip().splitlines()
        assert lines[0] == "word,r,R,ratio,lower_bound,upper_bound"
        assert len(lines) == 11


class TestBallScan:
    def test_separated_carpet(self, capsys, spec_dir):
        rc, out, _ = invoke(
            capsys,
            "ball-scan",
            str(spec_dir / "carpet_vssc_34.json"),
            "--samples",
            "20",
            "--seed",
            "3",
            "--depth",
            "5",
        )
        assert rc == 0
        assert json.loads(out)["violation_count"] == 0

    def test_unseparated_input_refused(self, capsys, spec_dir):
        rc, _, err = invoke(
            capsys,
            "ball-scan",
            str(spec_dir / "sponge_234.json"),
            "--samples",
            "5",
            "--seed",
            "1",
        )
        assert rc == 1
        assert "VsscNotSatisfied" in err


class TestDoubling:
    def test_single_measure_run(self, capsys, spec_dir, tmp_path):
        s = sd.load_sponge(str(spec_dir / "carpet_24.json"))
        m = sd.BernoulliMeasure(s, {t: Fraction(1, 3) for t in s.digits})
        side = tmp_path / "flat.json"
        side.write_text(weights_to_json(m))
        rc, out, _ = invoke(
            capsys,
            "doubling",
            str(spec_dir / "carpet_24.json"),
            "--measure",
            str(side),
            "--max-depth",
            "11",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NonDoublingCertificate"
        assert doc["growth_rate"] == pytest.approx(2.0, abs=1e-9)

    def test_grid_sweep(self, capsys, spec_dir):
        rc, out, _ = invoke(
            capsys,
            "doubling",
            str(spec_dir / "carpet_24.json"),
            "--grid",
            "1/3",
            "--max-depth",
            "11",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["vectors"] == 1
        assert doc["all_non_doubling"] is True
        assert doc["results"][0]["verdict"] == "NonDoublingCertificate"

    def test_underflowing_masses_refused(self, capsys, spec_dir, tmp_path):
        """Ratios are exact, so masses below the float range still report; a
        ratio beyond it is refused with its depth, not a traceback."""
        s = sd.load_sponge(str(spec_dir / "carpet_24.json"))

        def doubling(exponent):
            tiny = Fraction(1, 10**exponent)
            m = sd.BernoulliMeasure(
                s, {(0, 1): tiny, (1, 1): Fraction(1, 2), (1, 3): Fraction(1, 2) - tiny}
            )
            side = tmp_path / f"tiny{exponent}.json"
            side.write_text(weights_to_json(m))
            return invoke(
                capsys, "doubling", str(spec_dir / "carpet_24.json"),
                "--measure", str(side), "--max-depth", "3",
            )

        rc, out, err = doubling(200)
        assert rc == 0
        rows = json.loads(out)["per_depth"]
        assert [row["max_ratio"] for row in rows] == [1e200, 1e200, 2e200]
        rc, out, err = doubling(400)
        assert rc == 1
        assert out == ""
        assert err.startswith(
            "ZeroMeasure: the largest adjacent mass ratio at depth 1 exceeds the float range"
        )
        assert "Traceback" not in err

    def test_measure_and_grid_exclusive(self, capsys, spec_dir, tmp_path):
        rc, _, _ = invoke(
            capsys,
            "doubling",
            str(spec_dir / "carpet_24.json"),
            "--measure",
            "x.json",
            "--grid",
            "1/3",
            "--max-depth",
            "5",
        )
        assert rc == 2


class TestTangent:
    def test_reference_convergence(self, capsys, spec_dir):
        rc, out, _ = invoke(
            capsys,
            "tangent",
            str(spec_dir / "sponge_234.json"),
            "--scale",
            "1/16",
            "--mode",
            "max",
            "--level",
            "6",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["distance"] == pytest.approx(0.37152067912481146, abs=1e-9)
        assert doc["map_band"] == [9, 16]

    def test_emit_boxes(self, capsys, spec_dir, tmp_path):
        side = tmp_path / "cover.csv"
        rc, _, err = invoke(
            capsys,
            "tangent",
            str(spec_dir / "sponge_234.json"),
            "--scale",
            "1/16",
            "--mode",
            "max",
            "--level",
            "6",
            "--emit-boxes",
            str(side),
        )
        assert rc == 0
        assert "wrote" in err
        lines = side.read_text().strip().splitlines()
        assert lines[0] == "lo_1,hi_1,lo_2,hi_2,lo_3,hi_3"
        assert len(lines) > 1

    def test_emitted_memory_does_not_grow_with_the_level(self, spec_dir, tmp_path):
        """The rescaled cover is formatted and written block by block: the
        traced peak at 49,000 boxes is within 1 MB of the one at 4,900."""
        spec = str(spec_dir / "sponge_234.json")

        def peak(level: str) -> int:
            tracemalloc.start()
            try:
                assert run(["tangent", spec, "--scale", "1/16", "--mode", "max",
                            "--level", level, "--emit-boxes", str(tmp_path / "t.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("6")
        small, large = peak("6"), peak("7")
        assert large - small < 2**20, (small, large)

    def test_repeated_bases_refused(self, capsys, spec_dir):
        rc, _, err = invoke(
            capsys,
            "tangent",
            str(spec_dir / "sponge_344.json"),
            "--scale",
            "1/16",
            "--mode",
            "max",
            "--level",
            "6",
        )
        assert rc == 1
        assert "NonStrictBases" in err


class TestFamilyLg:
    def test_table(self, capsys):
        rc, out, _ = invoke(
            capsys, "family-lg", "--min", "1/10", "--max", "1/2", "--step", "1/10"
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,lower,hausdorff,box,assouad"
        assert len(lines) == 6
        assert lines[-1].startswith("1/2,")

    def test_domain_error(self, capsys):
        rc, _, err = invoke(
            capsys, "family-lg", "--min", "0", "--max", "1/2", "--step", "1/10"
        )
        assert rc == 1
        assert "ScaleOutOfRange" in err


class TestRender:
    def test_csv(self, capsys, spec_dir, tmp_path):
        out_file = tmp_path / "cover.csv"
        rc, _, err = invoke(
            capsys,
            "render",
            str(spec_dir / "carpet_24.json"),
            "--level",
            "2",
            "--out",
            str(out_file),
        )
        assert rc == 0
        assert "wrote 9 boxes" in err
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "lo_1,hi_1,lo_2,hi_2"
        assert len(lines) == 10

    def test_svg(self, capsys, spec_dir, tmp_path):
        out_file = tmp_path / "cover.svg"
        rc, _, _ = invoke(
            capsys,
            "render",
            str(spec_dir / "carpet_24.json"),
            "--level",
            "1",
            "--out",
            str(out_file),
        )
        assert rc == 0
        assert "<svg" in out_file.read_text()

    def test_svg_needs_planar_set(self, capsys, spec_dir, tmp_path):
        rc, _, err = invoke(
            capsys,
            "render",
            str(spec_dir / "sponge_234.json"),
            "--level",
            "1",
            "--out",
            str(tmp_path / "cover.svg"),
        )
        assert rc == 1
        assert "planar" in err

    def test_unknown_extension_is_usage_error(self, capsys, spec_dir, tmp_path):
        rc, _, err = invoke(
            capsys,
            "render",
            str(spec_dir / "carpet_24.json"),
            "--level",
            "1",
            "--out",
            str(tmp_path / "cover.png"),
        )
        assert rc == 2
        assert ".svg or .csv" in err

    @pytest.mark.parametrize("name, level, out, code, message", [
        ("sponge_234", "7", "cover.txt", 2, ".svg or .csv"),
        ("sponge_234", "7", "cover.svg", 1, "planar"),
        ("carpet_24", "9100", "big.svg", 1, "over the cap"),
    ], ids=["cover.txt-2", "cover.svg-1", "big.svg-1"])
    def test_refusals_precede_enumeration(
        self, capsys, spec_dir, tmp_path, name, level, out, code, message
    ):
        """A bad suffix, SVG of a 3-d sponge, or a level over the cap is
        refused before any box is built and before the file is opened."""
        start = time.perf_counter()
        rc, _, err = invoke(
            capsys, "render", str(spec_dir / f"{name}.json"),
            "--level", level, "--out", str(tmp_path / out),
        )
        elapsed = time.perf_counter() - start
        assert rc == code
        assert message in err
        assert not (tmp_path / out).exists()
        assert elapsed < 0.5

    def test_memory_does_not_grow_with_the_level(self, spec_dir, tmp_path):
        """Boxes are formatted and written block by block: the traced peak of
        a 10^5-box render is within 1 MB of a 10^3-box one."""
        spec = str(spec_dir / "sponge_234.json")

        def peak(level: str) -> int:
            tracemalloc.start()
            try:
                assert run(["render", spec, "--level", level, "--out", str(tmp_path / "c.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("3")
        small, large = peak("3"), peak("5")
        assert large - small < 2**20, (small, large)


# Its level-11 tangent cover (786,432 boxes) is under the cap, but the
# product cover has 10,097,892 cell corners, one cover walk each.
WIDE = {"bases": [2, 3], "digits": [[0, 0], [0, 1], [0, 2], [1, 0]]}
HUGE = "9" * 3000


class TestSizeCaps:
    """Oversized levels, grids and scans are refused before any sized work starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("render", "carpet_24.json", "--level", "9100", "--out", "cover.svg"),
            ("render", "carpet_24.json", "--level", "1000000000", "--out", "cover.svg"),
            ("tangent", "sponge_234.json", "--scale", "1/16", "--mode", "max",
             "--level", "1000000000"),
            ("doubling", "sponge_234.json", "--grid", "1/200", "--max-depth", "1"),
            ("scan", "sponge_234.json", "--samples", "1", "--seed", "1",
             "--depth", "100000000"),
            ("ball-scan", "carpet_vssc_34.json", "--samples", "1", "--seed", "1",
             "--depth", "100000000"),
            ("family-lg", "--min", "1/10", "--max", "1/2", "--step", "1/1000000000"),
            # refused by its corner count; when only the cover was counted,
            # this ran for about 20 minutes (extrapolated) instead
            ("tangent", "wide.json", "--scale", "1/4", "--mode", "max", "--level", "11"),
            # counts with more digits than str() converts: the messages name
            # the inputs, so none is formatted
            ("doubling", "sponge_234.json", "--grid", "1/" + HUGE, "--max-depth", "1"),
            ("family-lg", "--min", "1/" + HUGE, "--max", HUGE, "--step", "1/" + HUGE),
            ("family-lg", "--min", "1/" + HUGE, "--max", "1/2", "--step", "1/" + HUGE),
        ],
    )
    def test_refused_quickly(self, capsys, spec_dir, tmp_path, argv):
        (tmp_path / "wide.json").write_text(json.dumps(WIDE))
        argv = [
            str(tmp_path / arg) if arg == "wide.json" or arg.startswith("cover.")
            else str(spec_dir / arg) if arg.endswith(".json")
            else arg
            for arg in argv
        ]
        start = time.perf_counter()
        rc, _, err = invoke(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert rc == 1
        assert err.startswith("EnumerationTooLarge: ")
        assert "Traceback" not in err
        assert elapsed < 0.5


class TestDecimalExponents:
    """Decimals too big to form or to print are refused quickly.

    An exponent beyond +-1000 is refused before its power of ten is formed,
    and a value with more digits than str() converts once it is parsed.
    """

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("count", "carpet_24.json", "--scale", "1e99999"), 2),
            (("family-lg", "--min", "1/10", "--max", "1e5000", "--step", "1/10"), 2),
            (("count", "carpet_24.json", "--scale", "1e-9999999"), 2),
            (("doubling", "carpet_24.json", "--measure", "w.json", "--max-depth", "2"), 1),
            (("family-lg", "--min", "1/10", "--max", "9" * 4000 + "e1000", "--step", "1/10"), 2),
        ],
    )
    def test_refused_quickly(self, capsys, spec_dir, tmp_path, argv, code):
        weights = {"0,1": "1e-9999999", "1,1": "1/2", "1,3": "1/2"}
        (tmp_path / "w.json").write_text(json.dumps(weights))
        argv = [
            str(tmp_path / arg) if arg == "w.json"
            else str(spec_dir / arg) if arg.endswith(".json")
            else arg
            for arg in argv
        ]
        start = time.perf_counter()
        rc, _, err = invoke(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert rc == code
        assert "Traceback" not in err
        assert elapsed < 1.0

    def test_weight_file_named(self, capsys, spec_dir, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"0,1": "1e-9999999", "1,1": "1/2", "1,3": "1/2"}))
        rc, _, err = invoke(capsys, "doubling", str(spec_dir / "carpet_24.json"),
                            "--measure", str(path), "--max-depth", "2")
        assert rc == 1
        assert err.startswith(f"SpongeFileError: {path}")


class TestUndecodableFiles:
    """Text that json cannot decode is a SpongeFileError naming the file."""

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe not UTF-8",
            b'{"bases": [' + b"7" * 5000 + b'], "digits": [[0]]}',
            b"[" * 100_000,
        ],
        ids=["not-utf8", "5000-digit-int", "deep-nesting"],
    )
    @pytest.mark.parametrize("kind", ["spec", "weights"])
    def test_refused_without_traceback(self, capsys, spec_dir, tmp_path, content, kind):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if kind == "spec":
            argv = ["dims", str(bad)]
        else:
            argv = ["doubling", str(spec_dir / "carpet_24.json"),
                    "--measure", str(bad), "--max-depth", "1"]
        rc, _, err = invoke(capsys, *argv)
        assert rc == 1
        assert err.startswith(f"SpongeFileError: {bad}")
        assert "Traceback" not in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert invoke(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys, spec_dir):
        rc = invoke(capsys, "count", str(spec_dir / "sponge_234.json"))[0]
        assert rc == 2

    def test_bad_scale_text(self, capsys, spec_dir):
        rc = invoke(
            capsys,
            "count",
            str(spec_dir / "sponge_234.json"),
            "--scale",
            "a/b",
        )[0]
        assert rc == 2

    def test_parser_reuse_changes_nothing(self, capsys, spec_dir, tmp_path):
        """The parser is built once per process; every call through it, a
        usage error and a snapped-scale note included, prints and exits as
        through a parser built for that call alone."""
        carpet = str(spec_dir / "carpet_24.json")
        side = tmp_path / "uniform.json"
        side.write_text(weights_to_json(sd.coordinate_uniform(sd.load_sponge(carpet))))
        calls = [
            ("doubling", carpet, "--measure", str(side), "--grid", "1/3", "--max-depth", "5"),
            ("doubling", carpet, "--grid", "1/5", "--max-depth", "6"),
            ("tangent", str(spec_dir / "sponge_234.json"), "--scale", "1/16",
             "--mode", "max", "--level", "6"),
            ("doubling", carpet, "--measure", str(side), "--max-depth", "6"),
            ("count", str(spec_dir / "sponge_234.json"), "--scale", "0.33333333333333331"),
        ]

        def results(fresh):
            out = []
            for argv in calls:
                if fresh:
                    _build_parser.cache_clear()
                out.append(invoke(capsys, *argv))
            return out

        _build_parser.cache_clear()
        reused = results(fresh=False)
        assert _build_parser.cache_info().misses == 1
        fresh = results(fresh=True)
        assert reused == fresh
        assert [rc for rc, _, _ in reused] == [2, 0, 0, 0, 0]
        assert "not allowed with argument" in reused[0][2]
        assert "snapped" in reused[4][2]
