"""CLI behavior: JSON reports, determinism, SVG, exit codes."""

import json
import time

import pytest

from carousel.cli import main
from carousel.report import StageError, analyze_germ, report_dict


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_json(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    return code, json.loads(out)


class TestAnalyze:
    def test_a4_report(self, capsys):
        code, report = analyze_json(
            ["analyze", "--germ", "x^5 - y^2", "--json-compact"], capsys
        )
        assert code == 0
        assert report["schema"] == "1"
        assert report["mu"] == 4
        assert report["delta"] == 2
        assert report["f_order"] == 2
        assert report["in_m_squared"] is True
        assert report["cerf"]["exponents"] == ["5"]
        assert report["cerf"]["tangent"] is True
        assert report["carousel"]["cycle_type"] == [5]
        assert report["carousel"]["fixed_points"] == []
        assert report["verdicts"]["fixed_point_free"] is True
        assert report["verdicts"]["predicted_lefschetz"] == 0
        assert report["verdicts"]["tangency"] == "CONSISTENT"

    def test_smooth_germ_report(self, capsys):
        code, report = analyze_json(
            ["analyze", "--germ", "y^2 - x", "--json-compact"], capsys
        )
        assert code == 0
        assert report["f_order"] == 1
        assert report["in_m_squared"] is False
        assert report["cerf"]["tangent"] is False
        assert report["carousel"]["cycle_type"] == [1]
        assert report["carousel"]["fixed_points"] == [0]
        assert report["verdicts"]["predicted_lefschetz"] is None

    def test_forced_line_product_structure(self, capsys):
        code, report = analyze_json(
            ["analyze", "--germ", "x*y", "--line", "1,0", "--json-compact"], capsys
        )
        assert code == 0
        assert report["line"]["forced"] is True
        assert report["polar"]["empty_at_origin"] is True
        assert report["polar"]["removed_factors"] == ["x"]
        assert report["carousel"] is None
        assert "product" in report["cerf"]["note"]

    def test_error_exit_code(self, capsys):
        code, out, err = run_cli(["analyze", "--germ", "x^2"], capsys)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_three_symbols_are_not_a_plane_curve(self, capsys):
        code, out, err = run_cli(
            ["analyze", "--vars", "x,y,t", "--germ", "x^2 - t^3"], capsys
        )
        assert code == 1
        assert out == ""
        assert "[invariants] expected a plane-curve germ in two variables" in err

    def test_removed_knobs_are_argparse_errors(self, capsys):
        for flag, value in (
            ("--truncation", "8"),
            ("--radius-scale", "1"),
            ("--steps", "512"),
        ):
            with pytest.raises(SystemExit) as err:
                main(["analyze", "--germ", "x^3-y^2", flag, value])
            assert err.value.code == 2

    def test_parse_error_position(self, capsys):
        code, out, err = run_cli(["analyze", "--germ", "x +"], capsys)
        assert code == 1
        assert "position" in err

    def test_huge_degree_fails_fast_at_parse(self, capsys):
        for germ in ("x^99999999 + y^2", "(x + y)^100000"):
            start = time.perf_counter()
            with pytest.raises(StageError) as err:
                analyze_germ(germ)
            assert time.perf_counter() - start < 1
            assert err.value.stage == "parse"
            code, out, err_text = run_cli(["analyze", "--germ", germ], capsys)
            assert code == 1
            assert out == ""
            assert "[parse]" in err_text and "degree above" in err_text

    def test_germ_file_batch(self, tmp_path, capsys):
        listing = tmp_path / "germs.txt"
        listing.write_text("# comment\nx^2 + y^2\nx^3 - y^2\n")
        code, out, _ = run_cli(
            ["analyze", "--germ-file", str(listing), "--json-compact"], capsys
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["germ"] for r in reports] == ["x^2 + y^2", "x^3 - y^2"]
        assert [r["mu"] for r in reports] == [1, 2]

    def test_germ_file_batch_keeps_going_past_a_bad_germ(self, tmp_path, capsys):
        listing = tmp_path / "germs.txt"
        listing.write_text("x^2 + y^2\nx^2\nx^3 - y^2\n")
        code, out, err = run_cli(
            ["analyze", "--germ-file", str(listing), "--json-compact"], capsys
        )
        assert code == 1
        reports = json.loads(out)
        assert [r["germ"] for r in reports] == ["x^2 + y^2", "x^2", "x^3 - y^2"]
        assert reports[1]["error"]["stage"] == "invariants"
        assert reports[1]["error"]["message"]
        assert set(reports[1]) == {"germ", "error"}
        assert [reports[0]["mu"], reports[2]["mu"]] == [1, 2]
        assert "error" in err

    def test_germ_file_batch_writes_one_svg_per_germ(self, tmp_path, capsys):
        listing = tmp_path / "germs.txt"
        listing.write_text("x^2 + y^2\nx^3 - y^2\n")
        figure = tmp_path / "fig.svg"
        code, _, _ = run_cli(
            ["analyze", "--germ-file", str(listing), "--svg", str(figure)], capsys
        )
        assert code == 0
        assert not figure.exists()
        blobs = [(tmp_path / f"fig-{k}.svg").read_bytes() for k in range(2)]
        assert all(b.startswith(b"<svg") for b in blobs)
        assert blobs[0] != blobs[1]


    def test_germ_file_with_one_germ_prints_a_list(self, tmp_path, capsys):
        listing = tmp_path / "germs.txt"
        listing.write_text("x^3 - y^2\n")
        code, out, _ = run_cli(
            ["analyze", "--germ-file", str(listing), "--json-compact"], capsys
        )
        assert code == 0
        reports = json.loads(out)
        assert isinstance(reports, list)
        assert [r["germ"] for r in reports] == ["x^3 - y^2"]
        assert reports[0]["mu"] == 2

    @pytest.mark.parametrize("error", ["PrecisionError", "PuiseuxError"])
    def test_figure_failure_is_an_svg_error_record(self, tmp_path, capsys, monkeypatch, error):
        # the figure is the one reader of Delta's series: a numeric failure
        # there ends that germ's record, not the batch
        import carousel.puiseux as puiseux_mod
        import carousel.roots as roots_mod
        import carousel.svg as svg_mod

        exc_type = getattr(roots_mod if error == "PrecisionError" else puiseux_mod, error)
        real = svg_mod.puiseux_branches
        calls = []

        def failing_once(f, *args, **kwargs):
            calls.append(f)
            if len(calls) == 1:
                raise exc_type("series did not converge")
            return real(f, *args, **kwargs)

        monkeypatch.setattr(svg_mod, "puiseux_branches", failing_once)
        listing = tmp_path / "germs.txt"
        listing.write_text("x^5 - y^2\nx^3 - y^2\n")
        figure = tmp_path / "fig.svg"
        code, out, err = run_cli(
            ["analyze", "--germ-file", str(listing), "--svg", str(figure), "--json-compact"],
            capsys,
        )
        assert code == 1
        reports = json.loads(out)
        assert reports[0] == {
            "germ": "x^5 - y^2",
            "error": {"stage": "svg", "message": "series did not converge"},
        }
        assert reports[1]["mu"] == 2
        assert (tmp_path / "fig-1.svg").read_bytes().startswith(b"<svg")
        assert "[svg]" in err


class TestReport:
    def test_base_points_print_noise_as_zero(self):
        for germ in ("x^4 + y^3", "x^4 + x^2*y^2 + y^4"):
            result = analyze_germ(germ)
            printed = report_dict(result, include_timing=False)["carousel"]["base_points"]
            balls = result.permutation.base_points
            assert len(printed) == len(balls)
            for pair, ball in zip(printed, balls):
                for value in pair:
                    assert value == 0.0 or abs(value) > ball.radius


class TestQuotient:
    def test_paper_quarter_turn(self, capsys):
        code, out, _ = run_cli(
            ["quotient", "--n", "4", "--pairs", "(0,2),(1,3)", "--shift", "1"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["h1_rank"] == 2
        assert report["trace"] == 0
        assert report["lefschetz"] == 1
        assert report["torsion"] == []

    def test_identity_shift(self, capsys):
        code, out, _ = run_cli(
            ["quotient", "--n", "4", "--pairs", "(0,2),(1,3)", "--shift", "0"], capsys
        )
        report = json.loads(out)
        assert report["trace"] == 2
        assert report["lefschetz"] == -1

    def test_two_point_flip(self, capsys):
        code, out, _ = run_cli(
            ["quotient", "--n", "2", "--pairs", "(0,1)", "--shift", "1"], capsys
        )
        report = json.loads(out)
        assert report["trace"] == -1
        assert report["lefschetz"] == 2

    def test_bad_pairing(self, capsys):
        code, _, err = run_cli(
            ["quotient", "--n", "4", "--pairs", "(0,1),(1,3)", "--shift", "0"], capsys
        )
        assert code == 1
        assert "error" in err


class TestFamily:
    def test_cusp_family(self, capsys):
        code, out, _ = run_cli(
            ["family", "--family", "x^3 - y^2 + t*x", "--json-compact"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["mu_origin"] == 2
        assert report["all_conserved"] is True
        assert report["coalescing"]["status"] == "NOT_APPLICABLE"

    def test_constant_family(self, capsys):
        code, out, _ = run_cli(
            ["family", "--family", "x^3 + y^3", "--json-compact"], capsys
        )
        report = json.loads(out)
        assert report["coalescing"]["status"] == "CONSISTENT"
        assert report["coalescing"]["zero_fiber_counts"] == [1, 1, 1]

    def test_custom_samples(self, capsys):
        code, out, _ = run_cli(
            [
                "family",
                "--family",
                "x^5 - y^2 + t*x^3",
                "--samples",
                "1/16,-1/16",
                "--json-compact",
            ],
            capsys,
        )
        report = json.loads(out)
        assert report["samples"] == ["1/16", "-1/16"]
        assert report["all_conserved"] is True


class TestDeterminism:
    def test_json_bytes_identical_without_timing(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(
                ["analyze", "--germ", "x^5 - y^2"], capsys
            )
            assert code == 0
            payload = json.loads(out)
            payload.pop("timing")
            outputs.append(json.dumps(payload, indent=2).encode())
        assert outputs[0] == outputs[1]

    def test_svg_bytes_identical(self, tmp_path, capsys):
        blobs = []
        for k in range(2):
            path = tmp_path / f"fig{k}.svg"
            code, _, _ = run_cli(
                ["analyze", "--germ", "x^5 - y^2", "--svg", str(path)], capsys
            )
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].startswith(b"<svg")

    def test_empty_polar_svg(self, tmp_path, capsys):
        path = tmp_path / "empty.svg"
        code, _, _ = run_cli(
            ["analyze", "--germ", "x*y", "--line", "1,0", "--svg", str(path)], capsys
        )
        assert code == 0
        assert b"empty polar" in path.read_bytes()


class TestExitCodeTwo:
    def test_inconsistent_verdict_maps_to_two(self):
        # build a result whose fixed-point verdict is inconsistent and
        # check the reporting layer marks it
        from carousel.polar import diagram_from_defining
        from carousel.poly import parse_polynomial
        from carousel.tracking import (
            carousel_permutation,
            choose_radii,
            fixed_point_verdict,
        )

        d = diagram_from_defining(parse_polynomial("v + u", ("u", "v")))
        perm = carousel_permutation(d, choose_radii(d, 128))
        verdict = fixed_point_verdict(perm, 2)
        assert not verdict.consistent

    def test_cli_returns_two_when_a_verdict_is_inconsistent(
        self, capsys, monkeypatch
    ):
        # theorem violations are unreachable with honest inputs, so force
        # the flag to verify the exit-code plumbing end to end
        import carousel.cli as cli_mod

        real = cli_mod.analyze_germ

        def tampered(*args, **kwargs):
            result = real(*args, **kwargs)
            return result._replace(tangency=result.tangency._replace(consistent=False))

        monkeypatch.setattr(cli_mod, "analyze_germ", tampered)
        code, out, _ = run_cli(
            ["analyze", "--germ", "x^2 + y^2", "--json-compact"], capsys
        )
        assert code == 2
        assert json.loads(out)["verdicts"]["tangency"] == "INCONSISTENT"
