"""Driver-level tests: config parsing, exit codes, CSV determinism."""

import json
import math

import pytest

from gaplab import cli


def run_main(argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# configuration objects


def test_unknown_command_rejected():
    with pytest.raises(cli.UsageError, match="unknown command"):
        cli.ExperimentConfig("frobnicate", {})


def test_unknown_key_names_offender():
    with pytest.raises(cli.UsageError, match="widget"):
        cli.ExperimentConfig("su2-gap", {"widget": [1]})


def test_empty_grid_rejected():
    with pytest.raises(cli.UsageError, match="empty grid"):
        cli.ExperimentConfig("su2-gap", {"theta": []})


def test_defaults_fill_missing_axes():
    cfg = cli.ExperimentConfig("su2-gap", {"theta": [0.3]})
    assert cfg.values("theta") == [0.3]
    assert cfg.scalar("jmax") == cli.COMMANDS["su2-gap"].defaults["jmax"][0]


def test_scalar_rejects_lists():
    cfg = cli.ExperimentConfig("su2-gap", {"jmax": [4, 8]})
    with pytest.raises(cli.UsageError, match="single value"):
        cfg.scalar("jmax")


def test_scalar_values_are_wrapped():
    cfg = cli.ExperimentConfig("su2-gap", {"jmax": 6})
    assert cfg.values("jmax") == [6]


def test_echo_reports_tolerances():
    cfg = cli.ExperimentConfig("sphere-gap", {"tol": [1e-6], "delta": [0.5]})
    echo = cfg.echo()
    assert echo["tolerances"] == {"tol": 1e-6}
    assert echo["grid"]["delta"] == [0.5]


def test_parse_values_mixed_types():
    assert cli._parse_values("1,2.5, 3") == [1, 2.5, 3]
    with pytest.raises(cli.UsageError):
        cli._parse_values("abc")
    with pytest.raises(cli.UsageError):
        cli._parse_values("nan")
    with pytest.raises(cli.UsageError):
        cli._parse_values(" , ,")


def test_report_counts_must_sum():
    with pytest.raises(ValueError, match="sum"):
        cli.RunReport("su2-gap", {}, [{"pass": True}], 1, 1, 0.0)


# ---------------------------------------------------------------------------
# config files


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\n\ntheta = 0.25, 0.5  # trailing\nseed = 9\n")
    params = cli.load_config_file(path)
    assert params == {"theta": "0.25, 0.5", "seed": "9"}


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(cli.UsageError, match="cannot read"):
        cli.load_config_file(missing)
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(cli.UsageError, match="expected key=value"):
        cli.load_config_file(bad)


def test_cli_overrides_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "a.csv"
    cfg.write_text("theta = 0.3, 1.2\njmax = 8\nseed = 3\n")
    code = run_main(["su2-gap", "--config", cfg, "--theta=0.9",
                     "--out", out])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["grid"]["theta"] == [0.9]
    assert report["config"]["grid"]["jmax"] == [8]
    assert report["config"]["seed"] == 3


# ---------------------------------------------------------------------------
# exit codes


def test_no_arguments_is_usage_error(capsys):
    assert run_main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run_main(["--help"]) == 0
    message = capsys.readouterr().out
    for name in cli.COMMANDS:
        assert name in message


def test_unknown_command_exits_two(capsys):
    assert run_main(["definitely-not-a-command"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_unknown_key_exits_two(tmp_path, capsys):
    code = run_main(["su2-gap", "--widget=1", "--out", tmp_path / "x.csv"])
    assert code == 2
    assert "widget" in capsys.readouterr().err


def test_dangling_flag_exits_two(tmp_path):
    assert run_main(["su2-gap", "--seed"]) == 2
    assert run_main(["su2-gap", "--seed", "x"]) == 2


def test_positional_junk_exits_two():
    assert run_main(["su2-gap", "extra"]) == 2


def test_library_value_error_exits_two(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert run_main(["cocycle-mc", "--samples=10", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "below the declared minimum" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sphere_gap_delta_out_of_range_exits_two(tmp_path, capsys):
    out = tmp_path / "sg.csv"
    assert run_main(["sphere-gap", "--delta=1.5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sphere-gap:") and "Traceback" not in err
    assert not out.exists()


def test_bound_violation_exits_one(tmp_path, capsys):
    out = tmp_path / "zz.csv"
    code = run_main(["zigzag-cert", "--s=0.3", "--pairs=2", "--out", out])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == report["passed"] + report["failed"]
    assert all("violates" in c["note"] for c in report["cases"])


def test_passing_run_exits_zero(tmp_path, capsys):
    out = tmp_path / "su2.csv"
    code = run_main(["su2-gap", "--theta=0.5", "--jmax=8", "--out", out])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] == 1 and report["failed"] == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# reports and CSV output


def small_config(command, **grid):
    return cli.ExperimentConfig(command, {k: v for k, v in grid.items()})


def test_run_counts_match_cases():
    report = cli.run("su2-gap", small_config("su2-gap", theta=[0.3, 0.9],
                                             jmax=[8]))
    assert report.passed + report.failed == len(report.cases)
    assert report.to_json()["command"] == "su2-gap"


def test_run_rejects_mismatched_command():
    cfg = small_config("su2-gap", theta=[0.3])
    with pytest.raises(cli.UsageError, match="config is for"):
        cli.run("kak", cfg)


def test_run_is_deterministic():
    cfg = {"count": [6], "alpha": [0.5], "rcount": [3]}
    first = cli.run("kak", cli.ExperimentConfig("kak", cfg, seed=5))
    second = cli.run("kak", cli.ExperimentConfig("kak", cfg, seed=5))
    assert first.cases == second.cases


def test_csv_body_is_rerun_stable(tmp_path):
    paths = []
    for name in ("one.csv", "two.csv"):
        cfg = cli.ExperimentConfig("kak", {"count": [4], "alpha": [1.0],
                                           "rcount": [3]}, seed=2)
        report = cli.run("kak", cfg)
        path = tmp_path / name
        cli.write_report_csv(path, report)
        paths.append(path)

    def body(path):
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=kak/v1"
        assert lines[1].startswith("# generated=")
        return lines[2:]

    assert body(paths[0]) == body(paths[1])


def test_csv_pass_column_is_binary(tmp_path):
    cfg = cli.ExperimentConfig("quotient-gap", {"order": [3, 4], "sl3": [0]})
    report = cli.run("quotient-gap", cfg)
    path = tmp_path / "q.csv"
    cli.write_report_csv(path, report)
    lines = path.read_text().splitlines()
    header = lines[2].split(",")
    for row in lines[3:]:
        assert row.split(",")[header.index("pass")] in {"0", "1"}


def test_cocycle_csv_is_a_sample_log(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code = run_main(["cocycle-mc", "--samples=600", "--gcount=4",
                     "--seed", 11, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=cocycle-mc/v1"
    assert lines[2].split(",")[:3] == ["seed", "omega_x", "omega_y"]
    assert len(lines) == 3 + 600
    report = json.loads(capsys.readouterr().out)
    checks = {c["check"] for c in report["cases"]}
    assert {"growth-kappa", "cusp-rate", "truncation-tv"} <= checks
    diagnostics = report["diagnostics"]
    assert set(diagnostics) == {"domainStats", "cuspFit", "cuspFitAlt"}
    stats = diagnostics["domainStats"]
    assert stats["exactFallbacks"] >= 0 and stats["gCount"] == 4
    assert stats["sampleCount"] == 200
    assert diagnostics["cuspFit"]["sampleCount"] == 600


# ---------------------------------------------------------------------------
# individual runners


def test_sdelta_decay_defaults_pass():
    report = cli.run("sdelta-decay", cli.ExperimentConfig("sdelta-decay", {}))
    assert report.failed == 0
    assert all(c["norm"] <= c["bound"] + 1e-9 for c in report.cases)


def test_sphere_gap_small_grid():
    cfg = cli.ExperimentConfig("sphere-gap", {"delta": [0.04, 0.25, 0.81],
                                              "dmax": [80]})
    report = cli.run("sphere-gap", cfg)
    assert report.failed == 0
    for case in report.cases:
        assert case["bound"] == pytest.approx(2 * math.sqrt(case["delta"]))


def test_su2_gap_includes_zero_angle():
    cfg = cli.ExperimentConfig("su2-gap", {"theta": [math.pi / 4],
                                           "jmax": [8]})
    report = cli.run("su2-gap", cfg)
    assert report.failed == 0
    assert report.cases[0]["value"] == pytest.approx(0.0, abs=1e-12)


def test_kak_distortion_cases_have_bounds():
    cfg = cli.ExperimentConfig("kak", {"count": [2], "alpha": [1.0],
                                       "rcount": [4]})
    report = cli.run("kak", cfg)
    assert report.failed == 0
    kinds = {c["kind"] for c in report.cases}
    assert kinds == {"roundtrip", "distortion"}
    for case in report.cases:
        if case["kind"] == "distortion":
            assert case["delta"] <= case["bound"] * (1 + 1e-9)


def test_quotient_gap_matches_character_oracle():
    cfg = cli.ExperimentConfig("quotient-gap", {"order": [3, 5], "sl3": [0]})
    report = cli.run("quotient-gap", cfg)
    assert report.failed == 0
    for case in report.cases:
        expected = 0.5 + 0.5 * math.cos(2 * math.pi / case["size"])
        assert case["rho"] == pytest.approx(expected, abs=1e-9)


def test_quotient_gap_rejects_tiny_orders():
    with pytest.raises(cli.UsageError, match="below 3"):
        cli.run("quotient-gap",
                cli.ExperimentConfig("quotient-gap", {"order": [2],
                                                      "sl3": [0]}))


def test_star_verify_defaults_pass():
    report = cli.run("star-verify", cli.ExperimentConfig("star-verify", {}))
    assert report.failed == 0
    for case in report.cases:
        assert case["fitted_t"] == "" or case["fitted_t"] > 0


def test_zigzag_radii_respect_rmax():
    cfg = cli.ExperimentConfig("zigzag-cert", {"s": [0.1], "pairs": [40],
                                               "rmax": [6.0]})
    report = cli.run("zigzag-cert", cfg)
    assert report.failed == 0
    for case in report.cases:
        assert 1.0 - 1e-12 <= case["r"] <= 6.0 + 1e-12
        assert 1.0 - 1e-12 <= case["r_prime"] <= 6.0 + 1e-12
