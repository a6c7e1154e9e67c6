"""Driver-level tests: config parsing, exit codes, CSV determinism."""

import json
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaplab import cli, induction, twostep


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
    assert cfg.grid["theta"] == [0.3]
    assert cfg.grid["jmax"] == list(
        cli.COMMANDS["su2-gap"].keys["jmax"].default)


def test_scalar_rejects_lists():
    cfg = cli.ExperimentConfig("su2-gap", {"jmax": [4, 8]})
    with pytest.raises(cli.UsageError,
                       match=r"^su2-gap: --jmax takes a single value, "
                             r"got \[4, 8\]$"):
        cli.run("su2-gap", cfg)


def test_scalar_values_are_wrapped():
    cfg = cli.ExperimentConfig("su2-gap", {"jmax": 6})
    assert cfg.grid["jmax"] == [6]


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


def test_library_value_error_exits_two(tmp_path, capsys, monkeypatch):
    # a refusal no runner rule foresees: the library's ValueError
    # becomes exit 2 with its message after the command's name
    def refuse(p, n):
        raise ValueError(f"the library refuses Z/{p}^{n}")

    monkeypatch.setattr(cli.residue, "ResidueRing", refuse)
    out = tmp_path / "sd.csv"
    assert run_main(["sdelta-decay", "--p=3", "--n=2", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sdelta-decay: the library refuses Z/3^2\n")
    assert "Traceback" not in err
    assert not out.exists()


def test_sphere_gap_delta_out_of_range_exits_two(tmp_path, capsys):
    out = tmp_path / "sg.csv"
    assert run_main(["sphere-gap", "--delta=1.5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sphere-gap: --delta must be at most 1, got 1.5")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    # tolerances that pass or fail every comparison, then the runner rules
    (["sphere-gap", "--tol=1e300"], "--tol must be at most 1e-06, got 1e+300"),
    (["sphere-gap", "--tol=-1"], "--tol must be at least 0, got -1.0"),
    (["kak", "--alpha=1,0"], "--alpha must be positive, got 0.0"),
    (["cocycle-mc", "--s=0"], "--s must be positive, got 0.0"),
    (["cocycle-mc", "--s0=0.3"], "--s0 must be at least 2s = 0.4, got 0.3"),
    (["cocycle-mc", "--s0=0"], "--s0 must be at least 2s = 0.4, got 0.0"),
    # the domain integral of e^{s0 length} diverges from s0 = 2 on
    (["cocycle-mc", "--s0=2"], "--s0 must be below 2, got 2.0"),
    (["cocycle-mc", "--s0=1000"], "--s0 must be below 2, got 1000.0"),
    (["sdelta-decay", "--p=4"], "--p must be prime, got 4"),
    (["sdelta-decay", "--p=2,3,9", "--n=1"], "--p must be prime, got 9"),
    # sizes that would exhaust memory or run without end
    (["cocycle-mc", "--samples=10000000000000"],
     "--samples must be at most 100000, got 10000000000000"),
    (["cocycle-mc", "--gcount=10000000000000"],
     "--gcount must be at most 1000, got 10000000000000"),
    (["quotient-gap", "--order=3,1000000"],
     "--order must be at most 1024, got 1000000"),
    (["quotient-gap", "--horizon=1e13"],
     "--horizon must be at most 10000, got 10000000000000"),
    (["star-verify", "--order=1000000"],
     "--order must be at most 64, got 1000000"),
    (["star-verify", "--horizon=101"], "--horizon must be at most 100, got 101"),
    (["kak", "--count=1e13"],
     "--count must be at most 10000, got 10000000000000"),
    (["kak", "--rcount=201"], "--rcount must be at most 200, got 201"),
    (["zigzag-cert", "--pairs=1e13"],
     "--pairs must be at most 200, got 10000000000000"),
    (["sphere-gap", "--dmax=1e13"],
     "--dmax must be at most 10000, got 10000000000000"),
])
def test_rules_refuse_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                      message):
    monkeypatch.setattr(cli.cartan, "kak_real", lambda *a: pytest.fail("ran"))
    monkeypatch.setattr(cli.residue, "ResidueRing", lambda *a: pytest.fail("ran"))
    monkeypatch.setattr(cli.induction, "sample_domain_arrays",
                        lambda *a: pytest.fail("ran"))
    monkeypatch.setattr(cli.spheres, "tdelta_gap_report",
                        lambda *a: pytest.fail("ran"))
    monkeypatch.setattr(cli.zigzag, "zigzag_certificate",
                        lambda *a: pytest.fail("ran"))
    monkeypatch.setattr(cli.twostep, "cyclic_model",
                        lambda *a: pytest.fail("ran"))
    out = tmp_path / "out.csv"
    assert run_main([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command,args", [
    ("kak", ["--seed", "-1"]),
    ("sdelta-decay", ["--p=4"]),
])
def test_library_rejection_names_command(tmp_path, capsys, command, args):
    out = tmp_path / "bad.csv"
    assert run_main([command, *args, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}:") and "Traceback" not in err
    assert not out.exists()


def _assert_cross_checked(report, tol):
    """Every case carries a converged power iteration that agrees with its
    closed-form norm within ``tol``."""
    checks = report["diagnostics"]["crossChecks"]
    assert len(checks) == len(report["cases"])
    for case, check in zip(report["cases"], checks):
        assert (check["p"], check["n"], check["h"]) == (case["p"], case["n"],
                                                        case["h"])
        exact, power = check["closedForm"], check["powerIteration"]
        assert check["crossCheck"] == "ran"
        assert exact["method"] == "exact-decomposition"
        assert exact["value"] == case["norm"]
        assert power["method"] == "power-iteration" and power["converged"]
        assert power["iterations"] >= 1
        assert abs(power["value"] - exact["value"]) <= tol


def test_sdelta_decay_beyond_dense_scale(tmp_path, capsys):
    # 5^4 = 625: the norms never need a dense matrix, so every depth runs,
    # and each is cross-checked by the matrix-free power iteration
    out = tmp_path / "sd.csv"
    assert run_main(["sdelta-decay", "--p=5", "--n=4", "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["h"] for c in report["cases"]] == [1, 2, 3, 4]
    assert report["passed"] == 4 and report["failed"] == 0
    _assert_cross_checked(report, 1e-9)


def test_sdelta_decay_marks_cases_without_cross_check(tmp_path, capsys):
    out = tmp_path / "sd.csv"
    limit = cli._SDELTA_CROSS_CHECK_MAX_MODULUS
    assert 2 ** 3 <= limit < 2 ** 12
    assert run_main(["sdelta-decay", "--p=2", "--n=3,12", "--out", out]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] == 15 and report["failed"] == 0
    checks = report["diagnostics"]["crossChecks"]
    assert [c["n"] for c in checks] == [3] * 3 + [12] * 12
    for check in checks[3:]:
        assert check["powerIteration"] is None
        assert check["crossCheck"] == (f"not run: modulus 4096 exceeds "
                                       f"{limit}")
        assert check["closedForm"]["method"] == "exact-decomposition"
    assert all(c["crossCheck"] == "ran" for c in checks[:3])


def test_sdelta_decay_case_fails_on_cross_check(monkeypatch):
    # the closed form meets the bound, but a disagreeing or unconverged
    # power iteration fails the case
    real = cli.finite_models.operator_norm

    def skewed(op, method="exact-decomposition", **kwargs):
        rep = real(op, method=method, **kwargs)
        if method == "power-iteration":
            rep.value += 1e-6
        return rep

    def stalled(op, method="exact-decomposition", **kwargs):
        rep = real(op, method=method, **kwargs)
        if method == "power-iteration":
            rep.converged = False
        return rep

    for fake in (skewed, stalled):
        monkeypatch.setattr(cli.finite_models, "operator_norm", fake)
        report = cli.run("sdelta-decay", cli.ExperimentConfig(
            "sdelta-decay", {"p": [3], "n": [2]}))
        assert report.failed == 2 and report.passed == 0
        assert all(c["norm"] <= c["bound"] + 1e-9 for c in report.cases)


def test_sdelta_decay_stalled_cross_check_stops_at_its_cap(monkeypatch):
    # with A*A f = f shifted by one, A*A is a cyclic permutation: the power
    # iteration never converges, so each case must fail after the
    # command's own iteration cap, not the library's default of 5000
    stamp = cli.finite_models.StampOperator
    monkeypatch.setattr(stamp, "gram_apply", lambda self, f: np.roll(f, 1))
    report = cli.run("sdelta-decay", cli.ExperimentConfig(
        "sdelta-decay", {"p": [5], "n": [2]}))
    assert report.failed == 2 and report.passed == 0
    cap = cli._SDELTA_CROSS_CHECK_MAX_ITERATIONS
    assert cap < 5000
    for check in report.diagnostics["crossChecks"]:
        power = check["powerIteration"]
        assert not power["converged"]
        assert power["iterations"] == cap


def test_sdelta_decay_modulus_bound_exits_two(tmp_path, capsys):
    out = tmp_path / "sd.csv"
    bound = cli._SDELTA_MAX_MODULUS
    assert 2 ** 12 <= bound < 7 ** 5
    for n in (5, 10 ** 12):
        assert run_main(["sdelta-decay", "--p=7", f"--n={n}",
                         "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sdelta-decay:") and str(bound) in err
        assert "Traceback" not in err
        assert not out.exists()


def test_sdelta_decay_refuses_the_modulus_before_any_block(tmp_path, capsys,
                                                         monkeypatch):
    # p^n grows in both keys, so the largest pair is refused up front
    monkeypatch.setattr(cli.residue, "ResidueRing",
                        lambda p, n: pytest.fail(f"block ({p}, {n}) computed"))
    assert run_main(["sdelta-decay", "--p=2,7", "--n=3,5",
                     "--out", tmp_path / "sd.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sdelta-decay: modulus 7^5 exceeds 4096\n")


def test_su2_gap_jmax_bound_exits_two(tmp_path, capsys):
    out = tmp_path / "su2.csv"
    bound = cli._SU2_MAX_TWO_J
    # every d^j_mm(pi/2) column starts at 2^-|m|: a normal double up to 2j
    assert 2.0 ** -(bound / 2) >= sys.float_info.min
    assert run_main(["su2-gap", f"--jmax={bound + 1}", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: su2-gap:") and str(bound) in err
    assert "Traceback" not in err
    assert not out.exists()
    assert run_main(["su2-gap", f"--jmax={bound}", "--theta=0.3,2.0",
                     "--out", out]) == 0
    values = [float(line.split(",")[1])
              for line in out.read_text().splitlines()[3:]]
    assert len(values) == 2 and all(map(math.isfinite, values))


def test_su2_gap_qpoints_changes_nothing(tmp_path, capsys):
    # the gap is the exact circle average: --qpoints keeps its floor of 64
    # and bounds nothing else, so 2j = 200 runs at the default 128 points
    out = tmp_path / "default.csv"
    assert run_main(["su2-gap", "--jmax=200", "--out", out]) == 0
    body = out.read_bytes().splitlines(keepends=True)
    assert body[1].startswith(b"# generated=") and len(body) == 10
    for points in (64, 128, 4096):
        path = tmp_path / f"q{points}.csv"
        assert run_main(["su2-gap", "--jmax=200", f"--qpoints={points}",
                         "--out", path]) == 0
        lines = path.read_bytes().splitlines(keepends=True)
        assert lines[1].startswith(b"# generated=")
        assert lines[2:] == body[2:]
    assert "error" not in capsys.readouterr().err


def test_negative_seed_names_the_flag(tmp_path, capsys):
    out = tmp_path / "kak.csv"
    assert run_main(["kak", "--seed", "-1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kak: --seed must be at least 0, got -1\n")
    cfg = tmp_path / "kak.cfg"
    cfg.write_text("count = 2\nseed = -7\n")
    assert run_main(["kak", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kak: --seed must be at least 0, got -7\n")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, rule", [
    ("count", -1, "at least 0"),
    ("rcount", -1, "at least 1"),
    ("rcount", 0, "at least 1"),
], ids=["count", "rcount", "rcount-zero"])
def test_kak_negative_count_names_the_key(tmp_path, capsys, key, value, rule):
    # range(-1) would draw no element and an empty r-grid no distortion
    # case: a run that checks no round-trip or no alpha passes
    out = tmp_path / "kak.csv"
    values = {"count": 2, "rcount": 2, "alpha": "1.0,2.0", key: value}
    assert run_main(["kak"] + [f"--{k}={v}" for k, v in values.items()]
                    + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: kak: --{key} must be {rule}, "
                          f"got {value}\n")
    assert "Traceback" not in err
    assert not out.exists()
    cfg = cli.ExperimentConfig("kak", {"count": [2], "rcount": [2],
                                       key: [value - 1]})
    with pytest.raises(cli.UsageError, match=f"--{key} must be"):
        cli.run("kak", cfg)


@pytest.mark.parametrize("argv, key", [
    (["quotient-gap", "--order=3,2"], "order"),
    (["star-verify", "--order=2", "--horizon=4"], "order"),
    (["cocycle-mc", "--samples=49", "--gcount=2"], "samples"),
], ids=["quotient-gap", "star-verify", "cocycle-mc"])
def test_too_small_grid_values_name_command_and_key(tmp_path, capsys, argv,
                                                    key):
    out = tmp_path / "small.csv"
    assert run_main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]}: --{key} must be at least ")
    assert "Traceback" not in err
    assert not out.exists()


def test_config_object_seed_is_checked():
    cfg = {"count": [2], "rcount": [2]}
    with pytest.raises(cli.UsageError,
                       match="^kak: --seed must be at least 0, got -1$"):
        cli.run("kak", cli.ExperimentConfig("kak", cfg, seed=-1))
    # a fraction or a bool is not truncated to a seed
    for bad in (2.7, True):
        with pytest.raises(cli.UsageError,
                           match=f"^kak: --seed must be an integer, "
                                 f"got {bad!r}$"):
            cli.ExperimentConfig("kak", cfg, seed=bad)
    # an integral float is the integer it spells, as for every integer key
    for good, want in ((5, 5), (np.int64(6), 6), ("7", 7), (7.0, 7),
                       ("7.0", 7)):
        seed = cli.ExperimentConfig("kak", cfg, seed=good).seed
        assert seed == want and type(seed) is int


# every key a runner reads as an integer
_INTEGER_KEYS = [
    ("sdelta-decay", "p"), ("sdelta-decay", "n"),
    ("sphere-gap", "n"), ("sphere-gap", "dmax"),
    ("su2-gap", "jmax"), ("su2-gap", "qpoints"),
    ("kak", "count"), ("kak", "rcount"),
    ("zigzag-cert", "pairs"),
    ("quotient-gap", "order"), ("quotient-gap", "horizon"),
    ("quotient-gap", "sl3"),
    ("star-verify", "order"), ("star-verify", "horizon"),
    ("cocycle-mc", "samples"), ("cocycle-mc", "gcount"),
]


@pytest.mark.parametrize("command, key", _INTEGER_KEYS)
def test_integer_keys_refuse_fractions(tmp_path, capsys, command, key):
    # a fraction is refused, never truncated: --order=3.5 must not run
    # order 3, and --sl3=0.5 must not drop the SL3 case
    out = tmp_path / "out.csv"
    assert run_main([command, f"--{key}=3.5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: --{key} must be an integer, "
                          f"got 3.5\n")
    assert "Traceback" not in err
    assert not out.exists()
    for bad in (2.5, True, np.float64(4.25)):
        cfg = cli.ExperimentConfig(command, {**_SMALL_GRIDS[command],
                                             key: [bad]})
        with pytest.raises(cli.UsageError,
                           match=f"^{command}: --{key} must be an integer"):
            cli.run(command, cfg)
    # an integral float is the integer it spells (the key's range aside)
    rule = cli.COMMANDS[command].keys[key]._replace(
        low=-math.inf, high=math.inf, axis=True)
    cfg = cli.ExperimentConfig(command, {key: [3.0, 1e1, np.int64(2), "4"]})
    got = rule.check(command, key, cfg.grid[key])
    assert got == [3, 10, 2, 4] and all(type(v) is int for v in got)


def test_sl3_must_be_zero_or_one(tmp_path, capsys):
    out = tmp_path / "qg.csv"
    for bad in ("2", "-1"):
        assert run_main(["quotient-gap", f"--sl3={bad}", "--out", out]) == 2
        err = capsys.readouterr().err
        rule = "at most 1" if bad == "2" else "at least 0"
        assert err.startswith(f"error: quotient-gap: --sl3 must be {rule}, "
                              f"got {bad}\n")
        assert not out.exists()
    report = cli.run("quotient-gap", cli.ExperimentConfig(
        "quotient-gap", {"order": [3.0], "sl3": [1.0]}))
    assert [case["group"] for case in report.cases] == ["cyclic-3", "sl3-f2"]


def _fake_command(monkeypatch, cases):
    """Swap sphere-gap's runner for one that returns ``cases``."""
    spec = cli.COMMANDS["sphere-gap"]
    fake = cli.CommandSpec(lambda params, seed: (cases, ("value", "pass"), None),
                           spec.keys, spec.summary)
    monkeypatch.setitem(cli.COMMANDS, "sphere-gap", fake)


def _strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_report_is_strict_json(tmp_path, capsys, monkeypatch):
    # NaN and Infinity are no JSON tokens: they reach stdout as null, and
    # only a report that holds them is dumped a second time
    dumps = []
    real = json.dumps
    monkeypatch.setattr(cli.json, "dumps",
                        lambda *a, **k: dumps.append(1) or real(*a, **k))
    _fake_command(monkeypatch, [{"value": 0.5, "pass": True}])
    assert run_main(["sphere-gap", "--out", tmp_path / "a.csv"]) == 0
    assert _strict_json(capsys.readouterr().out)["cases"][0]["value"] == 0.5
    assert len(dumps) == 1
    _fake_command(monkeypatch, [{"value": math.nan, "pass": True},
                                {"value": np.float64(math.inf), "pass": True},
                                {"value": 0.5, "pass": True}])
    assert run_main(["sphere-gap", "--out", tmp_path / "b.csv"]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert [c["value"] for c in report["cases"]] == [None, None, 0.5]
    assert report["failed"] == 2
    assert len(dumps) == 3


def test_finite_or_null_reaches_every_depth():
    doc = {"a": [1.0, math.nan, {"b": (math.inf, -math.inf, "x", 2)}],
           "c": None, "d": True}
    assert cli._finite_or_null(doc) == {
        "a": [1.0, None, {"b": [None, None, "x", 2]}], "c": None, "d": True}


def test_sphere_gap_on_a_large_sphere_is_finite(tmp_path, capsys):
    # C_l(1) on S^1000 overflowed from degree 974; q_l is carried instead
    out = tmp_path / "sg.csv"
    assert run_main(["sphere-gap", "--n=1000", "--delta=0.3", "--dmax=2000",
                     "--out", out]) == 0
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    (case,) = _strict_json(captured.out)["cases"]
    assert math.isfinite(case["value"]) and case["pass"]


def test_non_finite_cell_fails_its_case(tmp_path, capsys, monkeypatch):
    _fake_command(monkeypatch, [{"value": math.nan, "pass": True},
                                {"value": -math.inf, "pass": True},
                                {"value": 0.5, "pass": True}])
    out = tmp_path / "sg.csv"
    assert run_main(["sphere-gap", "--out", out]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["pass"] for c in report["cases"]] == [False, False, True]
    assert report["failed"] == 2


def test_runner_without_cases_exits_two(tmp_path, capsys, monkeypatch):
    _fake_command(monkeypatch, [])
    with pytest.raises(cli.UsageError, match="no cases"):
        cli.run("sphere-gap")
    out = tmp_path / "sg.csv"
    assert run_main(["sphere-gap", "--out", out]) == 2
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
    assert set(diagnostics) == {"domainStats", "cuspFit", "cuspFitAlt",
                                "pushforwardExactFallbacks"}
    stats = diagnostics["domainStats"]
    assert stats["exactFallbacks"] >= 0 and stats["gCount"] == 4
    assert stats["sampleCount"] == 200
    assert diagnostics["cuspFit"]["sampleCount"] == 600
    # the logged sample is the one the runner drew from (samples, seed)
    x, y, theta, lengths, weights = induction.sample_domain_arrays(600, 11)
    logged = np.array([[float(v) for v in row.split(",")]
                       for row in lines[3:]])
    assert np.array_equal(logged, np.column_stack(
        [np.full(600, 11.0), x, y, theta, lengths, weights]))


def test_cocycle_draws_its_sample_once(tmp_path, capsys, monkeypatch):
    # the log is written from the runner's draw: one draw at seed for the
    # sample and one at seed + 1000 for the two-seed cusp check, no third
    draws = []
    draw = induction.sample_domain_arrays
    monkeypatch.setattr(induction, "sample_domain_arrays",
                        lambda count, seed: draws.append((count, seed))
                        or draw(count, seed))
    out = tmp_path / "mc.csv"
    assert run_main(["cocycle-mc", "--samples=600", "--gcount=4",
                     "--seed", 11, "--out", out]) == 0
    assert draws == [(600, 11), (600, 1011)]
    report = json.loads(capsys.readouterr().out)
    assert "sample" not in report
    want = tmp_path / "want.csv"
    induction.write_sample_log(want, 11, draw(600, 11)[:4], draw(600, 11)[4])
    assert out.read_bytes().split(b"\r\n", 1)[1] == want.read_bytes().split(b"\r\n", 1)[1]


def test_cocycle_json_reports_every_exact_fallback(tmp_path, capsys, monkeypatch):
    # with every float proposal refused, each (g, omega) pair of the growth
    # check (4 g) and of the pushforward (8 atoms) takes the exact path over
    # the 200 representatives; the integer parts, so every check, stay
    argv = ["cocycle-mc", "--samples=600", "--gcount=4", "--seed", 11]
    assert run_main([*argv, "--out", tmp_path / "float.csv"]) == 0
    plain = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(induction, "_certify",
                        lambda g, w, m, gamma: np.zeros(np.shape(m[0]), dtype=bool))
    assert run_main([*argv, "--out", tmp_path / "exact.csv"]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert plain["diagnostics"]["domainStats"]["exactFallbacks"] == 0
    assert plain["diagnostics"]["pushforwardExactFallbacks"] == 0
    assert exact["diagnostics"]["domainStats"]["exactFallbacks"] == 4 * 200
    assert exact["diagnostics"]["pushforwardExactFallbacks"] == 8 * 200
    assert exact["cases"] == plain["cases"]
    assert ((tmp_path / "exact.csv").read_text().split("\n")[2:]
            == (tmp_path / "float.csv").read_text().split("\n")[2:])


def test_cocycle_json_counts_nontrivial_cocycles(tmp_path, capsys):
    code = run_main(["cocycle-mc", "--samples=600", "--gcount=4", "--seed", 11,
                     "--out", tmp_path / "mc.csv"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    stats = report["diagnostics"]["domainStats"]
    assert 0 < stats["nontrivial"] <= stats["gCount"] * stats["sampleCount"]


@pytest.mark.parametrize("glen", ["0", "1e-9"])
def test_cocycle_of_rotations_only_fails_growth_ratio(tmp_path, capsys, glen):
    # a length-0 g is a rotation, which fixes i: every cocycle is +-I, so
    # the run checked no growth and must not pass
    code = run_main(["cocycle-mc", "--samples=600", "--gcount=4", f"--glen={glen}",
                     "--out", tmp_path / "mc.csv"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"]["domainStats"]["nontrivial"] == 0
    failed = [c["check"] for c in report["cases"] if not c["pass"]]
    assert failed == ["growth-ratio"]


def test_cocycle_negative_glen_names_the_key(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert run_main(["cocycle-mc", "--glen=-1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cocycle-mc: --glen must be at least 0, got -1.0\n")
    assert not out.exists()


# small grids, one per command, for contract checks over every runner
_SMALL_GRIDS = {
    "sdelta-decay": {"p": [2], "n": [2]},
    "sphere-gap": {"delta": [0.3], "dmax": [20]},
    "su2-gap": {"theta": [0.5], "jmax": [4]},
    "kak": {"count": [2], "alpha": [1.0], "rcount": [2]},
    "zigzag-cert": {"s": [0.1, 0.3], "pairs": [2]},
    "quotient-gap": {"order": [3], "sl3": [0]},
    "star-verify": {"order": [3]},
    "cocycle-mc": {"samples": [600], "gcount": [4]},
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_case_carries_every_column(command):
    report = cli.run(command, cli.ExperimentConfig(command,
                                                   _SMALL_GRIDS[command]))
    assert report.columns
    for case in report.cases:
        assert set(report.columns) <= set(case)


# ---------------------------------------------------------------------------
# individual runners


def test_sdelta_decay_defaults_pass():
    report = cli.run("sdelta-decay", cli.ExperimentConfig("sdelta-decay", {}))
    assert report.failed == 0
    assert all(c["norm"] <= c["bound"] + 1e-9 for c in report.cases)
    _assert_cross_checked(report.to_json(), 1e-9)


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


def _random_sl3_oracle(rng):
    """One SL(3) draw at a time: a standard normal 3x3 redrawn until
    |det| > 1e-3, scaled by the cube root of its determinant."""
    rejected = 0
    while True:
        m = rng.normal(size=(3, 3))
        det = np.linalg.det(m)
        if abs(det) > 1e-3:
            return m / np.cbrt(det), rejected
        rejected += 1


def test_kak_draws_are_the_one_at_a_time_draws():
    # batched draws refill their rejections from the same stream, so the
    # elements and the stream's state are those of the per-draw loop; the
    # seeds meet rejections in the first batch and in a refill
    rejected = 0
    for seed in range(30):
        for count in (0, 1, 7, 2000):
            rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
            got = cli._random_sl3(rng, count)
            draws = [_random_sl3_oracle(oracle_rng) for _ in range(count)]
            want = np.array([m for m, _ in draws]).reshape(-1, 3, 3)
            rejected += sum(r for _, r in draws)
            assert got.shape == (count, 3, 3)
            assert np.array_equal(got, want), (seed, count)
            assert rng.random() == oracle_rng.random()
    assert rejected > 0


def test_quotient_gap_matches_character_oracle():
    cfg = cli.ExperimentConfig("quotient-gap", {"order": [3, 5], "sl3": [0]})
    report = cli.run("quotient-gap", cfg)
    assert report.failed == 0
    for case in report.cases:
        expected = 0.5 + 0.5 * math.cos(2 * math.pi / case["size"])
        assert case["rho"] == pytest.approx(expected, abs=1e-9)


def test_quotient_gap_rejects_tiny_orders():
    with pytest.raises(cli.UsageError,
                       match="^quotient-gap: --order must be at least 3, "
                             "got 2$"):
        cli.run("quotient-gap",
                cli.ExperimentConfig("quotient-gap", {"order": [2],
                                                      "sl3": [0]}))


def test_star_verify_defaults_pass():
    report = cli.run("star-verify", cli.ExperimentConfig("star-verify", {}))
    assert report.failed == 0
    for case in report.cases:
        # horizon 30: 29 differences, all in the fit window
        assert case["fitted_t"] * 28 > twostep._DECAY_FLOOR


def test_star_verify_reports_every_residual():
    cfg = cli.ExperimentConfig("star-verify", {"order": [5, 4, 3],
                                               "horizon": [12]})
    report = cli.run("star-verify", cfg)
    stars = report.to_json()["diagnostics"]["starReports"]
    assert [s["order"] for s in stars] == [5, 4, 3]
    for case, star in zip(report.cases, stars):
        assert len(star["cauchyDiffs"]) == 11
        assert len(star["invarianceResiduals"]) == 12
        assert case["max_invariance"] == max(star["invarianceResiduals"])
        assert case["pass"] == star["pass"]
        assert case["fitted_t"] == star["fittedT"]
    # the periodic walk on Z/4 fails, the others decay
    assert [case["pass"] for case in report.cases] == [True, False, True]
    assert stars[1]["notes"] == "differences do not decay"
    assert stars[2]["invarianceResiduals"][-1] < 1e-3


def test_zigzag_radii_respect_rmax():
    cfg = cli.ExperimentConfig("zigzag-cert", {"s": [0.1], "pairs": [40],
                                               "rmax": [6.0]})
    report = cli.run("zigzag-cert", cfg)
    assert report.failed == 0
    for case in report.cases:
        assert 1.0 - 1e-12 <= case["r"] <= 6.0 + 1e-12
        assert 1.0 - 1e-12 <= case["r_prime"] <= 6.0 + 1e-12


def _uniform_triple(rng, r_max):
    """One chamber point from two scalar ``Generator.uniform`` draws, the
    oracle for ``cli._chamber_points``."""
    r = float(rng.uniform(1.0, r_max))
    a2 = float(rng.uniform(-r / 2.0, r / 2.0))
    if a2 >= 0:
        return (r - a2, a2, -r)
    return (r, a2, -r - a2)


@pytest.mark.parametrize("r_max", [1.0, 1.5, 20.0, 1000.0])
def test_chamber_points_are_the_scalar_uniform_draws(r_max):
    # six (s, L) blocks of 20 pairs, each from its own stream as zigzag-cert
    # seeds it, compared bit for bit
    pairs = 20
    for seed in range(50):
        for block in range(6):
            rng = np.random.default_rng([seed, pairs * block])
            want = np.array([_uniform_triple(rng, r_max) for _ in range(2 * pairs)])
            got = cli._chamber_points(np.random.default_rng([seed, pairs * block]),
                                      2 * pairs, r_max)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("value, rule", [
    (0.5, "at least 1"),
    (-3, "at least 1"),
    (cli._ZIGZAG_MAX_RADIUS * 1e6, f"at most {cli._ZIGZAG_MAX_RADIUS:g}"),
], ids=["below-one", "negative", "above-cap"])
def test_zigzag_rmax_outside_its_range_names_the_key(tmp_path, capsys,
                                                     value, rule):
    # a walk takes ~2 steps per unit of radius, so the cap bounds the step
    # arrays; the refusal comes before any pair is drawn
    out = tmp_path / "zz.csv"
    assert run_main(["zigzag-cert", f"--rmax={value}", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: zigzag-cert: --rmax must be {rule}, "
                          f"got {float(value)}\n")
    assert "Traceback" not in err
    assert not out.exists()


def test_quotient_gap_matches_the_lazy_walk_closed_form():
    # the lazy walk on Z/N is a circulant with mu-hat(k) = 1/2 + cos(2 pi k
    # / N)/2, so rho = max_{k != 0} |mu-hat(k)| and the profile's last value
    # is rho^horizon (Diaconis 1988, ch. 3); nothing here reads the runner's
    # own oracle column or the model matrices
    orders = list(range(3, 65))
    report = cli.run("quotient-gap", cli.ExperimentConfig(
        "quotient-gap", {"order": orders, "sl3": [0], "horizon": [16]}))
    assert [case["size"] for case in report.cases] == orders
    for case in report.cases:
        order = case["size"]
        hat = 0.5 + 0.5 * np.cos(2.0 * np.pi * np.arange(order) / order)
        rho = float(np.abs(hat[1:]).max())
        assert case["rho"] == pytest.approx(rho, rel=1e-12, abs=0)
        assert case["final"] == pytest.approx(rho ** 16, rel=1e-12, abs=0)
        # every lazy walk here is aperiodic, so every verdict is a pass
        assert rho < 1.0 and case["pass"]


# ---------------------------------------------------------------------------
# the command-line contract, over every command


def _candidates(rule):
    """Values around a key's declared range: each bound and a step past it,
    zero, a negative, a fraction and the key's defaults."""
    values = {0, -1, 2.5, *rule.default[:2]}
    for bound, step in ((rule.low, -1), (rule.high, 1)):
        if math.isfinite(bound):
            values |= {bound, bound + step, bound - step}
    return sorted(values)


def _breaks(rule, values):
    """Whether ``values`` break the rule a `Key` declares (the oracle the
    check in `Key.check` must agree with)."""
    if not rule.axis and len(values) != 1:
        return True
    return any((rule.integer and value != int(value))
               or not rule.low <= value <= rule.high for value in values)


@st.composite
def _invocations(draw, command):
    """A command's argv over a small grid and the values it asks for, seed
    included.  Each key keeps its default, or takes values its rule
    accepts, or takes any candidates (a single-valued key perhaps two), so
    that about half the grids break no rule."""
    asked = {}
    for key, rule in [("seed", cli._SEED), *cli.COMMANDS[command].keys.items()]:
        mode = draw(st.sampled_from(["valid", "valid", "default", "any"]))
        values = _candidates(rule)
        if mode == "valid":
            values = [v for v in values if not _breaks(rule, [v])]
        if mode != "default":
            asked[key] = draw(st.lists(
                st.sampled_from(values), min_size=1,
                max_size=3 if rule.axis else 1 + (mode == "any")))
    argv = [command] + [f"--{key}={','.join(map(repr, values))}"
                        for key, values in asked.items()]
    return argv, asked


# the case column that carries each axis, where it is not the key's name
_AXIS_COLUMNS = {("quotient-gap", "order"): "size"}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_contract_on_small_grids(command, data, tmp_path, capsys,
                                     monkeypatch):
    # exit 0, 1 or 2 and never a traceback; a value its Key refuses exits 2
    # naming the first such key (the seed, then the keys in declared order);
    # a finished run has every column in every case, no passing non-finite
    # cell, and a case for every value of every axis, asked or default; its
    # stdout is JSON without the NaN and Infinity tokens
    argv, asked = data.draw(_invocations(command))
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    reports = []
    run = cli.run
    with monkeypatch.context() as patch:
        patch.setattr(cli, "run",
                      lambda *args: reports.append(run(*args)) or reports[-1])
        code = cli.main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    err = captured.err
    assert code in (0, 1, 2) and "Traceback" not in err
    keys = [("seed", cli._SEED), *cli.COMMANDS[command].keys.items()]
    broken = [key for key, rule in keys
              if key in asked and _breaks(rule, asked[key])]
    if broken:
        assert code == 2
        assert err.startswith(f"error: {command}: --{broken[0]} ")
    if code == 2:
        assert err.startswith(f"error: {command}:") and not out.exists()
        return
    (report,) = reports
    assert code == (0 if report.failed == 0 else 1) and out.exists()
    assert _strict_json(captured.out)["failed"] == report.failed
    for case in report.cases:
        assert set(report.columns) <= set(case)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in case.values()):
            assert not case["pass"]
    for key, rule in cli.COMMANDS[command].keys.items():
        if rule.axis:
            column = _AXIS_COLUMNS.get((command, key), key)
            assert (set(asked.get(key, rule.default))
                    <= {case[column] for case in report.cases})


def _readme_key_rows():
    """{(command, key): [type, range, axis]} from the README's key table."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip("| ").split("|")]
        if len(cells) == 5 and line.split("|")[2].strip().startswith("`"):
            rows[cells[0], cells[1]] = cells[2:]
    return rows


def test_readme_key_table_matches_the_declared_keys():
    declared = {("every command", "seed"): cli._SEED}
    declared.update({(command, key): rule
                     for command, spec in cli.COMMANDS.items()
                     for key, rule in spec.keys.items()})
    rows = _readme_key_rows()
    assert set(rows) == set(declared)
    for name, rule in declared.items():
        if math.isfinite(rule.high):
            bounds = f"[{rule.low:g}, {rule.high:g}]"
        else:
            bounds = f"≥ {rule.low:g}" if math.isfinite(rule.low) else "any"
        assert rows[name] == ["integer" if rule.integer else "float", bounds,
                              "yes" if rule.axis else "no"], name
