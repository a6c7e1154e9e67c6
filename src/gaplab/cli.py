"""Batch experiment driver.

Runs any of the library's verification suites over a parameter grid and
writes a machine-readable result table::

    gaplab <command> [--config PATH] [--out PATH] [--seed N] [--key=value ...]

Commands
--------
sdelta-decay   residue-ring averaging operators: norm decay by character depth
sphere-gap     sphere averaging gap T_delta vs. the Holder envelope 2 sqrt(delta)
su2-gap        SU(2) two-rotation gap vs. the spin-1/2 lower bound
kak            KAK factorisation round-trips and diagonal distortion bounds
zigzag-cert    telescoping norm certificates for chamber-walk products
quotient-gap   spectral-gap profiles of lazy walks on finite quotients
star-verify    sandwiched-representation convergence reports
cocycle-mc     Monte-Carlo cocycle growth, cusp decay and truncation checks

Configuration is flat ``key = value`` text (values may be comma-separated
lists); command-line ``--key=value`` pairs override the file.  Unknown keys
and empty grids are rejected with exit status 2.  Exit status is 0 when all
cases pass, 1 when any bound is violated, 2 on usage errors.

The output CSV starts with a ``# schema=<command>/v1`` line followed by a
``# generated=...`` timestamp comment; everything below the timestamp line
is a pure function of the configuration and seed, so reruns are
byte-identical once that single comment line is dropped.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import cartan
from . import finite_models
from . import induction
from . import residue
from . import spheres
from . import twostep
from . import zigzag

__all__ = [
    "UsageError",
    "ExperimentConfig",
    "RunReport",
    "COMMANDS",
    "run",
    "write_report_csv",
    "load_config_file",
    "main",
]

SCHEMA_VERSION = "v1"


class UsageError(Exception):
    """Malformed invocation or configuration; maps to exit status 2."""


# ---------------------------------------------------------------------------
# configuration


def _parse_number(token):
    text = token.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"could not parse numeric value {token!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"non-finite value {token!r} not allowed")
    return value


def _parse_values(text):
    """A comma-separated list of numbers; at least one entry required."""
    values = [_parse_number(t) for t in str(text).split(",") if t.strip()]
    if not values:
        raise UsageError(f"empty value list {text!r}")
    return values


@dataclass
class ExperimentConfig:
    """A command name plus a parameter grid, output path and seed.

    Every grid key must be one the command declares; missing keys fall back
    to the command defaults.  Values are stored as lists (axes of the grid).
    """

    command: str
    grid: dict = field(default_factory=dict)
    out_path: str | None = None
    seed: int = 0

    def __post_init__(self):
        spec = COMMANDS.get(self.command)
        if spec is None:
            known = ", ".join(sorted(COMMANDS))
            raise UsageError(f"unknown command {self.command!r} (expected one of: {known})")
        merged = {}
        for key, values in self.grid.items():
            if key not in spec.defaults:
                raise UsageError(f"unknown config key {key!r} for command {self.command!r}")
            if not isinstance(values, (list, tuple)):
                values = [values]
            values = [v for v in values]
            if not values:
                raise UsageError(f"empty grid for key {key!r}")
            merged[key] = values
        for key, values in spec.defaults.items():
            merged.setdefault(key, list(values))
        self.grid = merged
        self.seed = int(self.seed)

    def values(self, key):
        return list(self.grid[key])

    def scalar(self, key):
        values = self.grid[key]
        if len(values) != 1:
            raise UsageError(f"key {key!r} takes a single value, got {values!r}")
        return values[0]

    def tolerances(self):
        return {k: v[0] for k, v in self.grid.items() if k.startswith("tol")}

    def echo(self):
        return {
            "command": self.command,
            "seed": self.seed,
            "out": self.out_path,
            "grid": {k: list(v) for k, v in sorted(self.grid.items())},
            "tolerances": self.tolerances(),
        }


def load_config_file(path):
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    params = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        params[key] = value.strip()
    return params


# ---------------------------------------------------------------------------
# reports


@dataclass
class RunReport:
    """Outcome of one command run: per-case rows plus pass/fail tallies,
    and any structured diagnostics the runner reports."""

    command: str
    config: dict
    cases: list
    passed: int
    failed: int
    wall_time: float
    columns: tuple = ()
    csv_rows: list | None = None
    diagnostics: dict | None = None

    def __post_init__(self):
        if self.passed + self.failed != len(self.cases):
            raise ValueError("pass/fail counts must sum to the case count")

    @property
    def all_passed(self):
        return self.failed == 0

    def to_json(self):
        doc = {
            "command": self.command,
            "config": self.config,
            "cases": [dict(c) for c in self.cases],
            "passed": self.passed,
            "failed": self.failed,
            "wallTime": self.wall_time,
        }
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        return doc


def run(command, config=None):
    """Execute ``command`` over its grid; deterministic given (config, seed).

    A ``ValueError`` from the library means the configuration asked for
    something the library rejects, so it surfaces as a ``UsageError``.
    """
    if config is None:
        config = ExperimentConfig(command)
    elif isinstance(config, dict):
        config = ExperimentConfig(command, config)
    if config.command != command:
        raise UsageError(f"config is for {config.command!r}, not {command!r}")
    spec = COMMANDS[command]
    start = time.perf_counter()
    try:
        cases, columns, csv_rows, diagnostics = spec.runner(config)
    except ValueError as exc:
        raise UsageError(f"{command}: {exc}") from exc
    wall = time.perf_counter() - start
    passed = sum(1 for case in cases if case["pass"])
    return RunReport(command, config.echo(), cases, passed,
                     len(cases) - passed, wall, tuple(columns), csv_rows,
                     diagnostics)


def _format_cell(value):
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_report_csv(path, report):
    """Schema line, timestamp comment, header, one row per case."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    preamble = [f"# schema={report.command}/{SCHEMA_VERSION}",
                f"# generated={stamp}"]
    if report.command == "cocycle-mc" and report.csv_rows is not None:
        # the cocycle command logs the raw domain sample instead of cases
        columns, weights, seed = report.csv_rows
        induction.write_sample_log(path, seed, columns, weights,
                                   preamble=preamble)
        return
    rows = report.csv_rows if report.csv_rows is not None else report.cases
    with open(path, "w", newline="") as fh:
        for line in preamble:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(list(report.columns))
        for row in rows:
            writer.writerow([_format_cell(row.get(col, "")) for col in report.columns])


# ---------------------------------------------------------------------------
# runners (one per command)


def _run_sdelta_decay(cfg):
    """Depth-h character norms against the p^{-(n-h)/2} staircase."""
    tol = float(cfg.scalar("tol"))
    cases = []
    for p in cfg.values("p"):
        p = int(p)
        for n in cfg.values("n"):
            n = int(n)
            if p ** (2 * n) > 6561:
                continue  # keep the dense models at desk scale
            ring = residue.ResidueRing(p, n)
            for h in range(1, n + 1):
                # index p^{h-1} is the slowest-decaying character of depth h
                index = p ** (h - 1)
                op = finite_models.stamp_s_chi(ring, ring.character(index))
                report = finite_models.operator_norm(op)
                bound = p ** (-(n - h) / 2.0)
                cases.append({
                    "p": p, "n": n, "h": h, "index": index,
                    "norm": report.value, "bound": bound,
                    "method": report.method,
                    "pass": bool(report.value <= bound + tol),
                })
    columns = ("p", "n", "h", "index", "norm", "bound", "method", "pass")
    return cases, columns, None, None


def _run_sphere_gap(cfg):
    """sup_l |P_l(delta) - P_l(0)| against the 2 sqrt(delta) envelope."""
    tol = float(cfg.scalar("tol"))
    dmax = int(cfg.scalar("dmax"))
    cases = []
    for n in cfg.values("n"):
        for delta in cfg.values("delta"):
            rep = spheres.tdelta_gap_report(int(n), float(delta), dmax)
            cases.append({
                "n": int(n), "delta": float(delta),
                "value": rep.value, "bound": rep.holder_bound,
                "arg_degree": rep.arg_degree, "tail": rep.tail_envelope,
                "pass": bool(rep.value <= rep.holder_bound + tol),
            })
    columns = ("n", "delta", "value", "bound", "arg_degree", "tail", "pass")
    return cases, columns, None, None


def _run_su2_gap(cfg):
    """Two-rotation gap must dominate the closed-form spin-1/2 branch."""
    tol = float(cfg.scalar("tol"))
    two_j_max = int(cfg.scalar("jmax"))
    points = int(cfg.scalar("qpoints"))
    cases = []
    for theta in cfg.values("theta"):
        theta = float(theta)
        value = spheres.stheta_norm_gap(theta, two_j_max=two_j_max,
                                        quadrature_points=points)
        lower = spheres.spin_half_gap(theta)
        cases.append({
            "theta": theta, "value": value, "lower": lower,
            "pass": bool(value >= lower - tol),
        })
    return cases, ("theta", "value", "lower", "pass"), None, None


def _random_sl3(rng):
    while True:
        m = rng.normal(size=(3, 3))
        det = np.linalg.det(m)
        if abs(det) > 1e-3:
            return m / np.cbrt(det)


def _run_kak(cfg):
    """KAK round-trips on random elements plus distortion-bound sweeps."""
    tol = float(cfg.scalar("tol"))
    count = int(cfg.scalar("count"))
    r_count = int(cfg.scalar("rcount"))
    rng = np.random.default_rng(cfg.seed)
    cases = []
    for i in range(count):
        g = cartan.RealGroupElement(_random_sl3(rng))
        k1, triple, k2 = cartan.kak_real(g)
        recon = k1.matrix @ cartan.d_matrix(*triple.as_tuple()).matrix @ k2.matrix
        scale = max(1.0, float(np.abs(g.matrix).max()))
        residual = float(np.abs(recon - g.matrix).max()) / scale
        cases.append({
            "kind": "roundtrip", "case": i, "alpha": "", "r": "",
            "delta": "", "value": residual, "bound": tol,
            "pass": bool(residual <= tol),
        })
    idx = count
    for alpha in cfg.values("alpha"):
        alpha = float(alpha)
        for r in np.linspace(alpha, 4.0 * alpha, r_count):
            sol = cartan.solve_sphere_distortion(alpha, float(r))
            ok = sol.residual <= 1e-8 and sol.delta <= sol.delta_bound * (1 + 1e-9)
            cases.append({
                "kind": "distortion", "case": idx, "alpha": alpha,
                "r": float(r), "delta": sol.delta, "value": sol.residual,
                "bound": sol.delta_bound, "pass": bool(ok),
            })
            idx += 1
    columns = ("kind", "case", "alpha", "r", "delta", "value", "bound", "pass")
    return cases, columns, None, None


def _chamber_triple(rng, r_max):
    """A random ordered zero-sum triple with radius in [1, r_max]."""
    r = float(rng.uniform(1.0, r_max))
    a2 = float(rng.uniform(-r / 2.0, r / 2.0))
    if a2 >= 0:
        return (r - a2, a2, -r)  # radius attained by -a3
    return (r, a2, -r - a2)      # radius attained by a1


def _run_zigzag_cert(cfg):
    """Certificate totals against the telescoped target, pair by pair."""
    pairs = int(cfg.scalar("pairs"))
    r_max = float(cfg.scalar("rmax"))
    cases = []
    idx = 0
    for s in cfg.values("s"):
        for L in cfg.values("L"):
            rng = np.random.default_rng([cfg.seed, idx])
            for _ in range(pairs):
                a = _chamber_triple(rng, r_max)
                a_prime = _chamber_triple(rng, r_max)
                base = {
                    "case": idx, "s": float(s), "L": float(L),
                    "r": max(a[0], -a[2]),
                    "r_prime": max(a_prime[0], -a_prime[2]),
                }
                try:
                    cert = zigzag.zigzag_certificate(a, a_prime, float(s), float(L))
                except ValueError as exc:
                    cases.append({**base, "total": "", "target": "",
                                  "steps": 0, "pass": False,
                                  "note": str(exc)})
                else:
                    ok = cert.passed and zigzag.revalidate_certificate(cert)
                    cases.append({**base, "total": cert.total,
                                  "target": cert.target,
                                  "steps": len(cert.steps),
                                  "pass": bool(ok), "note": ""})
                idx += 1
    columns = ("case", "s", "L", "r", "r_prime", "total", "target",
               "steps", "pass")
    return cases, columns, None, None


def _lazy_walk(model, order):
    """Hold-1/2 nearest-neighbour walk; its gap is 1/2 - cos(2 pi/m)/2."""
    weights = np.zeros(order)
    weights[0] = 0.5
    weights[1] += 0.25
    weights[order - 1] += 0.25
    return twostep.FiniteMeasure(model, weights)


def _run_quotient_gap(cfg):
    """Spectral-gap profiles on cyclic quotients (plus one simple group)."""
    horizon = int(cfg.scalar("horizon"))
    cases = []
    for order in cfg.values("order"):
        order = int(order)
        if order < 3:
            raise UsageError("quotient orders below 3 have no lazy walk gap")
        model = twostep.cyclic_model(order)
        profile = twostep.spectral_gap_profile(model, _lazy_walk(model, order),
                                               horizon)
        oracle = 0.5 + 0.5 * math.cos(2.0 * math.pi / order)
        rho = profile.rho if profile.rho is not None else float("nan")
        ok = (profile.generating and math.isfinite(rho) and rho < 1.0
              and abs(rho - oracle) <= 1e-9)
        cases.append({"group": f"cyclic-{order}", "size": order,
                      "rho": rho, "oracle": oracle,
                      "final": profile.values[-1], "pass": bool(ok)})
    if int(cfg.scalar("sl3")):
        model = twostep.sl3_f2_model()
        mu = twostep.FiniteMeasure.uniform(model, model.generators)
        profile = twostep.spectral_gap_profile(model, mu, horizon)
        rho = profile.rho if profile.rho is not None else float("nan")
        ok = profile.generating and math.isfinite(rho) and rho < 1.0
        cases.append({"group": "sl3-f2", "size": model.order,
                      "rho": rho, "oracle": "",
                      "final": profile.values[-1], "pass": bool(ok)})
    columns = ("group", "size", "rho", "oracle", "final", "pass")
    return cases, columns, None, None


def _run_star_verify(cfg):
    """Cauchy/invariance/limit reports for sandwiched regular models."""
    horizon = int(cfg.scalar("horizon"))
    cases = []
    for order in cfg.values("order"):
        order = int(order)
        if order < 3:
            raise UsageError("star instances need order at least 3")
        model = twostep.cyclic_model(order)
        rep = twostep.sandwich_twostep(model, model.left_regular_stack(),
                                       np.eye(order), np.eye(order))
        mu = twostep.FiniteMeasure.uniform(model, [1, order - 1])
        measures = twostep.convolution_powers(mu, horizon)
        grid = [(1, order - 1), (2, 0)]
        report = twostep.verify_star_instance(rep, measures, grid)
        cases.append({
            "order": order,
            "fitted_c": report.fitted_C if report.fitted_C is not None else "",
            "fitted_t": report.fitted_t if report.fitted_t is not None else "",
            "max_invariance": max(report.invariance_residuals),
            "pass": bool(report.passed),
        })
    columns = ("order", "fitted_c", "fitted_t", "max_invariance", "pass")
    return cases, columns, None, None


def _run_cocycle_mc(cfg):
    """Monte-Carlo growth constants, cusp decay and tail truncation."""
    samples = int(cfg.scalar("samples"))
    g_count = int(cfg.scalar("gcount"))
    g_len = float(cfg.scalar("glen"))
    s = float(cfg.scalar("s"))
    s0 = float(cfg.scalar("s0"))
    radius = float(cfg.scalar("radius"))
    tol_kappa = float(cfg.scalar("tolkappa"))
    seed = cfg.seed

    x, y, theta, lengths, weights = induction.sample_domain_arrays(samples,
                                                                   seed)
    head = min(200, samples)
    subset = induction.domain_matrices(x[:head], y[:head], theta[:head])

    g_samples = induction.random_group_elements(g_count, seed + 1,
                                                max_length=g_len)
    stats = induction.cocycle_growth_check(g_samples, s, subset, s0=s0)

    # keep at least ~25 exceedances so the tail fit stays well-posed
    quantile = 1.0 - max(25.0, 0.02 * samples) / samples
    if quantile < 0.5:
        raise UsageError("cusp fit needs at least 50 samples")
    fit = induction.cusp_decay_fit(lengths, threshold_quantile=quantile)
    _, _, _, alt_lengths, _ = induction.sample_domain_arrays(samples, seed + 1000)
    fit_alt = induction.cusp_decay_fit(alt_lengths, threshold_quantile=quantile)
    rate_gap = abs(fit.rate - fit_alt.rate)
    rate_band = 3.0 * (fit.rate_stderr + fit_alt.rate_stderr)

    push_gs = induction.random_group_elements(8, seed + 2, max_length=1.0)
    m_tilde = [(g, 1.0 / len(push_gs)) for g in push_gs]
    pushed = induction.pushforward_mn0(m_tilde, 1.0 + 1e-6, subset)
    truncated, tail = induction.truncate_tail(pushed, radius)
    tv = induction.total_variation(truncated, pushed)

    cases = [
        {"check": "growth-kappa", "value": stats.kappa, "bound": tol_kappa,
         "pass": bool(stats.kappa <= tol_kappa)},
        {"check": "growth-ratio", "value": stats.c_emp, "bound": "",
         "pass": bool(math.isfinite(stats.c_emp) and stats.c_emp > 0)},
        {"check": "cusp-rate", "value": fit.rate,
         "bound": 3.0 * fit.rate_stderr,
         "pass": bool(fit.rate > 3.0 * fit.rate_stderr)},
        {"check": "cusp-two-seed", "value": rate_gap, "bound": rate_band,
         "pass": bool(rate_gap <= rate_band)},
        {"check": "pushforward-mass", "value": abs(pushed.mass - 1.0),
         "bound": 1e-9, "pass": bool(abs(pushed.mass - 1.0) <= 1e-9)},
        {"check": "truncation-tv", "value": abs(tv - 2.0 * tail),
         "bound": 1e-12, "pass": bool(abs(tv - 2.0 * tail) <= 1e-12)},
    ]
    diagnostics = {"domainStats": stats.to_json(), "cuspFit": fit.to_json(),
                   "cuspFitAlt": fit_alt.to_json()}
    return (cases, ("check", "value", "bound", "pass"),
            ((x, y, theta, lengths), weights, seed), diagnostics)


@dataclass(frozen=True)
class CommandSpec:
    name: str
    runner: object
    defaults: dict
    summary: str


COMMANDS = {
    "sdelta-decay": CommandSpec(
        "sdelta-decay", _run_sdelta_decay,
        {"p": [2, 3], "n": [1, 2, 3], "tol": [1e-9]},
        "character-block norm decay on residue rings"),
    "sphere-gap": CommandSpec(
        "sphere-gap", _run_sphere_gap,
        {"n": [2], "delta": [i / 100.0 for i in range(1, 100)],
         "dmax": [200], "tol": [1e-9]},
        "sphere averaging gap vs. Holder envelope"),
    "su2-gap": CommandSpec(
        "su2-gap", _run_su2_gap,
        {"theta": [0.05, 0.2, 0.4, math.pi / 4, 1.0, 1.3, 2.0],
         "jmax": [20], "qpoints": [128], "tol": [1e-9]},
        "two-rotation gap vs. spin-1/2 branch"),
    "kak": CommandSpec(
        "kak", _run_kak,
        {"count": [20], "alpha": [0.5, 1.0, 2.0], "rcount": [5],
         "tol": [1e-10]},
        "KAK round-trips and distortion bounds"),
    "zigzag-cert": CommandSpec(
        "zigzag-cert", _run_zigzag_cert,
        {"s": [0.05, 0.1, 0.2], "L": [1.0], "pairs": [12], "rmax": [20.0]},
        "chamber-walk norm certificates"),
    "quotient-gap": CommandSpec(
        "quotient-gap", _run_quotient_gap,
        {"order": [3, 4, 5, 6, 8], "horizon": [16], "sl3": [1]},
        "lazy-walk spectral gaps on finite quotients"),
    "star-verify": CommandSpec(
        "star-verify", _run_star_verify,
        {"order": [3, 5], "horizon": [30]},
        "sandwiched-representation convergence"),
    "cocycle-mc": CommandSpec(
        "cocycle-mc", _run_cocycle_mc,
        {"samples": [2000], "gcount": [20], "glen": [2.0], "s": [0.2],
         "s0": [1.0], "radius": [2.5], "tolkappa": [1e-9]},
        "cocycle growth / cusp decay Monte-Carlo"),
}


# ---------------------------------------------------------------------------
# entry point


def _usage():
    lines = ["usage: gaplab <command> [--config PATH] [--out PATH]"
             " [--seed N] [--key=value ...]", "", "commands:"]
    for name in sorted(COMMANDS):
        lines.append(f"  {name:<14} {COMMANDS[name].summary}")
    return "\n".join(lines)


def _parse_argv(argv):
    command = argv[0]
    config_path = None
    out_path = None
    seed = None
    overrides = {}
    i = 1
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            raise UsageError(f"unexpected argument {arg!r}")
        if "=" in arg:
            key, value = arg[2:].split("=", 1)
            i += 1
        else:
            key = arg[2:]
            if i + 1 >= len(argv):
                raise UsageError(f"flag {arg!r} needs a value")
            value = argv[i + 1]
            i += 2
        if not key:
            raise UsageError(f"malformed flag {arg!r}")
        if key == "config":
            config_path = value
        elif key == "out":
            out_path = value
        elif key == "seed":
            try:
                seed = int(value)
            except ValueError:
                raise UsageError(f"seed must be an integer, got {value!r}") from None
        else:
            overrides[key] = _parse_values(value)
    return command, config_path, out_path, seed, overrides


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv:
        print(_usage(), file=sys.stderr)
        return 2
    if argv[0] in ("-h", "--help"):
        print(_usage())
        return 0
    try:
        command, config_path, out_path, seed, overrides = _parse_argv(argv)
        if command not in COMMANDS:
            known = ", ".join(sorted(COMMANDS))
            raise UsageError(f"unknown command {command!r} (expected one of: {known})")
        grid = {}
        if config_path is not None:
            for key, value in load_config_file(config_path).items():
                if key == "out":
                    out_path = out_path if out_path is not None else value
                elif key == "seed":
                    if seed is None:
                        try:
                            seed = int(value)
                        except ValueError:
                            raise UsageError(
                                f"seed must be an integer, got {value!r}") from None
                else:
                    grid[key] = _parse_values(value)
        grid.update(overrides)
        config = ExperimentConfig(command, grid, out_path=out_path,
                                  seed=seed if seed is not None else 0)
        report = run(command, config)
        target = config.out_path or f"{command}.csv"
        write_report_csv(target, report)
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0 if report.all_passed else 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
