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
lists); command-line ``--key=value`` pairs override the file.  What each
key accepts is declared once, in ``COMMANDS``, and checked before any work.
Unknown keys, empty grids and values a key does not accept are rejected
with exit status 2.  Exit status is 0 when all cases pass, 1 when any bound
is violated, 2 on usage errors.

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
from typing import NamedTuple

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
    """The int, or else the finite float, that ``token`` spells."""
    text = token.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"must be a finite number, got {token!r}")
    return value


def _parse_values(text):
    """A comma-separated list of numbers; at least one entry required."""
    values = [_parse_number(t) for t in str(text).split(",") if t.strip()]
    if not values:
        raise UsageError(f"takes at least one value, got {text!r}")
    return values


class Key(NamedTuple):
    """What one key of a command accepts.

    ``default`` holds its default values.  An ``integer`` key takes
    integers only: an integral float is the integer it spells, any other
    value is refused, never truncated.  Every value must lie in [``low``,
    ``high``].  An ``axis`` takes any number of values; any other key takes
    exactly one.
    """

    default: tuple
    integer: bool = False
    low: float = -math.inf
    high: float = math.inf
    axis: bool = False

    def check(self, command, key, values):
        """The typed values of ``key``: a list for an axis, the single value
        otherwise.  A value the key does not accept is a `UsageError` of
        the form ``<command>: --<key> <rule>, got <value>``."""
        def refuse(rule, value):
            raise UsageError(f"{command}: --{key} {rule}, got {value!r}")

        if not self.axis and len(values) != 1:
            refuse("takes a single value", list(values))
        out = []
        for value in values:
            number = value
            if isinstance(value, (bool, np.bool_)) or not isinstance(
                    value, (int, float, np.integer, np.floating)):
                number = math.nan
            elif isinstance(value, (float, np.floating)):
                number = float(value)
            if self.integer:
                if isinstance(number, float) and not number.is_integer():
                    refuse("must be an integer", value)
                number = int(number)
            else:
                try:
                    number = float(number)
                except OverflowError:       # an int past the float range
                    number = math.inf
                if not math.isfinite(number):
                    refuse("must be a finite number", value)
            if number < self.low:
                refuse(f"must be at least {self.low:g}", number)
            if number > self.high:
                refuse(f"must be at most {self.high:g}", number)
            out.append(number)
        return out if self.axis else out[0]


_SEED = Key((0,), integer=True, low=0)


@dataclass
class ExperimentConfig:
    """A command name plus a parameter grid, output path and seed.

    Every grid key must be one the command declares; missing keys fall back
    to the command defaults.  Values are stored as lists of numbers (axes of
    the grid): a string is a comma-separated list and is parsed, as is a
    string item of a list.  The seed is checked here; `run` checks what
    every grid key accepts.
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
            if key not in spec.keys:
                raise UsageError(f"unknown config key {key!r} for command {self.command!r}")
            values = self._numbers(key, values)
            if not values:
                raise UsageError(f"empty grid for key {key!r}")
            merged[key] = values
        for key, rule in spec.keys.items():
            merged.setdefault(key, list(rule.default))
        self.grid = merged
        self.seed = _SEED.check(self.command, "seed",
                                self._numbers("seed", self.seed))

    def _numbers(self, key, values):
        try:
            if isinstance(values, str):
                return _parse_values(values)
            if not isinstance(values, (list, tuple)):
                values = [values]
            return [_parse_number(v) if isinstance(v, str) else v
                    for v in values]
        except UsageError as exc:
            raise UsageError(f"{self.command}: --{key} {exc}") from None

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

    Every key is checked against its `Key` before the runner starts, and
    the runner gets the typed values.  A ``ValueError`` from the library
    means the configuration asked for something the library rejects, so it
    surfaces as a ``UsageError``; so does a grid that yields no case.  A
    case with a non-finite float cell fails whatever its runner decided.
    """
    if config is None:
        config = ExperimentConfig(command)
    elif isinstance(config, dict):
        config = ExperimentConfig(command, config)
    if config.command != command:
        raise UsageError(f"config is for {config.command!r}, not {command!r}")
    spec = COMMANDS[command]
    params = {key: rule.check(command, key, config.grid[key])
              for key, rule in spec.keys.items()}
    start = time.perf_counter()
    try:
        cases, columns, diagnostics = spec.runner(params, config.seed)
    except ValueError as exc:
        raise UsageError(f"{command}: {exc}") from exc
    wall = time.perf_counter() - start
    if not cases:
        raise UsageError(f"{command}: the grid produced no cases")
    for case in cases:
        # a statistic that is NaN or infinite checked nothing
        if any(isinstance(v, (float, np.floating)) and not math.isfinite(v)
               for v in case.values()):
            case["pass"] = False
    passed = sum(1 for case in cases if case["pass"])
    return RunReport(command, config.echo(), cases, passed,
                     len(cases) - passed, wall, tuple(columns), diagnostics)


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
    """Schema line and timestamp comment, then the body the command's
    ``write_csv`` writes."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    preamble = [f"# schema={report.command}/{SCHEMA_VERSION}",
                f"# generated={stamp}"]
    COMMANDS[report.command].write_csv(path, report, preamble)


def _write_case_table(path, report, preamble):
    """Preamble, header, one row per case."""
    with open(path, "w", newline="") as fh:
        for line in preamble:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(list(report.columns))
        for row in report.cases:
            writer.writerow([_format_cell(row.get(col, "")) for col in report.columns])


# ---------------------------------------------------------------------------
# runners (one per command)


_SDELTA_MAX_MODULUS = 4096
_SDELTA_CROSS_CHECK_MAX_MODULUS = 1024
# correct applies converge in 2-3 steps; a stalled iteration fails its case
# after this many instead of running the library's default cap
_SDELTA_CROSS_CHECK_MAX_ITERATIONS = 50


def _run_sdelta_decay(params, seed):
    """Depth-h character norms against the p^{-(n-h)/2} staircase.

    The norms come from the closed-form block law and never build a dense
    matrix; a modulus above ``_SDELTA_MAX_MODULUS`` is a usage error, so no
    requested case is dropped without notice.  Up to
    ``_SDELTA_CROSS_CHECK_MAX_MODULUS`` every case also runs the matrix-free
    power iteration, capped at ``_SDELTA_CROSS_CHECK_MAX_ITERATIONS`` steps,
    and passes only if it converged and agrees with the closed form within
    ``tol``.  Both norm reports go into the diagnostics; a larger case says
    there that no cross-check ran.
    """
    tol = params["tol"]
    # p^n grows with both keys, so the largest pair decides; test n first:
    # any p >= 2 exceeds the bound from n = 13 on, and forming p^n for a
    # huge n would not finish
    p, n = max(params["p"]), max(params["n"])
    if n >= _SDELTA_MAX_MODULUS.bit_length() or p ** n > _SDELTA_MAX_MODULUS:
        raise UsageError(f"sdelta-decay: modulus {p}^{n} exceeds "
                         f"{_SDELTA_MAX_MODULUS}")
    for p in params["p"]:
        if not residue._is_prime(p):
            raise UsageError(f"sdelta-decay: --p must be prime, got {p!r}")
    cases = []
    checks = []
    for p in params["p"]:
        for n in params["n"]:
            ring = residue.ResidueRing(p, n)
            for h in range(1, n + 1):
                # index p^{h-1} is the slowest-decaying character of depth h
                index = p ** (h - 1)
                op = finite_models.stamp_s_chi(ring, ring.character(index))
                report = finite_models.operator_norm(op)
                bound = p ** (-(n - h) / 2.0)
                ok = report.value <= bound + tol
                check = {"p": p, "n": n, "h": h, "index": index,
                         "closedForm": report.to_json()}
                if ring.modulus <= _SDELTA_CROSS_CHECK_MAX_MODULUS:
                    power = finite_models.operator_norm(
                        op, method="power-iteration", seed=seed,
                        max_iterations=_SDELTA_CROSS_CHECK_MAX_ITERATIONS)
                    ok = (ok and power.converged
                          and abs(power.value - report.value) <= tol)
                    check["powerIteration"] = power.to_json()
                    check["crossCheck"] = "ran"
                else:
                    check["powerIteration"] = None
                    check["crossCheck"] = (
                        f"not run: modulus {ring.modulus} exceeds "
                        f"{_SDELTA_CROSS_CHECK_MAX_MODULUS}")
                checks.append(check)
                cases.append({
                    "p": p, "n": n, "h": h, "index": index,
                    "norm": report.value, "bound": bound,
                    "method": report.method,
                    "pass": bool(ok),
                })
    columns = ("p", "n", "h", "index", "norm", "bound", "method", "pass")
    return cases, columns, {"crossChecks": checks}


def _run_sphere_gap(params, seed):
    """sup_l |P_l(delta) - P_l(0)| against the 2 sqrt(delta) envelope, for
    every (n, delta) from one joint recurrence."""
    tol, deltas = params["tol"], params["delta"]
    cases = []
    joint = spheres.tdelta_gap_report(params["n"], deltas, params["dmax"])
    for n, reports in zip(params["n"], joint):
        for delta, rep in zip(deltas, reports):
            cases.append({
                "n": n, "delta": delta,
                "value": rep.value, "bound": rep.holder_bound,
                "arg_degree": rep.arg_degree, "tail": rep.tail_envelope,
                "pass": bool(rep.value <= rep.holder_bound + tol),
            })
    columns = ("n", "delta", "value", "bound", "arg_degree", "tail", "pass")
    return cases, columns, None


def _run_su2_gap(params, seed):
    """Two-rotation gap must dominate the closed-form spin-1/2 branch."""
    thetas = params["theta"]
    values = spheres.stheta_norm_gap(thetas, two_j_max=params["jmax"])
    cases = []
    for theta, value in zip(thetas, values.tolist()):
        lower = spheres.spin_half_gap(theta)
        cases.append({
            "theta": theta, "value": value, "lower": lower,
            "pass": bool(value >= lower - params["tol"]),
        })
    return cases, ("theta", "value", "lower", "pass"), None


def _random_sl3(rng, count):
    """``count`` random SL(3, R) elements as a (count, 3, 3) array.

    Each is a standard normal 3x3 draw with |det| > 1e-3, scaled by the
    cube root of its determinant.  The draws are batches of
    ``rng.normal(size=(k, 3, 3))`` with one stacked determinant, and the
    rejected ones are drawn again from the same stream, as many as were
    rejected: the stream and the elements are those of one draw at a time.
    """
    kept, need = [np.empty((0, 3, 3))], count
    while need:
        m = rng.normal(size=(need, 3, 3))
        det = np.linalg.det(m)
        ok = np.abs(det) > 1e-3
        kept.append(m[ok] / np.cbrt(det[ok])[:, None, None])
        need -= len(kept[-1])
    return np.concatenate(kept)


def _run_kak(params, seed):
    """KAK round-trips on random elements plus distortion-bound sweeps.

    All elements are drawn first (`_random_sl3`), in the order the rng
    yields them, then factored by one stacked `kak_real` call; each alpha's
    r-grid is one `solve_sphere_distortion` call.
    """
    tol, smallest = params["tol"], min(params["alpha"])
    if smallest <= 0:
        raise UsageError(f"kak: --alpha must be positive, got {smallest!r}")
    rng = np.random.default_rng(seed)
    g = _random_sl3(rng, params["count"])
    k1, a, k2 = cartan.kak_real(g)
    recon = k1 @ cartan.d_matrices(a) @ k2
    scale = np.maximum(1.0, np.abs(g).max(axis=(1, 2)))
    residuals = np.abs(recon - g).max(axis=(1, 2)) / scale
    cases = [{"kind": "roundtrip", "case": i, "alpha": "", "r": "",
              "delta": "", "value": residual, "bound": tol,
              "pass": residual <= tol}
             for i, residual in enumerate(residuals.tolist())]
    for alpha in params["alpha"]:
        rs = np.linspace(alpha, 4.0 * alpha, params["rcount"]).tolist()
        for sol in cartan.solve_sphere_distortion(alpha, rs):
            ok = sol.residual <= 1e-8 and sol.delta <= sol.delta_bound * (1 + 1e-9)
            cases.append({
                "kind": "distortion", "case": len(cases), "alpha": alpha,
                "r": sol.r, "delta": sol.delta, "value": sol.residual,
                "bound": sol.delta_bound, "pass": ok,
            })
    columns = ("kind", "case", "alpha", "r", "delta", "value", "bound", "pass")
    return cases, columns, None


def _chamber_points(rng, count, r_max):
    """``count`` random ordered zero-sum triples as a (count, 3) array.

    Each takes a radius r ~ U[1, r_max] and then a2 ~ U[-r/2, r/2], from one
    ``rng.random((count, 2))`` scaled as low + (high - low) u: the doubles
    that per-triple ``rng.uniform`` calls give, in the same order.
    """
    u = rng.random((count, 2))
    r = 1.0 + (r_max - 1.0) * u[:, 0]
    low, high = -r / 2.0, r / 2.0
    a2 = low + (high - low) * u[:, 1]
    # the radius is attained by -a3 when a2 >= 0, by a1 otherwise
    return np.where((a2 >= 0)[:, None], np.stack([r - a2, a2, -r], axis=1),
                    np.stack([r, a2, -r - a2], axis=1))


def _run_zigzag_cert(params, seed):
    """Certificate totals against the telescoped target, one block per (s, L).

    Each (s, L) block draws its pairs from its own stream, builds all their
    certificates in one call and revalidates them in another.  A block the
    library refuses (s >= 1/4, say) gives one failing case per pair with
    the refusal as its note.
    """
    cases = []
    for s in params["s"]:
        for L in params["L"]:
            rng = np.random.default_rng([seed, len(cases)])
            points = _chamber_points(rng, 2 * params["pairs"],
                                     params["rmax"]).reshape(-1, 2, 3)
            # the axis radius max(a1, -a3) of each endpoint
            radii = np.maximum(points[..., 0], -points[..., 2]).tolist()
            base = [{"case": len(cases) + i, "s": s, "L": L,
                     "r": r, "r_prime": r_prime}
                    for i, (r, r_prime) in enumerate(radii)]
            try:
                block = zigzag.zigzag_certificate(points[:, 0], points[:, 1],
                                                  s, L)
            except ValueError as exc:
                cases += [{**case, "total": "", "target": "", "steps": 0,
                           "pass": False, "note": str(exc)} for case in base]
                continue
            zigzag.revalidate_certificate(block)
            cases += [{**case, "total": total, "target": target,
                       "steps": steps, "pass": ok, "note": ""}
                      for case, total, target, steps, ok in zip(
                          base, block.totals.tolist(), block.targets.tolist(),
                          np.diff(block.offsets).tolist(),
                          block.passed.tolist())]
            del block, points     # free this block's arrays before the next
    columns = ("case", "s", "L", "r", "r_prime", "total", "target",
               "steps", "pass")
    return cases, columns, None


def _lazy_walk(model, order):
    """Hold-1/2 nearest-neighbour walk; its gap is 1/2 - cos(2 pi/m)/2."""
    weights = np.zeros(order)
    weights[0] = 0.5
    weights[1] += 0.25
    weights[order - 1] += 0.25
    return twostep.FiniteMeasure(model, weights)


def _run_quotient_gap(params, seed):
    """Spectral-gap profiles on cyclic quotients (plus one simple group)."""
    horizon = params["horizon"]
    cases = []
    for order in params["order"]:
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
    if params["sl3"]:
        model = twostep.sl3_f2_model()
        mu = twostep.FiniteMeasure.uniform(model, model.generators)
        profile = twostep.spectral_gap_profile(model, mu, horizon)
        rho = profile.rho if profile.rho is not None else float("nan")
        ok = profile.generating and math.isfinite(rho) and rho < 1.0
        cases.append({"group": "sl3-f2", "size": model.order,
                      "rho": rho, "oracle": "",
                      "final": profile.values[-1], "pass": bool(ok)})
    columns = ("group", "size", "rho", "oracle", "final", "pass")
    return cases, columns, None


def _run_star_verify(params, seed):
    """Cauchy/invariance/limit reports for sandwiched regular models.

    ``max_invariance`` is the largest invariance residual over n, which is
    the n = 1 one; every case's full `StarReport` (all Cauchy differences
    and residuals, the fit and its note) goes into the JSON
    ``diagnostics.starReports``, in case order.
    """
    cases = []
    reports = []
    for order in params["order"]:
        model = twostep.cyclic_model(order)
        rep = twostep.sandwich_twostep(model, model.left_regular_stack(),
                                       np.eye(order), np.eye(order))
        mu = twostep.FiniteMeasure.uniform(model, [1, order - 1])
        measures = twostep.convolution_powers(mu, params["horizon"])
        grid = [(1, order - 1), (2, 0)]
        report = twostep.verify_star_instance(rep, measures, grid)
        cases.append({
            "order": order,
            "fitted_c": report.fitted_C if report.fitted_C is not None else "",
            "fitted_t": report.fitted_t if report.fitted_t is not None else "",
            "max_invariance": max(report.invariance_residuals),
            "pass": bool(report.passed),
        })
        reports.append({"order": order, **report.to_json()})
    columns = ("order", "fitted_c", "fitted_t", "max_invariance", "pass")
    return cases, columns, {"starReports": reports}


def _run_cocycle_mc(params, seed):
    """Monte-Carlo growth constants, cusp decay and tail truncation."""
    samples, tol_kappa = params["samples"], params["tolkappa"]
    s, s0 = params["s"], params["s0"]
    if s <= 0:
        raise UsageError(f"cocycle-mc: --s must be positive, got {s!r}")
    if s0 >= 2.0:       # the domain integral of e^{s0 length} diverges
        raise UsageError(f"cocycle-mc: --s0 must be below 2, got {s0!r}")
    if s > s0 / 2.0 + 1e-12:    # the library's admissible range
        raise UsageError(f"cocycle-mc: --s0 must be at least 2s = {2 * s:g}, "
                         f"got {s0!r}")
    x, y, theta, lengths, _ = induction.sample_domain_arrays(samples, seed)
    head = min(200, samples)
    subset = induction.domain_matrices(x[:head], y[:head], theta[:head])

    g_samples = induction.random_group_elements(params["gcount"], seed + 1,
                                                max_length=params["glen"])
    stats = induction.cocycle_growth_check(g_samples, s, subset, s0=s0)

    # keep at least ~25 exceedances so the tail fit stays well-posed
    quantile = 1.0 - max(25.0, 0.02 * samples) / samples
    fit = induction.cusp_decay_fit(lengths, threshold_quantile=quantile)
    _, _, _, alt_lengths, _ = induction.sample_domain_arrays(samples, seed + 1000)
    fit_alt = induction.cusp_decay_fit(alt_lengths, threshold_quantile=quantile)
    rate_gap = abs(fit.rate - fit_alt.rate)
    rate_band = 3.0 * (fit.rate_stderr + fit_alt.rate_stderr)

    push_gs = induction.random_group_elements(8, seed + 2, max_length=1.0)
    m_tilde = [(g, 1.0 / len(push_gs)) for g in push_gs]
    pushed, push_fallbacks = induction.pushforward_mn0(m_tilde, 1.0 + 1e-6, subset)
    truncated, tail = induction.truncate_tail(pushed, params["radius"])
    tv = induction.total_variation(truncated, pushed)

    cases = [
        {"check": "growth-kappa", "value": stats.kappa, "bound": tol_kappa,
         "pass": bool(stats.kappa <= tol_kappa)},
        # a sample of trivial cocycles checks no growth
        {"check": "growth-ratio", "value": stats.c_emp, "bound": "",
         "pass": bool(math.isfinite(stats.c_emp) and stats.c_emp > 0
                      and stats.nontrivial > 0)},
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
                   "cuspFitAlt": fit_alt.to_json(),
                   "pushforwardExactFallbacks": push_fallbacks}
    return cases, ("check", "value", "bound", "pass"), diagnostics


def _write_sample_log(path, report, preamble):
    """The cocycle command logs its raw domain sample instead of its cases.

    The sample is a pure function of (samples, seed), so it is drawn again
    from the echoed configuration instead of travelling in the report.
    """
    seed = report.config["seed"]
    samples = int(report.config["grid"]["samples"][0])
    *columns, weights = induction.sample_domain_arrays(samples, seed)
    induction.write_sample_log(path, seed, columns, weights, preamble=preamble)


@dataclass(frozen=True)
class CommandSpec:
    runner: object
    keys: dict
    summary: str
    write_csv: object = _write_case_table


_SU2_MAX_TWO_J = 2000
_ZIGZAG_MAX_RADIUS = 1000.0
_KAK_MAX_ALPHA = 3.0
_MAX_TOL = 1e-6
_COCYCLE_MAX_SAMPLES = 10 ** 5
_COCYCLE_MAX_GCOUNT = 10 ** 3
_SPHERE_MAX_DEGREE = 10 ** 4
_KAK_MAX_COUNT = 10 ** 4
_KAK_MAX_RCOUNT = 200
_ZIGZAG_MAX_PAIRS = 200
_QUOTIENT_MAX_ORDER = 1024
_QUOTIENT_MAX_HORIZON = 10 ** 4
_STAR_MAX_ORDER = 64
_STAR_MAX_HORIZON = 100

# What every key accepts.  A count is at least 1, so that no axis value
# goes unchecked (kak's --count may be 0: its alphas still get their cases),
# and an order at least 3, since Z/1 and Z/2 have no lazy-walk gap.  The
# bounds with a reason of their own:
# - su2-gap --jmax (the largest 2j) stops at 2000: each d^j_mm(pi/2)
#   column starts at 2^-|m|, a normal double through 2|m| = 2044;
# - zigzag-cert --rmax lies in [1, 1000]: a walk takes about two steps per
#   unit of radius, so the cap bounds the step arrays;
# - cocycle-mc --samples starts at 50, where the cusp fit's threshold
#   quantile 1 - max(25, samples / 50) / samples reaches 1/2, and stops at
#   10^5: a run holds two draws of the sample as arrays, some 100 bytes a
#   sample (the log is written a block of rows at a time), and a
#   10^5-sample run takes under a second;
# - cocycle-mc --gcount stops at 10^3: the stacked cocycle pass holds 32
#   bytes of alpha for each of gcount x min(samples, 200) pairs, and a
#   10^3 run also takes under a second;
# - each other count stops where a run with every key at its cap takes
#   about a second; with no cap, each ran out of memory at a large value:
#   - sphere-gap --dmax at 10^4: the recurrence takes one step a degree and
#     holds its factors for every degree and dimension;
#   - kak --count at 10^4, one stacked KAK of that many elements, and
#     --rcount at 200, since each alpha bisects its whole r-grid at once;
#   - zigzag-cert --pairs at 200: each (s, L) block holds every pair's
#     walk, some 2 rmax steps (0.7 s and 70 MB at rmax = 1000, where 1000
#     pairs took 2.8 s and 196 MB);
#   - quotient-gap --order at 1024: the model holds the order^2
#     multiplication table and the profile takes one order^2 eigensolve
#     (0.24 s and 66 MB at 1024, 1.2 s and 136 MB at 2048), and --horizon
#     at 10^4, one profile value a step;
#   - star-verify --order at 64: the regular representation holds order^3
#     doubles, and the check holds three order^2 images a power; --horizon
#     at 100 powers;
# - su2-gap --qpoints has no effect: the gap is the exact circle average,
#   and no quadrature runs; the key and its floor of 64 stay because the
#   benchmark's light-sweeps workload passes --qpoints=128;
# - star-verify --horizon starts at the 2 measures one Cauchy difference
#   needs;
# - a tolerance (--tol, --tolkappa) lies in [0, 1e-6]: a negative one fails
#   every comparison and a large one passes every comparison.  The compared
#   norms, gaps and lengths are far above 1e-6 (an sdelta-decay bound is at
#   least 2^(-11/2)), the compared residuals far below it (near 1e-15);
# - kak --alpha lies in (0, 3]: the residual check is absolute at 1e-8 and
#   D_a k D_a has entries up to e^(4 alpha); its worst residual is 2e-10 at
#   alpha = 3 and 9e-9 at 4, rounding fails cases at 4.5, and 200 overflows;
# - sphere-gap --delta and cocycle-mc --radius: a latitude and a length.
# The runner checks a strict, joint or arithmetic rule before any work, in
# the same form: kak --alpha > 0; cocycle-mc 0 < s <= s0/2 (the growth
# check's admissible rates) and s0 < 2, because over F the integral of
# e^{s0 length} behaves like the integral of y^{s0/2 - 2} dy as y grows:
# from s0 = 2 on it diverges, and a sample reports a finite "estimate" of
# it, or inf once e^{s0 length} overflows; sdelta-decay --p prime, checked
# once the modulus bound has capped p.
COMMANDS = {
    "sdelta-decay": CommandSpec(
        _run_sdelta_decay,
        {"p": Key((2, 3), integer=True, low=2, axis=True),
         "n": Key((1, 2, 3), integer=True, low=1, axis=True),
         "tol": Key((1e-9,), low=0.0, high=_MAX_TOL)},
        "character-block norm decay on residue rings"),
    "sphere-gap": CommandSpec(
        _run_sphere_gap,
        {"n": Key((2,), integer=True, low=2, axis=True),
         "delta": Key(tuple(i / 100.0 for i in range(1, 100)), low=-1.0,
                      high=1.0, axis=True),
         "dmax": Key((200,), integer=True, low=1, high=_SPHERE_MAX_DEGREE),
         "tol": Key((1e-9,), low=0.0, high=_MAX_TOL)},
        "sphere averaging gap vs. Holder envelope"),
    "su2-gap": CommandSpec(
        _run_su2_gap,
        {"theta": Key((0.05, 0.2, 0.4, math.pi / 4, 1.0, 1.3, 2.0), axis=True),
         "jmax": Key((20,), integer=True, low=1, high=_SU2_MAX_TWO_J),
         "qpoints": Key((128,), integer=True, low=64),
         "tol": Key((1e-9,), low=0.0, high=_MAX_TOL)},
        "two-rotation gap vs. spin-1/2 branch"),
    "kak": CommandSpec(
        _run_kak,
        {"count": Key((20,), integer=True, low=0, high=_KAK_MAX_COUNT),
         "alpha": Key((0.5, 1.0, 2.0), low=0.0, high=_KAK_MAX_ALPHA,
                      axis=True),
         "rcount": Key((5,), integer=True, low=1, high=_KAK_MAX_RCOUNT),
         "tol": Key((1e-10,), low=0.0, high=_MAX_TOL)},
        "KAK round-trips and distortion bounds"),
    "zigzag-cert": CommandSpec(
        _run_zigzag_cert,
        {"s": Key((0.05, 0.1, 0.2), axis=True),
         "L": Key((1.0,), axis=True),
         "pairs": Key((12,), integer=True, low=1, high=_ZIGZAG_MAX_PAIRS),
         "rmax": Key((20.0,), low=1.0, high=_ZIGZAG_MAX_RADIUS)},
        "chamber-walk norm certificates"),
    "quotient-gap": CommandSpec(
        _run_quotient_gap,
        {"order": Key((3, 4, 5, 6, 8), integer=True, low=3,
                      high=_QUOTIENT_MAX_ORDER, axis=True),
         "horizon": Key((16,), integer=True, low=1,
                        high=_QUOTIENT_MAX_HORIZON),
         "sl3": Key((1,), integer=True, low=0, high=1)},
        "lazy-walk spectral gaps on finite quotients"),
    "star-verify": CommandSpec(
        _run_star_verify,
        {"order": Key((3, 5), integer=True, low=3, high=_STAR_MAX_ORDER,
                      axis=True),
         "horizon": Key((30,), integer=True, low=2, high=_STAR_MAX_HORIZON)},
        "sandwiched-representation convergence"),
    "cocycle-mc": CommandSpec(
        _run_cocycle_mc,
        {"samples": Key((2000,), integer=True, low=50,
                        high=_COCYCLE_MAX_SAMPLES),
         "gcount": Key((20,), integer=True, low=1, high=_COCYCLE_MAX_GCOUNT),
         "glen": Key((2.0,), low=0.0), "s": Key((0.2,), low=0.0),
         "s0": Key((1.0,), low=0.0), "radius": Key((2.5,), low=0.0),
         "tolkappa": Key((1e-9,), low=0.0, high=_MAX_TOL)},
        "cocycle growth / cusp decay Monte-Carlo", _write_sample_log),
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
            seed = value
        else:
            overrides[key] = value
    return command, config_path, out_path, seed, overrides


def _finite_or_null(value):
    """``value`` with every non-finite float in it, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _report_json(doc):
    """The report as strict JSON: NaN and Infinity are no JSON tokens, so a
    report that holds them (its cases fail) is dumped again with null in
    their place; a finite report is dumped once."""
    # indent would force the pure-Python encoder
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError:
        return json.dumps(_finite_or_null(doc), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)


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
        grid = {} if config_path is None else load_config_file(config_path)
        file_out, file_seed = grid.pop("out", None), grid.pop("seed", 0)
        config = ExperimentConfig(
            command, {**grid, **overrides},
            out_path=file_out if out_path is None else out_path,
            seed=file_seed if seed is None else seed)
        report = run(command, config)
        target = config.out_path or f"{command}.csv"
        write_report_csv(target, report)
        print(_report_json(report.to_json()))
        return 0 if report.all_passed else 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
