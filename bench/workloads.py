"""The four benchmark workloads.

Each workload is a function ``prepare(seed, out_dir)`` that builds one pass's
inputs from ``seed`` outside the timed region and returns
``(call, check, expected)``: ``call()`` does the pass's work through
gaplab's public API and returns what the work produced, ``expected`` is the
number of cases the pass owes, and ``check(result)`` counts how many of them
failed, were skipped, raised or went missing.

Library functions are always reached through their module attribute
(``induction.cocycle``, never a ``from`` import), so that the tracer's
wrappers see every call.

Every command-line key is given explicitly, so a later change to a
command's defaults does not change the work a pass does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from gaplab import cli, finite_models, induction, residue, spheres


# ---------------------------------------------------------------------------
# driver commands


def _run_command(argv):
    """``cli.main`` in-process, with its stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_command(result, expected):
    """Failed cases of a command that owes ``expected`` cases; it must also
    exit 0, report ``failed == 0`` and list exactly that many cases."""
    code, stdout, _ = result
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return expected
    cases = report.get("cases", [])
    failed = sum(1 for case in cases[:expected] if not case.get("pass"))
    failed += max(0, expected - len(cases))
    if code != 0 or report.get("failed") != 0 or len(cases) != expected:
        failed = max(failed, 1)
    return failed


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def _ints(values):
    return ",".join(str(int(v)) for v in values)


def cocycle_mc(seed, out_dir):
    """``gaplab cocycle-mc`` at 20 000 samples: batch-shaped cocycle work.

    The runner also draws with seed+1, seed+2 and seed+1000, so pass seeds
    are spaced far enough apart that no two passes share a draw.
    """
    path = os.path.join(out_dir, "cocycle-mc.csv")
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)        # a pass that writes nothing must not pass
    samples = 20000
    argv = ["cocycle-mc", f"--samples={samples}", "--gcount=40", "--glen=2.0",
            "--s=0.2", "--s0=1.0", "--radius=2.5", "--tolkappa=1e-9",
            f"--seed={seed}", "--out", path]

    def check(result):
        # six checks in the report, and the sample log, which is the
        # command's CSV: two comment lines, a header and a row per sample
        try:
            with open(path, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 3
        except FileNotFoundError:
            rows = 0
        return _check_command(result, 6) + (rows != samples)

    return (lambda: _run_command(argv)), check, 7


def light_sweeps(seed, out_dir):
    """Six cheap driver commands: many small calls into spheres, cartan,
    zigzag and twostep, plus driver and CSV overhead.

    Grid points that the commands do not draw from ``--seed`` are jittered
    from the workload seed; quotient-gap and star-verify have no continuous
    parameter, so their order lists are shuffled instead.  su2-gap stays at
    jmax=40 and star-verify at odd orders because of the defects listed in
    bench/README.md.

    su2-gap's spin tables are cached by spin alone; the cache is emptied
    here so that every pass builds them, as each gaplab invocation does.
    """
    spheres._spin_tables.cache_clear()
    rng = np.random.default_rng([seed, 1])
    deltas = (np.arange(99) + rng.random(99)) / 100.0
    thetas = rng.uniform(0.0, math.pi, 30)
    alphas = rng.uniform(0.5, 2.0, 3)
    orders = rng.permutation(np.arange(3, 65))
    odd_orders = rng.permutation(np.arange(3, 32, 2))
    path = os.path.join(out_dir, "light-sweeps.csv")
    commands = [
        (["sphere-gap", "--n=2,3,5", f"--delta={_floats(deltas)}",
          "--dmax=2000", "--tol=1e-9"], 3 * 99),
        (["su2-gap", f"--theta={_floats(thetas)}", "--jmax=40",
          "--qpoints=128", "--tol=1e-9"], 30),
        (["kak", "--count=2000", "--rcount=20", f"--alpha={_floats(alphas)}",
          "--tol=1e-10", f"--seed={seed}"], 2000 + 3 * 20),
        (["zigzag-cert", "--pairs=200", "--L=1,10", "--s=0.05,0.1,0.2",
          "--rmax=20", f"--seed={seed}"], 3 * 2 * 200),
        (["quotient-gap", f"--order={_ints(orders)}", "--horizon=32",
          "--sl3=1"], len(orders) + 1),
        (["star-verify", f"--order={_ints(odd_orders)}", "--horizon=30"],
         len(odd_orders)),
    ]

    def call():
        return [_run_command(argv + ["--out", path]) for argv, _ in commands]

    def check(results):
        return sum(_check_command(result, expected)
                   for result, (_, expected) in zip(results, commands))

    return call, check, sum(expected for _, expected in commands)


# ---------------------------------------------------------------------------
# library sweeps


_S = np.array([[0, -1], [1, 0]], dtype=np.int64)
_T = np.array([[1, 1], [0, 1]], dtype=np.int64)
_T_INV = np.array([[1, -1], [0, 1]], dtype=np.int64)


def _canonical(entries):
    """The sign of a +-pair of integer matrices whose first nonzero entry is
    positive (the library's convention for the cocycle's integer part)."""
    entries = tuple(int(v) for v in entries)
    first = next(v for v in entries if v)
    return entries if first > 0 else tuple(-v for v in entries)


def cocycle_chain(seed, out_dir):
    """2000 exact checks of alpha(g1 g2, w) = alpha(g1, g2.w) alpha(g2, w).

    Each triple makes three scalar cocycle calls, one of them on another's
    output, so the calls cannot be batched.  Words in S, T, T^-1 come from a
    seeded pool of 200, and w from a seeded domain sample.
    """
    triples = 2000
    rng = np.random.default_rng([seed, 2])
    pool = []
    for _ in range(200):
        g = np.eye(2, dtype=np.int64)
        for _ in range(int(rng.integers(1, 7))):
            g = g @ (_S, _T, _T_INV)[int(rng.integers(3))]
        pool.append(g)
    points, _ = induction.sample_domain(triples, seed)
    work = [(pool[int(rng.integers(200))], pool[int(rng.integers(200))], om)
            for om in points]

    def call():
        out = []
        for g1, g2, om in work:
            try:
                r2 = induction.cocycle(g2.astype(float), om)
                r1 = induction.cocycle(g1.astype(float), r2.g_dot_omega)
                r12 = induction.cocycle((g1 @ g2).astype(float), om)
            except (ValueError, ArithmeticError, RuntimeError):
                out.append(None)
                continue
            out.append((r1.alpha, r2.alpha, r12.alpha))
        return out

    def check(results):
        failed = triples - len(results)
        for item in results:
            if item is None:
                failed += 1
                continue
            a1, a2, a12 = item
            prod = np.array(a1, dtype=object) @ np.array(a2, dtype=object)
            if _canonical(prod.ravel()) != tuple(int(v) for v in a12.ravel()):
                failed += 1
        return failed

    return call, check, triples


def _residue_grid():
    """Every (p, n, h) with p in {2, 3, 5, 7}, p^n <= 343 and 1 <= h <= n."""
    grid = []
    for p in (2, 3, 5, 7):
        n = 1
        while p ** n <= 343:
            grid.extend((p, n, h) for h in range(1, n + 1))
            n += 1
    return grid


RESIDUE_GRID = _residue_grid()                 # 63 cases
POWER_LIMIT = 128                              # cross-check where p^n <= 128


def residue_sweep(seed, out_dir):
    """The sdelta-decay runner's per-case calls over p^n <= 343, checked
    against the exact block law, with a matrix-free power-iteration
    cross-check where p^n <= 128.

    Case (p, n, h) takes the norms of the characters of index +-u p^(h-1)
    for a seeded unit u.  Both have valuation h-1, so both norms are
    p^(-(n-h+1)/2).  The exact-decomposition method takes an SVD of every
    block before the one that carries the norm, and the two indices put
    that block at positions c and m - c, so the pair costs the same for
    every u: a pass does the same work whatever the seed.  The power
    iteration runs on the +u index only.
    """
    rng = np.random.default_rng([seed, 3])
    work = []
    for p, n, h in RESIDUE_GRID:
        m = p ** n
        u = int(rng.integers(1, m))
        while u % p == 0:
            u = int(rng.integers(1, m))
        law = p ** (-(n - h + 1) / 2.0)
        power_seed = int(rng.integers(2 ** 31)) if m <= POWER_LIMIT else None
        work.append((p, n, u * p ** (h - 1) % m, law, power_seed))
        work.append((p, n, -u * p ** (h - 1) % m, law, None))

    def call():
        out = []
        for p, n, index, law, power_seed in work:
            ring = residue.ResidueRing(p, n)
            op = finite_models.stamp_s_chi(ring, ring.character(index))
            reports = [finite_models.operator_norm(op)]
            if power_seed is not None:
                reports.append(finite_models.operator_norm(
                    op, method="power-iteration", seed=power_seed))
            out.append((law, reports))
        return out

    expected = len(work) + sum(item[-1] is not None for item in work)

    def check(results):
        reports = [(law, rep) for law, reps in results for rep in reps]
        failed = sum(1 for law, rep in reports
                     if not (rep.converged and abs(rep.value - law) <= 1e-9))
        return failed + expected - len(reports)

    return call, check, expected


WORKLOADS = {
    "cocycle-mc": cocycle_mc,
    "cocycle-chain": cocycle_chain,
    "residue-sweep": residue_sweep,
    "light-sweeps": light_sweeps,
}
