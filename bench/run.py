"""gaplab benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports gaplab from ``src/``.
Each run is a closed loop in one process: the workload's passes run one
after another, each on inputs drawn from its own seed, after one untimed
warm-up pass on yet another seed.  BLAS keeps its default thread count.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median wall time of ``import gaplab.cli`` in a fresh
  interpreter, over several interpreters;
* ``sweep_s``: median wall time of one timed pass;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (see tracing.py), the warm-up time,
and the tracing overhead: the traced median pass time over the untraced one,
minus one.  Spans are written to ``.bench_out/``.

Every pass checks its outputs; cases that fail, are skipped, raise or go
missing count into ``failed``, out of ``attempted``.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
MIN_PASSES = 3            # untraced run
MIN_PASSES_EACH = 2       # traced run: at least this many of each kind
MAX_PASSES = 99           # keeps pass seeds apart (see pass_seed)

IMPORT_PROBE = ("import time; t = time.perf_counter(); import gaplab.cli; "
                "print(repr(time.perf_counter() - t))")

PER_LAYER = [
    ("induction.cocycle.calls", "count"),
    ("induction.cocycle.self_s", "s"),
    ("induction.cocycle.us_per_call", "us"),
    ("induction.sample_domain.points", "count"),
    ("induction.sample_domain.self_s", "s"),
    ("induction.cocycle_growth_check.self_s", "s"),
    ("induction.pushforward_mn0.self_s", "s"),
    ("induction.cusp_decay_fit.self_s", "s"),
    ("induction.write_sample_log.self_s", "s"),
    ("finite_models.operator_norm.exact-decomposition.calls", "count"),
    ("finite_models.operator_norm.exact-decomposition.self_s", "s"),
    ("finite_models.operator_norm.power-iteration.calls", "count"),
    ("finite_models.operator_norm.power-iteration.self_s", "s"),
    ("finite_models.operator_norm.power-iteration.iterations", "count"),
    ("finite_models.StampOperator.apply.calls", "count"),
    ("finite_models.StampOperator.apply.self_s", "s"),
    ("finite_models.StampOperator.apply.elements", "count"),
    ("finite_models.StampOperator.adjoint_apply.calls", "count"),
    ("finite_models.StampOperator.adjoint_apply.self_s", "s"),
    ("finite_models.StampOperator.adjoint_apply.elements", "count"),
    ("finite_models.stamp_s_chi.self_s", "s"),
    ("residue.char_eval.calls", "count"),
    ("residue.char_eval.self_s", "s"),
    ("spheres.tdelta_gap_report.calls", "count"),
    ("spheres.tdelta_gap_report.self_s", "s"),
    ("spheres.stheta_norm_gap.calls", "count"),
    ("spheres.stheta_norm_gap.self_s", "s"),
    ("spheres.spin_matrix.calls", "count"),
    ("spheres.spin_matrix.self_s", "s"),
    ("cartan.kak_real.calls", "count"),
    ("cartan.kak_real.self_s", "s"),
    ("cartan.solve_sphere_distortion.calls", "count"),
    ("cartan.solve_sphere_distortion.self_s", "s"),
    ("cartan.distorted_length.calls", "count"),
    ("zigzag.zigzag_certificate.calls", "count"),
    ("zigzag.zigzag_certificate.self_s", "s"),
    ("zigzag.revalidate_certificate.calls", "count"),
    ("zigzag.revalidate_certificate.self_s", "s"),
    ("zigzag.steps", "count"),
    ("twostep.spectral_gap_profile.self_s", "s"),
    ("twostep.verify_star_instance.self_s", "s"),
    ("twostep.convolution_powers.self_s", "s"),
    ("twostep.sandwich_twostep.self_s", "s"),
    ("twostep.cyclic_model.self_s", "s"),
    ("twostep.sl3_f2_model.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.write_report_csv.self_s", "s"),
    ("cli.write_report_csv.bytes", "bytes"),
    ("bench.warmup_s", "s"),
    ("bench.trace_overhead", "ratio"),
]


def pass_seed(seed, k):
    """Seed of pass k (0 is the warm-up).  Commands also draw from a few
    offsets of their seed (cocycle-mc uses +1, +2 and +1000), so passes sit
    10 000 apart and runs with different seeds 1 000 000 apart."""
    return seed * 1_000_000 + k * 10_000


def measure_setup():
    """Median import time of gaplab.cli over fresh interpreters.

    The interpreters keep their bytecode under .bench_out/pycache, whatever
    the caller's environment says about bytecode, so the timed ones load
    compiled bytecode and nothing is written outside the checkout.  The
    first interpreter only fills that cache.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def _git_commit():
    """The checkout's commit; None outside a git checkout (git itself would
    search the parent directories for one)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment(workload, seed):
    """Versions, commit, cores, seed, and the BLAS libraries mapped into
    this process with its thread count."""
    import numpy
    import scipy
    import gaplab
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            blas = sorted({os.path.basename(line.split()[-1]) for line in fh
                           if "blas" in line.lower() or "lapack" in line.lower()})
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        blas, threads = [], None
    return {
        "workload": workload, "seed": seed, "commit": _git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "gaplab": gaplab.__version__,
        "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
        "blas_libraries": blas, "threads": threads,
    }


def run_pass(prepare, seed, k, out_dir, tracer=None):
    """One pass; returns (seconds, attempted, failed).  An exception from the
    workload fails every case the pass owed."""
    call, check, expected = prepare(pass_seed(seed, k), out_dir)
    gc.collect()               # start each pass from the same heap state
    scope = contextlib.nullcontext()
    if tracer is not None:
        tracer.pass_index = k
        scope = tracer.installed()
    failed = None
    with scope:
        start = time.perf_counter()
        try:
            result = call()
        except Exception:              # a failing pass, not a failing run
            traceback.print_exc()
            failed = expected
        seconds = time.perf_counter() - start
    if failed is None:
        failed = min(expected, check(result))
    return seconds, expected, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "gaplab", "cli.py")):
        print(f"error: no gaplab sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import gaplab
    if not os.path.abspath(gaplab.__file__).startswith(SRC + os.sep):
        print(f"error: imported gaplab from {gaplab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     + ", ".join(workloads.WORKLOADS))
    prepare = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup()
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    warmup_s, attempted, failed = run_pass(prepare, args.seed, 0, out_dir)
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"pass 0 warm-up {warmup_s:.4f} s  failed {failed}/{attempted}")

    plain, traced = [], []     # (pass index, seconds)
    deadline = time.perf_counter() + args.seconds
    for k in range(1, MAX_PASSES + 1):
        with_trace = bool(args.trace) and k % 2 == 0
        seconds, a, f = run_pass(prepare, args.seed, k, out_dir,
                                 tracer if with_trace else None)
        attempted += a
        failed += f
        (traced if with_trace else plain).append((k, seconds))
        print(f"pass {k}{' traced' if with_trace else ''} {seconds:.4f} s  "
              f"failed {f}/{a}")
        if time.perf_counter() < deadline:
            continue
        if args.trace:
            if min(len(plain), len(traced)) >= MIN_PASSES_EACH:
                break
        elif len(plain) >= MIN_PASSES:
            break

    if args.trace:
        sweep = statistics.median(s for _, s in plain)
        sweep_traced = statistics.median(s for _, s in traced)
        totals = tracing.median_totals(tracer, [k for k, _ in traced])
        extra = {"bench.warmup_s": warmup_s,
                 "bench.trace_overhead": sweep_traced / sweep - 1.0,
                 "zigzag.steps": totals.get("zigzag.zigzag_certificate",
                                            {}).get("steps", 0)}
        metrics = {}
        for name, unit in PER_LAYER:
            if name in extra:
                value = extra[name]
            else:
                span, quantity = name.rsplit(".", 1)
                value = totals.get(span, {}).get(quantity, 0)
            metrics[name] = {"value": value, "unit": unit}
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_jsonl(path, {"env": env, "plain": plain, "traced": traced})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "sweep_s": {"value": statistics.median(s for _, s in plain),
                        "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_share {failed / attempted!r} ({failed} of {attempted} cases)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
