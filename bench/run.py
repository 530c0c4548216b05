"""Run one raf-lab benchmark workload and print its metrics.

    python3 bench/run.py --workload ingham-1e6 --seed 1 --seconds 30 --trace 0

Run from the root of a raf-lab checkout: the package is imported from
``src/`` there and nowhere else.  The run

1. starts a fresh interpreter several times; each times its own set-up
   (``import raflab.cli`` with numpy, plus input generation) and prints it,
   and the median is kept;
2. repeats the workload's jobs in this one process until ``--seconds`` have
   passed, timing every job, and keeps medians across the passes;
3. checks the first pass's outputs by independent routes, outside every
   timed region;
4. with ``--trace 1``, spends the second half of the time on traced passes
   and reports the per-layer table instead of the end-to-end metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (environment,
seeded inputs, per-job times, failed checks) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``; traced runs also write
their spans next to it.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
SETUP_REPEATS = 9

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("slowest_job_s", "s"),
    ("coeffs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no raflab sources, a set-up probe failed)."""


def import_raflab():
    """Import raflab from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "raflab", "__init__.py")):
        raise BenchError("no raflab sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import raflab
    import raflab.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(raflab.__file__))) != SRC:
        raise BenchError("raflab imported from %s, not %s" % (raflab.__file__, SRC))
    # the package re-exports functions under module names (raflab.sieve is the
    # function), so take the modules from sys.modules
    return types.SimpleNamespace(**{
        name: sys.modules["raflab." + name]
        for name in ("cli", "solver", "sieve", "kernels", "mellin", "asymptotics", "counting")})


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def blas_threads():
    """OpenBLAS's thread count, read from the loaded library; None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        import mpmath

        mp_version = mpmath.__version__
    except ImportError:
        mp_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mp_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list:
    """Set-up times of SETUP_REPEATS fresh interpreters, as each probe measured
    and printed it: interpreter start-up and the harness's own imports are
    left out."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed: %s" % proc.stderr)
        times.append(float(proc.stdout.split()[-1]))
    return times


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import raflab.cli (with numpy) and generate the inputs."""
    t0 = time.perf_counter()
    import_raflab()
    import workloads

    workloads.build(workload, seed, TMP_DIR)
    return time.perf_counter() - t0


def run_pass(w, mods, keep: bool, recorder=None):
    """Run every job once; return the per-job seconds and, if keep, the outputs.

    With a span recorder, each job's spans are labelled with the job's name.
    """
    from workloads import JobOutput

    if w.cache_path and os.path.exists(w.cache_path):
        os.remove(w.cache_path)
    gc.collect()
    times, outs = [], {}
    for job in w.jobs:
        out = JobOutput()
        buf = io.StringIO()
        if recorder is not None:
            recorder.job = job.name
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                if job.argv is not None:
                    out.rc = mods.cli.main(job.argv)
                else:
                    out.value = job.call(mods)
        except Exception as exc:  # a job that raises fails all of its checks
            out.error = "%s: %s" % (type(exc).__name__, exc)
        times.append(time.perf_counter() - t0)
        out.stdout = buf.getvalue()
        if keep:
            outs[job.name] = out
    return times, outs


def repeat(run_once, budget: float) -> list:
    """Results of run_once(), repeated while the next run is expected to end in budget.

    At least one run is made.  The expected length of the next run is the
    length of the last one.
    """
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_once())
        now = time.perf_counter()
        if now - start + (now - t0) > budget:
            return results


def run_checks(w, outs):
    """All check items.  A failed job fails all of its declared checks, and
    counts as one failed item if it declares none."""
    items = []
    for job in w.jobs:
        out = outs[job.name]
        if out.failed:
            why = out.error or "exit code %s" % out.rc
            got = [(job.name, False, why, False)] * max(job.n_checks, 1)
        else:
            try:
                got = job.check(out, outs)
            except Exception as exc:
                got = [(job.name, False, "check raised %s: %s" % (type(exc).__name__, exc),
                        False)] * job.n_checks
            if len(got) != job.n_checks:
                raise RuntimeError("job %r produced %d check items, declared %d"
                                   % (job.name, len(got), job.n_checks))
        items.extend((job.name,) + tuple(it) for it in got)
    return items


def end_to_end(w, passes, setup_times, rss_kb) -> dict:
    """The end-to-end metrics from per-pass job times (one list per pass)."""
    per_job = [statistics.median(p[j] for p in passes) for j in range(len(w.jobs))]
    solving = [j for j, job in enumerate(w.jobs) if job.coeffs]
    coeffs = sum(w.jobs[j].coeffs for j in solving)
    return {
        "wall_s": statistics.median(sum(p) for p in passes),
        "setup_s": statistics.median(setup_times),
        "slowest_job_s": max(per_job),
        "coeffs_per_s": coeffs / sum(per_job[j] for j in solving),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate inputs, then exit (the set-up probe)")
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.setup_only:
        print(setup_probe(args.workload, args.seed))
        return 0
    import workloads
    import spans as spanlib

    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))

    try:
        if not os.path.isfile(os.path.join(SRC, "raflab", "__init__.py")):
            raise BenchError("no raflab sources under %s" % SRC)
        setup_times = measure_setup(args.workload, args.seed)
        mods = import_raflab()
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    os.makedirs(TMP_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_DIR)
    try:
        w = workloads.build(args.workload, args.seed, tmp)
        if len({j.name for j in w.jobs}) != len(w.jobs):
            raise RuntimeError("job names are not unique")
        first = []

        def untraced():
            times, outs = run_pass(w, mods, keep=not first)
            if not first:
                first.append((outs, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
            return times

        t_start = time.perf_counter()
        passes = repeat(untraced, args.seconds / 2 if args.trace else args.seconds)
        first_outs, rss_kb = first[0]
        traced, recorder = [], None
        if args.trace:
            recorder = spanlib.SpanRecorder()
            recorder.install(vars(mods))
            try:
                traced = repeat(lambda: run_pass(w, mods, keep=False, recorder=recorder)[0],
                                args.seconds - (time.perf_counter() - t_start))
            finally:
                recorder.restore()
        items = run_checks(w, first_outs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(items)
    unexpected = [it for it in items if not it[2] and not it[4]]
    known = [it for it in items if not it[2] and it[4]]
    failed_frac = (len(unexpected) + len(known)) / attempted if attempted else 0.0

    e2e = end_to_end(w, passes, setup_times, rss_kb)
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    layer = None
    if args.trace:
        traced_wall = statistics.median(sum(p) for p in traced)
        layer = spanlib.per_layer(recorder.spans, len(traced))
        layer["trace.overhead_frac"] = {
            "value": (traced_wall - e2e["wall_s"]) / e2e["wall_s"], "unit": "ratio"}
        layer["failed_frac"] = {"value": failed_frac, "unit": "ratio"}
        metrics = layer

    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "env": environment(args.seed), "inputs": w.inputs,
        "passes": len(passes), "traced_passes": len(traced),
        "setup_s": setup_times,
        "jobs": [{"name": job.name, "coeffs": job.coeffs, "checks": job.n_checks,
                  "seconds": [p[j] for p in passes],
                  "traced_seconds": [p[j] for p in traced]}
                 for j, job in enumerate(w.jobs)],
        "checks": {"attempted": attempted, "failed": len(unexpected),
                   "known_defect": len(known), "failed_frac": failed_frac,
                   "failures": [list(it) for it in unexpected + known]},
        "end_to_end": e2e, "per_layer": layer,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if recorder is not None:
        recorder.write(stem + ".spans.jsonl")

    _report(record, args, metrics)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


def _report(record, args, metrics) -> None:
    env = record["env"]
    print("workload %s  seed %d  passes %d (+%d traced)  python %s  numpy %s  nproc %s  "
          "blas_threads %s  commit %s" % (
              record["workload"], record["seed"], record["passes"], record["traced_passes"],
              env["python"], env["numpy"], env["nproc"], env["blas_threads"], env["git_commit"]))
    inputs = dict(record["inputs"])
    if "zeta_points" in inputs:
        inputs["zeta_points"] = "%d points, listed in the record" % len(inputs["zeta_points"])
    print("inputs " + json.dumps(inputs, separators=(",", ":")))
    for job in record["jobs"]:
        print("  job %8.3f s  %s" % (statistics.median(job["seconds"]), job["name"]))
    c = record["checks"]
    print("checked outputs: attempted %d, failed %d, known zeta defect %d, failed_frac %.6g"
          % (c["attempted"], c["failed"], c["known_defect"], c["failed_frac"]))
    for fail in c["failures"][:10]:
        print("  FAIL %s | %s | %s%s" % (fail[0], fail[1], fail[3], " (known defect)" if fail[4] else ""))
    if len(c["failures"]) > 10:
        print("  ... %d more failures in %s" % (len(c["failures"]) - 10, ".bench_out/"))
    for name, unit in END_TO_END:
        print("%-16s %14.6g %s" % (name, record["end_to_end"][name], unit))
    if args.trace:
        for name, m in metrics.items():
            print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))


if __name__ == "__main__":
    sys.exit(main())
