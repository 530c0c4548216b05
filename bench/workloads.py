"""The three workloads: seeded inputs, the jobs that run them, and their checks.

A job is one user command, run in-process as ``raflab.cli.main(argv)``, or a
direct call to a public function where no command exists.  The seed moves
beta, z and the counting n only inside the documented ranges; every N is
fixed, so the work in a pass does not depend on the seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import numpy as np

import checks as C

WORKLOADS = ("ingham-1e6", "generic-2e4", "identities")
RESIDUAL_SAMPLES = 16


@dataclass
class JobOutput:
    rc: Optional[int] = None      # exit code of a CLI job
    stdout: str = ""
    value: object = None          # return value of a library call
    error: Optional[str] = None   # exception raised by the job

    @property
    def failed(self) -> bool:
        return self.error is not None or (self.rc is not None and self.rc != 0)


@dataclass
class Job:
    name: str
    argv: Optional[List[str]] = None
    call: Optional[Callable] = None          # call(modules) for a library job
    coeffs: int = 0                          # sum of N over the sequences it solves
    n_checks: int = 0
    check: Optional[Callable] = None         # check(out, outs) -> list of items


@dataclass
class Workload:
    name: str
    seed: int
    inputs: Dict[str, object]
    jobs: List[Job] = field(default_factory=list)
    cache_path: Optional[str] = None         # sieve cache removed before each pass


def _rng(name: str, seed: int) -> random.Random:
    return random.Random("%s/%d" % (name, seed))


def _fmt(x: float) -> str:
    return "%.4f" % x


def _samples(rng: random.Random, limit: int, count: int = RESIDUAL_SAMPLES) -> List[int]:
    """`count` distinct n in [2, limit], log-uniform, always including limit."""
    out = {limit}
    while len(out) < count:
        out.add(int(round(math.exp(rng.uniform(math.log(2), math.log(limit))))))
    return sorted(out)


def _cli(argv, **kw) -> Job:
    return Job(name=" ".join(argv[:1] + [a for a in argv[1:] if os.sep not in a]), argv=argv, **kw)


def build(name: str, seed: int, tmp: str) -> Workload:
    """The workload `name` for `seed`, with outputs written under `tmp`."""
    builders = {"ingham-1e6": _ingham, "generic-2e4": _generic, "identities": _identities}
    if name not in builders:
        raise ValueError("unknown workload %r (choose from %s)" % (name, ", ".join(WORKLOADS)))
    return builders[name](seed, tmp)


# ---------------------------------------------------------------------------
# ingham-1e6: the float divisor path and the CLI output path at N = 10^6
# ---------------------------------------------------------------------------

INGHAM_N = 1_000_000
SCAN_GRID = (-1.0, -0.5, 0.25, 0.75, 1.25, 2.0)


def _ingham(seed: int, tmp: str) -> Workload:
    rng = _rng("ingham-1e6", seed)
    N = INGHAM_N
    scan_betas = [round(g + rng.uniform(-0.05, 0.05), 4) for g in SCAN_GRID]
    solve_beta = round(rng.uniform(0.1, 1.2), 4)
    l0_beta = round(rng.uniform(0.1, 1.2), 4)
    samples = _samples(rng, N)
    delta_samples = _samples(rng, N)
    csv_path = os.path.join(tmp, "solve_power.csv")
    inputs = {"n": N, "scan_betas": scan_betas, "solve_beta": solve_beta,
              "l0pow_beta": l0_beta, "residual_n": samples, "delta_n": delta_samples}
    w = Workload("ingham-1e6", seed, inputs)

    for i, b in enumerate(scan_betas):
        w.jobs.append(_cli(
            ["scan", "--kernel", "ingham", "--n", str(N), "--betas", _fmt(b),
             "--out", os.path.join(tmp, "scan%d.csv" % i), "--json"],
            coeffs=N, n_checks=2, check=_regime_check(b)))

    csv_values = []  # the CSV parsed once, shared by the two checks that read it

    def solve_csv():
        if not csv_values:
            csv_values.append(C.read_coeff_csv(csv_path))
        return csv_values[0]

    def check_solve(out, outs):
        a = solve_csv()
        head = C.last_json(out.stdout)["a_head"]
        items = [C.item("csv rows = N", len(a) == N + 1, "rows=%d" % (len(a) - 1)),
                 C.item("a_head = csv", head == [float(x) for x in a[1:11]])]
        return items + C.residual_items(a, samples, solve_beta)

    w.jobs.append(_cli(
        ["solve", "--kernel", "ingham", "--rhs", "power:" + _fmt(solve_beta), "--n", str(N),
         "--out", csv_path, "--json"],
        coeffs=N, n_checks=2 + len(samples), check=check_solve))

    def check_delta_head(out, outs):
        head = C.last_json(out.stdout)["a_head"]
        return [C.item("delta n*a_n n=%d" % n, abs(n * a - C.delta_nan(n)) <= 1e-12)
                for n, a in enumerate(head, start=1)]

    w.jobs.append(_cli(["solve", "--rhs", "delta", "--n", str(N), "--json"],
                       coeffs=N, n_checks=10, check=check_delta_head))

    def check_l0pow_head(out, outs):
        head = C.last_json(out.stdout)["a_head"]
        rn = [0.0] + [n ** -l0_beta * C.three_smooth_count(n) for n in range(1, 11)]
        ref = C.small_ingham_solve(rn, 10)
        return [C.item("l0pow a_%d" % n, abs(a - ref[n]) <= 1e-12 * max(1.0, abs(ref[n])))
                for n, a in enumerate(head, start=1)]

    w.jobs.append(_cli(["solve", "--rhs", "l0pow:" + _fmt(l0_beta), "--n", str(N), "--json"],
                       coeffs=N, n_checks=10, check=check_l0pow_head))

    def check_hlr(out, outs):
        rep = C.last_json(out.stdout)
        return [C.item("hlr sup = 1", abs(rep["sup_abs"] - 1.0) <= 1e-9, "%r" % rep["sup_abs"]),
                C.item("hlr tail mean = -1", abs(rep["prime_tail_mean"] + 1.0) <= 1e-9,
                       "%r" % rep["prime_tail_mean"])]

    w.jobs.append(_cli(["hlr", "--beta", "1", "--n", str(N), "--json"],
                       coeffs=N, n_checks=2, check=check_hlr))

    def closed(m):
        return m.solver.ingham_coeff_closed(m.sieve.sieve(N), solve_beta, N)

    def check_closed(out, outs):
        nan = solve_csv() * np.arange(N + 1, dtype=np.float64)
        got = np.asarray(out.value)
        err = np.abs(got[1:] - nan[1:]) / np.maximum(1.0, np.abs(nan[1:]))
        return [C.item("closed form = solve", len(got) == N + 1 and float(err.max()) <= 1e-9,
                       "max rel err %.3g" % float(err.max()))]

    w.jobs.append(Job("ingham_coeff_closed", call=closed, coeffs=N, n_checks=1,
                      check=check_closed))

    def delta_verify(m):
        coeffs = m.solver.solve(m.kernels.Ingham(), m.solver.RhsSpec("delta"), N)
        return coeffs.values, m.solver.verify_residuals(coeffs)

    def check_delta_verify(out, outs):
        values, worst = out.value
        items = [C.item("verify_residuals <= 1", worst <= 1.0, "worst=%.3g" % worst)]
        items += [C.item("delta n*a_n n=%d" % n, abs(n * values[n] - C.delta_nan(n)) <= 1e-9)
                  for n in delta_samples]
        return items

    w.jobs.append(Job("solve delta + verify_residuals", call=delta_verify, coeffs=N,
                      n_checks=1 + len(delta_samples), check=check_delta_verify))
    return w


def _regime_check(beta: float):
    """The criterion-09 rule: match for beta <= 0.3, slope <= -0.35 for beta >= 0.75."""

    def check(out, outs):
        rows = C.last_json(out.stdout)
        ok_shape = len(rows) == 1 and abs(float(rows[0]["beta"]) - beta) < 1e-9
        row = rows[0]
        if beta <= 0.3:
            rule = C.item("regime match beta=%g" % beta, row["verdict"] == "asymptotic_match",
                          row["verdict"])
        else:
            rule = C.item("decay beta=%g" % beta, float(row["slope"]) <= -0.35, row["slope"])
        return [C.item("one row at beta", ok_shape), rule]

    return check


# ---------------------------------------------------------------------------
# generic-2e4: the O(N^2) forward substitution
# ---------------------------------------------------------------------------

GENERIC_SOLVES = (
    ("affine:0.5", 20_000),
    ("log:0.5", 20_000),
    ("disc:2", 20_000),
    ("ratraf:1,2", 20_000),
    ("genin:1,-1", 600),
    ("scaled:ingham:pow:0.5", 1_500),
    ("scaled:ingham:exp:2", 400),
)
DISC_SCAN_N = 10_000


def _generic(seed: int, tmp: str) -> Workload:
    rng = _rng("generic-2e4", seed)
    betas = [round(rng.uniform(0.1, 1.2), 4) for _ in GENERIC_SOLVES]
    samples = [_samples(rng, n) for _, n in GENERIC_SOLVES]
    lo = round(rng.uniform(0.1, 0.5), 4)
    step = round(rng.uniform(0.2, 0.35), 4)
    scan_betas = [lo, round(lo + step, 4), round(lo + 2 * step, 4)]
    inputs = {"solves": [{"kernel": k, "n": n, "beta": b, "residual_n": s}
                         for (k, n), b, s in zip(GENERIC_SOLVES, betas, samples)],
              "disc_scan": {"n": DISC_SCAN_N, "betas": scan_betas}}
    w = Workload("generic-2e4", seed, inputs)

    for i, ((spec, n), beta, ns) in enumerate(zip(GENERIC_SOLVES, betas, samples)):
        path = os.path.join(tmp, "generic%d.csv" % i)
        w.jobs.append(_cli(
            ["solve", "--kernel", spec, "--rhs", "power:" + _fmt(beta), "--n", str(n),
             "--out", path, "--json"],
            coeffs=n, n_checks=1 + len(ns), check=_generic_check(spec, n, beta, ns, path)))

    grid = "%s:%s:%s" % (_fmt(lo), _fmt(scan_betas[2]), _fmt(step))

    def check_scan(out, outs):
        rows = C.last_json(out.stdout)
        got = [float(r["beta"]) for r in rows]
        items = [C.item("3 betas on the grid", len(got) == 3 and all(
            abs(g - b) < 1e-6 for g, b in zip(got, scan_betas)), "%r" % got)]
        for r in rows[:3]:
            slope = float(r["slope"])
            items.append(C.item("verdict consistent beta=%s" % r["beta"], math.isfinite(slope) and (
                r["verdict"] != "bounded_decay" or slope <= -0.35) and (
                r["verdict"] != "power_mismatch" or slope > -0.35), r["verdict"]))
        items += [C.item("missing row", False)] * (3 - len(rows[:3]))
        return items

    w.jobs.append(_cli(
        ["scan", "--kernel", "disc:2", "--n", str(DISC_SCAN_N), "--betas", grid,
         "--out", os.path.join(tmp, "disc_scan.csv"), "--json"],
        coeffs=3 * DISC_SCAN_N, n_checks=4, check=check_scan))
    return w


def _generic_check(spec: str, n: int, beta: float, samples: List[int], path: str):
    def check(out, outs):
        from raflab.kernels import parse_kernel

        a = C.read_coeff_csv(path)
        return [C.item("csv rows = N", len(a) == n + 1)] + C.residual_items(
            a, samples, beta, kernel=parse_kernel(spec))

    return check


# ---------------------------------------------------------------------------
# identities: sieve + cache, exact arithmetic, counting, transforms, zeta
# ---------------------------------------------------------------------------

MERTENS_X = 10_000_000
JORDAN_X = 1_000_000
ZETA_POINTS = 1000
MELLIN_LIMIT_N = 1_000_000
MELLIN_WRT_F_N = 60
MELLIN_KERNELS = ("ingham", "affine:0.5", "log:0.5", "disc:2")
MELLIN_Z = 2
ZERO_QS = tuple(range(2, 11))


def _identities(seed: int, tmp: str) -> Workload:
    rng = _rng("identities", seed)
    cache = os.path.join(tmp, "sieve.cache")
    jordan_beta = round(rng.uniform(0.1, 0.4), 4)
    counts = [
        "coprime:2", "coprime:3", "pfree:%d" % rng.randint(2, 4),
        "ppow:%d" % rng.choice((2, 3, 5, 7)), "smooth:2,3", "elias",
    ]
    count_n = [rng.randint(5_000, 10_000) for _ in counts]
    zs = [complex(round(rng.uniform(-2.0, -0.5), 4), round(rng.uniform(-2.0, 2.0), 4))
          for _ in range(MELLIN_Z)]
    zeta_pts = []
    while len(zeta_pts) < ZETA_POINTS:
        s = complex(rng.uniform(-10.0, 3.0), rng.uniform(-100.0, 100.0))
        if s.real > -10.0 and abs(s - 1) > 1e-3:
            zeta_pts.append(s)
    inputs = {"mertens_x": MERTENS_X, "jordan": {"beta": jordan_beta, "x": JORDAN_X},
              "counts": [{"what": c, "n": n} for c, n in zip(counts, count_n)],
              "mellin_z": [[z.real, z.imag] for z in zs],
              "zeta_points": [[s.real, s.imag] for s in zeta_pts],
              "mpmath": C.HAVE_MPMATH}
    w = Workload("identities", seed, inputs, cache_path=cache)

    def check_mertens(out, outs):
        rep = C.last_json(out.stdout)
        first = C.last_json(outs["mertens miss"].stdout)
        return [C.item("max |M|/sqrt(x) < 1", 0 < rep["max_ratio"] < 1.0, "%r" % rep["max_ratio"]),
                C.item("hit = miss", rep == first)]

    mertens = ["mertens", "--x", str(MERTENS_X), "--sieve-cache", cache, "--json"]
    w.jobs.append(Job("mertens miss", argv=mertens, n_checks=2, check=check_mertens))
    w.jobs.append(Job("mertens hit", argv=mertens, n_checks=2, check=check_mertens))

    def check_jordan(out, outs):
        rep = C.last_json(out.stdout)
        return [C.item("jordan slope ~ 1-beta", abs(rep["slope"] - (1 - jordan_beta)) <= 0.05,
                       "%r" % rep["slope"])]

    w.jobs.append(_cli(["jordan", "--beta", _fmt(jordan_beta), "--x", str(JORDAN_X),
                        "--sieve-cache", cache, "--json"], n_checks=1, check=check_jordan))

    for what, n in zip(counts, count_n):
        w.jobs.append(_cli(["count", "--what", what, "--n", str(n), "--oracle",
                            "--sieve-cache", cache, "--json"],
                           n_checks=2, check=_count_check(what, n)))

    _exact_jobs(w, tmp, rng)

    # The suite's pass/fail flags are the program's own verdicts, so they are
    # not counted as checks; a non-zero exit still counts as one failure.  The
    # scan identities it relies on are checked from the library's output below.
    w.jobs.append(_cli(["verify", "--suite", "exact", "--json"], coeffs=25_000, n_checks=0,
                       check=lambda out, outs: []))
    _scan_job(w, rng)

    for q in ZERO_QS:
        w.jobs.append(_cli(["zeros", "--q", str(q), "--im", "0:100", "--json"],
                           n_checks=1, check=_zeros_check(q)))

    _mellin_jobs(w, zs)

    def sweep(m):
        return [m.mellin.zeta(s) for s in zeta_pts]

    w.jobs.append(Job("zeta sweep", call=sweep, n_checks=ZETA_POINTS if C.HAVE_MPMATH else 0,
                      check=lambda out, outs: C.zeta_items(zeta_pts, out.value)
                      if C.HAVE_MPMATH else []))
    return w


def _count_check(what: str, n: int):
    def check(out, outs):
        rep = C.last_json(out.stdout)
        return [C.item("%s formula = oracle" % what,
                       rep["match"] is True and rep["formula"] == rep["oracle"]),
                C.item("%s = own count" % what, rep["formula"] == C.own_count(what, n),
                       "%r" % rep["formula"])]

    return check


def _exact_jobs(w: Workload, tmp: str, rng: random.Random) -> None:
    def head_check(label, expect):
        def check(out, outs):
            head = [Fraction(x) for x in C.last_json(out.stdout)["a_head"]]
            return [C.item("%s a_%d" % (label, n), a == expect(n)) for n, a in enumerate(head, 1)]

        return check

    w.jobs.append(_cli(["solve", "--rhs", "power:1", "--n", "100000", "--backend", "exact",
                        "--json"], coeffs=100_000, n_checks=10,
                       check=head_check("mu(n)/n", lambda n: Fraction(C.mu_trial(n), n))))

    path = os.path.join(tmp, "exact_power2.csv")
    samples = _samples(rng, 10_000)
    w.inputs["exact_power2_residual_n"] = samples

    def check_power2(out, outs):
        a = C.read_fraction_csv(path)
        return [C.item("exact residual n=%d" % n, C.exact_residual(a, n, Fraction(1, n * n)) == 0)
                for n in samples]

    w.jobs.append(_cli(["solve", "--rhs", "power:2", "--n", "10000", "--backend", "exact",
                        "--out", path, "--json"], coeffs=10_000, n_checks=len(samples),
                       check=check_power2))
    w.jobs.append(_cli(["solve", "--rhs", "delta", "--n", "10000", "--backend", "exact", "--json"],
                       coeffs=10_000, n_checks=10,
                       check=head_check("delta n*a_n", lambda n: Fraction(C.delta_nan(n), n))))
    w.jobs.append(_cli(["solve", "--rhs", "l0pow:1", "--n", "5000", "--backend", "exact",
                        "--json"], coeffs=5_000, n_checks=10,
                       check=head_check("mu(6k)/k", lambda k: Fraction(C.mu_trial(6 * k), k))))


SCAN_N = 100_000
BRIDGE_N = 10_000
SCAN_TABLE_N = max(SCAN_N, 6 * BRIDGE_N)  # the bridge reads mu(6k) for k <= BRIDGE_N


def _scan_job(w: Workload, rng: random.Random) -> None:
    """Meissel, Elias and 3-smooth bridge scans against the benchmark's own sums."""
    scan_n, bridge_n = _samples(rng, SCAN_N), _samples(rng, BRIDGE_N)
    w.inputs["scan_n"], w.inputs["bridge_n"] = scan_n, bridge_n

    def scans(m):
        table = m.sieve.sieve(SCAN_TABLE_N)
        return (m.counting.meissel_scan(table, SCAN_N), m.counting.elias_scan(table, SCAN_N),
                m.counting.smooth_bridge_scan(table, BRIDGE_N))

    def check(out, outs):
        meissel, elias, bridge = out.value
        mu = C.mu_table(SCAN_TABLE_N)
        items = []
        for n in scan_n:
            own = C.floor_sum(mu[1 : n + 1], n)
            items.append(C.item("meissel n=%d" % n, meissel[n] == own == 1, "%r" % meissel[n]))
            sign = np.where(np.arange(1, n + 1) % 2 == 0, -1, 1)
            own = C.floor_sum(sign * mu[1 : n + 1], n)
            items.append(C.item("elias n=%d" % n, elias[n] == own == 1 + 2 * (n.bit_length() - 1),
                                "%r" % elias[n]))
        for n in bridge_n:
            own = C.floor_sum(mu[6 : 6 * n + 1 : 6], n)
            items.append(C.item("3-smooth bridge n=%d" % n,
                                bridge[n] == own == C.three_smooth_count(n), "%r" % bridge[n]))
        return items

    w.jobs.append(Job("meissel/elias/bridge scans", call=scans,
                      n_checks=2 * len(scan_n) + len(bridge_n), check=check))


def _zeros_check(q: int):
    def check(out, outs):
        zs = C.last_json(out.stdout)
        ok = len(zs) > 0 and all(abs(z["re"] - 0.5) <= 1e-9 for z in zs)
        return [C.item("q=%d zeros on Re z = 1/2" % q, ok, "%d zeros" % len(zs))]

    return check


def _mellin_jobs(w: Workload, zs: List[complex]) -> None:
    for i, z in enumerate(zs):
        zarg = "%s,%s" % (_fmt(z.real), _fmt(z.imag))
        z = complex(float(_fmt(z.real)), float(_fmt(z.imag)))
        for spec in MELLIN_KERNELS + ("scaled:ingham:exp:2",):
            name = "mellin closed %s z%d" % (spec, i)
            n_checks = 2 if spec == "ingham" and C.HAVE_MPMATH else 1
            w.jobs.append(Job(name, argv=["mellin", "--kernel", spec, "--z", zarg, "--json"],
                              n_checks=n_checks, check=_closed_check(spec, z)))
        for spec in MELLIN_KERNELS:
            w.jobs.append(Job("mellin limit %s z%d" % (spec, i), argv=[
                "mellin", "--kernel", spec, "--z", zarg, "--method", "limit",
                "--n", str(MELLIN_LIMIT_N), "--json"], n_checks=1,
                check=_limit_check("mellin closed %s z%d" % (spec, i))))
        w.jobs.append(Job("mellin wrt-f z%d" % i, argv=[
            "mellin", "--kernel", "scaled:ingham:exp:2", "--z", zarg, "--method", "limit",
            "--n", str(MELLIN_WRT_F_N), "--json"], n_checks=1,
            check=_limit_check("mellin closed scaled:ingham:exp:2 z%d" % i)))


def _value(out) -> complex:
    re, im = C.last_json(out.stdout)["value"]
    return complex(re, im)


def _closed_check(spec: str, z: complex):
    def check(out, outs):
        got = _value(out)
        items = [C.item("closed %s finite" % spec, math.isfinite(abs(got)), "%r" % got)]
        if spec == "ingham" and C.HAVE_MPMATH:
            ref = C.ingham_transform_ref(z)
            rel = abs(got - ref) / abs(ref)
            items.append(C.item("ingham closed = mpmath", rel <= 1e-9, "rel=%.3g" % rel))
        return items

    return check


def _limit_check(closed_job: str):
    def check(out, outs):
        got, ref = _value(out), _value(outs[closed_job])
        rel = abs(got - ref) / abs(ref)
        return [C.item("limit within 1%% of closed (%s)" % closed_job, rel <= 0.01, "rel=%.3g" % rel)]

    return check
