"""End-to-end tests for the `raf` command line driver.

Everything goes through main(argv) in-process; stdout/stderr are captured
with capsys so we can check the printed values, not just exit codes.
"""

import ast
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import raflab.cli
from raflab import claims
from raflab.cli import SOLVE_CSV_BLOCK, _float_rows, main
from raflab.kernels import parse_kernel
from raflab.sieve import load_cache, save_cache, sieve
from raflab.solver import RhsSpec, VerificationError, parse_rhs, solve

_TESTS = os.path.dirname(os.path.abspath(__file__))


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_subprocess(argv, flags=(), preexec_fn=None):
    """`python <flags> -m raflab.cli <argv>` in a subprocess, with src/ on the path."""
    src = os.path.join(_TESTS, os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-m", "raflab.cli"] + argv, preexec_fn=preexec_fn,
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )


def run_python_O(argv):
    """`python -O -m raflab.cli <argv>` in a subprocess, with src/ on the path."""
    return run_subprocess(argv, ["-O"])


# ------------------------------------------------------------------ exit codes


def test_version_exits_zero(capsys):
    rc, out, _ = run(capsys, ["--version"])
    assert rc == 0
    assert out.startswith("raf-lab ")


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, [])[0] == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "x"], ["solve", "--sieve-cache", "x"], [], ["frobnicate"],
], ids=["bad-int", "unknown-option", "bare", "unknown-subcommand"])
def test_usage_error_is_one_stderr_line(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("raf") and ": error: " in err


def test_bad_kernel_spec_is_usage_error(capsys):
    rc, _, err = run(capsys, ["mellin", "--kernel", "bogus"])
    assert rc == 2
    assert "kernel spec" in err


def test_bad_rhs_is_usage_error(capsys):
    rc, _, err = run(capsys, ["solve", "--rhs", "banana", "--n", "10"])
    assert rc == 2


def test_bad_z_is_usage_error(capsys):
    assert run(capsys, ["mellin", "--z", "one,two"])[0] == 2


def test_unwritable_out_is_io_error(capsys, tmp_path):
    rc, _, err = run(
        capsys, ["solve", "--n", "5", "--out", str(tmp_path / "nodir" / "x.csv")]
    )
    assert rc == 2
    assert "error" in err.lower()
    assert err.rstrip().endswith("x.csv'")  # the path asked for, not a temp file


def test_out_path_that_is_a_directory_is_io_error(capsys, tmp_path):
    rc, out, err = run(capsys, ["solve", "--n", "5", "--out", str(tmp_path)])
    assert rc == 2 and out == ""
    assert err == "i/o error: [Errno 21] Is a directory: %r\n" % str(tmp_path)
    assert os.listdir(tmp_path) == []
    assert not [p for p in os.listdir(tmp_path.parent) if p.endswith(".tmp")]


def test_overflowing_rhs_is_usage_error_also_under_python_O(capsys):
    # n^200 overflows from n = 35 on; without the finite-RHS check this
    # printed a_1000=nan and exited 0 under -O (the residual check was an assert)
    argv = ["solve", "--rhs", "power:-200", "--n", "1000"]
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")

    proc = run_python_O(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["solve", "--rhs", "power:-51", "--n", "1000000"],
    ["solve", "--kernel", "genin:1,-1", "--rhs", "power:-51", "--n", "1000000"],
    ["solve", "--kernel", "affine:0.5", "--rhs", "power:-102", "--n", "1000"],
])
def test_overflowing_s_is_usage_error_also_under_python_O(capsys, argv):
    # R(n) = n^51 is finite up to 10^6 but m R(m) is not from m ~ 8.5e5 on;
    # this printed two RuntimeWarnings and exited 1 on an inf residual.  On
    # the separable path R(n) = n^102 is finite up to 1000 but a_n is not,
    # which exited 1 on an inf residual too
    what = "a_n is not finite at n=" if "affine:0.5" in argv else "s(m) is not finite at m="
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: rhs %s: %s" % (argv[argv.index("--rhs") + 1], what))
    assert len(err.splitlines()) == 1

    proc = run_python_O(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == err


@pytest.mark.parametrize("argv", [
    ["solve", "--kernel", "affine:0.5", "--backend", "exact"],  # BackendMismatchError
    ["solve", "--rhs", "power:0.5", "--backend", "exact"],      # BackendMismatchError
    ["solve", "--kernel", "genin:0", "--n", "10"],              # SingularKernelError
])
def test_unsolvable_solver_input_is_usage_error(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["scan", "--betas", "0:inf:0.1", "--n", "100"],
    ["index", "--grid", "0:inf:1", "--n", "100"],
    ["scan", "--betas", "0:1:inf", "--n", "100"],  # exited 0 with an empty scan
    ["zeros", "--im", "0:inf"],
    ["solve", "--kernel", "disc:inf", "--n", "100"],
    ["solve", "--kernel", "ratraf:inf,1", "--n", "100"],
    ["solve", "--kernel", "genin:inf", "--n", "100"],
    ["solve", "--kernel", "genin:1,nan", "--n", "100"],
    # a nan or non-positive tolerance gave power_mismatch with exit 0 (scan)
    # or an index bracket failure with exit 1 (index)
    ["scan", "--kernel", "ingham", "--n", "2000", "--betas", "0.25", "--slope-tol", "nan"],
    ["scan", "--kernel", "ingham", "--n", "2000", "--betas", "0.25", "--const-tol", "nan"],
    ["scan", "--kernel", "ingham", "--n", "2000", "--betas", "0.25", "--const-tol", "inf"],
    ["index", "--n", "20000", "--slope-tol", "nan"],
    ["scan", "--kernel", "ingham", "--n", "2000", "--betas", "0.25", "--const-tol", "-1"],
    ["scan", "--kernel", "ingham", "--n", "2000", "--betas", "0.25", "--slope-tol", "-1"],
    ["index", "--n", "20000", "--slope-tol", "0"],
])
def test_nonfinite_input_is_usage_error(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_verification_failure_exits_one(capsys, monkeypatch):
    def failing_solve(*args, **kwargs):
        raise VerificationError("residual nan at n=5 exceeds 5e-09")

    monkeypatch.setattr(raflab.cli, "solve", failing_solve)
    rc, out, err = run(capsys, ["solve", "--n", "5"])
    assert rc == 1 and out == ""
    assert err == "error: residual nan at n=5 exceeds 5e-09\n"


# 10^15 float64 entries are 8 PB, past a 48-bit address space, so the first
# array fails to allocate at once whatever the overcommit setting
_HUGE_N = str(10**15)


@pytest.mark.parametrize("argv", [
    ["solve", "--n", _HUGE_N],
    ["solve", "--kernel", "genin:1,-1", "--n", _HUGE_N],
    ["solve", "--kernel", "affine:0.5", "--n", _HUGE_N],
    ["solve", "--kernel", "ratraf:1,2", "--n", _HUGE_N],
    ["scan", "--n", _HUGE_N, "--betas", "0.5"],
    ["hlr", "--n", _HUGE_N],
], ids=["solve", "genin", "affine", "ratraf", "scan", "hlr"])
def test_n_too_large_for_memory_is_usage_error_also_under_python_O(capsys, argv):
    # a numpy MemoryError printed its traceback and exited 1
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    proc = run_python_O(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


@pytest.mark.parametrize("argv, named", [
    (["scan", "--s", "0.1"], "--s 0.1"),                                # was --slope-tol
    (["solve", "--kern", "affine:0.5", "--n", "10"], "--kern affine:0.5"),  # was --kernel
    (["--vers"], "command"),                                            # was --version
], ids=["scan-s", "solve-kern", "vers"])
def test_a_prefix_of_an_option_is_a_usage_error(capsys, argv, named):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("raf: error: ") and named in err


def test_a_config_key_that_is_a_prefix_of_an_option_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kern": "affine:0.5", "n": 10}))
    rc, out, err = run(capsys, ["solve", "--config", str(path)])
    assert rc == 2 and out == ""
    assert err == "raf: error: unrecognized arguments: --kern=affine:0.5\n"


# ---------------------------------------------------------------------- mellin


def test_mellin_default_prints_pi_squared_over_twelve(capsys):
    # ingham kernel at z = -1, closed form: pi^2/12 = 0.8224670334...
    rc, out, _ = run(capsys, ["mellin"])
    assert rc == 0
    assert out.strip() == "0.8224670334"


def test_mellin_json_output(capsys):
    rc, out, _ = run(capsys, ["mellin", "--z", "-1,0", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["kernel"] == "ingham"
    assert doc["method"] == "closed"
    assert doc["value"][0] == pytest.approx(math.pi**2 / 12, abs=1e-12)
    assert doc["value"][1] == 0.0


def test_mellin_limit_method_reports_truncation(capsys):
    rc, out, _ = run(
        capsys, ["mellin", "--z", "-1,0", "--method", "limit", "--n", "4000"]
    )
    assert rc == 0
    assert out.startswith("0.82")
    assert "F(2n)-F(n)" in out


def test_mellin_scaled_kernel_limit_uses_weighted_sum(capsys):
    # f(k) = 2^k + 1: the n=60 truncation of the f-weighted transform at
    # z=-1 sits within 1e-6 of the closed value 5/6.
    rc, out, _ = run(
        capsys,
        ["mellin", "--kernel", "scaled:ingham:exp:2", "--z", "-1,0",
         "--method", "limit", "--n", "60"],
    )
    assert rc == 0
    assert abs(float(out.split()[0]) - 5.0 / 6.0) < 1e-6


def test_mellin_pole_is_reported_as_usage_error(capsys):
    rc, _, err = run(capsys, ["mellin", "--z", "1,0"])
    assert rc == 2
    assert "pole" in err.lower()


# ------------------------------------------------------------ solve + manifest

_MANIFEST_KEYS = [
    "backend", "cmd", "kernel", "n", "outputs", "rhs",
    "tolerances", "version", "wall_ms",
]


def test_solve_writes_csv_and_manifest(capsys, tmp_path):
    out_path = tmp_path / "coef.csv"
    rc, out, _ = run(capsys, ["solve", "--n", "50", "--out", str(out_path)])
    assert rc == 0
    assert "solved ingham | power:1 | n=50" in out

    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "a_n"]
    assert len(rows) == 51
    assert rows[1] == ["1", "1"]
    assert float(rows[2][1]) == -0.5  # a_2 = mu(2)/2

    man = json.loads((tmp_path / "coef.csv.manifest.json").read_text())
    assert sorted(man.keys()) == _MANIFEST_KEYS
    assert man["cmd"].startswith("raf solve")
    assert man["kernel"] == "ingham"
    assert man["rhs"] == "power:1"
    assert man["n"] == 50
    assert man["backend"] == "float"
    assert man["outputs"] == [str(out_path)]
    assert isinstance(man["wall_ms"], int)


def test_solve_exact_csv_has_fraction_columns(capsys, tmp_path):
    out_path = tmp_path / "exact.csv"
    rc, _, _ = run(
        capsys,
        ["solve", "--n", "8", "--backend", "exact", "--rhs", "delta",
         "--out", str(out_path)],
    )
    assert rc == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "a_num", "a_den"]
    # n*a_n for the delta right-hand side: 1, -2, -1, 1, -1, 2, -1, 0
    num_over_n = [(int(r[1]), int(r[2]), int(r[0])) for r in rows[1:]]
    got = [num * n_ // den if den != 0 else None for num, den, n_ in num_over_n]
    # a_n = (n a_n)/n, so num/den == expected/n exactly
    expected = [1, -2, -1, 1, -1, 2, -1, 0]
    for (num, den, n_), e in zip(num_over_n, expected):
        assert num * n_ == e * den


def test_solve_runs_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, ["solve", "--n", "200", "--rhs", "power:0.5", "--out", str(a)])
    run(capsys, ["solve", "--n", "200", "--rhs", "power:0.5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def reference_solve_csv(kernel, rhs, n, backend):
    """The solve CSV written one csv.writer row per n, a_n in the %.17g format."""
    coeffs = solve(parse_kernel(kernel), parse_rhs(rhs), n, backend=backend)
    a = coeffs.values
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    if backend == "exact":
        w.writerow(("n", "a_num", "a_den"))
        w.writerows((k, a[k].numerator, a[k].denominator) for k in range(1, n + 1))
    else:
        w.writerow(("n", "a_n"))
        w.writerows((k, "%.17g" % float(a[k])) for k in range(1, n + 1))
    return buf.getvalue().encode()


B = SOLVE_CSV_BLOCK


# one row; one row short of, at and one past the first block edge; at, past
# and next to the later ones, the fourth (16384 rows) and eighth among them
@pytest.mark.parametrize("kernel,rhs,n,backend", [
    ("ingham", "power:0.7", 1, "float"),
    ("ingham", "power:0.7", B - 1, "float"),
    ("ingham", "power:0.7", B, "float"),
    ("ingham", "power:0.7", B + 1, "float"),
    ("ingham", "power:0.7", 2 * B + 1, "float"),
    ("ingham", "delta", 2 * B, "float"),
    ("ingham", "power:-1", 3 * B - 1, "float"),
    ("ingham", "l0pow:0.9", 3 * B + 1, "float"),
    ("ingham", "power:0.7", 4 * B - 1, "float"),
    ("ingham", "power:0.7", 4 * B, "float"),
    ("ingham", "power:0.7", 4 * B + 1, "float"),
    ("ingham", "power:0.7", 8 * B + 1, "float"),
    ("affine:0.5", "power:0.5", 4 * B + 1, "float"),
    ("disc:2", "power:1.5", 4 * B + 1, "float"),
    ("ingham", "power:2", 4 * B + 1, "exact"),
    ("ingham", "delta", 4 * B + 1, "exact"),
    ("ingham", "power:0.9815", 10**6, "float"),  # the ingham-1e6 solve
])
def test_solve_csv_bytes_match_per_row_writer(capsys, tmp_path, kernel, rhs, n, backend):
    out_path = tmp_path / "coef.csv"
    rc, _, _ = run(capsys, ["solve", "--kernel", kernel, "--rhs", rhs, "--n", str(n),
                            "--backend", backend, "--out", str(out_path)])
    assert rc == 0
    assert out_path.read_bytes() == reference_solve_csv(kernel, rhs, n, backend)


def _percent_rows(first, x):
    return "".join("%d,%.17g\n" % (first + i, v) for i, v in enumerate(x.tolist()))


FIRST_N = (1, 9, 10, 99999, 10**7 - 1)


@pytest.mark.parametrize("first", FIRST_N)
def test_float_rows_next_to_powers_of_ten(first):
    # 10^k and its neighbours for k in [-320, 308], both signs: subnormals,
    # the fixed/exponent switches at 1e-5 and 1e17, and 3-digit exponents
    p = np.array([float("1e%d" % k) for k in range(-320, 309)])
    x = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
    x = np.concatenate([x, -x, [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324]])
    assert _float_rows(first, x) == _percent_rows(first, x)


def _ties(q):
    """Odd m / 2^q with 18 significant digits, the last a 5: exact 17-digit ties."""
    lo = math.ceil(Fraction(10) ** (17 - q) * 2**q)
    hi = min(math.ceil(Fraction(10) ** (18 - q) * 2**q), 2**53)
    return st.integers(lo // 2, (hi - 1) // 2).map(lambda j: (2 * j + 1) / 2**q)


DOUBLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),  # subnormals and +-0 among them
    st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64))),
    st.integers(2, 25).flatmap(_ties),
    st.integers(-320, 308).map(lambda k: float(np.nextafter(float("1e%d" % k), 0))),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIRST_N), st.lists(DOUBLES, max_size=200))
def test_float_rows_match_percent_format(first, xs):
    x = np.array(xs, dtype=np.float64)
    assert _float_rows(first, x) == _percent_rows(first, x)


def test_float_rows_round_ties_to_even():
    x = np.array([1e15 + 0.25, 1e15 + 0.75])
    assert _float_rows(1, x) == "1,1000000000000000.2\n2,1000000000000000.8\n"


def _limit_file_size():
    """preexec_fn: files may not grow past 64 KiB, and a write past it fails (EFBIG)."""
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE,
                       (64 * 1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


def test_failed_out_write_leaves_old_csv_and_manifest(capsys, tmp_path):
    out_path = tmp_path / "fs.csv"
    man_path = tmp_path / "fs.csv.manifest.json"
    rc, _, _ = run(capsys, ["solve", "--n", "50", "--out", str(out_path)])
    assert rc == 0
    before = (out_path.read_bytes(), man_path.read_bytes())

    proc = run_subprocess(["solve", "--n", "100000", "--out", str(out_path)],
                          preexec_fn=_limit_file_size)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "i/o error: [Errno 27] File too large\n"
    assert (out_path.read_bytes(), man_path.read_bytes()) == before
    assert sorted(os.listdir(tmp_path)) == ["fs.csv", "fs.csv.manifest.json"]


# ------------------------------------------------------------------------ scan


def test_scan_csv_header_and_stdout(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    rc, out, _ = run(
        capsys,
        ["scan", "--betas", "0.5:1.0:0.5", "--n", "5000", "--out", str(out_path)],
    )
    assert rc == 0
    header = "beta,slope,stderr,pred_const_re,pred_const_im,emp_const,verdict"
    assert out.splitlines()[0] == header
    lines = out_path.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 3  # betas 0.5 and 1.0
    # beta=1 hits the transform pole: predicted constant is nan
    row = lines[2].split(",")
    assert row[0] == "1"
    assert row[3] == "nan"


def test_scan_json_round_trips(capsys):
    rc, out, _ = run(capsys, ["scan", "--betas", "0.5:0.5:1", "--n", "5000", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc) == 1
    assert float(doc[0]["beta"]) == 0.5  # row values stay strings, as in the CSV
    assert doc[0]["verdict"] in ("asymptotic_match", "bounded_decay", "power_mismatch")


# ----------------------------------------------------------------------- index


def test_index_bracket_failure_exits_one(capsys):
    # the ingham index is ~0.5; a grid entirely above it cannot bracket
    rc, _, err = run(capsys, ["index", "--grid", "2:3:0.5", "--n", "2000"])
    assert rc == 1
    assert "bracket failure" in err


def test_index_grid_rows_are_the_scan_rows(capsys, tmp_path):
    # both read their verdicts from asymptotics.regime_scan
    paths = [tmp_path / "scan.csv", tmp_path / "index.csv"]
    for argv, path in zip((["scan", "--betas"], ["index", "--grid"]), paths):
        rc, _, _ = run(capsys, argv + ["0.1:0.9:0.2", "--kernel", "ingham", "--n", "20000",
                                       "--out", str(path)])
        assert rc == 0
    scan, index = (p.read_bytes() for p in paths)
    assert len(scan.splitlines()) == 6  # header and betas 0.1, 0.3, ..., 0.9
    assert index == scan


# ----------------------------------------------------------------------- zeros


def test_zeros_json_lists_critical_line_zeros(capsys):
    rc, out, _ = run(capsys, ["zeros", "--q", "2", "--im", "0:10", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc) == 2
    assert all(z["re"] == 0.5 for z in doc)
    assert doc[0]["im"] == pytest.approx(math.pi / (4 * math.log(2)), abs=1e-12)


def test_zeros_csv(capsys, tmp_path):
    out_path = tmp_path / "zeros.csv"
    rc, _, _ = run(
        capsys, ["zeros", "--q", "3", "--im", "0:20", "--out", str(out_path)]
    )
    assert rc == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q", "re", "im", "abs_value"]
    assert all(float(r[1]) == 0.5 for r in rows[1:])
    assert all(float(r[3]) < 1e-9 for r in rows[1:])


# ----------------------------------------------------------------------- count


def test_count_defaults_to_single_coprime(capsys):
    rc, out, _ = run(capsys, ["count"])
    assert rc == 0
    assert out.strip() == "formula=1"


def test_count_with_oracle_reports_match(capsys):
    rc, out, _ = run(capsys, ["count", "--what", "elias", "--n", "1000", "--oracle"])
    assert rc == 0
    assert out.strip() == "formula=19 oracle=19 match=true"


def test_count_bad_what_is_usage_error(capsys):
    assert run(capsys, ["count", "--what", "banana"])[0] == 2


@pytest.mark.parametrize("what", ["coprime:1", "pfree:2", "pfree:3", "ppow:2", "smooth:2,3", "elias"])
@pytest.mark.parametrize("n", [10**30, 10**400])
def test_count_beyond_the_sieve_is_one_capacity_error_line(capsys, what, n):
    rc, out, err = run(capsys, ["count", "--what", what, "--n", str(n)])
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and "exceeds memory budget" in err


def test_count_pfree_sieves_only_to_the_root(capsys, monkeypatch):
    limits = []

    def recording_sieve(limit):
        limits.append(limit)
        return sieve(limit)

    monkeypatch.setattr(raflab.cli, "sieve", recording_sieve)
    # both counts agree with striking the multiples of p^2 directly
    rc, out, _ = run(capsys, ["count", "--what", "pfree:2", "--n", "20000000"])
    assert rc == 0 and out.strip() == "formula=12158575"
    # n above MAX_SIEVE_LIMIT, yet the formula reads mu only to 17320
    rc, out, err = run(capsys, ["count", "--what", "pfree:2", "--n", "300000000"])
    assert rc == 0 and err == "" and out.strip() == "formula=182378126"
    assert limits == [4472, 17320]


# ----------------------------------------------------- jordan / mertens / hlr


def test_jordan_manifest_records_the_beta_that_ran(capsys, tmp_path):
    out = tmp_path / "j.csv"
    rc, _, _ = run(capsys, ["jordan", "--beta", "0.1234567", "--x", "2000", "--out", str(out)])
    assert rc == 0
    man = json.loads((tmp_path / "j.csv.manifest.json").read_text())
    assert man["rhs"] == "jordan:0.1234567"


def test_jordan_prints_slope_and_constant(capsys):
    rc, out, _ = run(capsys, ["jordan", "--beta", "0.25", "--x", "2000"])
    assert rc == 0
    assert "slope=" in out and "expect 0.7500" in out


def test_mertens_reports_known_small_maximum(capsys):
    rc, out, _ = run(capsys, ["mertens", "--x", "1000"])
    assert rc == 0
    assert "0.894427 at x=5" in out  # |M(5)|/sqrt(5) = 2/sqrt(5)


def test_hlr_beta_one_is_exactly_bounded(capsys):
    rc, out, _ = run(capsys, ["hlr", "--beta", "1", "--n", "2000"])
    assert rc == 0
    assert "sup|n a_n| = 1" in out
    assert "growth_exponent = 0" in out


# ---------------------------------------------------------------------- verify


def test_verify_exact_suite_passes(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "exact"])
    assert rc == 0
    lines = out.strip().splitlines()
    exact = [c.name for c in claims.suite("exact")]
    assert [l.split(":")[0] for l in lines[:-1]] == ["PASS " + name for name in exact]
    assert lines[-1] == "suite=exact checks=%d failed=0" % len(exact)


def test_verify_exact_suite_passes_under_python_O():
    proc = run_python_O(["verify", "--suite", "exact"])
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == len(claims.suite("exact")) + 1
    assert all(l.startswith("PASS ") for l in lines[:-1])
    assert lines[-1].endswith(" failed=0")


def test_library_has_no_assert_statements():
    # python -O strips assert statements; every check in src/ must raise
    pkg = os.path.join(_TESTS, os.pardir, "src", "raflab")
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += ["%s:%d" % (name, node.lineno)
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_verify_reports_false_and_raising_claims(capsys, monkeypatch):
    def boom():
        raise RuntimeError("boom")

    # a passing stub returns a numpy bool, as numeric claims do; --json must take it
    exact = claims.suite("exact")
    stubs = {exact[0].name: lambda: (False, "forced"), exact[1].name: boom}
    monkeypatch.setattr(claims, "CLAIMS", tuple(
        dataclasses.replace(c, check=stubs.get(c.name, lambda: (np.True_, "stub"))) for c in exact
    ))
    rc, out, _ = run(capsys, ["verify", "--suite", "exact"])
    assert rc == 1
    lines = out.splitlines()
    assert lines[:2] == [
        "FAIL %s: forced" % exact[0].name,
        "FAIL %s: raised RuntimeError: boom" % exact[1].name,
    ]
    assert lines[2:-1] == ["PASS %s: stub" % c.name for c in exact[2:]]
    assert lines[-1] == "suite=exact checks=%d failed=2" % len(exact)

    rc, out, _ = run(capsys, ["verify", "--suite", "exact", "--json"])
    doc = json.loads(out)
    assert rc == 1 and doc["failed"] == 2
    assert [c["ok"] for c in doc["checks"]] == [False, False] + [True] * (len(exact) - 2)


def test_acceptance_gate_runs_each_claim_once(capsys, monkeypatch):
    # the gate is built from the registry: one test per claim, in registry
    # order, and the test of "criterion-NN <slug>" is test_criterion_NN_<slug>
    # and runs that claim's check
    registry = claims.CLAIMS
    monkeypatch.setattr(claims, "CLAIMS", tuple(
        dataclasses.replace(c, check=lambda name=c.name: (True, "stub " + name))
        for c in registry
    ))
    spec = importlib.util.spec_from_file_location(
        "acceptance_gate", os.path.join(_TESTS, "test_acceptance.py"))
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    tests = [(name, fn) for name, fn in vars(gate).items() if name.startswith("test")]
    assert [name for name, _ in tests] == [
        "test_" + re.sub(r"[- ]", "_", c.name) for c in registry]
    capsys.readouterr()
    for _, test in tests:
        test()
    assert capsys.readouterr().out.splitlines() == [
        "PASS %s: stub %s" % (c.name, c.name) for c in registry]


# ------------------------------------------------------- one output path

_SCAN_HEADER = ["beta", "slope", "stderr", "pred_const_re", "pred_const_im", "emp_const", "verdict"]

# argv at small sizes, and the --out CSV header, for every subcommand
_EVERY_SUBCOMMAND = [
    (["solve", "--n", "50"], ["n", "a_n"]),
    (["scan", "--betas", "0.5:0.5:1", "--n", "2000"], _SCAN_HEADER),
    (["index", "--n", "5000"], _SCAN_HEADER),
    (["hlr", "--beta", "1", "--n", "2000"],
     ["sup_abs", "growth_exponent", "prime_tail_mean", "limit", "primes_used"]),
    (["mellin"], ["kernel", "z_re", "z_im", "method", "value_re", "value_im", "n"]),
    (["zeros", "--q", "2", "--im", "0:10"], ["q", "re", "im", "abs_value"]),
    (["count", "--what", "elias", "--n", "1000", "--oracle"],
     ["what", "n", "formula", "oracle", "match"]),
    (["jordan", "--beta", "0.25", "--x", "2000"], ["x", "jordan_sum"]),
    (["mertens", "--x", "1000"], ["limit", "max_ratio", "argmax_x"]),
    (["verify", "--suite", "exact"], ["check", "status", "detail"]),
]


@pytest.mark.parametrize("argv,header", _EVERY_SUBCOMMAND, ids=[a[0] for a, _ in _EVERY_SUBCOMMAND])
def test_json_stdout_is_one_document(capsys, tmp_path, argv, header):
    out_path = tmp_path / "out.csv"
    rc, out, _ = run(capsys, argv + ["--json", "--out", str(out_path)])
    assert rc == 0
    doc = json.loads(out)
    # only the docs that always carried a wall time carry one
    assert (isinstance(doc, dict) and "wall_ms" in doc) == (argv[0] in ("solve", "index", "verify"))
    with open(out_path, newline="") as fh:
        assert next(csv.reader(fh)) == header
    man = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert sorted(man.keys()) == _MANIFEST_KEYS
    assert man["cmd"] == "raf " + " ".join(argv + ["--json", "--out", str(out_path)])


# ----------------------------------------------------------------- sieve cache


def test_sieve_cache_written_on_miss_and_reused(capsys, tmp_path):
    cache = tmp_path / "sieve.bin"
    rc, out, err = run(
        capsys,
        ["count", "--what", "elias", "--n", "500", "--sieve-cache", str(cache)],
    )
    assert rc == 0 and err == ""
    assert out.strip() == "formula=17"
    assert cache.exists() and cache.stat().st_size > 0

    # second run loads the cache (corrupting mtime-visible state would fail
    # loudly inside load_cache, so a clean second pass covers the read path)
    rc2, out2, _ = run(
        capsys,
        ["count", "--what", "elias", "--n", "500", "--sieve-cache", str(cache)],
    )
    assert rc2 == 0 and out2.strip() == "formula=17"

    # a cache too small for the request is a silent miss, like a missing one
    rc3, out3, err3 = run(
        capsys,
        ["count", "--what", "elias", "--n", "1000", "--sieve-cache", str(cache)],
    )
    assert rc3 == 0 and out3.strip() == "formula=19" and err3 == ""


_TABLE_READERS = [
    ["count", "--what", "elias", "--n", "500"],
    ["count", "--what", "smooth:2,3", "--n", "300"],
    ["jordan", "--beta", "0.25", "--x", "2000"],
    ["mertens", "--x", "1000"],
]


@pytest.mark.parametrize("argv", _TABLE_READERS, ids=["elias", "smooth", "jordan", "mertens"])
def test_sieve_cache_prefix_prints_the_same_json(capsys, tmp_path, monkeypatch, argv):
    argv = argv + ["--json"]
    cache = tmp_path / "sieve.bin"
    rc, plain, _ = run(capsys, argv)
    assert rc == 0
    rc, miss, err = run(capsys, argv + ["--sieve-cache", str(cache)])
    assert rc == 0 and err == "" and miss == plain
    # a hit from a larger cache reads its prefix and sieves nothing
    save_cache(sieve(5000), str(cache))

    def no_sieve(limit):
        raise AssertionError("sieve(%d) on a cache hit" % limit)

    monkeypatch.setattr(raflab.cli, "sieve", no_sieve)
    rc, hit, err = run(capsys, argv + ["--sieve-cache", str(cache)])
    assert rc == 0 and err == "" and hit == plain
    assert load_cache(str(cache)).limit == 5000


def test_rejected_sieve_cache_warns_and_is_rebuilt(capsys, tmp_path):
    argv = ["count", "--what", "elias", "--n", "500"]
    _, expected, _ = run(capsys, argv)
    cache = tmp_path / "sieve.bin"
    cache.write_bytes(b"not a sieve cache")
    rc, out, err = run(capsys, argv + ["--sieve-cache", str(cache)])
    assert rc == 0 and out == expected
    assert len(err.splitlines()) == 1
    assert err.startswith("warning: sieve cache %s rejected: " % cache)
    assert err.endswith("; rebuilding\n")
    assert load_cache(str(cache)).limit >= 500


def test_unusable_sieve_cache_warns_on_load_and_save(capsys, tmp_path):
    # a directory can be neither read nor replaced as a cache file
    argv = ["count", "--what", "elias", "--n", "500"]
    _, expected, _ = run(capsys, argv)
    rc, out, err = run(capsys, argv + ["--sieve-cache", str(tmp_path)])
    assert rc == 0 and out == expected
    lines = err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("warning: sieve cache %s unusable: " % tmp_path) for line in lines)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("sub", ["solve", "scan", "index", "hlr", "mellin", "zeros", "verify"])
def test_sieve_cache_is_refused_where_no_sieve_is_read(capsys, tmp_path, sub):
    cache, out = tmp_path / "sieve.bin", tmp_path / "out.csv"
    rc, stdout, err = run(capsys, [sub, "--sieve-cache", str(cache), "--out", str(out)])
    assert rc == 2 and stdout == ""
    # one error line naming the option
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == ["raf: error: unrecognized arguments: --sieve-cache %s" % cache]
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------- config


@pytest.mark.parametrize("argv, want", [
    (["solve"], {"kernel": "ingham", "rhs": "power:1", "n": 10_000, "backend": "float"}),
    (["hlr"], {"kernel": "ingham", "rhs": "power:1", "n": 100_000, "backend": "float"}),
    (["mellin"], {"kernel": "ingham", "n": 100_000}),
    (["count"], {"n": 1000}),
], ids=["solve", "hlr", "mellin", "count"])
def test_bare_subcommand_runs_on_its_built_in_defaults(capsys, tmp_path, argv, want):
    out = tmp_path / "out.csv"
    rc, stdout, _ = run(capsys, argv + ["--json", "--out", str(out)])
    assert rc == 0
    man = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert {key: man[key] for key in want} == want
    doc = json.loads(stdout)
    if argv == ["mellin"]:
        assert doc["z"] == [-1.0, 0.0] and doc["method"] == "closed"
    if argv == ["count"]:
        assert doc["what"] == "coprime:1" and doc["oracle"] is None




def test_config_file_fills_defaults_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 77, "rhs": "power:0.5"}))

    p1 = tmp_path / "c1.csv"
    rc, _, _ = run(capsys, ["solve", "--config", str(cfg), "--out", str(p1)])
    assert rc == 0
    man = json.loads((tmp_path / "c1.csv.manifest.json").read_text())
    assert man["n"] == 77
    assert man["rhs"] == "power:0.5"

    p2 = tmp_path / "c2.csv"
    rc, _, _ = run(
        capsys, ["solve", "--config", str(cfg), "--n", "10", "--out", str(p2)]
    )
    assert rc == 0
    man2 = json.loads((tmp_path / "c2.csv.manifest.json").read_text())
    assert man2["n"] == 10  # explicit flag beats the config file
    assert man2["rhs"] == "power:0.5"  # config still fills what flags left out


def test_config_must_be_a_json_object(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2]")
    rc, _, err = run(capsys, ["solve", "--config", str(cfg)])
    assert rc == 2
    assert "JSON object" in err


def test_config_missing_file_is_io_error(capsys, tmp_path):
    rc, _, _ = run(capsys, ["solve", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


# A value for each option of each subcommand, none of them its built-in
# default (True is the bare flag), and a small size that the runs testing
# the other options of a subcommand give on the command line, so each is quick.
_OPTION_VALUES = {
    "solve": {"--kernel": "affine:0.5", "--rhs": "power:0.5", "--n": 60, "--backend": "exact"},
    "scan": {"--kernel": "disc:2", "--betas": "0:1:0.5", "--n": 3000,
             "--slope-tol": 0.2, "--const-tol": 0.3},
    "index": {"--kernel": "disc:2", "--grid": "0.2:0.8:0.3", "--n": 3000,
              "--slope-tol": 0.2, "--const-tol": 0.3},
    "hlr": {"--kernel": "disc:2", "--beta": 0.5, "--n": 3000},
    "mellin": {"--kernel": "affine:0.5", "--z": "-2,1", "--method": "limit", "--n": 500},
    "zeros": {"--q": 3, "--im": "0:20"},
    "count": {"--what": "pfree:2", "--n": 500, "--oracle": True, "--sieve-cache": "sieve.bin"},
    "jordan": {"--beta": 0.125, "--x": 3000, "--sieve-cache": "sieve.bin"},
    "mertens": {"--x": 3000, "--sieve-cache": "sieve.bin"},
    "verify": {"--suite": "asymptotic"},
}
_SMALL = {"solve": {"--n": 40}, "scan": {"--n": 2000}, "index": {"--n": 2000},
          "hlr": {"--n": 2000}, "mellin": {"--n": 200}, "count": {"--n": 300},
          "jordan": {"--x": 2000}, "mertens": {"--x": 2000}}


def _flags(options):
    return [a for flag, val in options.items()
            for a in ([flag] if val is True else [flag, str(val)])]


def _run_in(capsys, monkeypatch, where, argv):
    """rc, stdout and every file a run writes in the empty directory where;
    the manifest without its cmd and wall_ms."""
    where.mkdir()
    monkeypatch.chdir(where)
    rc, out, err = run(capsys, argv + ["--out", "out.csv"])
    files = {p.name: p.read_bytes() for p in where.iterdir()}
    man = json.loads(files.pop("out.csv.manifest.json"))
    return rc, out, err, files, {k: v for k, v in man.items() if k not in ("cmd", "wall_ms")}


@pytest.mark.parametrize("sub, flag", [
    (sub, flag) for sub, cmd in raflab.cli._COMMANDS.items()
    for flag, _, _ in cmd.options + ((raflab.cli._SIEVE_CACHE,) if cmd.sieve_cache else ())
])
def test_config_key_runs_as_its_flag(capsys, monkeypatch, tmp_path, sub, flag):
    value = _OPTION_VALUES[sub][flag]
    defaults = {f: d for f, d, _ in raflab.cli._COMMANDS[sub].options}
    assert value != defaults.get(flag)  # so an ignored key would show
    stub = (claims.Claim("stub-exact", ("exact",), lambda: (True, "e")),
            claims.Claim("stub-asymptotic", ("asymptotic",), lambda: (True, "a")))
    monkeypatch.setattr(claims, "CLAIMS", stub)  # verify runs no real claim
    rest = _flags({f: v for f, v in _SMALL.get(sub, {}).items() if f != flag})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
    by_flag = _run_in(capsys, monkeypatch, tmp_path / "flag", [sub] + _flags({flag: value}) + rest)
    by_config = _run_in(capsys, monkeypatch, tmp_path / "config", [sub, "--config", str(cfg)] + rest)
    assert by_config == by_flag
    assert by_flag[0] == 0 and by_flag[2] == ""


@pytest.mark.parametrize("sub, cfg", [
    ("solve", {"n": "abc"}), ("solve", {"n": 20.5}), ("count", {"what": 3}),
    ("solve", {"backend": "bogus"}), ("solve", {"nn": 5}),
], ids=["n-abc", "n-float", "what-int", "backend-bogus", "unknown-key"])
def test_bad_config_value_is_one_usage_error_line_also_under_python_O(capsys, tmp_path, sub, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [sub, "--config", str(path)]
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    proc = run_python_O(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == err.splitlines()


def test_config_sets_store_true_flags(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"oracle": True, "n": 200}))
    rc, out, _ = run(capsys, ["count", "--config", str(path)])
    assert rc == 0 and out == "formula=1 oracle=1 match=true\n"

    path.write_text(json.dumps({"json": True, "oracle": False, "n": None}))
    rc, out, _ = run(capsys, ["count", "--config", str(path)])
    assert rc == 0
    assert json.loads(out) == {"what": "coprime:1", "n": 1000, "formula": 1,
                               "oracle": None, "match": None}


def _parse_rhs_with_each_head_written_out(spec):
    """parse_rhs as it read before the --rhs grammar was declared once."""
    s = spec.strip()
    if s == "delta":
        return RhsSpec("delta")
    for head in ("power", "l0pow"):
        if s.startswith(head + ":"):
            return RhsSpec(head, float(s[len(head) + 1:]))
    raise ValueError(spec)


_NUMBER_TEXT = st.one_of(
    st.floats().map(repr), st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", " 1", "1_0", "1e400", "-inf", "nan", "0x1", "1:2", "1,2"]),
    st.text(max_size=4),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["power", "delta", "l0pow", "Power", "l0", "gauss", ""]),
       st.sampled_from(["", ":"]), _NUMBER_TEXT, st.sampled_from(["", " ", "\t"]))
def test_rhs_grammar_parses_as_before_and_labels_parse_back(head, colon, number, pad):
    spec = pad + head + colon + number + pad
    try:
        want = _parse_rhs_with_each_head_written_out(spec)
    except ValueError:
        with pytest.raises(ValueError, match="bad rhs spec"):
            parse_rhs(spec)
        return
    got = parse_rhs(spec)
    assert got == want
    assert parse_rhs(got.label) == got
