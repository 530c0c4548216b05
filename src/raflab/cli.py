"""raf — command-line front end.

Subcommands and their own options, declared once with their built-in
defaults in _COMMANDS, which build_parser alone reads:
    solve --kernel --rhs --n --backend     hlr --kernel --beta --n
    scan --kernel --betas --n --slope-tol --const-tol
    index --kernel --grid --n --slope-tol --const-tol
    mellin --kernel --z --method --n       zeros --q --im
    count --what --n --oracle --sieve-cache
    jordan --beta --x --sieve-cache        mertens --x --sieve-cache
    verify --suite
--sieve-cache is on count, jordan and mertens only, the handlers that read
a sieve; elsewhere it is a usage error.  Every subcommand accepts --out
<path> (CSV artifact; a <out>.manifest.json sidecar records cmd/kernel/
rhs/n/backend/tolerances/outputs/wall_ms/version), --json (stdout is then
exactly one JSON document) and --config, a file holding one JSON object
read as the flags it stands for: key k with value v is --k=v ("_" read as
"-"), true the bare flag, false or null nothing.  Those flags go right
after the subcommand name, so its parser checks them as it checks the
rest, and the flags given later win: explicit flags > --config file >
built-in defaults.  A recorded kernel or rhs spec parses back to the
kernel and RHS that ran.

Each handler returns a Result; main() alone times it, writes the CSV and
manifest, and prints either the JSON document or the plain text.  wall_ms
covers the whole subcommand, sieve or cache load included.  The solve CSV
body is rendered as pre-formatted text blocks of SOLVE_CSV_BLOCK rows, after
the clock stops: float rows "%d,%.17g" are built with numpy (_float_rows),
byte for byte what % gives, and exact rows with %.  Every other CSV goes
through csv.writer, which quotes.
An --out write is atomic: the CSV and the manifest go to temp files next to
them, which replace the old pair only once both are complete, so a failed
write leaves an earlier CSV and manifest as they were.

`verify --suite exact|asymptotic|full` runs the claims of raflab.claims,
one PASS/FAIL line each; a claim that raises counts as FAIL.  `full` runs
every claim, so it is the command-line form of tests/test_acceptance.py.
A --sieve-cache file that load_cache rejects is reported with one
`warning:` line on stderr, then rebuilt and overwritten; a cache path that
cannot be read or written gets one `warning:` line per failed load or save.
A missing or too small cache is rebuilt silently.

Exit codes: 0 ok; 1 verification failure (an asserted identity or
tolerance was violated) or an index bracket failure; 2 usage or I/O error,
a singular kernel, a kernel/RHS the exact backend cannot take, an RHS
whose float R(n), s(m) or a_n is not finite, or an N too large for memory.
Option names and --config keys are spelt in full: a prefix is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__, claims
from .asymptotics import (
    DECAY_SLOPE_MAX,
    BracketFailureError,
    Tolerances,
    estimate_index,
    hlr_report,
    jordan_partial_check,
    mertens_ratio_report,
    regime_scan,
)
from .counting import _GRAMMAR as _COUNT_GRAMMAR, count_formula, count_oracle, parse_count_what
from .kernels import (
    FSpec,
    Ingham,
    Scaled,
    UnsupportedKernelError,
    _num,
    parse_kernel,
)
from .mellin import (
    PoleError,
    closed_transform,
    limit_transform,
    phi_f_zeros,
)
from .sieve import MobiusTable, load_cache, save_cache, sieve
from .solver import (
    BackendMismatchError,
    _GRAMMAR as _RHS_GRAMMAR,
    RhsSpec,
    SingularKernelError,
    VerificationError,
    parse_rhs,
    solve,
)

# ---------------------------------------------------------------------------
# small parsing/formatting helpers
# ---------------------------------------------------------------------------


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError('bad --z %r: use "<re>,<im>" or "<re>"' % (text,))


def _parse_betas(text: str) -> List[float]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            lo, hi, step = (float(p) for p in parts)
            if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi >= lo):
                raise ValueError
            count = int(round((hi - lo) / step))
            vals = [lo + i * step for i in range(count + 1)]
            return [v for v in vals if v <= hi + 1e-12]
    except (ValueError, OverflowError):  # (hi - lo) / step can overflow
        pass
    raise ValueError('bad range %r: use "<lo>:<hi>:<step>"' % (text,))


def _parse_im_range(text: str) -> Tuple[float, float]:
    parts = text.split(":")
    try:
        if len(parts) == 2:
            return float(parts[0]), float(parts[1])
    except ValueError:
        pass
    raise ValueError('bad --im %r: use "<lo>:<hi>"' % (text,))


def _fmt_c(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        return "%.10g" % z.real
    return "%.10g%+.10gi" % (z.real, z.imag)


def _f(x: float) -> str:
    return "%.17g" % float(x)


def _get_table(limit: int, cache: Optional[str]) -> MobiusTable:
    if not cache:
        return sieve(limit)
    try:
        t = load_cache(cache, limit)
        if t.limit >= limit:
            return t
    except FileNotFoundError:
        pass
    except OSError as exc:
        print("warning: sieve cache %s unusable: %s" % (cache, exc), file=sys.stderr)
    except ValueError as exc:
        print("warning: sieve cache %s rejected: %s; rebuilding" % (cache, exc),
              file=sys.stderr)
    t = sieve(limit)
    try:
        save_cache(t, cache)
    except OSError as exc:
        print("warning: sieve cache %s unusable: %s" % (cache, exc), file=sys.stderr)
    return t


def _tol_from(args: argparse.Namespace) -> Tolerances:
    kw = {}
    if args.slope_tol is not None:
        kw["slope_tol_low"] = args.slope_tol
        kw["slope_tol_high"] = max(args.slope_tol, 2 * args.slope_tol)
    if args.const_tol is not None:
        kw["const_tol"] = args.const_tol
    return Tolerances(**kw)


def _grid_meta(kernel, n: int, tol: Tolerances) -> Dict[str, object]:
    """Manifest fields of the beta-grid subcommands (scan, index)."""
    return {
        "kernel": kernel.spec, "rhs": "power:<grid>", "n": n, "backend": "float",
        "tolerances": {
            "slope_tol_low": tol.slope_tol_low,
            "slope_tol_high": tol.slope_tol_high,
            "const_tol": tol.const_tol,
            "decay_slope_max": DECAY_SLOPE_MAX,
        },
    }


@dataclass
class Result:
    """What a subcommand produced; main() times the handler, then emits this once.

    doc is the --json document and text the plain stdout.  header and rows
    are the --out CSV; rows may be a generator, consumed after the clock
    stops.  body, when set, replaces rows with pre-rendered CSV text (solve
    yields one string per block of rows), also consumed after the clock
    stops.  meta holds the manifest's kernel/rhs/n/backend/tolerances.  A
    doc dict holding a "wall_ms" key gets the subcommand's wall time there.
    """

    doc: object
    text: str
    header: Sequence[str]
    rows: Iterable[Sequence] = ()
    body: Optional[Iterable[str]] = None
    meta: Dict[str, object] = field(default_factory=dict)
    code: int = 0


def _emit(res: Result, args: argparse.Namespace, cmdline: str, wall_ms: int) -> None:
    """Write the --out CSV and its manifest sidecar, then print doc or text.

    Both files are written to <path>.<pid>.tmp first and replace their
    targets only once both are complete; the temp files never outlive a
    failure.
    """
    if args.out:
        paths = (args.out, args.out + ".manifest.json")
        tmps = ["%s.%d.tmp" % (p, os.getpid()) for p in paths]
        try:
            with open(tmps[0], "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(res.header)
                if res.body is None:
                    w.writerows(res.rows)
                else:
                    fh.writelines(res.body)
            manifest = {
                "cmd": cmdline, "kernel": None, "rhs": None, "n": None, "backend": None,
                "tolerances": {}, **res.meta,
                "outputs": [args.out], "wall_ms": wall_ms, "version": __version__,
            }
            with open(tmps[1], "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            for tmp, path in zip(tmps, paths):
                os.replace(tmp, path)
        except OSError as exc:
            if exc.filename not in tmps:
                raise
            # name the file that was asked for, not its temp file
            raise OSError(exc.errno, exc.strerror, paths[tmps.index(exc.filename)]) from exc
        finally:
            for tmp in tmps:
                if os.path.exists(tmp):
                    os.remove(tmp)
    if isinstance(res.doc, dict) and "wall_ms" in res.doc:
        res.doc["wall_ms"] = wall_ms
    print(json.dumps(res.doc) if args.json else res.text)


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a Result)
# ---------------------------------------------------------------------------


# Rows per pre-rendered text block of the solve CSV (both backends).  Rendering
# a float block peaks near 0.25 kB per row, about 1 MB at this size, which
# stays small beside the peak memory of a 2e4-row solve.
SOLVE_CSV_BLOCK = 4096

# The float rows "%d,%.17g\n" are built with numpy.  %.17g prints |x| rounded
# to 17 significant digits, D * 10^(X-16) with D in [10^16, 10^17): as
# fixed notation when -4 <= X < 17, as d.ddde+XX otherwise, with trailing
# zeros of the fraction and a bare point dropped.  D comes from |x| * 10^(16-X)
# by Dekker's two-product against 10^k held as a double-double hi + lo; the
# digits come from a table of the 10^4 four-digit groups.
_P10_MIN, _P10_MAX = -240, 270  # the k = 16 - X covered by |x| in [1e-250, 1e250]
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1


@functools.lru_cache(maxsize=None)
def _g17_tables():
    """(hi, lo, dig4, sig4): 10^k = hi + lo for k in [_P10_MIN, _P10_MAX]; the
    four ASCII digits of each group g < 10^4 as one uint32; and 4 minus the
    trailing zeros of g (0 for g = 0).  Built on first use (about 10 ms)."""
    ks = range(_P10_MIN, _P10_MAX + 1)
    hi = [float(Fraction(10) ** k) for k in ks]
    lo = [float(Fraction(10) ** k - Fraction(h)) for k, h in zip(ks, hi)]
    g = np.arange(10000)
    chars = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1) + ord("0")
    sig4 = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)
    sig4[0] = 0
    return np.array(hi), np.array(lo), chars.astype(np.uint8).view(np.uint32).ravel(), sig4


def _g17_digits(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(D, X), int64: |x| rounded to 17 significant digits is D * 10^(X-16),
    D in [10^16, 10^17).  0, inf and nan give D = 10^16, X = 0.

    The double-double product is good to about 1e-14, so only a fraction
    within 1e-6 of 1/2 could round the wrong way; such elements, |x| outside
    [1e-250, 1e250], and a D outside [10^16, 10^17) before or after rounding
    (log10 one off next to a power of ten) take D and X from Python's
    "%.16e" instead.
    """
    hi, lo, _, _ = _g17_tables()
    ax = np.abs(x)
    fast = (ax >= 1e-250) & (ax <= 1e250)
    ax[~fast] = 1.0
    X = np.floor(np.log10(ax)).astype(np.int64)
    k = 16 - _P10_MIN - X
    ph, pl = hi[k], lo[k]
    p = ax * ph
    c = _DEKKER_SPLIT * ax
    ah = c - (c - ax)
    al = ax - ah
    c = _DEKKER_SPLIT * ph
    bh = c - (c - ph)
    bl = ph - bh
    t = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + ax * pl  # |x| 10^(16-X) - p
    whole = np.floor(t)
    frac = t - whole
    D = p.astype(np.int64) + whole.astype(np.int64)  # p >= 2^53 is an integer
    slow = (np.abs(frac - 0.5) < 1e-6) | (D < 10**16)
    D += frac > 0.5
    slow |= (D >= 10**17) | ~fast & np.isfinite(x) & (x != 0)
    for i in np.flatnonzero(slow).tolist():
        text = "%.16e" % abs(float(x[i]))
        D[i] = int(text[0] + text[2:18])
        X[i] = int(text[19:])
    return D, X


def _digit_chars(v: np.ndarray, groups: int) -> Tuple[np.ndarray, np.ndarray]:
    """(g, chars): the base-10^4 digits g (groups, len(v)) of v < 10^(4*groups),
    most significant first, and their ASCII digits (4*groups, len(v))."""
    dig4 = _g17_tables()[2]
    g = np.empty((groups, len(v)), dtype=np.int64)
    for j in range(groups - 1, 0, -1):
        q = v // 10000
        g[j] = v - 10000 * q
        v = q
    g[0] = v
    chars = dig4[g].view(np.uint8).reshape(groups, -1, 4).transpose(0, 2, 1)
    return g, chars.reshape(4 * groups, -1)


_SLOTS18 = np.arange(18)[:, None]


def _float_rows(first: int, x: np.ndarray) -> str:
    """"%d,%.17g\n" % (first + i, x[i]) for each i, joined, byte for byte.

    Each row is laid out in fixed slots, one row of a slot-major uint8
    array per slot, NUL in a slot the row does not use: n, ",", sign,
    "0.000" (fixed notation below 1), 18 slots for the 17 digits and a
    point, "e+XXX", newline.  One transpose and bytes.translate, which
    drops the NULs, give the text.
    """
    rows = len(x)
    sig4 = _g17_tables()[3]
    D, X = _g17_digits(x)
    n = np.arange(first, first + rows, dtype=np.int64)
    wn = len(str(first + rows - 1))
    lead = 10 ** np.arange(wn - 1, -1, -1, dtype=np.int64)
    lead[-1] = 0
    out = np.zeros((wn + 31, rows), dtype=np.uint8)  # n and 1 + 1 + 5 + 18 + 5 + 1 slots
    out[:wn] = _digit_chars(n, -(-wn // 4))[1][-wn:] * (n >= lead[:, None])
    out[wn] = ord(",")
    out[wn + 1] = (np.signbit(x) & ~np.isnan(x)) * np.uint8(ord("-"))

    # D as "000" and 17 digits; nsig digits up to the last nonzero one
    g, chars = _digit_chars(D, 5)
    digits = chars[3:]
    nsig = ((4 * np.arange(5)[:, None] - 3 + sig4[g]) * (g != 0)).max(0)
    fixed = (X >= -4) & (X < 17)
    small = fixed & (X < 0)  # "0." and -X-1 zeros, then every digit after the point
    ip = np.where(fixed, np.maximum(X + 1, 0), 1)  # digits before the point
    pre = wn + 2
    out[pre] = small * np.uint8(ord("0"))
    out[pre + 1] = small * np.uint8(ord("."))
    out[pre + 2 : pre + 5] = ((X <= -2 - np.arange(3)[:, None]) & small) * np.uint8(ord("0"))
    body = out[pre + 5 : pre + 23]  # digit j at slot j before the point, j + 1 after it
    np.multiply(digits, _SLOTS18[:17] < ip, out=body[:17])
    body[1:] += digits * ((_SLOTS18[1:] > ip) & (_SLOTS18[1:] <= nsig))
    body += ((_SLOTS18 == ip) & (nsig > ip) & ~small) * np.uint8(ord("."))

    exp = pre + 23
    e = ~fixed
    ae = np.abs(X)
    out[exp] = e * np.uint8(ord("e"))
    out[exp + 1] = e * np.where(X < 0, ord("-"), ord("+"))
    out[exp + 2] = (e & (ae >= 100)) * (ord("0") + ae // 100)
    out[exp + 3] = e * (ord("0") + ae // 10 % 10)
    out[exp + 4] = e * (ord("0") + ae % 10)
    out[exp + 5] = ord("\n")
    for mask, text in ((x == 0, b"0"), (np.isinf(x), b"inf"), (np.isnan(x), b"nan")):
        idx = np.flatnonzero(mask)
        if len(idx):  # these rows hold "1" (D = 10^16, X = 0) in the first digit slot
            out[pre + 5 : pre + 5 + len(text), idx] = np.frombuffer(text, np.uint8)[:, None]
    return out.T.tobytes().translate(None, b"\0").decode("ascii")


def _solve_body(a, limit: int, exact: bool) -> Iterator[str]:
    """Rows n = 1..limit of the solve CSV, SOLVE_CSV_BLOCK rows per string.

    A float row is "%d,%.17g" (the _f format), built with numpy by
    _float_rows; an exact row is n, numerator, denominator, built with %.
    Neither can hold a character csv.writer would quote.
    """
    for lo in range(1, limit + 1, SOLVE_CSV_BLOCK):
        hi = min(lo + SOLVE_CSV_BLOCK, limit + 1)
        if not exact:
            yield _float_rows(lo, a[lo:hi])
            continue
        cells: list = [0] * (3 * (hi - lo))
        cells[0::3] = range(lo, hi)
        cells[1::3] = [x.numerator for x in a[lo:hi]]
        cells[2::3] = [x.denominator for x in a[lo:hi]]
        yield ("%d,%d,%d\n" * (hi - lo)) % tuple(cells)


def _cmd_solve(args: argparse.Namespace) -> Result:
    kernel = parse_kernel(args.kernel)
    rhs = parse_rhs(args.rhs)
    coeffs = solve(kernel, rhs, args.n, backend=args.backend)
    a = coeffs.values
    limit = coeffs.limit
    exact = coeffs.backend == "exact"
    header = ("n", "a_num", "a_den") if exact else ("n", "a_n")
    head = [str(a[k]) if exact else float(a[k]) for k in range(1, min(limit, 10) + 1)]
    return Result(
        doc={
            "kernel": kernel.spec, "rhs": rhs.label, "n": args.n,
            "backend": coeffs.backend, "a_head": head, "wall_ms": None,
            "outputs": [args.out] if args.out else [],
        },
        text="solved %s | %s | n=%d backend=%s: a_1=%s a_%d=%s"
        % (kernel.spec, rhs.label, args.n, coeffs.backend, a[1], limit, a[limit]),
        header=header,
        body=_solve_body(a, limit, exact),
        meta={"kernel": kernel.spec, "rhs": rhs.label, "n": args.n, "backend": coeffs.backend},
    )


_SCAN_HEADER = ("beta", "slope", "stderr", "pred_const_re", "pred_const_im", "emp_const", "verdict")


def _verdict_row(v) -> Tuple[str, ...]:
    """One _SCAN_HEADER row; a missing predicted or empirical constant is nan."""
    pred = v.predicted_constant
    if pred is None:
        pred = complex(math.nan, math.nan)
    emp = v.empirical_constant if v.empirical_constant is not None else math.nan
    return (
        "%g" % v.beta, _f(v.fitted_slope), _f(v.slope_stderr),
        _f(pred.real), _f(pred.imag), _f(emp), v.verdict,
    )


def _cmd_scan(args: argparse.Namespace) -> Result:
    kernel = parse_kernel(args.kernel)
    tol = _tol_from(args)
    rows = [_verdict_row(v) for v in regime_scan(kernel, _parse_betas(args.betas), args.n, tol)]
    return Result(
        doc=[dict(zip(_SCAN_HEADER, r)) for r in rows],
        text="\n".join(",".join(r) for r in [_SCAN_HEADER] + rows),
        header=_SCAN_HEADER,
        rows=rows,
        meta=_grid_meta(kernel, args.n, tol),
    )


def _cmd_index(args: argparse.Namespace) -> Result:
    kernel = parse_kernel(args.kernel)
    grid = _parse_betas(args.grid)
    tol = _tol_from(args)
    est = estimate_index(kernel, grid, args.n, tol)
    return Result(
        doc={
            "kernel": kernel.spec, "alpha_hat": est.alpha_hat,
            "beta_lo": est.beta_lo, "beta_hi": est.beta_hi,
            "bisections": est.bisections, "wall_ms": None,
        },
        text="alpha_hat=%.6g bracket=[%.6g, %.6g] after %d bisections (%s)"
        % (est.alpha_hat, est.beta_lo, est.beta_hi, est.bisections, kernel.spec),
        header=_SCAN_HEADER,
        rows=[_verdict_row(v) for v in est.grid],
        meta=_grid_meta(kernel, args.n, tol),
    )


def _cmd_hlr(args: argparse.Namespace) -> Result:
    kernel = parse_kernel(args.kernel)
    rhs = RhsSpec("delta") if args.beta == math.inf else RhsSpec("power", args.beta)
    rep = hlr_report(solve(kernel, rhs, args.n))
    return Result(
        doc={
            "sup_abs": rep.sup_abs, "growth_exponent": rep.growth_exponent,
            "prime_tail_mean": rep.prime_tail_mean, "limit": rep.limit,
            "primes_used": rep.primes_used,
        },
        text="sup|n a_n| = %.10g  growth_exponent = %.4g  prime_tail_mean = %.6g  (n <= %d)"
        % (rep.sup_abs, rep.growth_exponent, rep.prime_tail_mean, rep.limit),
        header=("sup_abs", "growth_exponent", "prime_tail_mean", "limit", "primes_used"),
        rows=[(_f(rep.sup_abs), _f(rep.growth_exponent), _f(rep.prime_tail_mean),
               rep.limit, rep.primes_used)],
        meta={"kernel": kernel.spec, "rhs": rhs.label, "n": args.n, "backend": "float"},
    )


def _cmd_mellin(args: argparse.Namespace) -> Result:
    kernel = parse_kernel(args.kernel)
    z = _parse_z(args.z)
    if args.method == "closed":
        tr = closed_transform(kernel, z)
    else:
        tr = limit_transform(kernel, z, args.n)
    return Result(
        doc={
            "kernel": kernel.spec, "z": [z.real, z.imag], "method": tr.method,
            "value": [tr.value.real, tr.value.imag], "n": tr.n, "note": tr.note,
        },
        text=_fmt_c(tr.value) + ("  (%s)" % tr.note if tr.note else ""),
        header=("kernel", "z_re", "z_im", "method", "value_re", "value_im", "n"),
        rows=[(kernel.spec, _f(z.real), _f(z.imag), tr.method,
               _f(tr.value.real), _f(tr.value.imag), tr.n if tr.n else "")],
        meta={"kernel": kernel.spec, "n": args.n},
    )


def _cmd_zeros(args: argparse.Namespace) -> Result:
    lo, hi = _parse_im_range(args.im)
    zs = phi_f_zeros(args.q, (lo, hi))
    kernel = Scaled(Ingham(), FSpec("exp_plus_one", q=args.q))
    title = "%d zero(s) of the f-relative transform, q=%d, Im in [%g, %g]:" % (
        len(zs), args.q, lo, hi)
    return Result(
        doc=[{"q": args.q, "re": z.real, "im": z.imag} for z in zs],
        text="\n".join([title] + ["  %s" % _fmt_c(z) for z in zs]),
        header=("q", "re", "im", "abs_value"),
        rows=[(args.q, _f(z.real), _f(z.imag), _f(abs(closed_transform(kernel, z).value)))
              for z in zs],
        meta={"kernel": kernel.spec},
    )


def _cmd_count(args: argparse.Namespace) -> Result:
    spec = parse_count_what(args.what, args.n)
    formula = count_formula(spec, _get_table(spec.mu_limit, args.sieve_cache))
    oracle = count_oracle(spec) if args.oracle else None
    match = None if oracle is None else formula == oracle
    text = "formula=%d" % formula
    if oracle is not None:
        text += " oracle=%d match=%s" % (oracle, str(match).lower())
    return Result(
        doc={"what": spec.label, "n": spec.n, "formula": formula, "oracle": oracle, "match": match},
        text=text,
        header=("what", "n", "formula", "oracle", "match"),
        rows=[(spec.label, spec.n, formula, "" if oracle is None else oracle,
               "" if match is None else str(match).lower())],
        meta={"n": args.n},
        code=1 if match is False else 0,
    )


def _cmd_jordan(args: argparse.Namespace) -> Result:
    rep = jordan_partial_check(_get_table(args.x, args.sieve_cache), args.beta, args.x)
    return Result(
        doc={
            "beta": rep.beta, "x": rep.limit, "slope": rep.slope, "stderr": rep.stderr,
            "predicted_constant": rep.predicted_constant,
            "empirical_constant": rep.empirical_constant,
        },
        text="jordan beta=%g x<=%d: slope=%.4f (expect %.4f), constant=%.6g (predicted %.6g)"
        % (rep.beta, rep.limit, rep.slope, 1.0 - rep.beta,
           rep.empirical_constant, rep.predicted_constant),
        header=("x", "jordan_sum"),
        rows=[(int(x), _f(v)) for x, v in zip(rep.checkpoints, rep.values)],
        meta={"rhs": "jordan:" + _num(args.beta), "n": args.x},
    )


def _cmd_mertens(args: argparse.Namespace) -> Result:
    rep = mertens_ratio_report(_get_table(args.x, args.sieve_cache), args.x)
    return Result(
        doc={"x": rep.limit, "max_ratio": rep.max_ratio, "argmax_x": rep.argmax_x},
        text="max |M(x)|/sqrt(x) over 2<=x<=%d: %.6f at x=%d"
        % (rep.limit, rep.max_ratio, rep.argmax_x),
        header=("limit", "max_ratio", "argmax_x"),
        rows=[(rep.limit, _f(rep.max_ratio), rep.argmax_x)],
        meta={"n": args.x},
    )


def _cmd_verify(args: argparse.Namespace) -> Result:
    results = []
    for claim in claims.suite(args.suite):
        try:
            ok, detail = claim.check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        results.append((claim.name, bool(ok), detail))  # ok may be a numpy bool
    failed = sum(not ok for _, ok, _ in results)
    lines = [claims.status_line(*r) for r in results]
    lines.append("suite=%s checks=%d failed=%d" % (args.suite, len(results), failed))
    return Result(
        doc={
            "suite": args.suite, "failed": failed, "wall_ms": None,
            "checks": [{"name": name, "ok": ok, "detail": detail}
                       for name, ok, detail in results],
        },
        text="\n".join(lines),
        header=("check", "status", "detail"),
        rows=[(name, "PASS" if ok else "FAIL", detail) for name, ok, detail in results],
        code=0 if failed == 0 else 1,
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    """A subcommand's handler, help and own options, each a (flag, built-in
    default, add_argument keywords) triple; build_parser adds _COMMON, and
    --sieve-cache where the handler calls _get_table."""

    handler: Callable[[argparse.Namespace], Result]
    help: str
    options: Tuple[Tuple[str, object, dict], ...]
    sieve_cache: bool = False


_COMMON = (
    ("--out", None, {"help": "write CSV artifact (+ manifest sidecar)"}),
    ("--json", False, {"action": "store_true", "help": "machine-readable stdout"}),
    ("--config", None, {"help": "JSON config file (flags override it)"}),
)
_SIEVE_CACHE = ("--sieve-cache", None, {"help": "path for the binary sieve cache"})
_TOLS = (("--slope-tol", None, {"type": float}), ("--const-tol", None, {"type": float}))

_COMMANDS: Dict[str, _Command] = {
    "solve": _Command(_cmd_solve, "solve the triangular system a_1..a_N", (
        ("--kernel", "ingham", {}),
        ("--rhs", "power:1", {"help": _RHS_GRAMMAR}),
        ("--n", 10_000, {"type": int}),
        ("--backend", "float", {"choices": ("float", "exact")}),
    )),
    "scan": _Command(_cmd_scan, "regime verdicts over a beta range", (
        ("--kernel", "ingham", {}),
        ("--betas", "0:1:0.25", {"help": "<lo>:<hi>:<step>"}),
        ("--n", 100_000, {"type": int}),
        *_TOLS,
    )),
    "index": _Command(_cmd_index, "bracket the regularity index", (
        ("--kernel", "ingham", {}),
        ("--grid", "0.1:0.9:0.1", {"help": "<lo>:<hi>:<step>"}),
        ("--n", 100_000, {"type": int}),
        *_TOLS,
    )),
    "hlr": _Command(_cmd_hlr, "bounded-coefficient report (sup |n a_n|, prime tail)", (
        ("--kernel", "ingham", {}),
        ("--beta", 1.0, {"type": float}),
        ("--n", 100_000, {"type": int}),
    )),
    "mellin": _Command(_cmd_mellin, "evaluate a transform at one point", (
        ("--kernel", "ingham", {}),
        ("--z", "-1,0", {"help": '"<re>,<im>"'}),
        ("--method", "closed", {"choices": ("closed", "limit")}),
        ("--n", 100_000, {"type": int, "help": "truncation for --method limit"}),
    )),
    "zeros": _Command(_cmd_zeros, "critical-line zeros of the q^x+1 scaled transform", (
        ("--q", 2, {"type": int}),
        ("--im", "0:10", {"help": "<lo>:<hi>"}),
    )),
    "count": _Command(_cmd_count, "exact floor/Mobius counting identities", (
        ("--what", "coprime:1", {"help": _COUNT_GRAMMAR}),
        ("--n", 1000, {"type": int}),
        ("--oracle", False, {"action": "store_true", "help": "also run the brute-force oracle"}),
    ), sieve_cache=True),
    "jordan": _Command(_cmd_jordan, "generalized Jordan partial sums vs main term", (
        ("--beta", 0.25, {"type": float}),
        ("--x", 100_000, {"type": int}),
    ), sieve_cache=True),
    "mertens": _Command(_cmd_mertens, "max |M(x)|/sqrt(x) report", (
        ("--x", 100_000, {"type": int}),
    ), sieve_cache=True),
    "verify": _Command(_cmd_verify, "bundled verification suites", (
        ("--suite", "exact", {"choices": claims.SUITES}),
    )),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse's own error line, without its usage block
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="raf",
        allow_abbrev=False,
        description="Triangular-recurrence solver, Mellin transforms, regularity "
        "indices, and exact floor/Mobius counting identities.",
    )
    ap.add_argument("--version", action="version", version="raf-lab " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        extra = (_SIEVE_CACHE,) if cmd.sieve_cache else ()
        for flag, default, kw in cmd.options + _COMMON + extra:
            sp.add_argument(flag, default=default, **kw)
        # accept values like "-1,0" or "-2:0" after value-taking options
        sp._negative_number_matcher = re.compile(r"^-\d")
    return ap


def _config_flags(path: str) -> List[str]:
    """The flags the JSON object in a --config file stands for."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("--config must contain a JSON object")
    return ["--" + key.replace("_", "-") + ("" if val is True else "=%s" % (val,))
            for key, val in cfg.items() if val is not False and val is not None]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:  # its flags go before the given ones, which then win
            at = argv.index(args.command) + 1
            args = ap.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])
        t0 = time.monotonic()
        res = _COMMANDS[args.command].handler(args)
        wall_ms = int(1000 * (time.monotonic() - t0))
        _emit(res, args, "raf " + " ".join(str(a) for a in argv), wall_ms)
        return res.code
    except SystemExit as exc:  # argparse has printed its one line, or the help
        return 2 if exc.code not in (0, None) else 0
    except BracketFailureError as exc:
        print("index bracket failure: %s" % exc, file=sys.stderr)
        return 1
    except VerificationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (UnsupportedKernelError, PoleError, SingularKernelError, BackendMismatchError,
            ValueError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
