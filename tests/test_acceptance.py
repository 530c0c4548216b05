"""Acceptance gate: one test per numbered claim of raflab.claims.

Each test runs one claim of the registry, the same code `raf verify --suite
full` runs, and prints exactly one `PASS criterion-NN ...` /
`FAIL criterion-NN ...` line (visible with `pytest -s
tests/test_acceptance.py`).  Grids, thresholds and runtime budgets live in
the registry only; a regression that merely makes something slow also fails
the gate.
"""

from raflab.claims import CLAIMS, status_line


def _gate(name):
    (claim,) = [c for c in CLAIMS if c.name == name]
    ok, detail = claim.check()
    print(status_line(name, ok, detail))
    assert ok, "%s: %s" % (name, detail)


def test_criterion_01_exact_floor_identities():
    _gate("criterion-01 exact-floor-identities")


def test_criterion_02_beta_one_exactness():
    _gate("criterion-02 beta-one-exactness")


def test_criterion_03_delta_exactness():
    _gate("criterion-03 delta-exactness")


def test_criterion_04_closed_form_vs_solver():
    _gate("criterion-04 closed-form-vs-solver")


def test_criterion_05_three_smooth_rhs():
    _gate("criterion-05 three-smooth-rhs")


def test_criterion_06_mellin_agreement():
    _gate("criterion-06 mellin-agreement")


def test_criterion_07_zeta_evaluator():
    _gate("criterion-07 zeta-evaluator")


def test_criterion_08_scaled_transform():
    _gate("criterion-08 scaled-transform")


def test_criterion_09_regime_suite():
    _gate("criterion-09 regime-suite")


def test_criterion_10_index_estimation():
    _gate("criterion-10 index-estimation")


def test_criterion_11_bounded_coefficients():
    _gate("criterion-11 bounded-coefficients")


def test_criterion_12_oracle_equivalence():
    _gate("criterion-12 oracle-equivalence")


def test_criterion_13_jordan_sums():
    _gate("criterion-13 jordan-sums")


def test_criterion_14_performance():
    _gate("criterion-14 performance")


def test_criterion_15_smooth_bridge():
    _gate("criterion-15 smooth-bridge")


def test_criterion_16_mertens_ratio():
    _gate("criterion-16 mertens-ratio")
