"""Acceptance gate: one test per numbered claim of raflab.claims.

The tests are made from the registry itself, so every registered claim is
gated with no edit here: the claim "criterion-NN <slug>" becomes the test
test_criterion_NN_<slug> (dashes and spaces turned into underscores), in
registry order.  Each runs the same code `raf verify --suite full` runs, and
prints exactly one `PASS criterion-NN ...` / `FAIL criterion-NN ...` line
(visible with `pytest -s tests/test_acceptance.py`).  Grids, thresholds and
runtime budgets live in the registry only; a regression that merely makes
something slow also fails the gate.
"""

import re

from raflab.claims import CLAIMS, status_line


def _gate(claim):
    def test():
        ok, detail = claim.check()
        print(status_line(claim.name, ok, detail))
        assert ok, "%s: %s" % (claim.name, detail)

    test.__name__ = "test_" + re.sub(r"[- ]", "_", claim.name)
    return test


for _claim in CLAIMS:
    _test = _gate(_claim)
    globals()[_test.__name__] = _test
