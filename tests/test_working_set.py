"""The traced working set of the batch pipeline stays where it was measured.

A stack's temporaries are its working set: the codec and the projector build
their stacks in place, so each holds few and small temporaries.  Measured
with ``tracemalloc`` (CPython 3.11, numpy 2.4.6; the same on every run), in
KB, before that change -> after it:

- ``full_report`` on 250 Haar (2, 3) states: 697 -> 421;
- ``full_report`` on 500 states: 1263 -> 714;
- ``verify._check_stack`` on 500 states: 1603 -> 1581, most of it the round
  trip's ``reconstruct(...) - rho`` and ``np.abs`` on top of what the
  stack's checks still hold.

Each bound is the value after plus 10 %, so a temporary that comes back fails.
"""

import tracemalloc

import pytest

from ent23 import RandomStream, full_report, haar_random
from ent23.verify import CHECK_NAMES, _check_stack


def traced_peak_kb(call) -> float:
    """Peak traced memory of ``call()`` above what was live before it, in KB,
    after one untraced call for first-use allocations."""
    call()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 1024
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("n, bound_kb", ((250, 463), (500, 786)))
def test_full_report_working_set(n, bound_kb):
    psi = haar_random((2, 3), RandomStream(5), n=n)
    assert traced_peak_kb(lambda: full_report(psi)) <= bound_kb


def test_check_stack_working_set():
    psi = haar_random((2, 3), RandomStream(5), n=500)
    peak = traced_peak_kb(lambda: _check_stack(psi, dict.fromkeys(CHECK_NAMES, 0.0), True))
    assert peak <= 1739
