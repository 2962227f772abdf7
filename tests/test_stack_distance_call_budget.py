"""A wall-clock-free fence around the hit-rate curve's host cost.

The curve used to run a chunked Fenwick kernel: 512 accesses per chunk, each
chunk a 512 × 512 dominance matrix and batched tree walks, so Python-level
calls grew linearly with the stream (≈ 21 000 for 200 000 accesses).  It now
counts stack distances in ⌈log₂ m⌉ array passes over the m warm accesses, so
the regression that matters, "a Python loop over chunks or accesses came
back", is countable exactly: ``sys.setprofile`` ``call`` events
(``conftest.count_python_calls``), as in ``tests/test_engine_call_budget.py``.
The passes themselves are ufunc and ndarray-method calls, which are not
``call`` events; what is counted is the fixed set of wrappers around them.
"""

import numpy as np

from repro.caching.stack_distance import hit_rate_curve
from tests.conftest import count_python_calls

#: Python-level calls of one ``hit_rate_curve`` over a seeded 200 000-access
#: Zipf stream.  Measured 57 (CPython 3.11, NumPy 2.4; the same at 20 000
#: accesses); 21 194 with the chunked Fenwick kernel (2 002 at 20 000).
CALL_BUDGET = 300


def zipf_stream(length: int) -> np.ndarray:
    return np.random.default_rng(7).zipf(1.3, size=length)


def count_curve_calls(stream: np.ndarray):
    hit_rate_curve([1, 2, 1])  # NumPy imports some helpers on first use
    return count_python_calls(lambda: hit_rate_curve(stream))


def test_hit_rate_curve_calls_stay_within_budget():
    stream = zipf_stream(200_000)
    curve, calls = count_curve_calls(stream)
    assert curve.total_lookups == stream.size and curve.hit_rates[-1] > 0.5
    assert calls < CALL_BUDGET, f"{calls} Python calls (budget {CALL_BUDGET})"


def test_calls_grow_with_log_n_not_n():
    _, small = count_curve_calls(zipf_stream(20_000))
    _, large = count_curve_calls(zipf_stream(200_000))
    # Ten times the accesses adds a few array passes, not ten times the calls.
    assert large < 1.5 * small, (small, large)
