"""RNG plumbing: explicit generators everywhere, no hidden global state.

Every stochastic component in the package takes an explicit seed or
:class:`numpy.random.Generator` (arrivals, fault-schedule loss draws,
partitioners, synthetic embeddings); nothing draws from numpy's global
stream.  The source-level audit lives in ``repro_lint`` rule R1 (run
repo-wide by ``tests/test_static_analysis.py``); here we keep a regression
test that R1 actually catches the known-bad patterns the old regex audit
used to hunt for.
"""

import numpy as np
import pytest

from repro.core.config import ServingConfig
from repro.serving.arrivals import arrival_times
from repro.utils.rng import ensure_rng


class TestEnsureRng:
    def test_none_gives_fresh_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        assert ensure_rng(123).random() == ensure_rng(123).random()

    def test_generator_passes_through_unwrapped(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_matches_default_rng_for_ints(self):
        # ensure_rng must stay a drop-in for default_rng(seed): swapping it
        # into existing components cannot move any golden value.
        assert ensure_rng(7).random() == np.random.default_rng(7).random()


class TestArrivalsAcceptGenerators:
    def test_seed_and_generator_agree(self):
        # SeedLike: an existing Generator may be passed as the seed itself.
        config = ServingConfig()
        via_seed = arrival_times(config, 50, seed=42)
        via_gen = arrival_times(config, 50, seed=np.random.default_rng(42))
        np.testing.assert_array_equal(via_seed, via_gen)


class TestLintCatchesHiddenGlobalRandomness:
    """The repro-lint R1 rule replaced this file's old regex source audit.

    These fixtures are the exact patterns the regex audit existed to catch;
    if R1 ever goes blind to them, this test — not just the linter's own
    suite — fails.
    """

    def test_r1_catches_global_np_random(self):
        from repro_lint import lint_source

        known_bad = (
            "import numpy as np\n"
            "np.random.seed(1234)\n"
            "ids = np.random.randint(0, 100, size=8)\n"
        )
        result = lint_source(known_bad, "src/repro/workloads/example.py")
        assert [v.rule for v in result.violations] == ["R1", "R1"]

    def test_r1_catches_stdlib_random_import(self):
        from repro_lint import lint_source

        result = lint_source("import random\n", "src/repro/workloads/example.py")
        assert [v.rule for v in result.violations] == ["R1"]