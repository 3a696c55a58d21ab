"""The chaos soak as a test: the acceptance gate for this stack.

The quick profile runs in well under a second and is tier-1: every
stream must encode and decode bit-identically through cuts, corruption,
stalls, partial writes and reorders, with at least one resume and one
shed observed, and a clean drain.  The fuller profile is
``chaos``-marked and runs in the blocking CI ``chaos`` job alongside
``repro chaos-soak``.
"""

import asyncio

import pytest

from repro.serve.soak import ChaosSoakConfig, run_chaos_soak


def run(config):
    return asyncio.run(asyncio.wait_for(run_chaos_soak(config), timeout=120))


def assert_acceptance(report, config):
    assert report.ok, report.failures
    checks = {check.name: check for check in report.checks}
    # Every stream's wire states match the fault-free encode AND decode
    # back to the original trace, with no per-stream problem recorded.
    streams = checks["streams encode and decode bit-identically"]
    assert streams.ok and not streams.detail
    assert report.stats["streams_verified"] == config.clients
    assert report.stats["resumes"] >= 1  # at least one checkpoint/resume exercised
    assert report.stats["sheds"] >= 1  # the overload phase really shed
    assert report.stats["reconnects"] >= 1  # cuts forced reconnection
    drain = report.stats["drain"]
    assert drain.get("drained") and not drain.get("outstanding")
    # The fault models actually fired: a soak that injected nothing
    # proves nothing.
    assert sum(report.stats["chaos"].values()) > 0


class TestQuickSoak:
    def test_quick_profile_passes(self):
        config = ChaosSoakConfig.quick(seed=0, clients=4)
        assert_acceptance(run(config), config)

    def test_quick_profile_is_seed_deterministic(self):
        # Same seed, same verdict and same injected-fault census: the
        # reproducibility claim the CLI's --seed flag makes.
        a = run(ChaosSoakConfig.quick(seed=3, clients=4))
        b = run(ChaosSoakConfig.quick(seed=3, clients=4))
        assert a.ok and b.ok
        assert a.stats["chaos"] == b.stats["chaos"]
        assert (a.stats["resumes"], a.stats["sheds"]) == (
            b.stats["resumes"],
            b.stats["sheds"],
        )


@pytest.mark.chaos
class TestFullSoak:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_full_profile_passes(self, seed):
        config = ChaosSoakConfig(seed=seed)
        assert_acceptance(run(config), config)
