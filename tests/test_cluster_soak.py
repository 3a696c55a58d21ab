"""End-to-end cluster soak as a pytest (``chaos`` lane).

One quick-profile run of the kill-the-worker soak: real supervised
worker processes behind a real router, concurrent client streams,
SIGKILL mid-stream, a planned rebalance, and a full drain — asserting
the same invariants the CI gate enforces via ``repro cluster-soak``.
The config-validation tests (both serving soaks) are tier-1.
"""

import asyncio

import pytest

from repro.serve.cluster import TraceCluster
from repro.serve.soak import ChaosSoakConfig, ClusterSoakConfig, run_cluster_soak


def assert_acceptance(report, config):
    assert report.ok, f"cluster soak failed: {report.failures}"
    checks = {check.name: check.ok for check in report.checks}
    assert checks["streams encode and decode bit-identically"]
    assert report.stats["streams_verified"] == config.clients
    assert report.stats["kills"] >= 1
    assert report.stats["drain"].get("clean") is True


@pytest.mark.chaos
class TestClusterSoak:
    def test_quick_profile_passes_every_invariant(self):
        config = ClusterSoakConfig.quick()
        report = asyncio.run(run_cluster_soak(config))
        assert_acceptance(report, config)
        assert report.stats["failovers"] >= 1
        assert report.stats["migrations"] >= 1
        assert report.stats["worker_restarts"] >= 1

    def test_corpus_population_soak_verifies_bit_exact(self):
        # The acceptance run: clients stream members of a >=10k-stream
        # generator population and every stream must verify bit-exactly
        # against a local re-generation, straight through the kill.
        config = ClusterSoakConfig(
            workers=3, clients=6, cycles=240, chunk=20, seed=0,
            corpus="gen:mixed,seed=7,population=10000,cycles=240,width=16",
        )
        report = asyncio.run(run_cluster_soak(config))
        assert_acceptance(report, config)


class TestConfigValidation:
    def test_one_worker_cannot_fail_over(self):
        with pytest.raises(ValueError):
            ClusterSoakConfig(workers=1)

    def test_rejects_degenerate_sizing(self):
        with pytest.raises(ValueError):
            ClusterSoakConfig(clients=0)
        with pytest.raises(ValueError):
            ClusterSoakConfig(cycles=10, chunk=20)
        # `--kills 0` used to kill once anyway; `chaos-soak --chunk 0`
        # used to start a server and FAIL every stream on range()'s zero
        # step instead of refusing the input.
        for kills in (0, -1):
            with pytest.raises(ValueError, match="kills must be >= 1"):
                ClusterSoakConfig(kills=kills)
        for config in (ChaosSoakConfig, ClusterSoakConfig):
            with pytest.raises(ValueError, match="chunk"):
                config(chunk=0)

    def test_bad_corpus_spawns_no_worker(self, monkeypatch):
        # The source is resolved before the cluster starts: a bad spec
        # is an input error, not a cluster left running.
        started = []

        async def no_start(self):
            started.append(self)

        monkeypatch.setattr(TraceCluster, "start", no_start)
        config = ClusterSoakConfig(corpus="gen:nosuchprofile")
        with pytest.raises(ValueError, match="nosuchprofile"):
            asyncio.run(run_cluster_soak(config))
        assert started == []

    def test_corpus_chunk_checked_against_resolved_streams(self, monkeypatch):
        # Under --corpus, ``cycles`` does not size the streams: a chunk
        # longer than ``cycles`` but within the 240-cycle streams is
        # valid, and one longer than every stream is refused before the
        # cluster starts.
        started = []

        async def no_start(self):
            started.append(self)

        monkeypatch.setattr(TraceCluster, "start", no_start)
        corpus = "gen:mixed,seed=7,population=10000,cycles=240,width=16"
        ClusterSoakConfig(cycles=10, chunk=20, corpus=corpus)
        config = ClusterSoakConfig(cycles=10, chunk=241, corpus=corpus)
        with pytest.raises(ValueError, match=r"chunk \(241\) <= the longest stream \(240\)"):
            asyncio.run(run_cluster_soak(config))
        assert started == []
        with pytest.raises(ValueError, match="chunk"):
            ClusterSoakConfig(chunk=0, corpus=corpus)
