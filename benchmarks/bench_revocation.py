"""E6 bench — revocation-list operations (paper Section VIII-G2).

Besides the list primitives, the pipeline arms time the per-packet
revocation check where it actually runs — inside the border-router
egress loop with a 10k-entry ``revoked_ids`` list — over a world pinned
per crypto backend, scalar and batched (the §V-B burst regime prunes
once per burst instead of once per packet).
"""

import pytest

from repro.core.border_router import Action
from repro.crypto import backend as crypto_backend
from repro.crypto.rng import DeterministicRng
from repro.experiments import e6_revocation
from repro.experiments.common import build_bench_world
from repro.state import ColumnarRevocationList
from repro.workload.packets import build_apna_pool


@pytest.fixture(scope="module")
def loaded_list():
    revs = ColumnarRevocationList()
    rng = DeterministicRng(6)
    for i in range(10_000):
        revs.add(rng.read(16), 1e9 + i)
    return revs, rng


def test_revocation_lookup(benchmark, loaded_list):
    """The per-packet check every border router does (Fig. 4)."""
    revs, rng = loaded_list
    probe = rng.read(16)
    benchmark(revs.contains, probe)


def test_revocation_insert(benchmark):
    revs = ColumnarRevocationList()
    rng = DeterministicRng(7)
    ephids = [rng.read(16) for _ in range(4096)]
    state = {"i": 0}

    def insert():
        revs.add(ephids[state["i"] % len(ephids)], 1e9 + state["i"])
        state["i"] += 1

    benchmark(insert)


def test_prune_amortized(benchmark):
    """Expiry pruning cost when entries age out continuously."""
    rng = DeterministicRng(8)

    def build_and_prune():
        revs = ColumnarRevocationList()
        for i in range(500):
            revs.add(rng.read(16), float(i))
        return revs.prune(now=250.0)

    pruned = benchmark.pedantic(build_and_prune, rounds=5, iterations=1)
    assert pruned == 250


@pytest.fixture(scope="module", params=crypto_backend.available_backends())
def loaded_world(request):
    """A backend-pinned world whose router carries 10k live revocations."""
    with crypto_backend.use_backend(request.param):
        world = build_bench_world(seed=601, hosts_per_as=2)
        rng = DeterministicRng(66)
        for i in range(10_000):
            world.as_a.revocations.add(rng.read(16), 1e12 + i)
        packets = build_apna_pool(
            world.as_a, world.hosts_a, size=512, count=64, dst_aid=200
        ).apna_packets
        for verdict in world.as_a.br.process_batch(list(packets)):
            assert verdict.action is Action.FORWARD_INTER
    return request.param, world, packets


@pytest.mark.parametrize("mode", ["scalar", "batch"])
def test_egress_with_loaded_revocations(benchmark, loaded_world, mode):
    """Fig. 4's revoked_ids check under load, per backend and per mode."""
    name, world, packets = loaded_world
    br = world.as_a.br

    if mode == "scalar":

        def run_burst():
            process = br.process_outgoing
            for packet in packets:
                verdict = process(packet)
            assert verdict.action is Action.FORWARD_INTER

    else:

        def run_burst():
            verdicts = br.process_batch(packets)
            assert verdicts[-1].action is Action.FORWARD_INTER

    benchmark(run_burst)
    benchmark.extra_info["crypto_backend"] = name
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["burst_size"] = 64
    benchmark.extra_info["revoked_entries"] = 10_000


def test_e6_growth_shape(benchmark):
    """Bounded-vs-unbounded list growth, the Section VIII-G2 claim."""
    result = benchmark.pedantic(
        lambda: e6_revocation.run(duration=3600.0, quiet=True), rounds=1, iterations=1
    )
    benchmark.extra_info["final_pruned"] = result.pruned_sizes[-1]
    benchmark.extra_info["final_unpruned"] = result.unpruned_sizes[-1]
    benchmark.extra_info["hids_revoked"] = result.hids_revoked
    assert result.pruning_wins
