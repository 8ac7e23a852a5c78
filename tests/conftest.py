"""Shared test helpers."""

from types import SimpleNamespace

from repro.cowbird.api import CowbirdClient
from repro.cowbird.spot_engine import CowbirdSpotEngine
from repro.testbed import Testbed


def hand_built_cowbird(cowbird_config=None, spot=False, num_instances=1,
                       remote_bytes=1 << 20):
    """A Cowbird client on the Section 7 testbed, wired by hand.

    For tests ``build_microbench`` cannot serve: no offload engine (the
    test plays the engine itself), or non-default ``CowbirdConfig``
    rings.  ``spot=True`` adds a started spot engine on a one-core
    agent host, in the order ``build_microbench("cowbird", ...)`` uses.
    """
    bed = Testbed()
    compute = bed.add_host("compute", cpu_cores=8, smt=2)
    pool_host, pool = bed.add_pool("pool")
    region = pool.allocate_region(remote_bytes, name="cowbird-remote")
    client = CowbirdClient(compute, cowbird_config)
    client.register_remote_region(region)
    instances = [client.create_instance() for _ in range(num_instances)]
    engine = None
    if spot:
        engine = CowbirdSpotEngine(bed.add_host("spot-agent", cpu_cores=1, smt=2))
        for instance in instances:
            engine.register_instance(instance, {"pool": pool_host})
        engine.start()
    return SimpleNamespace(
        bed=bed, sim=bed.sim, compute=compute, pool_host=pool_host,
        instances=instances, region=region, engine=engine,
        pool_region=lambda: pool.region_for(region),
    )
