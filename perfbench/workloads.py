"""The benchmark's three workloads, built only from the program's public surface.

Every workload is a full run of shipped presets: a registered protocol, a
registered workload preset and a shipped scenario preset, through the MAC,
the protocols, the workload callbacks, the stats collector and the harness
(plus the experiment store for ``table1-sweep``).  The spatial backend is
left at its default so the benchmark measures what users get.  Only
scenario presets, ``workload_params``, ``HighwayConfig`` and plain scenario
overrides (seed, duration, radio preset) are used -- never the ``FlowSpec``
/ ``RadioConfig`` shims or ``spatial_backend`` -- so removing those shims
cannot silently change the benchmark's inputs.

``scale="smoke"`` shrinks each workload to a few seconds for the
benchmark's own tests; ``scale="full"`` is what the timed runs use.
"""

from __future__ import annotations

from typing import List, Tuple

#: Simulated seconds (beacons start at 1 s) and drain of ``beacon-city``.
BEACON_DURATION_S = {"full": 3.0, "smoke": 1.3}
BEACON_DRAIN_S = {"full": 1.0, "smoke": 0.3}
#: ``storm-core`` events (the preset has 8) over the preset's 40 s.
STORM_EVENTS = {"full": 16, "smoke": 2}
STORM_DURATION_S = {"full": 40.0, "smoke": 6.0}
#: ``table1-sweep`` run length and CBR traffic (5 flows, 5 Hz from 1 s on).
TABLE1_DURATION_S = {"full": 2.0, "smoke": 1.5}
TABLE1_PACKETS = {"full": 5, "smoke": 2}
TABLE1_MAX_VEHICLES = {"full": 170, "smoke": 60}
TABLE1_DENSITIES = ("sparse", "normal", "congested")


def single_run(workload: str, seed: int, scale: str):
    """``(scenario, protocol)`` of a single-run workload."""
    from repro.harness.scenarios import scenario_from_name

    if workload == "beacon-city":
        scenario = scenario_from_name(
            "city-grid-2km-normal",
            seed=seed,
            duration_s=BEACON_DURATION_S[scale],
            drain_s=BEACON_DRAIN_S[scale],
            workload="safety-beacon-10hz",
            radio_stack="ideal-disk-250m",
        )
        return scenario, "AODV"
    if workload == "storm-core":
        scenario = scenario_from_name(
            "city-core-1km-congested",
            seed=seed,
            duration_s=STORM_DURATION_S[scale],
            workload="event-burst-storm",
            workload_params={"event_count": STORM_EVENTS[scale]},
            radio_stack="dsrc-urban-nlos",
        )
        return scenario, "Flooding"
    raise KeyError(f"{workload!r} is not a single-run workload")


def table1_matrix(seed: int, scale: str) -> Tuple[List[object], List[str]]:
    """Scenarios and protocols of the Table I sweep (5 categories x 3 densities).

    The road is the 2.5 km highway with one lane per direction, RSUs every
    500 m and 5 CBR flows, as in the repository's Table I benchmark.
    """
    from repro.harness.compare import DEFAULT_REPRESENTATIVES
    from repro.harness.scenarios import scenario_from_name
    from repro.mobility.highway import HighwayConfig

    scenarios = [
        scenario_from_name(
            f"highway-2km-{density}",
            seed=seed,
            highway=HighwayConfig(length_m=2500.0, lanes_per_direction=1, bidirectional=True),
            rsu_spacing_m=500.0,
            max_vehicles=TABLE1_MAX_VEHICLES[scale],
            duration_s=TABLE1_DURATION_S[scale],
            drain_s=1.0,
            workload="cbr",
            workload_params={
                "flow_count": 5,
                "start_time_s": 1.0,
                "interval_s": 0.2,
                "packet_count": TABLE1_PACKETS[scale],
            },
        )
        for density in TABLE1_DENSITIES
    ]
    return scenarios, list(DEFAULT_REPRESENTATIVES.values())
