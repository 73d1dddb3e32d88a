"""One repeat of one workload, run in a fresh interpreter by ``run.py``.

Usage (``run.py`` spawns it; there is no reason to call it by hand)::

    python3 perfbench/child.py --workload beacon-city --seed 1 --scale full \\
        --trace 0 --t0 <time.monotonic() at spawn> --work <empty directory>

It imports ``repro`` from the checkout's ``src`` only, times the run, checks
its outputs and writes ``result.json`` (plus ``trace.json`` when traced) into
``--work``.  A fresh interpreter per repeat keeps process history out of the
numbers: ``Packet.uid`` is a process-global counter, and repeated builds in
one process grow slower.

Times are read from ``time.monotonic`` (``CLOCK_MONOTONIC``, shared by every
process on the host), so the set-up time can start at the parent's spawn.

The host's speed drifts by up to 2x over tens of seconds (other tenants on
the same machine), so the child also times a fixed pure-Python reference
kernel right before and right after the repeat, and scales the host times
to the speed at which that kernel takes :data:`KERNEL_NOMINAL_S`: the
reported ``wall_s`` and ``setup_s`` are host seconds at the reference
speed.  The raw host times are reported as ``host_wall_s`` and
``host_setup_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Iterations of the reference kernel.
REFERENCE_LOOPS = 500_000
#: The kernel's time at the reference speed (its typical time on the 2-core
#: Xeon VM the benchmark was built on).
KERNEL_NOMINAL_S = 0.1


def reference_kernel() -> float:
    """Seconds the host takes, right now, for a fixed pure-Python loop.

    List indexing, a C-function call and float arithmetic per iteration:
    of the loops tried, its time tracked the simulator's through the host's
    speed swings most closely (an integer-only loop tracked it worst).
    """
    values = [(i * 2654435761 % 1000) / 7.0 for i in range(256)]
    start = time.monotonic()
    total = 0.0
    for i in range(REFERENCE_LOOPS):
        total += math.hypot(values[i & 255], values[(i * 7) & 255])
    return time.monotonic() - start


def digest_of(payload: Any) -> str:
    """sha256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Probe:
    """Timestamps and simulated counters of every run in this process.

    Wraps ``ExperimentRunner.run``/``build`` and ``Simulator.run`` -- one
    call each per simulated run, so the untimed cost is negligible -- and
    tells the tracer (if any) where set-up ends and the measured wall time
    begins.
    """

    def __init__(self, after_run_phase: str) -> None:
        self.runs: List[Dict[str, Any]] = []
        self.after_run_phase = after_run_phase
        self.on_phase = lambda phase: None
        self._built: Optional[Any] = None

    def install(self) -> None:
        from repro.harness.runner import ExperimentRunner
        from repro.sim.engine import Simulator

        probe = self
        run, build, sim_run = ExperimentRunner.run, ExperimentRunner.build, Simulator.run

        def runner_run(runner, *args, **kwargs):
            record: Dict[str, Any] = {"entry": time.monotonic()}
            probe.runs.append(record)
            probe.on_phase("setup")
            result = run(runner, *args, **kwargs)
            record["exit"] = time.monotonic()
            probe.on_phase(probe.after_run_phase)
            record["summary"] = dict(result.summary)
            record["vehicles"] = result.vehicle_count
            record["rsus"] = result.rsu_count
            record["mac_retries"] = sum(
                node.mac.unicast_retries + node.mac.busy_deferrals
                for node in probe._built.network.nodes.values()
                if node.mac is not None
            )
            return result

        def runner_build(runner, *args, **kwargs):
            probe._built = build(runner, *args, **kwargs)
            return probe._built

        def simulator_run(sim, *args, **kwargs):
            record = probe.runs[-1]
            record["first_event"] = time.monotonic()
            probe.on_phase("wall")
            try:
                return sim_run(sim, *args, **kwargs)
            finally:
                record["events"] = sim.events_processed

        ExperimentRunner.run = runner_run
        ExperimentRunner.build = runner_build
        Simulator.run = simulator_run

    def run_digest(self, record: Dict[str, Any]) -> str:
        """Digest of one run's simulated statistics (no timings, no uids)."""
        return digest_of(
            {
                "summary": record["summary"],
                "events": record["events"],
                "vehicles": record["vehicles"],
                "rsus": record["rsus"],
            }
        )

    def sanity_failures(self) -> List[str]:
        failures = []
        for index, record in enumerate(self.runs):
            summary = record["summary"]
            if record.get("events", 0) <= 0:
                failures.append(f"run {index}: no event fired")
            if summary["data_sent"] <= 0:
                failures.append(f"run {index}: no data packet sent")
            if not 0.0 <= summary["delivery_ratio"] <= 1.0:
                failures.append(f"run {index}: delivery ratio {summary['delivery_ratio']}")
        return failures


def run_single(workload: str, seed: int, scale: str, t0: float, probe: Probe) -> Dict[str, Any]:
    from repro.harness.runner import ExperimentRunner

    from workloads import single_run

    scenario, protocol = single_run(workload, seed, scale)
    ExperimentRunner().run(scenario, protocol)
    (record,) = probe.runs
    return {
        "setup_s": record["first_event"] - t0,
        "wall_s": record["exit"] - record["first_event"],
        "failures": [],
        "resume_s": 0.0,
    }


def run_table1(seed: int, scale: str, t0: float, probe: Probe, work: Path) -> Dict[str, Any]:
    """Cold sweep into a fresh store, then a warm re-run from it."""
    from repro.harness import sweep as sweep_mod
    from repro.store.store import ExperimentStore

    from workloads import table1_matrix

    scenarios, protocols = table1_matrix(seed, scale)
    cells = len(scenarios) * len(protocols)
    store_dir = work / "store"
    cold = sweep_mod.sweep_replications(
        scenarios, protocols, seeds=[seed], workers=1, store=store_dir
    )
    cold_end = time.monotonic()
    probe.on_phase("off")
    runs = list(probe.runs)
    # Set-up is interpreter start to the first cell's first event, plus every
    # later cell's build-to-first-event interval; the rest is wall time.
    later_setup = sum(r["first_event"] - r["entry"] for r in runs[1:])
    failures: List[str] = []
    store = ExperimentStore(store_dir)
    report = store.verify()
    if not report.ok or report.record_count != cells:
        failures.append(f"store verify: ok={report.ok} records={report.record_count} {report.issues}")
    cold_digest = store.content_digest()
    warm_start = time.monotonic()
    warm = sweep_mod.sweep_replications(
        scenarios, protocols, seeds=[seed], workers=1, store=store_dir
    )
    resume_s = time.monotonic() - warm_start
    if cold.executed_cells != cells or len(runs) != cells:
        failures.append(f"cold sweep executed {cold.executed_cells} of {cells} cells")
    if warm.executed_cells != 0 or warm.reused_cells != cells:
        failures.append(
            f"warm re-run executed {warm.executed_cells} cells, reused {warm.reused_cells}"
        )
    if ExperimentStore(store_dir).content_digest() != cold_digest:
        failures.append("warm re-run changed the store's content digest")
    if [(r.scenario_name, r.protocol, r.summary) for r in warm.records] != [
        (r.scenario_name, r.protocol, r.summary) for r in cold.records
    ]:
        failures.append("warm re-run records differ from the cold sweep's")
    return {
        "setup_s": runs[0]["first_event"] - t0 + later_setup,
        "wall_s": cold_end - runs[0]["first_event"] - later_setup,
        "failures": failures,
        "resume_s": resume_s,
    }


def layer_metrics(tracer, probe: Probe, outcome: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of a traced repeat (see README.md)."""
    wall = tracer.phase_self("wall")
    setup = tracer.phase_self("setup")
    counts, totals = tracer.counts, tracer.total_s
    summaries = [r["summary"] for r in probe.runs]
    frames = counts["medium.frames"]
    return {
        "engine.events": float(sum(r["events"] for r in probe.runs)),
        "engine.self_s": wall["engine"],
        "engine.queue_s": wall["engine"] + setup["engine"],
        "mobility.steps": float(counts["mobility.steps"]),
        "mobility.self_s": wall["mobility"],
        "mac.enqueued": float(counts["mac.enqueued"]),
        "mac.self_s": wall["mac"],
        "mac.retries": float(sum(r["mac_retries"] for r in probe.runs)),
        "mac.queue_drops": sum(s["mac_queue_drops"] for s in summaries),
        "medium.frames": float(frames),
        "medium.self_s": wall["medium"],
        "medium.rx_per_frame": counts["node.deliveries"] / frames if frames else 0.0,
        "medium.collisions": sum(s["mac_collisions"] for s in summaries),
        "radio.calls": float(counts["radio.calls"]),
        "radio.self_s": wall["radio"],
        "node.deliveries": float(counts["node.deliveries"]),
        "node.self_s": wall["node"],
        "packet.views": float(counts["packet.views"]),
        "packet.copies": float(counts["packet.copies"]),
        "protocol.packets": float(counts["protocol.packets"]),
        "protocol.self_s": wall["protocol"],
        "protocol.control_tx": sum(s["control_transmissions"] for s in summaries),
        "workload.build_s": totals["workload.builds"],
        "workload.receives": float(counts["workload.receives"]),
        "workload.self_s": wall["workload"],
        "stats.calls": float(counts["stats.calls"]),
        "stats.self_s": wall["stats"],
        "harness.build_s": totals["harness.builds"],
        "harness.attach_s": totals["harness.attaches"],
        "harness.finalize_s": wall["harness"],
        "sweep.overhead_s": wall["sweep"],
        "store.appends": float(counts["store.appends"]),
        "store.append_s": wall["store"],
        "store.resume_s": outcome["resume_s"],
        "unattributed_s": wall["unattributed"],
        "trace.wall_s": outcome["wall_s"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    kernel_before = reference_kernel()

    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {SRC}")
    from repro.store.keys import code_version

    probe = Probe(after_run_phase="wall" if args.workload == "table1-sweep" else "off")
    probe.install()
    tracer = None
    if args.trace:
        from tracer import Tracer, corrected_self, install, span_cost

        cost = span_cost()
        tracer = Tracer(clock=time.monotonic)
        probe.on_phase = tracer.set_phase
        install(tracer)

    if args.workload == "table1-sweep":
        outcome = run_table1(args.seed, args.scale, args.t0, probe, args.work)
    else:
        outcome = run_single(args.workload, args.seed, args.scale, args.t0, probe)
    if tracer is not None:
        tracer.set_phase("off")

    kernel_s = (kernel_before + reference_kernel()) / 2
    # The first kernel ran inside the set-up window; it is not set-up work.
    host_setup_s = outcome["setup_s"] - kernel_before
    result = {
        "wall_s": outcome["wall_s"] * KERNEL_NOMINAL_S / kernel_s,
        "setup_s": host_setup_s * KERNEL_NOMINAL_S / kernel_s,
        "host_wall_s": outcome["wall_s"],
        "host_setup_s": host_setup_s,
        "kernel_s": kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest_of([probe.run_digest(record) for record in probe.runs]),
        "failures": outcome["failures"] + probe.sanity_failures(),
        "code_version": code_version(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, probe, outcome)
        result["span_cost_s"] = cost
        result["corrected_self_s"] = corrected_self(tracer, "wall", cost)
        (args.work / "trace.json").write_text(json.dumps(tracer.dump(), indent=1))
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
