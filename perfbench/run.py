"""Full-run benchmark of the VANET simulator: three workloads, one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload beacon-city --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload table1-sweep --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --workload storm-core --seed 1 --seconds 5 --trace 0 --smoke

``--trace 0`` repeats the workload in a fresh interpreter each time until
``--seconds`` are used up (at least three repeats) and reports the median
``wall_s``, ``setup_s`` and ``peak_rss_mb``; the two times are host seconds
scaled to a reference host speed (see ``child.py``), and the raw host times
are printed beside them.  ``--trace 1`` runs one untraced
and one traced repeat and reports the per-layer split.  Every repeat's
outputs are checked (see README.md); a failed check counts as a failed run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a result file stamped with host facts under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from host import host_facts  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
MIN_REPEATS = 3
#: A run must end within 180 s; no child may outlive this many seconds
#: after the run started.
RUN_LIMIT_S = 170.0

#: Metric name -> unit, in print order, from the benchmark's definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Printed and stored with the end-to-end metrics but not gated: the raw
#: host times drift with the host's speed, which the scaled ones cancel.
PRINTED_UNITS = {**END_TO_END_UNITS, "host_wall_s": "s", "host_setup_s": "s", "kernel_s": "s"}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Wall-phase self-time metric -> its layer.  Summed, they account for the
#: traced wall time.
ACCOUNTED = {
    "engine.self_s": "engine",
    "mobility.self_s": "mobility",
    "mac.self_s": "mac",
    "medium.self_s": "medium",
    "radio.self_s": "radio",
    "node.self_s": "node",
    "protocol.self_s": "protocol",
    "workload.self_s": "workload",
    "stats.self_s": "stats",
    "harness.finalize_s": "harness",
    "sweep.overhead_s": "sweep",
    "store.append_s": "store",
    "unattributed_s": "unattributed",
}


# ------------------------------------------------------------------ repeats
def spawn(
    workload: str, seed: int, scale: str, trace: int, work: Path, limit: float
) -> Dict[str, Any]:
    """Run one repeat in a fresh interpreter; its result, or an ``error``.

    The child is killed (and reaped) if it is still running at the
    monotonic time ``limit``.
    """
    work.mkdir(parents=True)
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--scale", scale,
        "--trace", str(trace),
        "--work", str(work),
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--t0", repr(started)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, limit - started),
        )
    except subprocess.TimeoutExpired:
        return {"error": "killed at the run's time limit", "elapsed": time.monotonic() - started}
    elapsed = time.monotonic() - started
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail), "elapsed": elapsed}
    result = json.loads(result_path.read_text())
    result["elapsed"] = elapsed
    trace_path = work / "trace.json"
    if trace_path.exists():
        result["trace_json"] = json.loads(trace_path.read_text())
    return result


def judge(repeats: List[Dict[str, Any]]) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Split repeats into passing ones and failure reasons (one per failed repeat).

    A repeat fails if it crashed, if one of its own checks failed, or if its
    digest of simulated statistics differs from the other repeats' -- the
    same workload and seed must simulate the same thing every time.
    """
    reasons: List[str] = []
    ran = []
    for index, repeat in enumerate(repeats):
        if "error" in repeat:
            reasons.append(f"repeat {index}: {repeat['error']}")
        elif repeat["failures"]:
            reasons.append(f"repeat {index}: " + "; ".join(repeat["failures"]))
        else:
            ran.append((index, repeat))
    if not ran:
        return [], reasons
    common, _ = Counter(r["digest"] for _, r in ran).most_common(1)[0]
    passed = []
    for index, repeat in ran:
        if repeat["digest"] == common:
            passed.append(repeat)
        else:
            reasons.append(f"repeat {index}: digest {repeat['digest'][:12]} != {common[:12]}")
    return passed, reasons


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ------------------------------------------------------------ digests file
def load_digests() -> Dict[str, Any]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def reference_status(digest: str, workload: str, seed: int, scale: str) -> str:
    expected = load_digests().get(scale, {}).get(workload, {}).get(str(seed))
    if expected is None:
        return f"no reference digest recorded for seed {seed}"
    if expected == digest:
        return "matches the recorded reference"
    return f"DIFFERS from the recorded reference {expected[:16]}: simulated behaviour changed"


def record_digest(digest: str, workload: str, seed: int, scale: str) -> None:
    table = load_digests()
    table.setdefault(scale, {}).setdefault(workload, {})[str(seed)] = digest
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


# -------------------------------------------------------------------- modes
def measure(args: argparse.Namespace, scale: str, work_root: Path, limit: float) -> Dict[str, Any]:
    """Untraced repeats until ``--seconds`` are used up (at least three)."""
    deadline = time.monotonic() + args.seconds
    repeats: List[Dict[str, Any]] = []
    while True:
        work = work_root / f"repeat-{len(repeats)}"
        repeats.append(spawn(args.workload, args.seed, scale, 0, work, limit))
        typical = statistics.median(r["elapsed"] for r in repeats)
        now = time.monotonic()
        if now + typical > limit or (len(repeats) >= MIN_REPEATS and now + typical > deadline):
            break
    passed, reasons = judge(repeats)
    metrics: Dict[str, float] = {}
    lines = [f"{len(repeats)} repeats, each in a fresh interpreter"]
    if passed:
        for name, unit in PRINTED_UNITS.items():
            q1, median, q3 = quartiles([r[name] for r in passed])
            if name in END_TO_END_UNITS:
                metrics[name] = median
            lines.append(
                f"  {name:<12} {median:10.4f} {unit:<3} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(passed)})"
            )
    attempted, failed = len(repeats), len(repeats) - len(passed)
    lines.append(f"  {'fail_frac':<12} {failed / attempted:10.4f} ratio ({failed} of {attempted} runs)")
    return {
        "repeats": repeats,
        "passed": passed,
        "reasons": reasons,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "lines": lines,
    }


def traced(args: argparse.Namespace, scale: str, work_root: Path, limit: float) -> Dict[str, Any]:
    """One untraced and one traced repeat; the per-layer split."""
    plain = spawn(args.workload, args.seed, scale, 0, work_root / "untraced", limit)
    probe = spawn(args.workload, args.seed, scale, 1, work_root / "traced", limit)
    repeats = [plain, probe]
    passed, reasons = judge(repeats)
    metrics: Dict[str, float] = {}
    lines = ["1 untraced and 1 traced repeat, each in a fresh interpreter"]
    if len(passed) == 2:
        layers = dict(probe["layers"])
        layers["engine.events_per_s"] = layers["engine.events"] / plain["host_wall_s"]
        layers["trace.overhead"] = probe["host_wall_s"] / plain["host_wall_s"] - 1.0
        metrics = {name: layers[name] for name in PER_LAYER_UNITS}
        summed = sum(metrics[name] for name in ACCOUNTED)
        if abs(summed - metrics["trace.wall_s"]) > 1e-3 * metrics["trace.wall_s"] + 1e-4:
            reasons.append(
                f"traced self times sum to {summed:.6f} s, not the traced wall "
                f"{metrics['trace.wall_s']:.6f} s"
            )
        for name, unit in PER_LAYER_UNITS.items():
            lines.append(f"  {name:<20} {metrics[name]:14.4f} {unit}")
        lines.append(
            f"  self times + unattributed = {summed:.4f} s; traced wall = "
            f"{metrics['trace.wall_s']:.4f} s; untraced wall = {plain['host_wall_s']:.4f} s"
        )
        lines.append(
            "  share of traced wall: "
            + shares({layer: metrics[name] for name, layer in ACCOUNTED.items()})
        )
        inside, outside = probe["span_cost_s"]
        lines.append(
            f"  share without the tracer's own cost ({1e6 * inside:.2f} us in, "
            f"{1e6 * outside:.2f} us around each span): {shares(probe['corrected_self_s'])}"
        )
    failed = 2 - len(passed)
    if failed == 0 and reasons:
        failed = 1  # the traced repeat's span accounting is off
    lines.append(f"  {'fail_frac':<20} {failed / 2:14.4f} ratio ({failed} of 2 runs)")
    return {
        "repeats": repeats,
        "passed": passed,
        "reasons": reasons,
        "metrics": metrics,
        "attempted": 2,
        "failed": failed,
        "lines": lines,
    }


def shares(self_s: Dict[str, float]) -> str:
    """``layer NN.N%`` for every layer with self time, largest first."""
    total = sum(self_s.values())
    return ", ".join(
        f"{layer} {100 * seconds / total:.1f}%"
        for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1])
        if seconds > 0
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true", help="scale every workload down to a few seconds"
    )
    parser.add_argument(
        "--record-digest",
        action="store_true",
        help="store this run's digest as the reference for its workload, seed and scale",
    )
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    limit = time.monotonic() + RUN_LIMIT_S
    scale = "smoke" if args.smoke else "full"
    work_root = OUT_DIR / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{scale}"
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        run = (traced if args.trace else measure)(args, scale, work_root, limit)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} scale={scale} trace={args.trace}")
    for line in run["lines"]:
        print(line)
    for reason in run["reasons"]:
        print(f"  FAILED CHECK {reason}")
    if not run["metrics"]:
        print("no repeat completed; no result", file=sys.stderr)
        return 1
    digest = run["passed"][0]["digest"]
    print(f"  digest {digest[:16]}: {reference_status(digest, args.workload, args.seed, scale)}")
    if args.record_digest:
        record_digest(digest, args.workload, args.seed, scale)
        print(f"  recorded as the reference in {DIGESTS.relative_to(ROOT)}")

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": v, "unit": units[name]} for name, v in run["metrics"].items()}
    correct = not run["reasons"]
    result_path = OUT_DIR / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{scale}.json"
    )
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(
        json.dumps(
            {
                "host": host_facts(ROOT),
                "code_version": run["passed"][0]["code_version"],
                "workload": args.workload,
                "seed": args.seed,
                "scale": scale,
                "trace": args.trace,
                "seconds": args.seconds,
                "digest": digest,
                "correct": correct,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "failures": run["reasons"],
                "metrics": metrics,
                "samples": {name: [r[name] for r in run["passed"]] for name in PRINTED_UNITS},
                "spans": run["repeats"][-1].get("trace_json"),
            },
            indent=1,
        )
    )
    print(f"  result file {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
