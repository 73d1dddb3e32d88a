"""Compare two result files written by ``run.py`` on the same host.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE.json NEW.json

Both files must describe the same workload, seed, scale and trace mode, and
must carry the same host facts (see ``host.py``): a baseline measured on
other hardware is refused (exit 2).  Every metric is printed with both
values and the relative change; an end-to-end metric that got worse by more
than its bound in ``BENCHMARK.json`` makes the exit code 1.  One pair of
runs is one sample: a claimed gain needs the paired runs described in
README.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from host import host_mismatches  # noqa: E402

SAME = ("workload", "seed", "scale", "trace")


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in args)
    differing = host_mismatches(base["host"], new["host"])
    if differing:
        print(f"refused: the results come from different hosts ({', '.join(differing)})")
        return 2
    setting = [key for key in SAME if base[key] != new[key]]
    if setting:
        print(f"refused: the results measure different settings ({', '.join(setting)})")
        return 2
    bounds = {}
    spec = HERE.parent / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m for m in json.loads(spec.read_text())["end_to_end"]}
    regressed = []
    print(f"{base['workload']} seed={base['seed']} {base['code_version'][:12]} -> {new['code_version'][:12]}")
    for name, entry in base["metrics"].items():
        old, cur = entry["value"], new["metrics"][name]["value"]
        change = (cur - old) / old if old else 0.0
        note = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            if worse > bounds[name]["bound"]:
                regressed.append(name)
                note = f"  WORSE than the {bounds[name]['bound']:.0%} bound"
        print(f"  {name:<22} {old:14.4f} -> {cur:14.4f} {entry['unit']:<8} {change:+8.1%}{note}")
    if base["digest"] != new["digest"]:
        print("  simulated statistics differ: the change altered simulated behaviour")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
