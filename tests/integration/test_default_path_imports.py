"""The default delivery path must not import numpy.

numpy only backs the opt-in ``"vectorized"`` spatial backend.  Importing it
costs about 12.5 MB of resident memory, which a plain run on the default
backend should never pay, so this pins that a short beacon run in a fresh
interpreter finishes with numpy still unimported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

CHILD_SCRIPT = """
import json
import sys

from repro.harness.runner import ExperimentRunner
from repro.harness.scenarios import scenario_from_name

scenario = scenario_from_name(
    "city-grid-2km-normal",
    seed=3,
    duration_s=1.3,
    drain_s=0.3,
    workload="safety-beacon-10hz",
)
result = ExperimentRunner().run(scenario, "AODV")
print(json.dumps({
    "backend": scenario.spatial_backend,
    "delivered": result.summary["data_delivered"],
    "numpy_imported": "numpy" in sys.modules,
}))
"""


def test_default_backend_beacon_run_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_SRC}{os.pathsep}{env.get('PYTHONPATH', '')}".rstrip(
        os.pathsep
    )
    completed = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["backend"] == "grid"
    assert report["delivered"] > 0
    assert report["numpy_imported"] is False
