"""Golden metrics for the non-default radio presets.

``test_trace_equivalence.py`` pins the default ``ideal-disk-250m`` channel;
this module pins the others -- a two-ray channel, the shadowed
probabilistic channel, the raised-noise disk and Nakagami fading -- each
under one broadcast and one reactive protocol.  A change to the scalar
channel path (propagation draws, interference folding, reception
decisions) that moves any RNG draw or any bit of arithmetic shows up here
as a changed summary.  The fixture ``data/radio_golden_metrics.json`` is
regenerated only for an intended behaviour change, with
``PYTHONPATH=src python tests/radio/test_radio_golden_metrics.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.harness.runner import ExperimentRunner
from repro.harness.scenario import Scenario, highway_scenario
from repro.mobility.generator import TrafficDensity

GOLDEN_PATH = Path(__file__).parent / "data" / "radio_golden_metrics.json"

RADIOS = ("dsrc-highway-los", "dsrc-urban-nlos", "dsrc-congested", "nakagami")
PROTOCOLS = ("Flooding", "AODV")
SEED = 3

CELLS = [(radio, protocol) for radio in RADIOS for protocol in PROTOCOLS]


def _scenario(radio: str) -> Scenario:
    return highway_scenario(
        TrafficDensity.SPARSE,
        duration_s=10.0,
        max_vehicles=18,
        default_flow_count=2,
        seed=SEED,
        name=f"highway-{radio}-golden",
        radio_stack=radio,
    )


def _metrics(radio: str, protocol: str) -> dict:
    result = ExperimentRunner().run(_scenario(radio), protocol)
    return {"summary": result.summary, "extra": result.extra}


@pytest.mark.parametrize("radio,protocol", CELLS, ids=[f"{r}-{p}" for r, p in CELLS])
def test_radio_preset_reproduces_golden_metrics(radio, protocol):
    golden = json.loads(GOLDEN_PATH.read_text())[f"{radio}/{protocol}/seed{SEED}"]
    assert _metrics(radio, protocol) == golden


if __name__ == "__main__":
    fixture = {
        f"{radio}/{protocol}/seed{SEED}": _metrics(radio, protocol)
        for radio, protocol in CELLS
    }
    GOLDEN_PATH.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(fixture)} cells to {GOLDEN_PATH}\n")
