"""The benchmark's output gate (``perfbench/gate.py``) compares each sweep
case's ``asdict(config)`` with the configuration ``perfbench/reference.json``
recorded for it; a SchemeConfig field dropped, renamed or added makes every
benchmark run read ``outputs_incorrect``. This test reads the reference (it
never writes it), so such a change fails here first.
"""

import json
import pathlib
from dataclasses import asdict

from ia_lab import SchemeConfig

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_every_reference_config_round_trips_through_scheme_config():
    workloads = json.loads(REFERENCE.read_text())["workloads"]
    configs = [case["config"] for workload in workloads.values()
               for case in workload.get("cases", ())]
    assert configs
    for config in configs:
        assert asdict(SchemeConfig(**config)) == config
