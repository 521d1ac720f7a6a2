"""The committed benchmark records (``BENCH_*.json``) are whole and follow one schema.

Each record holds sections (``workloads``, and optionally others such as
``development`` or ``trace``) that map a workload name to its ``seeds`` and
alternating parent/change ``runs``. Every run must have passed the benchmark's
correctness gate. The claim section, ``workloads``, carries each end-to-end
metric that ``BENCHMARK.json`` names; any metric a run carries is finite.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
SIDE_KEYS = {"correct", "failed", "exit"}


def _sections(record):
    return {k: v for k, v in record.items() if k not in ("description", "environment")}


def test_records_exist():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_schema(path):
    record = json.loads(path.read_text())
    assert isinstance(record.get("description"), str)
    assert isinstance(record.get("environment"), str)
    assert "workloads" in record
    for section, workloads in _sections(record).items():
        assert workloads, f"{section}: no workloads"
        for workload, entry in workloads.items():
            where = f"{section}.{workload}"
            runs = entry["runs"]
            assert entry["seeds"] == [run["seed"] for run in runs], where
            for run in runs:
                assert run.get("first", "parent") in ("parent", "change"), where
                for side in ("parent", "change"):
                    result = run[side]
                    at = f"{where} seed {run['seed']} {side}"
                    assert result["correct"] is True, at
                    assert result["failed"] == 0, at
                    required = END_TO_END if section == "workloads" else []
                    for name in required:
                        assert name in result, f"{at}: no {name}"
                    for name, value in result.items():
                        if name not in SIDE_KEYS:
                            assert isinstance(value, (int, float)), f"{at}: {name}"
                            assert math.isfinite(value), f"{at}: {name} = {value}"
