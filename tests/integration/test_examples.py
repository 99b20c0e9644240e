"""Every example script must run clean — they are part of the deliverable.

Executed as subprocesses (fresh interpreter, like a user would) with
output sanity checks instead of golden files, since the examples print
measured numbers.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)

EXPECTED_MARKERS = {
    "quickstart.py": ["DP-RAM", "DP-IR", "DP-KVS", "Done."],
    "cluster_deployment.py": ["shard groups", "failover", "resharding",
                              "retrieval preserved", "Done."],
    "concurrent_serving.py": ["FIFO", "batched", "latency p95", "Done."],
    "continuous_batching.py": ["scheduler settings", "continuous",
                               "shed", "bounding the queue", "Done."],
    "private_advertising.py": ["impressions", "DP-IR", "linear PIR"],
    "kv_store_workload.py": ["YCSB", "DP-KVS", "ORAM-KVS"],
    "privacy_audit.py": ["strawman", "delta", "attack"],
    "oram_comparison.py": ["DP-RAM", "ORAM", "factor"],
    "deployment_review.py": ["Datasheet", "WAN", "budget"],
    "trace_cluster.py": ["span tree", "straggler", "Prometheus",
                         "epsilon spend timeline",
                         "identical canonical trace: True", "Done."],
    "monitor_serving.py": ["within bound", "TRIPPED",
                           "caught the cheat", "Done."],
}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for marker in EXPECTED_MARKERS.get(script.name, []):
        assert marker in result.stdout, (
            f"{script.name} output missing {marker!r}"
        )


def test_all_examples_have_markers():
    names = {path.name for path in EXAMPLES}
    assert names == set(EXPECTED_MARKERS), (
        "keep EXPECTED_MARKERS in sync with examples/"
    )
