"""Smoke test of the benchmark itself, at ``--seconds 0``: every visit
then runs its minimum of two segments, so the work is fixed.

Not collected by tier-1 (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import subprocess
import sys
import types

import pytest

from benchmarks.e2e import __main__ as one_command
from benchmarks.e2e import measure
from benchmarks.e2e.workloads import WORKLOADS


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(the contract's last stdout line, the full result file)."""
    done = subprocess.run(
        [sys.executable, str(measure.ROOT / "benchmarks/e2e/run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    with open(measure.OUT / f"run_{workload}.json") as handle:
        return json.loads(done.stdout.splitlines()[-1]), json.load(handle)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    name = request.param
    return name, run(name, 1, 0), run(name, 1, 1)


def test_every_listed_metric_is_emitted_with_its_unit(runs):
    _, (plain, _), (traced, _) = runs
    contract = measure.contract()
    for line, listed in ((plain, contract["end_to_end"]),
                         (traced, contract["per_layer"])):
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in listed} == {
            name: metric["unit"] for name, metric in line["metrics"].items()}
        assert all(isinstance(metric["value"], (int, float))
                   for metric in line["metrics"].values())
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_counts_repeat_exactly_at_one_seed(runs):
    _, (_, first), (_, second) = runs
    # Visit 0 follows the same plan for the same two segments in both runs,
    # and the model pass is the same fixed prefix.
    for count in ("ops", "blocks", "failed", "nones", "reads", "dispatches",
                  "client_blocks_peak", "epsilon"):
        assert first["visits"][0][count] == second["visits"][0][count], count
    assert first["model"] == second["model"]


def test_a_run_above_its_declared_epsilon_or_client_state_is_not_correct(runs):
    name, (_, full), _ = runs
    spec = WORKLOADS[name]
    assert measure.problems(spec, full) == []
    full["model"]["epsilon"] = spec.epsilon + 0.01
    full["visits"][-1]["client_blocks_peak"] = spec.client_blocks + 1
    found = measure.problems(spec, full)
    assert len(found) == 2
    assert "epsilon" in found[0] and "client held" in found[1]


def test_layer_self_times_sum_to_the_traced_op_time(runs):
    name, _, (line, full) = runs
    traced = full["traced"]
    layer_ns = sum(layer["self_ns"] for layer in traced["layers"].values())
    assert layer_ns == pytest.approx(traced["root_ns"], rel=0.01)
    layer_us = sum(metric["value"] for key, metric in line["metrics"].items()
                   if key.endswith(".self_us"))
    assert layer_us == pytest.approx(
        line["metrics"]["bench.traced_op_us"]["value"], rel=0.01)
    assert traced["layers"]["storage.server"]["units"] == traced["blocks"]
    assert traced["layers"][WORKLOADS[name].layer]["self_ns"] > 0


def test_span_file_parses_and_every_span_has_a_parent_or_is_an_op_root(runs):
    name = runs[0]
    with open(measure.OUT / f"trace_{name}.json") as handle:
        trace = json.load(handle)
    spans = trace["spans"]
    assert trace["columns"] == ["layer", "start_ns", "end_ns", "parent", "op"]
    assert spans and trace["ops_kept"] >= 1
    for index, (layer, start, end, parent, op) in enumerate(spans):
        assert start <= end
        if parent == -1:
            assert layer == WORKLOADS[name].layer
            continue
        assert 0 <= parent < index
        _, parent_start, parent_end, _, parent_op = spans[parent]
        assert parent_op == op
        assert parent_start <= start and end <= parent_end


@pytest.mark.parametrize("name", sorted(set(WORKLOADS) - {"serve_cluster"}))
def test_the_plan_is_a_function_of_the_seed(name):
    spec = WORKLOADS[name]
    calls = dict.fromkeys(spec.api)
    model = types.SimpleNamespace(read=None, write=None, get=None, put=None)

    def plan(seed):
        rng = measure.plan_rng(seed, spec, 0)
        return [(is_write, args) for is_write, _, _, args
                in spec.plan(rng, calls, model, 200, 0)]

    assert plan(1) == plan(1)
    assert plan(1) != plan(2)


def test_the_one_command_runs_every_workload_and_reports_every_metric(
        monkeypatch, capsys):
    contract = measure.contract()
    monkeypatch.setattr(measure, "contract",
                        lambda: {**contract, "run_seconds": 0})
    stale = measure.OUT / "result.json"
    stale.unlink(missing_ok=True)
    assert one_command.main(["--seed", "1"]) == 0
    with open(stale) as handle:
        report = json.load(handle)
    assert report["env"]["nproc"] and report["env"]["bench.calib_us"] > 0
    listed = {m["name"]: m["unit"]
              for m in contract["end_to_end"] + contract["per_layer"]}
    printed = capsys.readouterr().out
    assert all(name in printed for name in listed)
    for workload in contract["workloads"]:
        entry = report["workloads"][workload["name"]]
        units = {name: m["unit"] for name, m in entry["metrics"].items()}
        assert listed.items() <= units.items()
        assert len(entry["spread"]["op_us.segment_quartiles"]) == measure.VISITS


def test_selfcheck_reports_what_moved_by_more_than_its_bound(capsys):
    first = {"w": {"op_us": {"value": 10.0}, "blocks_per_op": {"value": 64.0}}}
    second = {"w": {"op_us": {"value": 12.0}, "blocks_per_op": {"value": 66.0}}}
    bounds = {"op_us": 0.25, "blocks_per_op": 0.02}
    assert one_command.selfcheck(first, first, bounds) == []
    assert one_command.selfcheck(first, second, bounds) == [
        "w.blocks_per_op differs by 3.12%"]
    assert "OVER" in capsys.readouterr().out


def test_a_failed_run_stops_the_one_command(tmp_path, monkeypatch):
    monkeypatch.setattr(measure, "OUT", tmp_path)
    (tmp_path / "run_ir_uniform.json").write_text("{}")  # from an earlier run
    contract = {"command": [sys.executable, "-c", "raise SystemExit(3)"],
                "run_seconds": 0}
    with pytest.raises(SystemExit, match="ir_uniform --trace 0 exited 3"):
        one_command.driver_run(contract, "ir_uniform", 1, 0)
    assert not (tmp_path / "run_ir_uniform.json").exists()
