"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestBoundsCommand:
    def test_prints_answer(self, capsys):
        assert main(["bounds", "--n", "1024", "--bandwidth", "3"]) == 0
        output = capsys.readouterr().out
        assert "Thm 3.4" in output
        assert "Theta(log n)" in output

    def test_custom_parameters_flow_through(self, capsys):
        main(["bounds", "--n", "4096", "--bandwidth", "8",
              "--alpha", "0.1", "--client", "16"])
        output = capsys.readouterr().out
        assert "n = 4096" in output
        assert "8.0 blocks/query" in output


    @pytest.mark.parametrize("flags, message", [
        (["--n", "0"], "--n must be at least 2"),
        (["--n", "1"], "--n must be at least 2"),
        (["--bandwidth", "0"], "bandwidth must be positive"),
        (["--client", "0"], "client storage must be at least 2"),
        (["--client", "-1"], "client storage must be at least 2"),
        (["--alpha", "-1"], "alpha must be in (0, 1]"),
        (["--alpha", "2"], "alpha must be in (0, 1]"),
    ])
    def test_bad_input_is_a_usage_error(self, capsys, flags, message):
        assert main(["bounds", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""


class TestDemoCommand:
    def test_runs(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "DP-RAM" in output
        assert "DP-IR" in output
        assert "DP-KVS" in output


class TestRunCommand:
    def test_ram_smoke(self, capsys):
        assert main(["run", "--scheme", "dp_ram", "--workload", "uniform",
                     "--ops", "50", "--n", "64", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "dp_ram" in output
        assert "blocks / operation" in output
        assert "mismatches" in output

    def test_ir_with_network_backend(self, capsys):
        assert main(["run", "--scheme", "dp_ir", "--workload", "zipf",
                     "--ops", "20", "--n", "64", "--seed", "7",
                     "--backend", "network", "--network", "lan"]) == 0
        output = capsys.readouterr().out
        assert "serial ms" in output
        # Network-backed single-client runs report latency tails too.
        assert "latency p50 ms" in output
        assert "latency p99 ms" in output

    def test_memory_backend_has_no_latency_tails(self, capsys):
        assert main(["run", "--scheme", "dp_ram", "--workload", "uniform",
                     "--ops", "20", "--n", "64", "--seed", "7"]) == 0
        assert "latency p50" not in capsys.readouterr().out

    def test_kvs_workload(self, capsys):
        assert main(["run", "--scheme", "dp_kvs", "--workload", "ycsb-c",
                     "--ops", "40", "--n", "64", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "ycsb-C" in output

    def test_kvs_accepts_index_workload_alias(self, capsys):
        assert main(["run", "--scheme", "plaintext_kvs",
                     "--workload", "uniform", "--ops", "30", "--n", "64",
                     "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "insert-lookup" in output

    def test_ir_rejects_write_workload(self, capsys):
        assert main(["run", "--scheme", "dp_ir", "--workload", "readwrite",
                     "--ops", "10", "--seed", "7"]) == 2
        assert "read-only" in capsys.readouterr().err

    def test_non_kvs_rejects_kv_workload(self, capsys):
        assert main(["run", "--scheme", "dp_ram", "--workload", "ycsb-a",
                     "--ops", "10", "--seed", "7"]) == 2
        assert "needs a KVS scheme" in capsys.readouterr().err

    def test_list_schemes(self, capsys):
        assert main(["run", "--list"]) == 0
        output = capsys.readouterr().out
        assert "dp_ram" in output
        assert "kvs" in output

    def test_unknown_scheme_reports_catalogue(self, capsys):
        assert main(["run", "--scheme", "warp_drive"]) == 2
        err = capsys.readouterr().err
        assert "registered schemes" in err
        assert "dp_ram" in err

    def test_unknown_workload_reported_cleanly(self, capsys):
        assert main(["run", "--scheme", "dp_ir", "--workload", "nonsense",
                     "--ops", "5", "--seed", "1"]) == 2
        assert "unknown index workload" in capsys.readouterr().err

    def test_read_only_scheme_rejects_readwrite(self, capsys):
        assert main(["run", "--scheme", "read_only_dp_ram",
                     "--workload", "readwrite", "--ops", "5",
                     "--seed", "1"]) == 2
        assert "read-only" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme, flags", [
        ("cluster_dp_kvs", ["--epsilon", "2"]),
        ("cluster_dp_kvs", ["--pad-size", "8"]),
        ("cluster_dp_kvs", ["--alpha", "0.1"]),
        ("cluster_dp_kvs", ["--no-auth"]),
        ("cluster_dp_kvs", ["--placement", "hash"]),
        ("dp_ram", ["--shards", "2"]),
        ("dp_ram", ["--executor", "parallel"]),
        ("dp_ram", ["--value-size", "8"]),
        ("path_oram", ["--value-size", "8"]),
    ])
    def test_a_flag_the_builder_does_not_take_is_a_usage_error(
        self, capsys, scheme, flags
    ):
        # Never handed on to be ignored: the flag is named, exit 2.
        assert main(["run", "--scheme", scheme, *flags, "--ops", "4",
                     "--n", "64", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {flags[0]} does not apply to {scheme}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("scheme, workload", [
        ("dp_ram", "uniform"),
        ("dp_ram", "zipf"),
        ("dp_kvs", "ycsb-a"),
        ("dp_kvs", "readwrite"),  # a KVS runs it as insert-lookup
    ])
    def test_a_write_fraction_the_trace_ignores_is_a_usage_error(
        self, capsys, scheme, workload
    ):
        assert main(["run", "--scheme", scheme, "--workload", workload,
                     "--write-fraction", "0.9", "--ops", "4", "--n", "64",
                     "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --write-fraction applies only to a RAM scheme's "
            "readwrite workload\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("flags, trace", [
        ([], "readwrite(n=64,w=0.5)"),  # unset: half the operations write
        (["--write-fraction", "0.9"], "readwrite(n=64,w=0.9)"),
    ])
    def test_the_write_fraction_shapes_the_readwrite_trace(
        self, capsys, flags, trace
    ):
        import json

        assert main(["run", "--scheme", "dp_ram", "--workload", "readwrite",
                     "--ops", "8", "--n", "64", "--seed", "1", "--json",
                     *flags]) == 0
        assert json.loads(capsys.readouterr().out)["trace"] == trace

    def test_the_cluster_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["cluster"])
        assert exit_.value.code == 2
        assert "invalid choice: 'cluster'" in capsys.readouterr().err


class TestServeCommand:
    def test_smoke(self, capsys):
        assert main(["serve", "--scheme", "dp_ram", "--clients", "3",
                     "--requests", "4", "--n", "64", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "throughput req/s" in output
        assert "latency p95 ms" in output
        assert "tenant-0" in output

    def test_hyphenated_scheme_alias(self, capsys):
        assert main(["serve", "--scheme", "batch-dpir", "--clients", "2",
                     "--requests", "3", "--n", "64", "--seed", "7"]) == 0
        assert "batch_dp_ir" in capsys.readouterr().out

    def test_json_output(self, capsys):
        import json

        assert main(["serve", "--scheme", "dp_ram", "--clients", "2",
                     "--requests", "3", "--n", "64", "--seed", "7",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clients"] == 2
        assert payload["completed"] == 6

    @pytest.mark.parametrize("flags, message", [
        (["--max-batch", "0", "--scheduler", "fifo"],
         "max_batch must be at least 1"),
        (["--window-ms", "-1", "--scheduler", "continuous"],
         "batch_window_ms must be non-negative"),
        (["--max-in-flight", "0", "--scheduler", "window"],
         "max_in_flight must be at least 1"),
        (["--tenant-credits", "0", "--scheduler", "window"],
         "tenant_credits must be at least 1"),
        (["--queue-cap", "0", "--scheduler", "fifo"],
         "queue_cap must be at least 1"),
        (["--load", "closed", "--rate", "-5"], "rate_rps must be positive"),
        (["--load", "open", "--think-ms", "-1"], "think_ms must be positive"),
    ])
    def test_out_of_range_knob_is_a_usage_error(self, capsys, flags, message):
        # Checked even where the chosen scheduler or load ignores it.
        assert main(["serve", "--scheme", "dp_ir", "--clients", "2",
                     "--requests", "3", "--n", "64", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""

    def test_unknown_scheme_reports_catalogue(self, capsys):
        assert main(["serve", "--scheme", "warp_drive"]) == 2
        assert "registered schemes" in capsys.readouterr().err

    def test_ir_rejects_write_workload(self, capsys):
        assert main(["serve", "--scheme", "dp_ir", "--workload",
                     "readwrite", "--clients", "2", "--requests", "3",
                     "--seed", "1"]) == 2
        assert "read-only" in capsys.readouterr().err

    def test_parallel_executor_on_cluster_scheme(self, capsys):
        assert main(["serve", "--scheme", "cluster-dpir", "--clients", "2",
                     "--requests", "4", "--n", "128", "--seed", "7",
                     "--executor", "parallel"]) == 0
        output = capsys.readouterr().out
        assert "wall-clock ms" in output
        assert "overlap speedup" in output

    def test_executor_rejected_for_fanout_free_scheme(self, capsys):
        assert main(["serve", "--scheme", "dp_ir", "--clients", "2",
                     "--requests", "4", "--n", "64", "--seed", "7",
                     "--executor", "parallel"]) == 2
        assert "no fan-out" in capsys.readouterr().err


class TestClusterRun:
    def test_smoke(self, capsys):
        assert main(["run", "--scheme", "cluster_dp_ir", "--shards", "2",
                     "--replicas", "1", "--n", "64", "--ops", "16",
                     "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "shard groups" in output
        assert "per-query epsilon" in output

    def test_nan_epsilon_is_a_usage_error_naming_epsilon(self, capsys):
        assert main(["run", "--scheme", "cluster_dp_ir", "--epsilon", "nan",
                     "--ops", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "epsilon" in err

    def test_exhausted_replicas_exit_1_not_the_usage_code(self, capsys):
        # Valid flags; every replica of a shard fails a put.
        assert main(["run", "--scheme", "cluster_dp_kvs", "--shards", "2",
                     "--replicas", "3", "--n", "128", "--ops", "64",
                     "--seed", "7", "--failure-rate", "0.05"]) == 1
        err = capsys.readouterr().err
        assert err == "error: shard 0: no live replicas left for put\n"

    def test_a_garbled_node_exits_1_not_the_usage_code(self, capsys):
        # Valid flags; a corrupted replica's node decodes to a count its
        # node cannot hold, a CapacityError: the run failed.
        assert main(["run", "--scheme", "cluster_dp_kvs", "--shards", "2",
                     "--replicas", "3", "--n", "256", "--ops", "400",
                     "--seed", "7", "--corruption-rate", "0.05"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: count prefix")
        assert "exceeds node capacity" in err

    def test_parallel_executor_json_reports_overlap(self, capsys):
        import json

        assert main(["run", "--scheme", "cluster_dp_ir", "--shards", "4",
                     "--replicas", "1", "--n", "128", "--ops", "32",
                     "--seed", "7", "--pad-size", "16", "--executor",
                     "parallel", "--batch", "8", "--network", "lan",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deployment"]["executor"] == "parallel"
        assert payload["wall_clock_ms"] < payload["serial_ms"]
        assert payload["mismatches"] == 0

    def test_serial_and_parallel_runs_agree_on_everything_but_time(
        self, capsys
    ):
        import json

        payloads = {}
        for executor in ("serial", "parallel"):
            assert main(["run", "--scheme", "cluster_dp_ir", "--shards", "4",
                         "--replicas", "1", "--n", "128", "--ops", "32",
                         "--seed", "7", "--pad-size", "16", "--executor",
                         executor, "--batch", "8", "--network", "lan",
                         "--json"]) == 0
            payloads[executor] = json.loads(capsys.readouterr().out)
        serial, parallel = payloads["serial"], payloads["parallel"]
        assert serial["server_operations"] == parallel["server_operations"]
        assert (serial["deployment"]["budget"]
                == parallel["deployment"]["budget"])
        assert serial["serial_ms"] == pytest.approx(parallel["serial_ms"])
        assert parallel["wall_clock_ms"] < serial["wall_clock_ms"]


class TestExperimentsCommand:
    def test_only_filter(self, capsys):
        assert main(["experiments", "--only", "E1"]) == 0
        output = capsys.readouterr().out
        assert "E1:" in output
        assert "E8:" not in output

    def test_only_filter_suffixed_id(self, capsys):
        assert main(["experiments", "--only", "E11B"]) == 0
        output = capsys.readouterr().out
        assert "E11b" in output

    def test_markdown_mode(self, capsys):
        assert main(["experiments", "--only", "E5", "--markdown"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("### E5")

    def test_unknown_id_fails(self, capsys):
        assert main(["experiments", "--only", "E99"]) == 1

    def test_unknown_id_beside_a_known_one_fails_before_any_table(self, capsys):
        assert main(["experiments", "--only", "E5", "E99"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "E99" in captured.err and "E11b" in captured.err

    @pytest.mark.parametrize(
        "spelling, selected", [("e11b", "E11b"), ("E06", "E6"), ("E6", "E6")]
    )
    def test_only_accepts_case_and_zero_padding(self, capsys, spelling, selected):
        assert main(["experiments", "--only", spelling]) == 0
        output = capsys.readouterr().out
        assert output.startswith(f"{selected}:")
        assert "\n\n" not in output  # one table

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def _trace_payload():
    return {
        "name": "cluster",
        "spans": [
            {"id": "1", "name": "round", "parent": None, "error": None,
             "sim_start_ms": 0.0, "sim_end_ms": 5.0, "wall_ms": 1.0,
             "labels": {"batch": 2}},
            {"id": "1.1", "name": "leg", "parent": "1", "error": None,
             "sim_start_ms": 0.0, "sim_end_ms": 2.0, "wall_ms": 0.5,
             "labels": {"shard": 0}},
            {"id": "1.2", "name": "leg", "parent": "1", "error": None,
             "sim_start_ms": 0.0, "sim_end_ms": 5.0, "wall_ms": 0.9,
             "labels": {"shard": 1}},
        ],
    }


def _write_trace(path, payload):
    import json

    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestTraceDiffCommand:
    def test_identical_traces_exit_zero(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.json", _trace_payload())
        b = _write_trace(tmp_path / "b.json", _trace_payload())
        assert main(["trace-diff", a, b]) == 0
        assert "structurally identical" in capsys.readouterr().out

    def test_structural_change_exits_one(self, tmp_path, capsys):
        payload = _trace_payload()
        payload["spans"][2]["labels"]["shard"] = 9
        a = _write_trace(tmp_path / "a.json", _trace_payload())
        b = _write_trace(tmp_path / "b.json", payload)
        assert main(["trace-diff", a, b]) == 1
        output = capsys.readouterr().out
        assert "traces differ" in output
        assert "shard" in output

    def test_json_mode_emits_the_diff_payload(self, tmp_path, capsys):
        import json

        payload = _trace_payload()
        payload["spans"].pop()
        a = _write_trace(tmp_path / "a.json", _trace_payload())
        b = _write_trace(tmp_path / "b.json", payload)
        assert main(["trace-diff", a, b, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["identical"] is False
        assert data["spans_a"] == 3 and data["spans_b"] == 2

    def test_wall_clock_drift_is_not_a_regression(self, tmp_path, capsys):
        payload = _trace_payload()
        for span in payload["spans"]:
            span["wall_ms"] *= 50
        a = _write_trace(tmp_path / "a.json", _trace_payload())
        b = _write_trace(tmp_path / "b.json", payload)
        assert main(["trace-diff", a, b]) == 0
        capsys.readouterr()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.json", _trace_payload())
        assert main(["trace-diff", a, str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.json", _trace_payload())
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["trace-diff", a, str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_tolerance_exits_two(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.json", _trace_payload())
        assert main(["trace-diff", a, a, "--tolerance", "-1"]) == 2
        capsys.readouterr()


class TestTraceSummaryCommand:
    def test_summary_renders(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.json", _trace_payload())
        assert main(["trace-summary", a]) == 0
        assert "fan-out rounds" in capsys.readouterr().out

    def test_profile_mode(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.json", _trace_payload())
        assert main(["trace-summary", a, "--profile"]) == 0
        output = capsys.readouterr().out
        assert "trace profile" in output
        assert "shard=1" in output

    def test_straggler_threshold_flag_changes_flagging(
        self, tmp_path, capsys
    ):
        import json

        a = _write_trace(tmp_path / "a.json", _trace_payload())
        assert main(["trace-summary", a, "--json",
                     "--straggler-threshold", "1.0"]) == 0
        strict = json.loads(capsys.readouterr().out)
        assert main(["trace-summary", a, "--json",
                     "--straggler-threshold", "2.0"]) == 0
        lax = json.loads(capsys.readouterr().out)
        assert strict["straggler_threshold"] == 1.0
        assert strict["flagged_rounds"] >= lax["flagged_rounds"]

    def test_threshold_below_one_exits_two(self, tmp_path, capsys):
        a = _write_trace(tmp_path / "a.json", _trace_payload())
        assert main(["trace-summary", a,
                     "--straggler-threshold", "0.5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["trace-summary", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()


class TestAuditSloCommand:
    ARGS = ["audit", "--shards", "2", "--requests", "16", "--n", "128",
            "--seed", "7"]

    def test_slo_requires_a_budget(self, capsys):
        assert main(self.ARGS + ["--slo"]) == 2
        assert "--slo-budget" in capsys.readouterr().err

    def test_healthy_slo_exits_zero(self, capsys):
        assert main(self.ARGS + ["--slo", "--slo-budget", "100000"]) == 0
        assert "SLO healthy" in capsys.readouterr().out

    def test_burn_rate_breach_exits_one(self, capsys):
        assert main(self.ARGS + ["--slo", "--slo-budget", "40",
                                 "--slo-horizon", "100000"]) == 1
        captured = capsys.readouterr()
        assert "SLO breached" in captured.out
        assert "slo burn-rate alert" in captured.err

    def test_slo_budget_defaults_to_cap(self, capsys):
        assert main(self.ARGS + ["--slo", "--cap", "100000"]) == 0
        assert "SLO healthy" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--slo-horizon", "-5"], "horizon must be at least 1"),
        (["--slo-horizon", "0"], "horizon must be at least 1"),
        (["--slo-fast-burn", "-1"], "burn thresholds must be positive"),
        (["--slo-slow-burn", "0"], "burn thresholds must be positive"),
    ])
    def test_bad_slo_policy_is_a_usage_error(self, capsys, flags, message):
        assert main(self.ARGS + ["--slo", "--slo-budget", "100",
                                 *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err

    def test_json_mode_carries_the_slo_payload(self, capsys):
        import json

        assert main(self.ARGS + ["--slo", "--slo-budget", "100000",
                                 "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slo"]["breached"] is False
        assert payload["slo"]["policy"]["budget"]["float"] == 100000.0


class TestMonitorFlag:
    def test_serve_monitor_reports_leakage(self, capsys):
        assert main(["serve", "--scheme", "dp_ir", "--clients", "4",
                     "--requests", "8", "--n", "128", "--seed", "7",
                     "--monitor"]) == 0
        output = capsys.readouterr().out
        assert "leakage: membership" in output

    def test_serve_monitor_json_carries_reports(self, capsys):
        import json

        assert main(["serve", "--scheme", "dp_ir", "--clients", "4",
                     "--requests", "8", "--n", "128", "--seed", "7",
                     "--monitor", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["leakage_tripped"] is False
        attacks = {entry["attack"] for entry in payload["leakage"]}
        assert "membership" in attacks

    def test_cluster_monitor_reports_both_attacks(self, capsys):
        import json

        assert main(["run", "--scheme", "cluster_dp_ir", "--shards", "2",
                     "--replicas", "1", "--n", "256", "--ops", "32",
                     "--seed", "7", "--monitor", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not any(entry["tripped"] for entry in payload["leakage"])
        attacks = {entry["attack"] for entry in payload["leakage"]}
        assert attacks == {"membership", "routing"}

    def test_unmonitored_reports_have_no_leakage_rows(self, capsys):
        assert main(["serve", "--scheme", "dp_ir", "--clients", "4",
                     "--requests", "8", "--n", "128", "--seed", "7"]) == 0
        assert "leakage" not in capsys.readouterr().out
