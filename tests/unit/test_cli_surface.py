"""Pins the ``run`` / ``serve`` / ``audit`` command-line surface.

Records, for each of the three commands, every option string with its
choices, kind, type and default, and the usage line (which carries the
metavars).  For ``serve`` it also records the :class:`ServingConfig` the
command hands to ``serve()``, and for ``run`` / ``audit`` the scheme and
keywords they hand to ``repro.api.build``, once with no flags and once
with every flag given; ``run``'s parsed namespace is recorded too.
"""

import argparse
import dataclasses

import pytest

import repro.api
import repro.serving
from repro.__main__ import main
from repro.obs import BudgetTimeline, MetricsRegistry, Tracer


class _Stop(Exception):
    """Raised by the stand-ins to end a command once it has its inputs."""


@pytest.fixture
def subcommands():
    """The ``run`` / ``serve`` / ... parsers that ``main`` builds."""
    captured = []

    def capture(self, args=None, namespace=None):
        captured.append(self)
        raise _Stop

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_args", capture)
        with pytest.raises(_Stop):
            main(["demo"])
    (commands,) = [
        action for action in captured[0]._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices


def _options(parser):
    """``(options, choices, kind, type, default)`` for every flag.

    ``kind`` is ``"switch"`` for a flag that takes no value (its default
    is then implied and left out) and the nargs otherwise.
    """
    rows = []
    for action in parser._actions:
        switch = action.nargs == 0
        rows.append((
            " ".join(action.option_strings),
            tuple(action.choices) if action.choices else None,
            "switch" if switch else action.nargs,
            getattr(action.type, "__name__", None),
            None if switch else action.default,
        ))
    return rows


def _plain(config):
    """A config's fields, with the observability sinks named by type."""
    fields = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, BudgetTimeline):
            value = ("BudgetTimeline", str(value.cap))
        elif isinstance(value, (Tracer, MetricsRegistry)):
            value = type(value).__name__
        fields[field.name] = value
    return fields


def _config(monkeypatch, argv):
    """The (scheme, config) the command passes to serve()."""

    def capture(scheme, config):
        raise _Stop(scheme, config)

    monkeypatch.setattr(repro.serving, "serve", capture)
    with pytest.raises(_Stop) as stop:
        main(argv)
    scheme, config = stop.value.args
    return scheme, _plain(config)


def _build_call(monkeypatch, argv):
    """The (scheme, keywords) the command passes to repro.api.build, its
    rng named by type."""

    def capture(name, **kwargs):
        raise _Stop(name, kwargs)

    monkeypatch.setattr(repro.api, "build", capture)
    with pytest.raises(_Stop) as stop:
        main(argv)
    name, kwargs = stop.value.args
    return name, {**kwargs, "rng": type(kwargs["rng"]).__name__}


OPTIONS = {
    "run": [
        ("-h --help", None, "switch", None, None),
        ("--scheme", None, None, None, "dp_ram"),
        ("--workload", None, None, None, "uniform"),
        ("--n", None, None, "int", 1024),
        ("--ops", None, None, "int", 200),
        ("--seed", None, None, "int", None),
        ("--value-size", None, None, "int", argparse.SUPPRESS),
        ("--write-fraction", None, None, "float", argparse.SUPPRESS),
        ("--backend", ("memory", "network"), None, None, None),
        ("--network", ("lan", "wan", "mobile"), None, None, None),
        ("--shards", None, None, "int", argparse.SUPPRESS),
        ("--replicas", None, None, "int", argparse.SUPPRESS),
        ("--placement", ("range", "hash"), None, None, argparse.SUPPRESS),
        ("--epsilon", None, None, "float", argparse.SUPPRESS),
        ("--pad-size", None, None, "int", argparse.SUPPRESS),
        ("--alpha", None, None, "float", argparse.SUPPRESS),
        ("--no-auth", None, "switch", None, None),
        ("--failure-rate", None, None, "float", argparse.SUPPRESS),
        ("--corruption-rate", None, None, "float", argparse.SUPPRESS),
        ("--fault-coins", ("per_slot", "per_round"), None, None,
         argparse.SUPPRESS),
        ("--executor", ("serial", "parallel"), None, None, argparse.SUPPRESS),
        ("--batch", None, None, "int", 1),
        ("--monitor", None, "switch", None, None),
        ("--json", None, "switch", None, None),
        ("--list", None, "switch", None, None),
        ("--trace", None, None, None, None),
        ("--metrics", None, "?", None, False),
    ],
    "serve": [
        ("-h --help", None, "switch", None, None),
        ("--scheme", None, None, None, "dp_ir"),
        ("--clients", None, None, "int", 8),
        ("--requests", None, None, "int", 32),
        ("--scheduler", ("fifo", "window", "continuous", "batch"), None,
         None, "window"),
        ("--window-ms", None, None, "float", 2.0),
        ("--max-batch", None, None, "int", 16),
        ("--max-in-flight", None, None, "int", 4),
        ("--tenant-credits", None, None, "int", None),
        ("--queue-cap", None, None, "int", None),
        ("--load", ("open", "closed"), None, None, "open"),
        ("--rate", None, None, "float", 100.0),
        ("--think-ms", None, None, "float", 5.0),
        ("--workload", None, None, None, "uniform"),
        ("--n", None, None, "int", 1024),
        ("--seed", None, None, "int", None),
        ("--network", ("lan", "wan", "mobile"), None, None, "lan"),
        ("--backend", ("memory", "network"), None, None, None),
        ("--value-size", None, None, "int", argparse.SUPPRESS),
        ("--executor", ("serial", "parallel"), None, None, argparse.SUPPRESS),
        ("--monitor", None, "switch", None, None),
        ("--json", None, "switch", None, None),
        ("--trace", None, None, None, None),
        ("--metrics", None, "?", None, False),
    ],
    "audit": [
        ("-h --help", None, "switch", None, None),
        ("--scheme", None, None, None, "cluster_dp_ir"),
        ("--shards", None, None, "int", 4),
        ("--replicas", None, None, "int", 1),
        ("--n", None, None, "int", 1024),
        ("--requests", None, None, "int", 64),
        ("--workload", None, None, None, "uniform"),
        ("--epsilon", None, None, "float", argparse.SUPPRESS),
        ("--pad-size", None, None, "int", argparse.SUPPRESS),
        ("--seed", None, None, "int", None),
        ("--executor", ("serial", "parallel"), None, None, argparse.SUPPRESS),
        ("--batch", None, None, "int", 1),
        ("--cap", None, None, None, None),
        ("--timeline", None, "switch", None, None),
        ("--slo", None, "switch", None, None),
        ("--slo-budget", None, None, None, None),
        ("--slo-horizon", None, None, "int", None),
        ("--slo-fast-window", None, None, "int", None),
        ("--slo-slow-window", None, None, "int", None),
        ("--slo-fast-burn", None, None, None, "14"),
        ("--slo-slow-burn", None, None, None, "6"),
        ("--json", None, "switch", None, None),
    ],
}

USAGE = {
    "run": (
        "usage: python -m repro run [-h] [--scheme SCHEME] "
        "[--workload WORKLOAD] [--n N] [--ops OPS] [--seed SEED] "
        "[--value-size VALUE_SIZE] [--write-fraction WRITE_FRACTION] "
        "[--backend {memory,network}] [--network {lan,wan,mobile}] "
        "[--shards SHARDS] [--replicas REPLICAS] "
        "[--placement {range,hash}] [--epsilon EPSILON] "
        "[--pad-size PAD_SIZE] [--alpha ALPHA] [--no-auth] "
        "[--failure-rate FAILURE_RATE] "
        "[--corruption-rate CORRUPTION_RATE] "
        "[--fault-coins {per_slot,per_round}] "
        "[--executor {serial,parallel}] [--batch BATCH] [--monitor] "
        "[--json] [--list] [--trace PATH] [--metrics [PATH]]"
    ),
    "serve": (
        "usage: python -m repro serve [-h] [--scheme SCHEME] "
        "[--clients CLIENTS] [--requests REQUESTS] "
        "[--scheduler {fifo,window,continuous,batch}] "
        "[--window-ms WINDOW_MS] [--max-batch MAX_BATCH] "
        "[--max-in-flight MAX_IN_FLIGHT] "
        "[--tenant-credits TENANT_CREDITS] [--queue-cap QUEUE_CAP] "
        "[--load {open,closed}] [--rate RATE] [--think-ms THINK_MS] "
        "[--workload WORKLOAD] [--n N] [--seed SEED] "
        "[--network {lan,wan,mobile}] [--backend {memory,network}] "
        "[--value-size VALUE_SIZE] "
        "[--executor {serial,parallel}] [--monitor] [--json] "
        "[--trace PATH] [--metrics [PATH]]"
    ),
    "audit": (
        "usage: python -m repro audit [-h] [--scheme SCHEME] "
        "[--shards SHARDS] [--replicas REPLICAS] [--n N] "
        "[--requests REQUESTS] [--workload WORKLOAD] [--epsilon EPSILON] "
        "[--pad-size PAD_SIZE] [--seed SEED] "
        "[--executor {serial,parallel}] [--batch BATCH] "
        "[--cap EPS] [--timeline] [--slo] [--slo-budget EPS] "
        "[--slo-horizon SLO_HORIZON] [--slo-fast-window SLO_FAST_WINDOW] "
        "[--slo-slow-window SLO_SLOW_WINDOW] [--slo-fast-burn RATE] "
        "[--slo-slow-burn RATE] [--json]"
    ),
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_options_are_pinned(subcommands, command):
    assert _options(subcommands[command]) == OPTIONS[command]


@pytest.mark.parametrize("command", sorted(USAGE))
def test_usage_line_is_pinned(subcommands, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "2000")
    usage = subcommands[command].format_usage()
    assert usage == USAGE[command] + "\n"


RUN_DEFAULTS = {
    "scheme": "dp_ram", "workload": "uniform", "n": 1024, "ops": 200,
    "seed": None, "backend": None, "network": None, "batch": 1,
    "monitor": False, "json": False, "list": False, "trace": None,
    "metrics": False,
}

#: Every builder flag, given: the keywords ``cluster_dp_ir`` takes.
BUILDER_FLAGS = [
    "--shards", "2", "--replicas", "3", "--placement", "hash",
    "--epsilon", "4.5", "--pad-size", "12", "--alpha", "0.1", "--no-auth",
    "--failure-rate", "0.1", "--corruption-rate", "0.05",
    "--fault-coins", "per_round", "--executor", "parallel",
]
BUILDER_KEYWORDS = {
    "shard_count": 2, "replica_count": 3, "placement": "hash",
    "epsilon": 4.5, "pad_size": 12, "alpha": 0.1, "authenticated": False,
    "failure_rate": 0.1, "corruption_rate": 0.05,
    "fault_coin_mode": "per_round", "executor": "parallel",
}


def _run_namespace(parser, argv):
    namespace = vars(parser.parse_args(argv))
    del namespace["handler"]
    return namespace


def test_run_namespace_with_no_flags(subcommands):
    assert _run_namespace(subcommands["run"], []) == RUN_DEFAULTS


def test_run_namespace_with_every_flag(subcommands):
    argv = ["--scheme", "cluster_dp_ir", "--workload", "zipf", "--n", "64",
            "--ops", "10", "--seed", "3", "--value-size", "48",
            "--write-fraction", "0.3", "--backend", "network",
            "--network", "wan", *BUILDER_FLAGS, "--batch", "4",
            "--monitor", "--json", "--list", "--trace", "t.json",
            "--metrics", "m.json"]
    assert _run_namespace(subcommands["run"], argv) == {
        "scheme": "cluster_dp_ir", "workload": "zipf", "n": 64, "ops": 10,
        "seed": 3, "value_size": 48, "write_fraction": 0.3,
        "backend": "network", "network": "wan", **BUILDER_KEYWORDS,
        "batch": 4, "monitor": True, "json": True, "list": True,
        "trace": "t.json", "metrics": "m.json",
    }


class TestRunBuild:
    def test_no_flags(self, monkeypatch):
        assert _build_call(monkeypatch, ["run"]) == ("dp_ram", {
            "n": 1024, "rng": "SystemRandomSource", "backend": None,
        })

    def test_every_flag(self, monkeypatch):
        argv = ["run", "--scheme", "cluster_dp_ir", "--n", "64",
                "--seed", "3", "--backend", "network", "--network", "wan",
                *BUILDER_FLAGS]
        assert _build_call(monkeypatch, argv) == ("cluster_dp_ir", {
            "n": 64, "rng": "SeededRandomSource", "backend": "network",
            "network": "wan", **BUILDER_KEYWORDS,
        })

    def test_a_kvs_build_gets_the_value_size(self, monkeypatch):
        argv = ["run", "--scheme", "cluster-dpkvs", "--value-size", "48"]
        assert _build_call(monkeypatch, argv) == ("cluster_dp_kvs", {
            "n": 1024, "rng": "SystemRandomSource", "backend": None,
            "value_size": 48,
        })


SERVING_DEFAULTS = {
    "clients": 8, "requests_per_client": 32, "scheduler": "window",
    "batch_window_ms": 2.0, "max_batch": 16, "max_in_flight": 4,
    "tenant_credits": None, "queue_cap": None, "load": "open",
    "rate_rps": 100.0, "think_ms": 5.0, "workload": "uniform", "n": 1024,
    "seed": None, "network": "lan", "backend": None, "value_size": 32,
    "write_fraction": 0.25, "executor": None, "tracer": None,
    "metrics_registry": None, "monitor": False, "build_kwargs": {},
}
class TestServeConfig:
    def test_no_flags(self, monkeypatch):
        assert _config(monkeypatch, ["serve"]) == ("dp_ir", SERVING_DEFAULTS)

    def test_every_flag(self, monkeypatch, tmp_path):
        argv = ["serve", "--scheme", "dp_kvs", "--clients", "3",
                "--requests", "5", "--scheduler", "continuous",
                "--window-ms", "1.5", "--max-batch", "8",
                "--max-in-flight", "2", "--tenant-credits", "4",
                "--queue-cap", "16", "--load", "closed", "--rate", "250",
                "--think-ms", "7.5", "--workload", "ycsb-b", "--n", "64",
                "--seed", "11", "--network", "wan", "--backend", "network",
                "--value-size", "48", "--executor", "parallel",
                "--monitor", "--json", "--trace", str(tmp_path / "t.json"),
                "--metrics"]
        assert _config(monkeypatch, argv) == ("dp_kvs", {
            **SERVING_DEFAULTS,
            "clients": 3, "requests_per_client": 5,
            "scheduler": "continuous", "batch_window_ms": 1.5,
            "max_batch": 8, "max_in_flight": 2, "tenant_credits": 4,
            "queue_cap": 16, "load": "closed", "rate_rps": 250.0,
            "think_ms": 7.5, "workload": "ycsb-b", "n": 64, "seed": 11,
            "network": "wan", "backend": "network", "value_size": 48,
            "executor": "parallel", "tracer": "Tracer",
            "metrics_registry": "MetricsRegistry", "monitor": True,
        })

    @pytest.mark.parametrize("scheme", ["dp_ram", "path_oram", "cluster-dpir"])
    def test_a_value_size_off_a_kvs_is_a_usage_error(self, capsys, scheme):
        # As under run: named and exit 2, never handed on to be ignored.
        name = repro.api.scheme_spec(scheme).name
        assert main(["serve", "--scheme", scheme, "--value-size", "8",
                     "--clients", "2", "--requests", "4", "--n", "64",
                     "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --value-size does not apply to {name}\n"
        assert captured.out == ""


class TestAuditBuild:
    def test_no_flags(self, monkeypatch):
        assert _build_call(monkeypatch, ["audit"]) == ("cluster_dp_ir", {
            "n": 1024, "rng": "SystemRandomSource", "backend": None,
            "shard_count": 4, "replica_count": 1,
        })

    def test_every_flag(self, monkeypatch):
        argv = ["audit", "--scheme", "cluster_batch_dp_ir", "--shards", "2",
                "--replicas", "2", "--n", "128", "--requests", "16",
                "--workload", "zipf", "--epsilon", "4.5",
                "--pad-size", "12", "--seed", "5",
                "--executor", "parallel", "--batch", "4", "--cap", "7/3",
                "--timeline", "--slo", "--slo-budget", "9",
                "--slo-horizon", "100", "--slo-fast-window", "5",
                "--slo-slow-window", "20", "--slo-fast-burn", "10",
                "--slo-slow-burn", "3", "--json"]
        assert _build_call(monkeypatch, argv) == ("cluster_batch_dp_ir", {
            "n": 128, "rng": "SeededRandomSource", "backend": None,
            "shard_count": 2, "replica_count": 2, "epsilon": 4.5,
            "pad_size": 12, "executor": "parallel",
        })
