"""E14 — intro motivation: simulated response times per link model."""

from conftest import write_report

from repro.simulation.experiments import experiment_e14_response_times
from repro.storage.network import WAN


def test_e14_table():
    table = experiment_e14_response_times(n=4096, queries=120)
    write_report(table)
    print("\n" + table.to_text())
    by_scheme = {row[0]: row for row in table.rows}
    # On every link, plaintext <= DP-IR and DP-RAM << PIR.
    for column in (3, 4, 5):
        assert by_scheme["plaintext"][column] <= \
            by_scheme["DP-IR (alpha=0.05)"][column]
        assert by_scheme["DP-RAM"][column] < \
            by_scheme["linear PIR"][column]
    # On the WAN, the recursive ORAM's roundtrips dominate Path ORAM's.
    assert by_scheme["recursive ORAM"][4] > by_scheme["Path ORAM"][4]
    # DP-RAM's WAN time is within 2.5 RTTs of plaintext-ish floor.
    assert by_scheme["DP-RAM"][4] < 3 * WAN.rtt_ms
    # So is DP-KVS — which holds only while an operation is two roundtrips.
    assert by_scheme["DP-KVS"][1] == 2
    assert by_scheme["DP-KVS"][4] < 3 * WAN.rtt_ms


def test_e14_model_evaluation_throughput(benchmark):
    benchmark(lambda: WAN.response_time_ms(2, 3, 4096))
