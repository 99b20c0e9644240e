"""Tests for repro.analysis.datasheet."""

import dataclasses
import math

import pytest

import repro
from repro.analysis.datasheet import PrivacyDatasheet, datasheet_for
from repro.api.protocols import PrivateIR, PrivateKVS
from repro.baselines.linear_pir import LinearScanPIR
from repro.baselines.oram_kvs import ORAMKeyValueStore
from repro.baselines.path_oram import PathORAM
from repro.baselines.recursive_oram import RecursivePathORAM
from repro.core.batch_ir import BatchDPIR
from repro.core.dp_ir import DPIR
from repro.core.dp_kvs import DPKVS
from repro.core.dp_ram import DPRAM, ReadOnlyDPRAM
from repro.core.multi_server import MultiServerDPIR
from repro.core.strawman import StrawmanIR
from repro.crypto.rng import SeededRandomSource
from repro.storage.backends import NetworkBackendFactory
from repro.storage.blocks import integer_database
from repro.storage.held import HeldRequest, scheme_parts
from repro.storage.network import LAN
from repro.storage.transcript import AccessKind, Transcript


N = 64


@pytest.fixture
def db():
    return integer_database(N)


class TestDatasheetBuilders:
    def test_dpir(self, rng, db):
        scheme = DPIR(db, pad_size=4, alpha=0.1, rng=rng)
        sheet = datasheet_for(scheme)
        assert sheet.scheme == "DPIR"
        assert sheet.epsilon == pytest.approx(scheme.epsilon)
        assert sheet.epsilon_kind == "exact"
        assert sheet.blocks_per_query == 4.0
        assert sheet.client_blocks is None
        assert sheet.error_probability == 0.1

    def test_batch_dpir(self, rng, db):
        sheet = datasheet_for(BatchDPIR(db, pad_size=4, alpha=0.1, rng=rng))
        assert sheet.scheme == "BatchDPIR"
        assert sheet.epsilon_kind == "exact"

    @pytest.mark.parametrize("name", repro.available_schemes())
    def test_only_a_cluster_states_its_epsilon_per_operator(self, name):
        # A network observer sees which shard a query goes to, so a
        # cluster's ε holds per shard operator, not for the deployment.
        kind = repro.build(name, n=N, seed=7).datasheet().epsilon_kind
        assert kind.endswith(", per operator") == name.startswith("cluster_")
        assert kind.split(", ")[0] in ("exact", "upper bound", "perfect")

    def test_strawman_shows_broken_delta(self, rng, db):
        sheet = datasheet_for(StrawmanIR(db, rng=rng))
        assert sheet.delta == pytest.approx(1 - 1 / N)
        assert sheet.epsilon == math.inf

    def test_dpram(self, rng, db):
        scheme = DPRAM(db, rng=rng)
        sheet = datasheet_for(scheme)
        assert sheet.blocks_per_query == 3.0
        p = scheme.stash_probability
        assert sheet.expected_blocks_per_query == pytest.approx(
            3 - (1 - p) ** 2 - p * (2 - p) / N
        )
        assert sheet.roundtrips == 1  # the upload rides in the next request
        assert sheet.epsilon_kind == "upper bound"
        assert sheet.client_blocks == pytest.approx(
            scheme.params.expected_stash + 1  # the held upload
        )

    def test_read_only_dpram(self, rng, db):
        sheet = datasheet_for(ReadOnlyDPRAM(db, rng=rng))
        assert sheet.blocks_per_query == 2.0
        # One less than DP-RAM's figure at the same p: no upload.
        assert sheet.expected_blocks_per_query == pytest.approx(
            datasheet_for(DPRAM(db, rng=rng)).expected_blocks_per_query - 1
        )
        assert sheet.error_probability == 0.0

    def test_dpkvs(self, rng):
        scheme = DPKVS(N, rng=rng)
        sheet = datasheet_for(scheme)
        assert sheet.blocks_per_query == scheme.blocks_per_operation()
        params = scheme.params
        assert sheet.expected_blocks_per_query == pytest.approx(
            2 * params.shape.path_length
            * (3 - (1 - params.stash_probability) ** 2)
        )
        assert sheet.server_blocks == scheme.server_node_count
        assert sheet.epsilon_kind == "upper bound"
        assert sheet.roundtrips == 1
        # Stashed paths, the super root and the upload held for the next
        # request: two paths at most.
        assert sheet.client_blocks == (
            params.phi * (params.shape.path_length + 1)
            + 2 * params.shape.path_length
        )

    def test_the_benchmark_sizes_expect_two_blocks(self):
        # ram_mixed runs dp_ram at n = 65536 on the default Φ(n).
        from repro.core.params import DPRAMParams

        expected = DPRAMParams.from_phi(65536).expected_blocks_per_query
        assert expected == pytest.approx(2.00195, abs=5e-6)

    def test_linear_pir_is_perfect(self, db):
        sheet = datasheet_for(LinearScanPIR(db))
        assert sheet.expected_blocks_per_query is None  # always exactly n
        assert sheet.epsilon == 0.0
        assert sheet.epsilon_kind == "perfect"
        assert sheet.blocks_per_query == N

    def test_path_oram_is_perfect(self, rng, db):
        scheme = PathORAM(db, rng=rng)
        sheet = datasheet_for(scheme)
        assert sheet.epsilon_kind == "perfect"
        assert sheet.blocks_per_query == scheme.blocks_per_access()
        # Two uniform paths share 2 - 2^-L nodes on average, and an access
        # sends them neither way.
        z, height = scheme.bucket_size, scheme.height
        assert sheet.expected_blocks_per_query == pytest.approx(
            2 * z * (height + 1) - 2 * z * (2 - 2.0**-height)
        )

    def test_multi_server(self, rng, db):
        sheet = datasheet_for(
            MultiServerDPIR(db, server_count=3, pad_size=6, rng=rng)
        )
        assert sheet.blocks_per_query == 6.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(TypeError):
            datasheet_for(object())


class TestRendering:
    def test_to_text_contains_fields(self, rng, db):
        sheet = datasheet_for(DPRAM(db, rng=rng))
        text = sheet.to_text()
        assert "Datasheet: DPRAM" in text
        assert "blocks per query (at most)" in text
        assert "blocks per query (expected)" in text
        assert f"{sheet.expected_blocks_per_query:.3f}" in text
        assert "upper bound" in text

    def test_stateless_rendering(self, db):
        text = datasheet_for(LinearScanPIR(db)).to_text()
        assert "stateless" in text
        assert "0 (oblivious)" in text

    def test_frozen(self, db):
        sheet = datasheet_for(LinearScanPIR(db))
        with pytest.raises(AttributeError):
            sheet.n = 5

    def test_ordering_across_schemes(self, rng, db):
        # Datasheets support the paper's overhead ordering at a glance.
        dpram = datasheet_for(DPRAM(db, rng=rng.spawn("a")))
        oram = datasheet_for(PathORAM(db, rng=rng.spawn("b")))
        pir = datasheet_for(LinearScanPIR(db))
        assert dpram.blocks_per_query < oram.blocks_per_query < \
            pir.blocks_per_query
        assert pir.epsilon <= oram.epsilon <= dpram.epsilon


class TestDeclaredRoundtripsAreMeasured:
    @pytest.mark.parametrize("name", repro.available_schemes())
    def test_sheet_roundtrips_match_the_network_backend(self, name):
        scheme = repro.build(
            name, n=N, seed=7, backend="network", network="lan"
        )
        sheet = datasheet_for(scheme)
        transcript = Transcript()
        scheme.attach_transcript(transcript)

        # Independent servers are contacted concurrently, so an operation
        # waits for its busiest server, not for the sum.
        def roundtrips():
            return [server.backend.roundtrips for server in scheme.servers()]

        def busiest():
            return max(roundtrips())

        operations = 40
        waited = []
        for step in range(operations):
            before = roundtrips()
            if isinstance(scheme, PrivateKVS):
                if step % 2:
                    scheme.put(b"key-%d" % (step % 7), b"value-%d" % step)
                else:
                    scheme.get(b"key-%d" % (step % 5))
            elif isinstance(scheme, PrivateIR):
                scheme.query(step % N)
            else:
                scheme.read(step % N)
            waited.append(max(
                after - then for after, then in zip(roundtrips(), before)
            ))
        # No operation waits for more exchanges than the sheet declares,
        # and some operation waits for all of them.
        assert max(waited) == sheet.roundtrips
        if name in _PINNED_SHEETS:
            # Measured between operations: what a run of them costs each —
            # but for an operation with nothing to send.
            assert sheet.roundtrips * (
                operations - _silent(scheme, transcript, operations)
            ) == busiest()
        # Ending the run costs exactly one more where an upload was being
        # held for the next request, and nothing anywhere else.
        before = busiest()
        holds = _holds(scheme)
        scheme.flush()
        assert busiest() - before == holds
        scheme.flush()  # nothing is held any more
        assert busiest() - before == holds

    def test_a_path_oram_access_with_its_whole_path_held_sends_nothing(self):
        # At L = 2 one access in four reads the leaf the last one read:
        # every node is in the held write-back, so there is no request.
        scheme = PathORAM(
            [bytes(4)] * 4, rng=SeededRandomSource(3),
            backend_factory=NetworkBackendFactory(LAN),
        )
        transcript = Transcript()
        scheme.attach_transcript(transcript)
        operations = 400
        for step in range(operations):
            scheme.read(step % 4)
        silent = _silent(scheme, transcript, operations)
        assert 60 < silent < 140  # Binomial(399, 1/4): 100 ± 8.7
        assert scheme.server.backend.roundtrips == operations - silent


def _holds(scheme):
    """Whether some part of ``scheme`` holds an upload for its next
    request."""
    return any(
        isinstance(part, HeldRequest) and part.held is not None
        for part in scheme_parts(scheme)
    )


def _silent(scheme, transcript, operations):
    """Operations that sent no request: Path ORAM accesses that downloaded
    nothing, their whole path held (probability ``2^-L`` each)."""
    if not isinstance(scheme, PathORAM):
        return 0
    return operations - len(
        {event.query for event in transcript if event.kind is AccessKind.DOWNLOAD}
    )


def _operate(scheme, step):
    """Mixed operation number ``step``."""
    if isinstance(scheme, PrivateKVS):
        if step % 2:
            scheme.put(b"key-%d" % (step % 7), b"value-%d" % step)
        else:
            scheme.get(b"key-%d" % (step % 5))
    elif isinstance(scheme, PrivateIR):
        scheme.query(step % N)
    elif scheme.writable and step % 2:
        scheme.write(step % N, bytes([step % 256]) * scheme.block_size)
    else:
        scheme.read((7 * step) % N)


def _moved_per_operation(scheme, operations):
    """Blocks each of ``operations`` mixed operations moved, over all
    servers."""
    moved = []
    for step in range(operations):
        before = scheme.server_operations()
        _operate(scheme, step)
        scheme.flush()  # the operation's own upload, not its predecessor's
        moved.append(scheme.server_operations() - before)
    return moved


# StrawmanIR declares a mean and nothing else: it downloads a Binomial
# number of noise blocks, so its only worst case is n.
_DECLARED_WORST_CASE = [
    name for name in repro.available_schemes() if name != "strawman_ir"
]


class TestDeclaredBlocksAreMeasured:
    OPERATIONS = 600

    @pytest.mark.parametrize("name", _DECLARED_WORST_CASE)
    def test_no_operation_moves_more_than_the_sheet_declares(self, name):
        scheme = repro.build(name, n=N, seed=7)
        sheet = datasheet_for(scheme)
        moved = _moved_per_operation(scheme, self.OPERATIONS)
        assert max(moved) <= sheet.blocks_per_query
        if sheet.expected_blocks_per_query is None or isinstance(
            scheme, (PathORAM, RecursivePathORAM, ORAMKeyValueStore)
        ):
            # Flushed after every access, a Path ORAM holds nothing when
            # the next begins, and each moves the worst case.
            assert set(moved) == {sheet.blocks_per_query}
        else:
            assert min(moved) < sheet.blocks_per_query

    @pytest.mark.parametrize("name", ["dp_ram", "read_only_dp_ram"])
    def test_dp_ram_mean_is_the_expected_figure(self, name):
        # A query moves the worst case less Bernoulli(q), q = P(d_j = o_j)
        # = worst case − expected, queries independent: the mean of 600 is
        # held to five standard deviations of that binomial.
        scheme = repro.build(name, n=N, seed=7)
        sheet = datasheet_for(scheme)
        moved = _moved_per_operation(scheme, self.OPERATIONS)
        q = sheet.blocks_per_query - sheet.expected_blocks_per_query
        tolerance = 5 * math.sqrt(q * (1 - q) / self.OPERATIONS)
        mean = sum(moved) / self.OPERATIONS
        assert abs(mean - sheet.expected_blocks_per_query) <= tolerance
        assert tolerance < 0.11

    def test_path_oram_mean_is_the_expected_figure(self):
        # Flushed once, at the end: each access leaves out, both ways, the
        # X nodes its path shares with the previous one's, X independent
        # across accesses over i.i.d. uniform leaves, P(X >= k) = 2^(1-k)
        # for k = 1..L+1 (mean 2 - 2^-L, variance under 2).  The first
        # access had nothing held; the rest of the mean is held to five
        # standard deviations of 2·Z·X.
        scheme = repro.build("path_oram", n=N, seed=7)
        sheet = datasheet_for(scheme)
        z, height = scheme.bucket_size, scheme.height
        before = scheme.server_operations()
        for step in range(self.OPERATIONS):
            _operate(scheme, step)
        scheme.flush()
        mean = (scheme.server_operations() - before) / self.OPERATIONS
        first = 2 * z * (2 - 2.0**-height) / self.OPERATIONS
        tolerance = 5 * 2 * z * math.sqrt(2 / self.OPERATIONS)
        assert abs(mean - first - sheet.expected_blocks_per_query) <= tolerance
        assert mean + tolerance < sheet.blocks_per_query

    def test_dp_kvs_mean_is_under_the_upper_estimate(self):
        # Each of an operation's two bucket queries saves a path with
        # probability q >= (1-p)^2; nodes two paths share save more, so
        # the estimate is an upper one.  Held to five standard deviations
        # of path_length · Binomial(2, q) per operation.
        scheme = repro.build("dp_kvs", n=N, seed=7)
        sheet = datasheet_for(scheme)
        params = scheme.params
        moved = _moved_per_operation(scheme, self.OPERATIONS)
        q = (1 - params.stash_probability) ** 2
        tolerance = 5 * params.shape.path_length * math.sqrt(
            2 * q * (1 - q) / self.OPERATIONS
        )
        mean = sum(moved) / self.OPERATIONS
        assert mean <= sheet.expected_blocks_per_query + tolerance
        assert mean > 4 * params.shape.path_length  # d_1 ‖ d_2, o_1 ‖ o_2


class TestDatasheetDataclass:
    def test_direct_construction(self):
        sheet = PrivacyDatasheet(
            scheme="X", n=10, epsilon=1.0, epsilon_kind="exact", delta=0.0,
            error_probability=0.0, blocks_per_query=1.0, roundtrips=1,
            client_blocks=None, server_blocks=10,
        )
        assert "Datasheet: X" in sheet.to_text()


# Every field of the ten sheets datasheet_for answered before each scheme
# answered its own, at n = 64 and seed 0.  The ε of dp_ir, dp_ram, dp_kvs
# and path_oram is what the benchmark's ε gate reads, so it is compared
# bit for bit.
_PINNED_SHEETS = {
    "batch_dp_ir": ("BatchDPIR", 64, 4.123903364463645, "exact", 0.0, 0.05,
                    20.0, 1, None, 64, None),
    "dp_ir": ("DPIR", 64, 4.123903364463645, "exact", 0.0, 0.05,
              20.0, 1, None, 64, None),
    "dp_kvs": ("DPKVS", 64, 92.26989008756364, "upper bound", 0.0, 0.0,
               24.0, 1, 83.0, 120, 19.310546875),
    "dp_ram": ("DPRAM", 64, 46.13494504378182, "upper bound", 0.0, 0.0,
               3.0, 1, 16.0, 64, 2.4073524475097656),
    "linear_pir": ("LinearScanPIR", 64, 0.0, "perfect", 0.0, 0.0,
                   64.0, 1, None, 64, None),
    # Its two servers each hold the database: 128 slots, where the sheet
    # once declared one copy.
    "multi_server_dp_ir": ("MultiServerDPIR", 64, 4.123903364463645, "exact",
                           0.0, 0.05, 20.0, 1, None, 128, None),
    "path_oram": ("PathORAM", 64, 0.0, "perfect", 0.0, 0.0,
                  56.0, 1, 64.0, 508, 40.125),
    "read_only_dp_ram": ("ReadOnlyDPRAM", 64, 46.13494504378182,
                         "upper bound", 0.0, 0.0, 2.0, 1, 15.0, 64,
                         1.4073524475097656),
    "sharded_dp_ir": ("ShardedDPIR", 64, 4.123903364463645, "exact", 0.0,
                      0.05, 20.0, 1, None, 64, None),
    "strawman_ir": ("StrawmanIR", 64, math.inf, "exact", 0.984375, 0.0,
                    1.984375, 1, None, 64, None),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SHEETS))
def test_pinned_sheet(name):
    sheet = datasheet_for(repro.build(name, n=N, seed=0))
    fields = [field.name for field in dataclasses.fields(PrivacyDatasheet)]
    assert dict(zip(fields, dataclasses.astuple(sheet))) == dict(
        zip(fields, _PINNED_SHEETS[name])
    )
