"""Tests for repro.crypto.rng."""

import pytest

from repro.crypto.rng import (
    RandomSource,
    SeededRandomSource,
    SystemRandomSource,
    default_rng,
)


class TestSeededRandomSource:
    def test_same_seed_same_stream(self):
        a = SeededRandomSource(7)
        b = SeededRandomSource(7)
        assert [a.randbelow(100) for _ in range(20)] == [
            b.randbelow(100) for _ in range(20)
        ]

    def test_different_seeds_diverge(self):
        a = SeededRandomSource(7)
        b = SeededRandomSource(8)
        assert [a.randbelow(10**9) for _ in range(5)] != [
            b.randbelow(10**9) for _ in range(5)
        ]

    def test_random_in_unit_interval(self):
        source = SeededRandomSource(1)
        for _ in range(100):
            value = source.random()
            assert 0.0 <= value < 1.0

    def test_randbelow_range(self):
        source = SeededRandomSource(2)
        values = {source.randbelow(5) for _ in range(200)}
        assert values == {0, 1, 2, 3, 4}

    def test_randbelow_rejects_nonpositive(self):
        source = SeededRandomSource(3)
        with pytest.raises(ValueError):
            source.randbelow(0)
        with pytest.raises(ValueError):
            source.randbelow(-1)

    def test_bytes_length_and_determinism(self):
        a = SeededRandomSource(4)
        b = SeededRandomSource(4)
        assert a.bytes(16) == b.bytes(16)
        assert len(a.bytes(33)) == 33

    def test_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            SeededRandomSource(5).bytes(-1)

    def test_spawn_is_deterministic(self):
        a = SeededRandomSource(6).spawn("child")
        b = SeededRandomSource(6).spawn("child")
        assert a.randbelow(10**9) == b.randbelow(10**9)

    def test_spawn_labels_independent(self):
        parent = SeededRandomSource(6)
        a = parent.spawn("one")
        b = parent.spawn("two")
        assert [a.randbelow(10**6) for _ in range(4)] != [
            b.randbelow(10**6) for _ in range(4)
        ]

    def test_spawn_does_not_disturb_parent(self):
        parent_a = SeededRandomSource(9)
        parent_b = SeededRandomSource(9)
        parent_a.spawn("child")
        assert parent_a.randbelow(10**9) == parent_b.randbelow(10**9)

    def test_randint_inclusive(self):
        source = SeededRandomSource(10)
        values = {source.randint(3, 5) for _ in range(100)}
        assert values == {3, 4, 5}

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SeededRandomSource(11).randint(5, 4)

    def test_choice(self):
        source = SeededRandomSource(12)
        items = ["a", "b", "c"]
        assert {source.choice(items) for _ in range(60)} == set(items)

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            SeededRandomSource(13).choice([])

    def test_sample_distinct(self):
        source = SeededRandomSource(14)
        picked = source.sample(range(10), 6)
        assert len(picked) == 6
        assert len(set(picked)) == 6
        assert all(0 <= value < 10 for value in picked)

    def test_sample_full_population(self):
        source = SeededRandomSource(15)
        assert sorted(source.sample(range(5), 5)) == [0, 1, 2, 3, 4]

    def test_sample_rejects_oversize(self):
        with pytest.raises(ValueError):
            SeededRandomSource(16).sample(range(3), 4)

    def test_sample_distinct_indices_match_constraints(self):
        source = SeededRandomSource(17)
        picked = source.sample_distinct(1000, 10)
        assert len(picked) == 10
        assert len(set(picked)) == 10
        assert all(0 <= value < 1000 for value in picked)

    def test_sample_distinct_indices_dense(self):
        source = SeededRandomSource(18)
        picked = source.sample_distinct(10, 9)
        assert len(set(picked)) == 9

    def test_shuffled_preserves_elements(self):
        source = SeededRandomSource(19)
        items = list(range(20))
        shuffled = source.shuffled(items)
        assert sorted(shuffled) == items
        assert items == list(range(20))  # input untouched

    def test_uniformity_coarse(self):
        source = SeededRandomSource(20)
        counts = [0] * 4
        for _ in range(4000):
            counts[source.randbelow(4)] += 1
        for count in counts:
            assert 800 < count < 1200


class TestSystemRandomSource:
    def test_basic_interface(self):
        source = SystemRandomSource()
        assert 0.0 <= source.random() < 1.0
        assert 0 <= source.randbelow(10) < 10
        assert len(source.bytes(8)) == 8
        assert isinstance(source.spawn("x"), SystemRandomSource)

    def test_is_random_source(self):
        assert isinstance(SystemRandomSource(), RandomSource)


class TestDefaultRng:
    def test_seed_gives_seeded(self):
        assert isinstance(default_rng(1), SeededRandomSource)

    def test_none_gives_system(self):
        assert isinstance(default_rng(None), SystemRandomSource)


class TestSampleDistinct:
    def test_size_distinct_range(self):
        source = SeededRandomSource(21)
        picked = source.sample_distinct(50, 12)
        assert len(picked) == 12
        assert len(set(picked)) == 12
        assert all(0 <= value < 50 for value in picked)

    def test_deterministic_per_seed(self):
        assert SeededRandomSource(22).sample_distinct(100, 10) == \
            SeededRandomSource(22).sample_distinct(100, 10)

    def test_full_universe(self):
        assert sorted(SeededRandomSource(23).sample_distinct(7, 7)) == \
            list(range(7))

    def test_zero_count(self):
        assert SeededRandomSource(24).sample_distinct(5, 0) == []

    def test_rejects_invalid_counts(self):
        source = SeededRandomSource(25)
        with pytest.raises(ValueError):
            source.sample_distinct(4, 5)
        with pytest.raises(ValueError):
            source.sample_distinct(4, -1)

    def test_system_source_also_samples(self):
        picked = SystemRandomSource().sample_distinct(30, 8)
        assert len(set(picked)) == 8
        assert all(0 <= value < 30 for value in picked)

    def test_base_class_carves_from_bytes_alone(self):
        # A source that implements the four abstract methods and nothing
        # else (the shape of the benchmark's tracing proxy) samples
        # through the base class, which draws from bytes() only.
        inner = SeededRandomSource(26)

        class BytesOnly(RandomSource):
            def random(self):
                raise AssertionError("sampling draws no float")

            def randbelow(self, bound):
                raise AssertionError("sampling draws no bounded integer")

            def bytes(self, length):
                return inner.bytes(length)

            def spawn(self, label):
                raise AssertionError("sampling spawns nothing")

        picked = BytesOnly().sample_distinct(40, 6)
        assert picked == SeededRandomSource(26).sample_distinct(40, 6)
        assert len(set(picked)) == 6
        assert all(0 <= value < 40 for value in picked)
