"""Tests for repro.crypto.prf."""

import pytest

from repro.crypto.prf import PRF


class TestPRF:
    def test_deterministic(self):
        prf = PRF(b"key material")
        assert prf.evaluate(b"message") == prf.evaluate(b"message")

    def test_distinct_messages_distinct_outputs(self):
        prf = PRF(b"key material")
        assert prf.evaluate(b"a") != prf.evaluate(b"b")

    def test_distinct_keys_distinct_outputs(self):
        assert PRF(b"k1").evaluate(b"m") != PRF(b"k2").evaluate(b"m")

    def test_output_length(self):
        assert len(PRF(b"k").evaluate(b"m")) == 32

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            PRF(b"")

    def test_rejects_non_bytes_key(self):
        with pytest.raises(TypeError):
            PRF("string key")

    def test_integer_in_range(self):
        prf = PRF(b"k")
        for i in range(100):
            assert 0 <= prf.integer(str(i).encode(), 17) < 17

    def test_integer_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            PRF(b"k").integer(b"m", 0)

    def test_integer_covers_range(self):
        prf = PRF(b"k")
        seen = {prf.integer(str(i).encode(), 5) for i in range(200)}
        assert seen == {0, 1, 2, 3, 4}

    def test_choices_count_and_range(self):
        prf = PRF(b"k")
        choices = prf.choices(b"key", 100, 3)
        assert len(choices) == 3
        assert all(0 <= c < 100 for c in choices)

    def test_choices_deterministic(self):
        prf = PRF(b"k")
        assert prf.choices(b"key", 100, 2) == prf.choices(b"key", 100, 2)

    def test_choices_are_domain_separated(self):
        prf = PRF(b"k")
        # choices(i) should not just repeat the same value d times.
        many = [prf.choices(str(i).encode(), 10**6, 2) for i in range(50)]
        assert any(a != b for a, b in many)

    def test_choices_rejects_negative_count(self):
        with pytest.raises(ValueError):
            PRF(b"k").choices(b"m", 10, -1)

    def test_subkey_differs_from_parent(self):
        prf = PRF(b"k")
        child = prf.subkey("label")
        assert child.evaluate(b"m") != prf.evaluate(b"m")

    def test_subkeys_by_label_independent(self):
        prf = PRF(b"k")
        assert prf.subkey("a").evaluate(b"m") != prf.subkey("b").evaluate(b"m")

    def test_subkey_deterministic(self):
        assert PRF(b"k").subkey("x").key == PRF(b"k").subkey("x").key


class TestBatchedChoices:
    def test_choices_match_per_evaluation_loop(self):
        # The batched evaluation against the shared keyed state must be
        # bit-identical to deriving each choice with its own integer().
        prf = PRF(b"batch equivalence key")
        for message in (b"", b"u", b"a much longer user key" * 3):
            expected = [
                prf.integer(i.to_bytes(4, "big") + b"|" + message, 977)
                for i in range(5)
            ]
            assert prf.choices(message, 977, 5) == expected

    def test_choices_many_matches_per_message_calls(self):
        # One keyed-state pass over a whole round's keys must derive
        # exactly the draws of per-message choices() calls, in order.
        prf = PRF(b"round batch key")
        messages = [b"", b"alpha", b"beta", b"alpha", b"k" * 40]
        assert prf.choices_many(messages, 977, 2) == [
            prf.choices(message, 977, 2) for message in messages
        ]

    def test_choices_many_validates_arguments(self):
        prf = PRF(b"k")
        with pytest.raises(TypeError):
            prf.choices_many([b"ok", "text"], 7, 2)
        with pytest.raises(ValueError):
            prf.choices_many([b"ok"], 0, 2)
        with pytest.raises(ValueError):
            prf.choices_many([b"ok"], 7, -1)
        assert prf.choices_many([], 7, 2) == []

    def test_evaluate_matches_fresh_hmac(self):
        import hashlib
        import hmac as hmac_mod

        prf = PRF(b"some key")
        assert prf.evaluate(b"msg") == hmac_mod.new(
            b"some key", b"msg", hashlib.sha256
        ).digest()

    def test_evaluate_rejects_non_bytes_message(self):
        with pytest.raises(TypeError):
            PRF(b"k").evaluate("text")

    def test_integer_rejects_non_bytes_message(self):
        with pytest.raises(TypeError):
            PRF(b"k").integer(123, 10)

    def test_choices_reject_non_bytes_message(self):
        with pytest.raises(TypeError):
            PRF(b"k").choices(None, 10, 2)

    def test_choices_reject_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            PRF(b"k").choices(b"m", 0, 2)

    def test_choices_accept_bytearray_and_memoryview(self):
        prf = PRF(b"k")
        expected = prf.choices(b"mm", 100, 2)
        assert prf.choices(bytearray(b"mm"), 100, 2) == expected
        assert prf.choices(memoryview(b"mm"), 100, 2) == expected

    def test_zero_choices(self):
        assert PRF(b"k").choices(b"m", 10, 0) == []
