"""Block domain: digests, XOR, canonical encodings.

Each primitive is checked against an independent oracle: hashlib directly
for the digests and encodings, a byte-by-byte XOR for `xor`. The golden
digests are pinned against hashlib by criterion 7 of test_acceptance.py.

What the primitives refuse is pinned by the refusal tables that README's
Layout lists.
"""

import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardauthsim.blocks import (
    BLOCK_LEN,
    Block,
    digest,
    encode_identity,
    encode_password,
    encode_registered_identity,
    encode_timestamp,
    validate_identity,
    xor,
)

# every operand type the scheme hands to the primitives, in any mix
block_likes = st.binary(min_size=BLOCK_LEN, max_size=BLOCK_LEN).flatmap(
    lambda raw: st.sampled_from((raw, bytearray(raw), Block(raw))))


def _sha(data: bytes) -> bytes:
    # independent oracle route, deliberately not cardauthsim.blocks.digest
    return hashlib.sha256(data).digest()


class TestBlock:
    # pins `bytes(data)`, so that a block from a bytearray is immutable: no operator edits a return
    def test_returns_exact_bytes_equal_to_input(self):
        raw = bytes(range(32))
        for data in (raw, bytearray(raw)):
            block = Block(data)
            assert type(block) is bytes
            assert block == raw


class TestDigest:
    @settings(max_examples=200, deadline=None)
    @given(block=block_likes)
    def test_matches_sha256_oracle(self, block):
        result = digest(block)
        assert result == _sha(bytes(block))
        assert type(result) is bytes  # a bytes subclass would pass isinstance


class TestXor:
    @settings(max_examples=500, deadline=None)
    @given(a=block_likes, b=block_likes)
    def test_matches_bytewise_oracle(self, a, b):
        result = xor(a, b)
        assert result == bytes(x ^ y for x, y in zip(a, b))
        assert type(result) is bytes


class TestValidation:
    @settings(max_examples=500)
    @example(identity="alice")
    @example(identity="a" * 64)
    @given(identity=st.text(max_size=70) | st.lists(
        st.sampled_from([*map(chr, range(0x21)), "\x7f", "\x85", "\xa0", "a", "~", "!"]),
        min_size=1, max_size=6).map("".join))
    def test_identity_check_matches_per_character_oracle(self, identity):
        # the rule as first written: every character in 0x21-0x7E
        valid = 0 < len(identity) <= 64 and all(0x21 <= ord(ch) <= 0x7E for ch in identity)
        try:
            assert validate_identity(identity) == identity and valid
        except ValueError:
            assert not valid


class TestEncode:
    @settings(max_examples=200, deadline=None)
    @example(password="p", identity="alice", counter=0)
    @example(password="café latte", identity="alice", counter=0)
    @example(password="a" * 64, identity="alice", counter=0)
    @given(password=st.text(min_size=1, max_size=64),
           identity=st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E),
                            min_size=1, max_size=64),
           counter=st.integers(min_value=0, max_value=2**32 - 1))
    def test_text_encodings_match_oracle(self, password, identity, counter):
        encoded = (encode_password(password), encode_identity(identity),
                   encode_registered_identity(identity, counter))
        assert encoded == (_sha(b"P" + password.encode("utf-8")),
                           _sha(b"I" + identity.encode("ascii")),
                           _sha(b"E" + identity.encode("ascii") + counter.to_bytes(4, "big")))
        assert all(type(block) is bytes for block in encoded)

    @settings(max_examples=200, deadline=None)
    @given(ticks=st.integers(min_value=0, max_value=2**64 - 1))
    def test_timestamp_encoding_matches_oracle(self, ticks):
        encoded = encode_timestamp(ticks)
        assert encoded == _sha(b"T" + ticks.to_bytes(8, "big"))
        assert type(encoded) is bytes
