"""Fixed-width block arithmetic underneath the authentication scheme.

Every secret, authenticator and masked value in the scheme lives in one
domain: 32-byte blocks, as plain `bytes`, under XOR and a one-way function;
`Block` checks a value from outside. Identities, passwords, counters and
clock ticks are folded into the domain by `encode_*`, which prefixes a
type tag so different kinds of value can never collide.
"""

from hashlib import sha256

BLOCK_LEN = 32

# Length caps for the canonical text types.
MAX_TEXT_LEN = 64

# Clock readings fold into the block domain as 8-byte big-endian integers.
TIMESTAMP_LIMIT = 2**64

_IDENTITY_TAG = b"I"
_PASSWORD_TAG = b"P"
_TIMESTAMP_TAG = b"T"
_REGISTRATION_TAG = b"E"

# Reference digests of the one-way function over two fixed test blocks,
# pinned so any change to the underlying hash is caught immediately.
GOLDEN_DIGESTS = {
    "zero-block": "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    "ones-block": "af9613760f72635fbdb44a5a0a63c39f12af30f950a6ee5c971be188e89c4051",
}


def Block(data: bytes) -> bytes:
    """A checked block from outside: the exact `bytes` of 32-byte `data`."""
    if len(data) != BLOCK_LEN:
        raise ValueError(f"block must be exactly {BLOCK_LEN} bytes, got {len(data)}")
    return bytes(data)


ZERO_BLOCK = bytes(BLOCK_LEN)
ONES_BLOCK = b"\xff" * BLOCK_LEN


def digest(block: bytes) -> bytes:
    """One-way function over a block, realised as SHA-256."""
    if len(block) != BLOCK_LEN:
        raise ValueError(f"digest input must be a {BLOCK_LEN}-byte block")
    return sha256(block).digest()


_from_bytes = int.from_bytes


def xor(a: bytes, b: bytes) -> bytes:
    """Byte-wise XOR of two blocks, computed on them as little-endian integers."""
    if len(a) != BLOCK_LEN or len(b) != BLOCK_LEN:
        raise ValueError(f"xor operands must be {BLOCK_LEN}-byte blocks")
    return (_from_bytes(a, "little") ^ _from_bytes(b, "little")).to_bytes(BLOCK_LEN, "little")


def validate_identity(identity: str) -> str:
    """Check an identity is non-empty visible ASCII of at most 64 chars."""
    if not identity:
        raise ValueError("identity must not be empty")
    if len(identity) > MAX_TEXT_LEN:
        raise ValueError(f"identity longer than {MAX_TEXT_LEN} characters")
    # printable ASCII is 0x20-0x7E, and only the space among it is whitespace
    if not (identity.isascii() and identity.isprintable() and " " not in identity):
        raise ValueError("identity must be printable ASCII without whitespace")
    return identity


def validate_password(password: str) -> str:
    """Check a password is non-empty and at most 64 chars."""
    if not password:
        raise ValueError("password must not be empty")
    if len(password) > MAX_TEXT_LEN:
        raise ValueError(f"password longer than {MAX_TEXT_LEN} characters")
    return password


def encode_identity(identity: str) -> bytes:
    return sha256(_IDENTITY_TAG + validate_identity(identity).encode("ascii")).digest()


def encode_password(password: str) -> bytes:
    return sha256(_PASSWORD_TAG + validate_password(password).encode("utf-8")).digest()


def encode_timestamp(ticks: int) -> bytes:
    """Fold a logical clock reading into the block domain."""
    if not 0 <= ticks < TIMESTAMP_LIMIT:
        raise ValueError("timestamp out of range")
    return sha256(_TIMESTAMP_TAG + ticks.to_bytes(8, "big")).digest()


def encode_registered_identity(identity: str, counter: int) -> bytes:
    """Bind an identity to its registration counter.

    The counter is a fixed-width suffix, so the serialisation is
    unambiguous and re-registration yields a fresh block.
    """
    if counter < 0 or counter >= 2**32:
        raise ValueError("registration counter out of range")
    ident = validate_identity(identity).encode("ascii")
    return sha256(_REGISTRATION_TAG + ident + counter.to_bytes(4, "big")).digest()
