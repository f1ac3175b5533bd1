"""Honest parties of the smart-card login scheme.

The scheme has four phases. At registration the user picks a random salt
block, hashes it against the password and sends the digest to the server,
which answers with a card holding a per-registration verifier and the
verifier masked by that digest. At login the card unmasks the verifier
with the keyed password and proves possession by hashing it against the
reader clock. The server recomputes the verifier from its master secret
and the account's registration counter and checks the proof, answering
with the symmetric proof over its own clock for mutual authentication.
The card alone performs password changes by re-masking the verifier.

The card cannot tell a wrong password at login, only the server can; the
password-change phase does check it locally, and that asymmetry is what
the attacks in `adversary` exploit. This module is the protocol alone: how
a message is written down is `harness`'s.
"""

import hmac
from typing import NamedTuple

from .blocks import (
    TIMESTAMP_LIMIT,
    digest,
    encode_password,
    encode_registered_identity,
    encode_timestamp,
    validate_identity,
    xor,
)

DEFAULT_WINDOW = 5


class ProtocolRejection(Exception):
    """A party refused a protocol step; `reason` names which check failed."""

    reason = "rejected"


class UnknownIdentity(ProtocolRejection):
    reason = "unknown-identity"


class StaleTimestamp(ProtocolRejection):
    reason = "stale-timestamp"


class BadAuthenticator(ProtocolRejection):
    reason = "bad-authenticator"


class PasswordChangeRejected(ProtocolRejection):
    reason = "wrong-old-password"


class LoginRequest(NamedTuple):
    """Wire message from card to server: (identity, proof, reader clock)."""

    identity: str
    authenticator: bytes
    timestamp: int


class ServerResponse(NamedTuple):
    """Wire message from server to user: (proof, server clock)."""

    authenticator: bytes
    timestamp: int


class UserSession(NamedTuple):
    """What the user side retains between sending a login and checking the reply."""

    secret: bytes
    sent_at: int


def _fresh(stamp: int, earliest: int, latest: int) -> bool:
    """Whether a message clock lies in [earliest, latest] and is a
    reading `encode_timestamp` can fold."""
    return earliest <= stamp <= latest and 0 <= stamp < TIMESTAMP_LIMIT


def password_digest(password: str, salt: bytes) -> bytes:
    """Hash of the salted password; the only password-derived value ever sent."""
    return digest(xor(salt, encode_password(password)))


def proof(secret: bytes, ticks: int) -> bytes:
    """Wire authenticator: `secret` hashed against a clock reading. Login, reply
    and both their checks use it, so a server reply is a valid login proof."""
    return digest(xor(secret, encode_timestamp(ticks)))


class SmartCard:
    """Issued card state: the verifier, the verifier masked by the
    password digest, and the salt the user keyed in at registration."""

    def __init__(self, verifier: bytes, masked_verifier: bytes, salt: bytes):
        self.verifier = verifier
        self.masked_verifier = masked_verifier
        self.salt = salt

    def login(self, identity: str, password: str, timestamp: int) -> tuple[LoginRequest, UserSession]:
        """Build a login request for the keyed identity and password.

        Any password is accepted here; a wrong one just produces a proof
        the server will refuse.
        """
        secret = xor(self.masked_verifier, password_digest(password, self.salt))
        authenticator = proof(secret, timestamp)
        request = LoginRequest(validate_identity(identity), authenticator, timestamp)
        return request, UserSession(secret, timestamp)

    def change_password(self, old_password: str, new_password: str) -> None:
        """Re-mask the verifier under a new password, card-side only.

        The card checks the old password by unmasking: only the digest
        used at issue time (or the last accepted change) reproduces the
        stored verifier.
        """
        self.remask(password_digest(old_password, self.salt), new_password)

    def remask(self, old_digest: bytes, new_password: str) -> None:
        """The change phase after the reader has hashed the old password:
        re-mask the verifier under the new password if `old_digest`
        unmasks it. The card cannot tell who produced the digest. An
        invalid new password raises ValueError before the card changes."""
        candidate = xor(self.masked_verifier, old_digest)
        if not hmac.compare_digest(candidate, self.verifier):
            raise PasswordChangeRejected("old password does not unmask the verifier")
        self.masked_verifier = xor(candidate, password_digest(new_password, self.salt))


class AuthServer:
    """The verifier side: holds the master secret and, per identity, only
    a counter of how many times that identity registered."""

    def __init__(self, master_secret: bytes):
        self.master_secret = master_secret
        self.accounts: dict[str, int] = {}

    def register(self, identity: str, pw_digest: bytes) -> tuple[bytes, bytes]:
        """Create or refresh an account; returns the card secrets to issue.

        First registration stores counter 0, every re-registration
        increments it, which silently invalidates cards from earlier
        registrations of the same identity.
        """
        validate_identity(identity)
        if identity in self.accounts:
            self.accounts[identity] += 1
        else:
            self.accounts[identity] = 0
        verifier = self._verifier_for(identity)
        return verifier, xor(verifier, pw_digest)

    def _verifier_for(self, identity: str) -> bytes:
        bound = encode_registered_identity(identity, self.accounts[identity])
        return digest(xor(bound, self.master_secret))

    def verify_login(self, request: LoginRequest, received_at: int,
                     window: int = DEFAULT_WINDOW) -> ServerResponse:
        """Check a login request received at the server's current tick.

        Raises ValueError when the server's own clock `received_at` is
        outside the clock's range, UnknownIdentity for unregistered or
        malformed identities, StaleTimestamp when the request clock falls
        outside [received_at - window, received_at] or outside the clock's
        range, BadAuthenticator when the proof does not match. On success
        returns the mutual-auth reply.
        """
        if not 0 <= received_at < TIMESTAMP_LIMIT:
            raise ValueError(f"server clock {received_at} is outside [0, 2**64)")
        # `register` stores only valid identities, so this rejects malformed ones too
        if request.identity not in self.accounts:
            raise UnknownIdentity(f"no account for {request.identity!r}")
        if not _fresh(request.timestamp, received_at - window, received_at):
            raise StaleTimestamp(
                f"login stamped {request.timestamp} received at {received_at}, window {window}")
        verifier = self._verifier_for(request.identity)
        if not hmac.compare_digest(request.authenticator, proof(verifier, request.timestamp)):
            raise BadAuthenticator("login proof does not match this account")
        return ServerResponse(proof(verifier, received_at), received_at)


def verify_mutual_auth(session: UserSession, response: ServerResponse,
                       window: int = DEFAULT_WINDOW) -> None:
    """User-side check of the server's reply for the given login session.

    Raises StaleTimestamp or BadAuthenticator; returns silently when the
    responder proved knowledge of the session secret.
    """
    if not _fresh(response.timestamp, session.sent_at, session.sent_at + window):
        raise StaleTimestamp(
            f"reply stamped {response.timestamp} for a login sent at {session.sent_at}")
    if not hmac.compare_digest(response.authenticator, proof(session.secret, response.timestamp)):
        raise BadAuthenticator("server reply does not prove the session secret")


def enroll(server: AuthServer, identity: str, password: str, salt: bytes) -> SmartCard:
    """Run the whole registration phase and hand back the issued card."""
    verifier, masked = server.register(identity, password_digest(password, salt))
    return SmartCard(verifier, masked, salt)
