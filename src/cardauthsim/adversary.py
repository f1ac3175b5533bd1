"""Attack procedures against the scheme in `scheme`.

Each attack uses only what its threat model grants: wire messages read
off the channel, secrets extracted from a stolen card, or the values an
insider at the server saw during registration. None of them touches the
server except through legal protocol messages.

Why they work: the password digest is the only thing binding a password
to a card, the card will re-mask its verifier for anyone who can produce
that digest, and the server's mutual-auth reply has exactly the shape of
a valid login proof.
"""

import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .blocks import Block, digest, encode_timestamp, validate_password, xor
from .scheme import (
    LoginRequest,
    ServerResponse,
    SmartCard,
    password_digest,
)

INSIDER_SUPPLY_VERIFIER = "supply-verifier"
# An alias of INSIDER_SUPPLY_VERIFIER: whichever recorded value is keyed
# in, the unmasking lands on the same value, so both modes are one change.
INSIDER_SUPPLY_DIGEST = "supply-password-digest"
INSIDER_MODES = (INSIDER_SUPPLY_VERIFIER, INSIDER_SUPPLY_DIGEST)


@dataclass(frozen=True)
class CardSecrets:
    """Byte-exact copy of a card's contents, as read out by a physical
    extraction the card is assumed not to resist."""

    verifier: Block
    masked_verifier: Block
    salt: Block

    @classmethod
    def from_card(cls, card: SmartCard) -> "CardSecrets":
        return cls(card.verifier, card.masked_verifier, card.salt)


@dataclass(frozen=True)
class RegistrationRecord:
    """What an insider at the server learns when a user registers: the
    submitted password digest and both issued card secrets."""

    password_digest: Block
    verifier: Block
    masked_verifier: Block


class Wordlist(tuple):
    """Ordered, duplicate-free candidate passwords; order is guess order."""

    def __new__(cls, words: Iterable[str]) -> "Wordlist":
        self = super().__new__(cls, words)
        if not self:
            raise ValueError("wordlist must not be empty")
        seen = set()
        for word in self:
            validate_password(word)
            if word in seen:
                raise ValueError(f"duplicate wordlist entry: {word!r}")
            seen.add(word)
        return self

    @classmethod
    def load(cls, path: str | Path) -> "Wordlist":
        """Read a UTF-8 wordlist file, one password per line, no blank lines, no
        carriage returns. OSError: unreadable or not a regular file; ValueError: malformed."""
        try:
            # checked before opening: a FIFO would block and a device never end
            if not stat.S_ISREG(os.stat(path).st_mode):
                raise OSError(f"not a regular file: {path}")
            data = Path(path).read_bytes()
        except ValueError as exc:  # the OS call refuses a path with a NUL or a lone surrogate
            raise OSError(f"unusable path {path!r}: {exc}") from None
        text = data.decode("utf-8")
        if "\r" in text:
            raise ValueError(f"carriage return in wordlist {path}")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if any(line == "" for line in lines):
            raise ValueError(f"blank line in wordlist {path}")
        return cls(lines)


def offline_guess(secrets: CardSecrets, request: LoginRequest,
                  wordlist: Wordlist) -> Optional[tuple[str, Block]]:
    """Recover the password behind an intercepted login request.

    For each candidate, unmask the verifier as the card would have and
    rebuild the login proof for the request's timestamp; the first
    candidate that reproduces the intercepted proof is the password.
    Returns (password, session secret) or None if no candidate matches.
    Needs no server interaction at all.
    """
    # `scheme.proof` inlined: the stamp is folded once per scan, not per candidate
    stamp = encode_timestamp(request.timestamp)
    for word in wordlist:
        candidate = xor(secrets.masked_verifier, password_digest(word, secrets.salt))
        if digest(xor(candidate, stamp)) == request.authenticator:
            return word, candidate
    return None


def outsider_change_password(card: SmartCard, recovered_password: str,
                             new_password: str) -> None:
    """Lock the owner out of a stolen card using its recovered password.

    The card's own change phase does the work; it cannot tell the thief
    from the owner once the password is known. Afterwards the owner's
    old password no longer produces valid logins.
    """
    card.change_password(recovered_password, new_password)


def insider_change_password(card: SmartCard, record: RegistrationRecord,
                            new_password: str, mode: str = INSIDER_SUPPLY_VERIFIER) -> None:
    """Hijack a card's password with registration-time knowledge only.

    The insider bypasses the reader's hash entry and injects recorded
    registration material in place of the keyed-password digest; whether
    the verifier or the password digest is keyed in, the unmasking lands
    on the same value. The card's own change phase runs on it, so the
    injection goes stale and is rejected once the user has changed the
    password since registration.
    """
    if mode not in INSIDER_MODES:
        raise ValueError(f"unknown insider entry mode: {mode!r}")
    card.remask(record.password_digest, new_password)


def forge_parallel_login(request: LoginRequest, response: ServerResponse) -> LoginRequest:
    """Turn one observed session into a fresh login request.

    The server's reply is `scheme.proof` of the same secret as the login
    proof it just checked, only over its own clock, so (identity, reply proof,
    reply clock) is itself a login request the server will accept while
    the reply's timestamp stays fresh. Uses nothing but the two wire
    messages.
    """
    return LoginRequest(request.identity, response.authenticator, response.timestamp)
