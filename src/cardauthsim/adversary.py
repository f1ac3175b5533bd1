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
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .blocks import MAX_TEXT_LEN, digest, encode_timestamp, validate_password, xor
from .scheme import (
    LoginRequest,
    ServerResponse,
    SmartCard,
    password_digest,
)

INSIDER_SUPPLY_VERIFIER = "supply-verifier"
INSIDER_MODES = (INSIDER_SUPPLY_VERIFIER,)


# Far above the shipped 9.7 kB wordlist, a 10 000-word list (about 130 kB) and
# any transcript this program writes.
MAX_INPUT_BYTES = 16 * 2**20


def read_text(path: str | Path) -> str:
    """The one reader of an input file: the strict UTF-8 text of a regular
    file of at most MAX_INPUT_BYTES, by its size and by what it reads.
    OSError: unreadable, not a regular file or too large, with the path
    quoted and escaped as the OS's own errors show it, since a transcript
    header can name any path; ValueError: bytes that are not UTF-8, naming
    the line."""
    limit = f"{MAX_INPUT_BYTES}-byte limit for an input file"
    try:
        # checked before opening: a FIFO would block, a device never end and
        # a huge file not fit in memory
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode):
            raise OSError(f"not a regular file: {str(path)!r}")
        if info.st_size > MAX_INPUT_BYTES:
            raise OSError(f"{str(path)!r} is {info.st_size} bytes, over the {limit}")
        # the path may name another file by the time it is opened: O_NONBLOCK
        # opens a FIFO swapped in since at once, and fstat refuses it. The
        # read is bounded too, at one byte past the limit: a regular file may
        # hold more than its size says, as /proc/self/pagemap does (size 0).
        # Asking for the size plus one byte spares the common case a buffer
        # of the whole limit.
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            os.close(fd)
            raise OSError(f"not a regular file: {str(path)!r}")
        with open(fd, "rb") as file:
            data = file.read(info.st_size + 1)
            if len(data) > info.st_size:
                data += file.read(MAX_INPUT_BYTES - info.st_size)
        if len(data) > MAX_INPUT_BYTES:
            raise OSError(f"{str(path)!r} is over the {limit}")
    except ValueError:  # the OS call refuses a path with a NUL or a lone surrogate, in
        # words that vary with the Python version; the quoted path shows which
        raise OSError(f"unusable path {str(path)!r}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: not UTF-8 ({exc.reason})") from None


class CardSecrets(NamedTuple):
    """Byte-exact copy of a card's contents, as read out by a physical
    extraction the card is assumed not to resist."""

    verifier: bytes
    masked_verifier: bytes
    salt: bytes

    @classmethod
    def from_card(cls, card: SmartCard) -> "CardSecrets":
        return cls(card.verifier, card.masked_verifier, card.salt)


class RegistrationRecord(NamedTuple):
    """What an insider at the server learns when a user registers: the
    submitted password digest and both issued card secrets."""

    password_digest: bytes
    verifier: bytes
    masked_verifier: bytes


class Wordlist(tuple):
    """Ordered, duplicate-free candidate passwords; order is guess order."""

    def __new__(cls, words: Iterable[str]) -> "Wordlist":
        self = super().__new__(cls, words)
        if not self:
            raise ValueError("wordlist must not be empty")
        try:  # builtins pass a good list whole; only a refusal walks the entries
            if all(self) and max(map(len, self)) <= MAX_TEXT_LEN and len(set(self)) == len(self):
                return self
        except TypeError:  # an entry with no length or no hash: the walk names it
            pass
        seen: dict[str, int] = {}
        for number, word in enumerate(self, 1):
            try:
                validate_password(word)
            except ValueError as exc:
                raise ValueError(f"entry {number}: {exc}") from None
            if word in seen:
                raise ValueError(f"entry {number} repeats entry {seen[word]}")
            seen[word] = number
        return self

    @classmethod
    def load(cls, path: str | Path) -> "Wordlist":
        """Read a UTF-8 wordlist file, one password per line, no blank lines, no
        carriage returns; the final newline may be left out. Entry n is line n.
        OSError: unreadable or not a regular file; ValueError: malformed, naming the line."""
        text = read_text(path)
        if "\r" in text:
            line = text.count("\n", 0, text.index("\r")) + 1
            raise ValueError(f"line {line}: carriage return")
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        return cls(lines)


def offline_guess(secrets: CardSecrets, request: LoginRequest,
                  wordlist: Wordlist) -> Optional[tuple[str, bytes]]:
    """Recover the password behind an intercepted login request.

    For each candidate, unmask the verifier as the card would have and
    rebuild the login proof for the request's timestamp; the first
    candidate that reproduces the intercepted proof is the password.
    Returns (password, session secret) or None if no candidate matches.
    Needs no server interaction at all.
    """
    # `scheme.proof` inlined: the stamp is folded once per scan, not per candidate
    stamp = encode_timestamp(request.timestamp)
    masked, salt, target = secrets.masked_verifier, secrets.salt, request.authenticator
    for word in wordlist:
        candidate = xor(masked, password_digest(word, salt))
        if digest(xor(candidate, stamp)) == target:
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

    The insider bypasses the reader's hash entry and injects the recorded
    password digest in place of the keyed-password digest: keying in the
    verifier itself would not unmask the verifier, and the card would
    reject it. The card's own change phase runs on the digest, so the
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
