"""The one table of values that the library refuses: each row is one call of
blocks, scheme, adversary, the scenario config or the harness's wire form,
pinned by the exact class it raises and the whole text; beside it, the
`reason` that each protocol rejection records. The command line's refusals
are test_cli.py's two tables, test_replay_refusal for transcripts and
test_path_refusal for paths."""

from collections import namedtuple

import pytest

from cardauthsim.adversary import (CardSecrets, RegistrationRecord, Wordlist,
                                   insider_change_password, offline_guess)
from cardauthsim.blocks import (ZERO_BLOCK, Block, digest, encode_identity, encode_password,
                                encode_registered_identity, encode_timestamp, validate_identity,
                                validate_password, xor)
from cardauthsim.harness import ScenarioConfig, ScenarioError, message_to_wire
from cardauthsim.scheme import (BadAuthenticator, LoginRequest, PasswordChangeRejected,
                                ProtocolRejection, ServerResponse, StaleTimestamp,
                                UnknownIdentity, UserSession, enroll, password_digest,
                                verify_mutual_auth)

from parties import IDENT, PASSWORD, SALT, enrolled

SHORT = {"short": b"short", "31": bytes(31), "33": bytes(33)}
Parties = namedtuple("Parties", "server card request session response")


def _parties(reenrol=False):
    """A server with IDENT enrolled and its card's login at 10, answered at 11;
    with `reenrol`, IDENT then enrols again, so that card is out of date."""
    server, card = enrolled()
    request, session = card.login(IDENT, PASSWORD, 10)
    response = server.verify_login(request, 11)
    if reenrol:
        enroll(server, IDENT, PASSWORD, SALT)
    return Parties(server, card, request, session, response)


ERRORS = {  # (class, whole text): {row id: the call refused}
    **{(ValueError, f"block must be exactly 32 bytes, got {n}"): {
        f"block-{n}": lambda n=n: Block(bytes(n))} for n in (0, 1, 31, 33, 64)},
    (ValueError, "digest input must be a 32-byte block"): {
        f"digest-{name}": lambda bad=bad: digest(bad) for name, bad in SHORT.items()},
    (ValueError, "xor operands must be 32-byte blocks"): {
        **{f"xor-left-{name}": lambda bad=bad: xor(bad, ZERO_BLOCK) for name, bad in SHORT.items()},
        **{f"xor-right-{name}": lambda bad=bad: xor(ZERO_BLOCK, bad)
           for name, bad in SHORT.items()}},
    # the interpreter's own words, the same on Python 3.11 to 3.13
    (TypeError, "Strings must be encoded before hashing"): {"digest-str": lambda: digest("x" * 32)},
    (TypeError, "cannot convert 'str' object to bytes"): {
        "xor-left-str": lambda: xor("x" * 32, ZERO_BLOCK),
        "xor-right-str": lambda: xor(ZERO_BLOCK, "x" * 32)},
    (ValueError, "identity must not be empty"): {
        "identity-empty": lambda: validate_identity(""),
        "encode-identity-empty": lambda: encode_identity("")},
    (ValueError, "identity longer than 64 characters"): {
        "identity-65": lambda: validate_identity("a" * 65),
        "encode-identity-65": lambda: encode_identity("x" * 65)},
    (ValueError, "identity must be printable ASCII without whitespace"): {
        "identity-space": lambda: validate_identity("with space"),
        "identity-tab": lambda: validate_identity("tab\tbed"),
        "identity-non-ascii": lambda: validate_identity("café"),
        "login-identity-space": lambda: _parties().card.login("has space", PASSWORD, 10),
        "register-identity-space": lambda: _parties().server.register(
            "has space", password_digest(PASSWORD, SALT))},
    (ValueError, "password must not be empty"): {
        "password-empty": lambda: validate_password(""),
        "encode-password-empty": lambda: encode_password("")},
    (ValueError, "password longer than 64 characters"): {
        "password-65": lambda: validate_password("a" * 65)},
    (ValueError, "timestamp out of range"): {
        "timestamp-minus-1": lambda: encode_timestamp(-1),
        "timestamp-2**64": lambda: encode_timestamp(2**64),
        # folded once, before the first candidate
        "offline-guess-2**64": lambda: offline_guess(
            CardSecrets.from_card(_parties().card), LoginRequest(IDENT, ZERO_BLOCK, 2**64),
            Wordlist(["x"]))},
    (ValueError, "registration counter out of range"): {
        "counter-minus-1": lambda: encode_registered_identity("alice", -1),
        "counter-2**32": lambda: encode_registered_identity("alice", 2**32)},
    # the server's own clock is checked before the account and any proof
    **{(ValueError, f"server clock {tick} is outside [0, 2**64)"): {
        f"server-clock-{name}-card": lambda tick=tick: (p := _parties()).server.verify_login(
            p.card.login(IDENT, PASSWORD, 0)[0], tick, window=2**65),
        f"server-clock-{name}-unknown": lambda tick=tick: _parties().server.verify_login(
            LoginRequest("mallory", ZERO_BLOCK, 0), tick, window=2**65)}
       for name, tick in (("minus-1", -1), ("2**64", 2**64))},
    (UnknownIdentity, "no account for 'mallory'"): {
        "verify-unknown": lambda: (p := _parties()).server.verify_login(
            p.card.login("mallory", PASSWORD, 10)[0], 11)},
    # `register` stores only valid identities, so no account has a malformed one
    (UnknownIdentity, "no account for 'has space'"): {
        "verify-malformed": lambda: _parties().server.verify_login(
            LoginRequest("has space", ZERO_BLOCK, 10), 11)},
    (StaleTimestamp, "login stamped -1 received at 3, window 10"): {
        "verify-stamp-minus-1": lambda: _parties().server.verify_login(
            LoginRequest(IDENT, ZERO_BLOCK, -1), 3, window=10)},
    (BadAuthenticator, "login proof does not match this account"): {
        "verify-reenrolled": lambda: (p := _parties(reenrol=True)).server.verify_login(
            p.request, 11)},
    **{(StaleTimestamp, f"reply stamped {stamp} for a login sent at 10"): {
        f"reply-{name}": lambda stamp=stamp: verify_mutual_auth(
            (p := _parties()).session, ServerResponse(p.response.authenticator, stamp), window=5)}
       for name, stamp in (("predating", 9), ("late", 10 + 5 + 1))},
    (StaleTimestamp, f"reply stamped {2**64} for a login sent at {2**64 - 1}"): {
        "reply-2**64": lambda: verify_mutual_auth(UserSession(ZERO_BLOCK, 2**64 - 1),
                                                  ServerResponse(ZERO_BLOCK, 2**64))},
    (TypeError, "not a wire message: 'not a message'"): {
        "wire-str": lambda: message_to_wire("not a message")},
    # a wordlist names the 1-based entry, and a repeat both entries, never the word
    (ValueError, "entry 3 repeats entry 1"): {"wordlist-repeat": lambda: Wordlist(["a", "b", "a"])},
    (ValueError, "entry 2: password must not be empty"): {
        "wordlist-blank": lambda: Wordlist(["a", ""])},
    # the first bad entry is named: the two *-before-* rows hold one repeat and one
    # overlong word, in opposite orders
    (ValueError, "entry 1: password longer than 64 characters"): {
        "wordlist-65": lambda: Wordlist(["a" * 65]),
        "wordlist-65-before-repeat": lambda: Wordlist(["a" * 65, "b", "b"])},
    (ValueError, "entry 2 repeats entry 1"): {
        "wordlist-repeat-before-65": lambda: Wordlist(["b", "b", "a" * 65])},
    (ValueError, "wordlist must not be empty"): {"wordlist-empty": lambda: Wordlist([])},
    (ValueError, "unknown insider entry mode: 'telepathy'"): {
        "insider-mode": lambda: insider_change_password(
            (p := _parties()).card, RegistrationRecord(password_digest(PASSWORD, SALT),
                                                       p.card.verifier, p.card.masked_verifier),
            "evil", mode="telepathy")},
    # `_replace` runs the constructor's checks too
    (ScenarioError, "seed must be a non-negative integer"): {
        "config-replace-seed": lambda: ScenarioConfig("honest")._replace(seed=-1)},
}
REFUSALS = [(name, call, cls, text) for (cls, text), rows in ERRORS.items()
            for name, call in rows.items()]


@pytest.mark.parametrize("call, cls, text", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_library_refusal(call, cls, text):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (cls, text)


def test_each_protocol_rejection_names_its_check():
    # a transcript records `reason`, and no scenario's transcript holds
    # unknown-identity or wrong-old-password
    assert {cls: cls.reason for cls in (ProtocolRejection, *ProtocolRejection.__subclasses__())} == {
        ProtocolRejection: "rejected", UnknownIdentity: "unknown-identity",
        StaleTimestamp: "stale-timestamp", BadAuthenticator: "bad-authenticator",
        PasswordChangeRejected: "wrong-old-password"}
