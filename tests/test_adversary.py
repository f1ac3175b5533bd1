"""The four attacks, each exercised end to end against honest parties."""

import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardauthsim import adversary, scheme
from cardauthsim.adversary import (
    INSIDER_MODES,
    INSIDER_SUPPLY_DIGEST,
    INSIDER_SUPPLY_VERIFIER,
    CardSecrets,
    RegistrationRecord,
    Wordlist,
    forge_parallel_login,
    insider_change_password,
    offline_guess,
    outsider_change_password,
)
from cardauthsim.blocks import Block, digest, encode_registered_identity, encode_timestamp, xor
from cardauthsim.scheme import (
    AuthServer,
    BadAuthenticator,
    LoginRequest,
    PasswordChangeRejected,
    StaleTimestamp,
    enroll,
    message_to_wire,
    password_digest,
    verify_mutual_auth,
)

MASTER = Block(bytes(range(32)))
SALT = Block(bytes(range(32, 64)))
IDENT = "alice"
PASSWORD = "correct-horse"

blocks = st.binary(min_size=32, max_size=32).map(Block)


def _setup(password=PASSWORD):
    server = AuthServer(MASTER)
    card = enroll(server, IDENT, password, SALT)
    return server, card


def _wordlist_around(true_password, size, rng, include=True):
    """Random distinct candidates with the true password mixed in (or not)."""
    words = set()
    while len(words) < size - (1 if include else 0):
        word = "cand-" + "".join(rng.choices("abcdefghij0123456789", k=8))
        if word != true_password:
            words.add(word)
    words = sorted(words)
    if include:
        words.insert(rng.randrange(len(words) + 1), true_password)
    return Wordlist(words)


class TestWordlist:
    def test_preserves_order(self):
        wl = Wordlist(["b", "a", "c"])
        assert list(wl) == ["b", "a", "c"]
        assert len(wl) == 3
        assert "a" in wl and "z" not in wl

    def test_rejects_duplicates_blanks_and_empty(self):
        # errors name the 1-based entry, and a duplicate both entries, never the word
        with pytest.raises(ValueError, match=r"^entry 3 repeats entry 1$"):
            Wordlist(["a", "b", "a"])
        with pytest.raises(ValueError, match="entry 2: password must not be empty"):
            Wordlist(["a", ""])
        with pytest.raises(ValueError):
            Wordlist([])

    def test_load_file(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("one\ntwo\nthree\n", encoding="utf-8")
        assert list(Wordlist.load(path)) == ["one", "two", "three"]
        # the final newline may be left out
        path.write_text("one\ntwo\nthree", encoding="utf-8")
        assert list(Wordlist.load(path)) == ["one", "two", "three"]

    def test_load_rejects_blank_line(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("one\n\ntwo\n", encoding="utf-8")
        # the rule Wordlist applies to every entry
        with pytest.raises(ValueError, match="entry 2: password must not be empty"):
            Wordlist.load(path)

    def test_load_names_the_line_of_bad_bytes_or_a_carriage_return(self, tmp_path):
        path = tmp_path / "words.txt"
        for data, message in ((b"a\n\xff\xfe\n", "line 2: not UTF-8"),
                              (b"\xffa\n", "line 1: not UTF-8"),
                              (b"a\nb\nc\xe9\n", "line 3: not UTF-8"),
                              (b"a\nb\r\nc\n", "line 2: carriage return"),
                              (b"a\rb\r", "line 1: carriage return")):
            path.write_bytes(data)
            with pytest.raises(ValueError, match=message):
                Wordlist.load(path)

    def test_load_reads_only_a_regular_file(self, tmp_path):
        # "a\0b" and "\ud800" cannot name a file; /dev/null is not a regular
        # file. A FIFO is the dictionary-fifo row of test_cli.py::test_child_process,
        # a child process whose timeout ends a reader that blocks on it.
        for path in ("/nonexistent", "a\u0000b", "\ud800", "/dev/null"):
            with pytest.raises(OSError):
                Wordlist.load(path)

    def test_shipped_dictionary_is_well_formed(self):
        wl = Wordlist.load(Path(__file__).parent.parent / "data" / "dictionary.txt")
        assert len(wl) == 1000


class TestOfflineGuess:
    def test_recovers_password_from_large_wordlist(self):
        _, card = _setup()
        request, _ = card.login(IDENT, PASSWORD, 10)
        wl = _wordlist_around(PASSWORD, 1000, random.Random(7))
        found = offline_guess(CardSecrets.from_card(card), request, wl)
        assert found is not None
        password, secret = found
        assert password == PASSWORD
        assert secret == card.verifier

    def test_not_found_when_password_absent(self):
        _, card = _setup()
        request, _ = card.login(IDENT, PASSWORD, 10)
        wl = _wordlist_around(PASSWORD, 1000, random.Random(7), include=False)
        assert offline_guess(CardSecrets.from_card(card), request, wl) is None

    def test_single_candidate_hits_first_probe(self):
        _, card = _setup()
        request, _ = card.login(IDENT, PASSWORD, 10)
        found = offline_guess(CardSecrets.from_card(card), request, Wordlist([PASSWORD]))
        assert found == (PASSWORD, card.verifier)

    def test_random_hundred_word_lists(self):
        # recovery succeeds whenever the password is present, across
        # many independently drawn wordlists and scheme instances
        rng = random.Random(99)
        for _ in range(30):
            password = "pw-" + "".join(rng.choices("abcdef123", k=6))
            server = AuthServer(Block(rng.randbytes(32)))
            card = enroll(server, IDENT, password, Block(rng.randbytes(32)))
            request, _ = card.login(IDENT, password, rng.randrange(1000))
            wl = _wordlist_around(password, 100, rng)
            assert offline_guess(CardSecrets.from_card(card), request, wl) == (password, card.verifier)

    def test_uses_only_breached_material(self):
        # the scan never needs the server or an oracle beyond the
        # intercepted request: rebuild it from the wire form alone
        _, card = _setup()
        request, _ = card.login(IDENT, PASSWORD, 10)
        wire = message_to_wire(request)
        off_the_wire = LoginRequest(wire["id"], Block(bytes.fromhex(wire["c2"])), wire["t"])
        found = offline_guess(CardSecrets.from_card(card), off_the_wire, Wordlist([PASSWORD]))
        assert found is not None

    @settings(max_examples=100, deadline=None)
    @given(master=blocks, salt=blocks, password=st.text(min_size=1, max_size=64),
           stamp=st.integers(min_value=0, max_value=2**64 - 1), data=st.data())
    def test_agrees_with_a_plain_reference_scan(self, master, salt, password, stamp, data):
        # the scan inlines `scheme.proof`; this reference keeps it, over the
        # same wordlist, with the password at any position or absent
        card = enroll(AuthServer(master), IDENT, password, salt)
        request, _ = card.login(IDENT, password, stamp)
        words = [word for word in data.draw(st.lists(st.text(min_size=1, max_size=8),
                                                     unique=True, max_size=20))
                 if word != password]
        if data.draw(st.booleans()):
            words.insert(data.draw(st.integers(0, len(words))), password)
        assume(words)

        def reference(words):
            for word in words:
                secret = xor(card.masked_verifier, password_digest(word, card.salt))
                if scheme.proof(secret, request.timestamp) == request.authenticator:
                    return word, secret
            return None

        wordlist = Wordlist(words)
        found = offline_guess(CardSecrets.from_card(card), request, wordlist)
        assert found == reference(wordlist)
        assert found == ((password, card.verifier) if password in wordlist else None)

    def test_each_probe_makes_three_hashes_and_three_xors(self, monkeypatch):
        # the attack's floor per candidate: 3 hashes (encode the password,
        # hash it salted, hash the proof) and 3 XORs (salt, unmask, stamp)
        _, card = _setup()
        request, _ = card.login(IDENT, PASSWORD, 10)
        wl = _wordlist_around(PASSWORD, 50, random.Random(7), include=False)
        calls = {"hash": 0, "xor": 0}

        def counted(kind, fn):
            def wrapper(*args):
                calls[kind] += 1
                return fn(*args)
            return wrapper

        for module in (adversary, scheme):
            monkeypatch.setattr(module, "xor", counted("xor", module.xor))
            monkeypatch.setattr(module, "digest", counted("hash", module.digest))
        monkeypatch.setattr(scheme, "encode_password",
                            counted("hash", scheme.encode_password))
        assert offline_guess(CardSecrets.from_card(card), request, wl) is None
        assert calls == {"hash": 150, "xor": 150}


class TestOutsiderChangePassword:
    def test_attacker_owns_the_account_afterwards(self):
        server, card = _setup()
        request, _ = card.login(IDENT, PASSWORD, 10)
        recovered, _ = offline_guess(CardSecrets.from_card(card), request,
                                     Wordlist(["foo", PASSWORD, "bar"]))
        outsider_change_password(card, recovered, "evil")
        hijacked, session = card.login(IDENT, "evil", 20)
        response = server.verify_login(hijacked, 21)
        verify_mutual_auth(session, response)

    def test_victim_locked_out_afterwards(self):
        server, card = _setup()
        outsider_change_password(card, PASSWORD, "evil")
        retry, _ = card.login(IDENT, PASSWORD, 20)
        with pytest.raises(BadAuthenticator):
            server.verify_login(retry, 21)

    def test_same_new_password_leaves_card_identical(self):
        _, card = _setup()
        before = card.masked_verifier
        outsider_change_password(card, PASSWORD, PASSWORD)
        assert card.masked_verifier == before

    def test_fails_when_recovery_was_wrong(self):
        _, card = _setup()
        with pytest.raises(PasswordChangeRejected):
            outsider_change_password(card, "mis-guessed", "evil")


class TestInsiderChangePassword:
    def _record_for(self, card, password=PASSWORD):
        return RegistrationRecord(password_digest(password, card.salt),
                                  card.verifier, card.masked_verifier)

    def test_registration_identity_holds_on_fresh_card(self):
        _, card = _setup()
        record = self._record_for(card)
        assert xor(card.masked_verifier, record.password_digest) == record.verifier

    @pytest.mark.parametrize("mode", INSIDER_MODES)
    def test_fresh_card_hijacked_in_either_entry_mode(self, mode):
        server, card = _setup()
        insider_change_password(card, self._record_for(card), "evil", mode=mode)
        hijacked, session = card.login(IDENT, "evil", 20)
        response = server.verify_login(hijacked, 21)
        verify_mutual_auth(session, response)
        retry, _ = card.login(IDENT, PASSWORD, 30)
        with pytest.raises(BadAuthenticator):
            server.verify_login(retry, 31)

    def test_both_modes_land_on_the_same_card_state(self):
        _, first = _setup()
        _, second = _setup()
        insider_change_password(first, self._record_for(first), "evil",
                                mode=INSIDER_SUPPLY_VERIFIER)
        insider_change_password(second, self._record_for(second), "evil",
                                mode=INSIDER_SUPPLY_DIGEST)
        assert first.masked_verifier == second.masked_verifier

    @pytest.mark.parametrize("mode", INSIDER_MODES)
    def test_stale_record_rejected_after_user_change(self, mode):
        _, card = _setup()
        record = self._record_for(card)
        card.change_password(PASSWORD, "user-moved-on")
        before = card.masked_verifier
        with pytest.raises(PasswordChangeRejected):
            insider_change_password(card, record, "evil", mode=mode)
        assert card.masked_verifier == before

    def test_keying_in_the_verifier_is_rejected(self):
        _, card = _setup()
        before = card.masked_verifier
        with pytest.raises(PasswordChangeRejected):
            card.remask(self._record_for(card).verifier, "evil")
        assert card.masked_verifier == before

    def test_unknown_mode_rejected(self):
        _, card = _setup()
        with pytest.raises(ValueError):
            insider_change_password(card, self._record_for(card), "evil", mode="telepathy")


class TestParallelSessionForge:
    def _observed_session(self, t_login=10, t_server=11):
        server, card = _setup()
        request, _ = card.login(IDENT, PASSWORD, t_login)
        response = server.verify_login(request, t_server)
        return server, request, response

    def test_forged_request_accepted_at_every_delay_in_window(self):
        window = 5
        for delay in range(1, window + 1):
            server, request, response = self._observed_session()
            forged = forge_parallel_login(request, response)
            assert forged.identity == request.identity
            assert forged.authenticator == response.authenticator
            assert forged.timestamp == response.timestamp
            second = server.verify_login(forged, response.timestamp + delay, window=window)
            # a fresh reply comes back for the forged session
            assert second.timestamp == response.timestamp + delay

    def test_forge_expires_with_the_window(self):
        server, request, response = self._observed_session()
        forged = forge_parallel_login(request, response)
        with pytest.raises(StaleTimestamp):
            server.verify_login(forged, response.timestamp + 6, window=5)

    def test_forge_with_substituted_identity_rejected(self):
        server, request, response = self._observed_session()
        enroll(server, "bob", "bobs-password", Block(b"\x42" * 32))
        forged = forge_parallel_login(request, response)
        wrong_owner = type(forged)("bob", forged.authenticator, forged.timestamp)
        with pytest.raises(BadAuthenticator):
            server.verify_login(wrong_owner, response.timestamp + 1)

    def test_forge_built_from_wire_messages_alone(self):
        server, request, response = self._observed_session()
        req, resp = message_to_wire(request), message_to_wire(response)
        forged = forge_parallel_login(request, response)
        # the forge is the observed identity plus the server's reply fields
        assert message_to_wire(forged) == {"type": "login", "id": req["id"],
                                           "c2": resp["c3"], "t": resp["t"]}
        assert server.verify_login(forged, response.timestamp + 1)

    @settings(max_examples=100, deadline=None)
    @given(master=blocks, salt=blocks, t_login=st.integers(min_value=0, max_value=2**20))
    def test_response_shares_the_login_proof_shape(self, master, salt, t_login):
        # the server reply is literally a login proof over the server's
        # clock, which is the whole reason the forge verifies
        server = AuthServer(master)
        card = enroll(server, IDENT, PASSWORD, salt)
        request, _ = card.login(IDENT, PASSWORD, t_login)
        response = server.verify_login(request, t_login + 1)
        bound = encode_registered_identity(IDENT, 0)
        verifier = digest(xor(bound, master))
        assert response.authenticator == digest(xor(verifier, encode_timestamp(response.timestamp)))
        assert request.authenticator == digest(xor(verifier, encode_timestamp(request.timestamp)))

