"""The four attacks, each exercised end to end against honest parties."""

import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardauthsim import adversary, scheme
from cardauthsim.adversary import CardSecrets, RegistrationRecord, Wordlist, offline_guess
from cardauthsim.blocks import Block, xor
from cardauthsim.scheme import AuthServer, PasswordChangeRejected, enroll, password_digest

from parties import IDENT, PASSWORD, enrolled

blocks = st.binary(min_size=32, max_size=32).map(Block)


def _wordlist_without(password, size, rng):
    """Random distinct candidates, none of them `password`, in sorted order."""
    words = set()
    while len(words) < size:
        word = "cand-" + "".join(rng.choices("abcdefghij0123456789", k=8))
        if word != password:
            words.add(word)
    return Wordlist(sorted(words))


class TestWordlist:
    def test_load_file(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("one\ntwo\nthree\n", encoding="utf-8")
        assert list(Wordlist.load(path)) == ["one", "two", "three"]
        # the final newline may be left out
        path.write_text("one\ntwo\nthree", encoding="utf-8")
        assert list(Wordlist.load(path)) == ["one", "two", "three"]

    def test_load_names_the_line_of_bad_bytes_or_a_carriage_return(self, tmp_path):
        path = tmp_path / "words.txt"
        for data, text in ((b"a\n\xff\xfe\n", "line 2: not UTF-8 (invalid start byte)"),
                           (b"\xffa\n", "line 1: not UTF-8 (invalid start byte)"),
                           (b"a\nb\nc\xe9\n", "line 3: not UTF-8 (invalid continuation byte)"),
                           (b"a\nb\r\nc\n", "line 2: carriage return"),
                           (b"a\rb\r", "line 1: carriage return")):
            path.write_bytes(data)
            with pytest.raises(ValueError) as info:
                Wordlist.load(path)
            assert (type(info.value), str(info.value)) == (ValueError, text)

    def test_load_reads_only_a_regular_file(self, tmp_path):
        # "a\0b" and "\ud800" cannot name a file; /dev/null is not a regular
        # file. A FIFO is the dictionary-fifo row of test_cli.py::test_child_process,
        # a child process whose timeout ends a reader that blocks on it.
        # A str and a Path of one name are refused with the same text.
        for path in ("/nonexistent", "a\u0000b", "\ud800", "/dev/null"):
            refusals = []
            for name in (path, Path(path)):
                with pytest.raises(OSError) as info:
                    Wordlist.load(name)
                refusals.append(str(info.value))
            assert refusals[0] == refusals[1], refusals


class TestOfflineGuess:
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
        _, card = enrolled()
        request, _ = card.login(IDENT, PASSWORD, 10)
        wl = _wordlist_without(PASSWORD, 50, random.Random(7))
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


class TestInsiderChangePassword:
    def _record_for(self, card, password=PASSWORD):
        return RegistrationRecord(password_digest(password, card.salt),
                                  card.verifier, card.masked_verifier)

    def test_keying_in_the_verifier_is_rejected(self):
        _, card = enrolled()
        before = card.masked_verifier
        with pytest.raises(PasswordChangeRejected):
            card.remask(self._record_for(card).verifier, "evil")
        assert card.masked_verifier == before
