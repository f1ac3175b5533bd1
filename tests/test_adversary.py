"""The four attacks, each exercised end to end against honest parties."""

import cProfile
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardauthsim import scheme
from cardauthsim.adversary import CardSecrets, RegistrationRecord, Wordlist, offline_guess
from cardauthsim.blocks import Block, digest, encode_password, validate_password, xor
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


def _reference_wordlist(words):
    """The per-entry walk that checked every wordlist before the whole-list check."""
    words = tuple(words)
    if not words:
        raise ValueError("wordlist must not be empty")
    seen = {}
    for number, word in enumerate(words, 1):
        try:
            validate_password(word)
        except ValueError as exc:
            raise ValueError(f"entry {number}: {exc}") from None
        if word in seen:
            raise ValueError(f"entry {number} repeats entry {seen[word]}")
        seen[word] = number
    return words


def _outcome(build, words):
    try:
        return "accepted", tuple(build(words))
    except (TypeError, ValueError) as exc:  # the class and the text are the outcome
        return type(exc), str(exc)


# words blank, longest, overlong or repeated, and entries of other types: with no
# length (0, 5, None, True), with no hash ([], [1]) or with both (b"", b"x")
entries = st.one_of(st.sampled_from(["", "a" * 64, "a" * 65, "b" * 65, "x", "y"]),
                    st.text(max_size=3),
                    st.sampled_from([0, 5, b"", b"x", [], [1], None, True]))


class TestWordlist:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(entries, max_size=8))
    def test_refuses_as_the_per_entry_walk_does(self, words):
        assert _outcome(Wordlist, words) == _outcome(_reference_wordlist, words)

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
                           (b"a\rb\r", "line 1: carriage return"),
                           (b"\n\xff\n", "line 2: not UTF-8 (invalid start byte)"),
                           (b"\na\r\n", "line 2: carriage return")):
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

    def test_each_probe_makes_three_hashes_and_three_xors(self):
        # the attack's floor per candidate: 3 hashes (encode the password,
        # hash it salted, hash the proof) and 3 XORs (salt, unmask, stamp),
        # counted by cProfile per code object, wherever the name is looked up
        _, card = enrolled()
        request, _ = card.login(IDENT, PASSWORD, 10)
        wl = _wordlist_without(PASSWORD, 50, random.Random(7))
        profile = cProfile.Profile()
        assert profile.runcall(offline_guess, CardSecrets.from_card(card), request, wl) is None
        calls = {entry.code: entry.callcount for entry in profile.getstats()}
        hashes = calls[digest.__code__] + calls[encode_password.__code__]
        assert (hashes, calls[xor.__code__]) == (150, 150)


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
