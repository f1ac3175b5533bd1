"""The scheme and its attacks against a reference model, over any interleaving.

A hypothesis state machine drives one `AuthServer` and the cards it issues
through any order of registrations, logins at any tick, password changes,
card breaches, insider records, parallel-session forges and dictionary scans.
A model written with hashlib and a local XOR, never with cardauthsim's own
operations, predicts every block's bytes and every outcome, down to the
class of a rejection; only ProtocolRejection and ValueError may escape a step.
"""

import hashlib
from collections import namedtuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from cardauthsim.adversary import (INSIDER_MODES, CardSecrets, RegistrationRecord, Wordlist,
                                   forge_parallel_login, insider_change_password, offline_guess)
from cardauthsim.scheme import (AuthServer, BadAuthenticator, LoginRequest, PasswordChangeRejected,
                                ProtocolRejection, StaleTimestamp, UnknownIdentity, enroll,
                                password_digest, verify_mutual_auth)

CLOCK_LIMIT = 2**64  # a stamp folds into 8 bytes
IDENTITIES = ("alice", "bob")
UNREGISTERED = "carol"
MALFORMED = "has space"
PASSWORDS = ("correct-horse", "hunter2", "é\U0001f511", "x" * 64)
NEW_PASSWORDS = PASSWORDS + ("", "x" * 65)  # the last two are refused

blocks = st.binary(min_size=32, max_size=32)
windows = st.integers(1, 4)
lags = st.integers(-1, 6)  # a login stamped `lag` ticks before the server's now

# a request a card made, with the password keyed, the one in force and the secret
Login = namedtuple("Login", "held keyed in_force secret request session")
# a card's secrets with the digest of the password then in force
Stolen = namedtuple("Stolen", "held in_force record")


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _password_digest(password: str, salt: bytes) -> bytes:
    return _sha(_xor(salt, _sha(b"P" + password.encode())))


def _proof(secret: bytes, ticks: int) -> bytes:
    return _sha(_xor(secret, _sha(b"T" + ticks.to_bytes(8, "big"))))


def _exact_blocks(*values) -> bool:
    return all(type(value) is bytes and len(value) == 32 for value in values)


def _attempt(step):
    """(its result, None), or (None, the class of the ProtocolRejection or ValueError it raised)."""
    try:
        return step(), None
    except (ProtocolRejection, ValueError) as exc:
        return None, type(exc)


class Held:
    """The model's view of one issued card: its registration and its password."""

    def __init__(self, card, master, identity, counter, salt, password):
        self.card, self.identity, self.counter, self.salt = card, identity, counter, salt
        bound = _sha(b"E" + identity.encode() + counter.to_bytes(4, "big"))
        self.verifier = _sha(_xor(bound, master))
        self.rekey(password)

    def rekey(self, password):
        self.password = password
        self.masked = _xor(self.verifier, _password_digest(password, self.salt))

    def __repr__(self):
        return f"<card {self.identity}#{self.counter}, password {self.password!r}>"


class SchemeModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.counters, self.cards, self.logins, self.exchanges, self.stolen = {}, [], [], [], []

    @initialize(master=blocks, identity=st.sampled_from(IDENTITIES),
                password=st.sampled_from(PASSWORDS), salt=blocks)
    def start(self, master, identity, password, salt):
        self.master, self.now, self.server = master, 16, AuthServer(master)
        self.register(identity, password, salt)

    def verdict(self, identity, stamp, window, proves_current):
        """The class of the server's refusal at tick `now`, or None: a login is accepted
        iff it proves the identity's current registration at a stamp in [now - window, now]."""
        if self.now >= CLOCK_LIMIT:
            return ValueError  # the server's own clock cannot fold, whatever the request
        if identity not in self.counters:
            return UnknownIdentity
        if not (self.now - window <= stamp <= self.now and 0 <= stamp < CLOCK_LIMIT):
            return StaleTimestamp
        return None if proves_current else BadAuthenticator

    def current(self, held):
        return self.counters[held.identity] == held.counter

    def change(self, held, unmasks, new, error):
        """A change phase refuses any digest but the current password's, then a bad new one."""
        expected = (PasswordChangeRejected if not unmasks
                    else ValueError if new not in PASSWORDS else None)
        assert error is expected
        if expected is None:
            held.rekey(new)

    @rule(identity=st.sampled_from(IDENTITIES + (MALFORMED,)),
          password=st.sampled_from(PASSWORDS), salt=blocks)
    def register(self, identity, password, salt):
        """Register, or re-register and leave the identity's older cards behind."""
        card, error = _attempt(lambda: enroll(self.server, identity, password, salt))
        assert error is (ValueError if identity == MALFORMED else None)
        if card is not None:
            counter = self.counters[identity] = self.counters.get(identity, -1) + 1
            self.cards.append(Held(card, self.master, identity, counter, salt, password))

    @rule(ticks=st.integers(0, 3), to_the_end=st.booleans())
    def advance(self, ticks, to_the_end):
        self.now = max(self.now, CLOCK_LIMIT - 1) if to_the_end else self.now + ticks

    @precondition(lambda self: self.cards)
    @rule(data=st.data(), lag=lags, window=windows)
    def login(self, data, lag, window):
        """The owner's own identity and password, or any other, at any tick."""
        held = data.draw(st.sampled_from(self.cards))
        identity = data.draw(st.sampled_from([held.identity] * 3 + [*IDENTITIES, UNREGISTERED]))
        keyed = data.draw(st.sampled_from([held.password] * 3 + list(PASSWORDS)))
        stamp = self.now - lag
        made, error = _attempt(lambda: held.card.login(identity, keyed, stamp))
        assert error is (None if 0 <= stamp < CLOCK_LIMIT else ValueError)
        if made is None:
            return
        request, session = made
        secret = _xor(held.masked, _password_digest(keyed, held.salt))
        assert request == (identity, _proof(secret, stamp), stamp) and session == (secret, stamp)
        assert _exact_blocks(request.authenticator, session.secret)
        login = Login(held, keyed, held.password, secret, request, session)
        self.logins.append(login)
        reply, error = _attempt(lambda: self.server.verify_login(request, self.now, window))
        assert error is self.verdict(identity, stamp, window, identity == held.identity
                                     and self.current(held) and keyed == held.password)
        if reply is not None:
            assert reply == (_proof(held.verifier, self.now), self.now)
            assert _exact_blocks(reply.authenticator)
            verify_mutual_auth(session, reply, window)
            self.exchanges.append((login, reply))

    @precondition(lambda self: self.exchanges)
    @rule(data=st.data())
    def check_reply(self, data):
        """A reply against its own session and the last few sent before it, at windows
        just under, at and just over its lag: it proves the session's secret iff the
        session keyed its card's password and the reply answers that card."""
        answered, reply = data.draw(st.sampled_from(self.exchanges))
        earlier = [login for login in self.logins if login.request.timestamp <= reply.timestamp]
        for login in dict.fromkeys([answered, *earlier[-4:]]):
            lag = reply.timestamp - login.request.timestamp
            for window in range(max(lag - 1, 1), lag + 2):
                _, error = _attempt(lambda: verify_mutual_auth(login.session, reply, window))
                assert error is (
                    StaleTimestamp if lag > window
                    else None if answered.held is login.held and login.keyed == login.in_force
                    else BadAuthenticator)

    @precondition(lambda self: self.cards)
    @rule(data=st.data(), new=st.sampled_from(NEW_PASSWORDS))
    def change_password(self, data, new):
        held = data.draw(st.sampled_from(self.cards))
        old = data.draw(st.sampled_from([held.password, *PASSWORDS]))
        _, error = _attempt(lambda: held.card.change_password(old, new))
        self.change(held, old == held.password, new, error)

    @precondition(lambda self: self.cards)
    @rule(data=st.data(), insider=st.booleans())
    def steal(self, data, insider):
        """A thief reads the card and takes masked verifier XOR K as the password digest, or an
        insider sees the digest submitted with the card's secrets, as at a registration."""
        held = data.draw(st.sampled_from(self.cards))
        secrets = CardSecrets.from_card(held.card)
        assert secrets == (held.verifier, held.masked, held.salt)
        taken = (password_digest(held.password, held.salt) if insider
                 else _xor(secrets.masked_verifier, secrets.verifier))
        assert taken == _password_digest(held.password, held.salt)
        record = RegistrationRecord(taken, secrets.verifier, secrets.masked_verifier)
        self.stolen.append(Stolen(held, held.password, record))

    @precondition(lambda self: self.stolen)
    @rule(data=st.data(), lag=lags, window=windows)
    def login_with_stolen_key(self, data, lag, window):
        """proof(K, t) logs in at any fresh tick t while K's registration is current."""
        held, _, record = data.draw(st.sampled_from(self.stolen))
        stamp = min(max(self.now - lag, 0), CLOCK_LIMIT - 1)  # a stamp the thief can fold
        forged = LoginRequest(held.identity, _proof(record.verifier, stamp), stamp)
        _, error = _attempt(lambda: self.server.verify_login(forged, self.now, window))
        assert error is self.verdict(held.identity, stamp, window, self.current(held))

    @precondition(lambda self: self.stolen)
    @rule(data=st.data(), new=st.sampled_from(NEW_PASSWORDS),
          mode=st.sampled_from((None, *INSIDER_MODES, "telepathy")))
    def change_with_stolen_digest(self, data, new, mode):
        """The stolen digest, directly or by the insider attack, re-masks the card whenever
        the password in force when it was taken is in force again."""
        held, in_force, record = data.draw(st.sampled_from(self.stolen))
        if mode is None:
            _, error = _attempt(lambda: held.card.remask(record.password_digest, new))
        else:
            _, error = _attempt(lambda: insider_change_password(held.card, record, new, mode))
        if mode in INSIDER_MODES or mode is None:
            self.change(held, in_force == held.password, new, error)
        else:
            assert error is ValueError

    @precondition(lambda self: self.exchanges)
    @rule(data=st.data(), delay=st.integers(0, 5), window=windows)
    def forge(self, data, delay, window):
        """Relay a recent reply as a login arriving `delay` ticks after its stamp (or now, if
        later): accepted iff the stamp is still fresh and its registration still current."""
        login, reply = data.draw(st.sampled_from(self.exchanges[-3:]))
        forged = forge_parallel_login(login.request, reply)
        assert forged == (login.request.identity, reply.authenticator, reply.timestamp)
        self.now = max(self.now, reply.timestamp + delay)
        _, error = _attempt(lambda: self.server.verify_login(forged, self.now, window))
        assert error is self.verdict(forged.identity, reply.timestamp, window,
                                     self.current(login.held))

    @rule(identity=st.sampled_from(IDENTITIES + (UNREGISTERED, MALFORMED, "", "a" * 65, "alïce")),
          authenticator=blocks,
          offset=st.integers(-6, 1), stamp=st.sampled_from([None, -1, CLOCK_LIMIT]),
          window=windows | st.just(2 * CLOCK_LIMIT))
    def send_junk(self, identity, authenticator, offset, stamp, window):
        """Any identity, proof and stamp, off the clock's ends too, in any window."""
        stamp = self.now + offset if stamp is None else stamp
        junk = LoginRequest(identity, authenticator, stamp)
        _, error = _attempt(lambda: self.server.verify_login(junk, self.now, window))
        assert error is self.verdict(identity, stamp, window, False)

    @precondition(lambda self: self.logins)
    @rule(data=st.data(), words=st.lists(st.sampled_from(PASSWORDS), max_size=4))
    def guess(self, data, words):
        """Scan any login with the card's secrets now. A word matches when its digest
        unmasks today's card to the login's secret, that is when it is the XOR of the
        digests of the password now, the password then and the keyed one: the odd
        one out when two of those three are the same password, and none otherwise."""
        login = data.draw(st.sampled_from(self.logins))
        found, error = _attempt(lambda: offline_guess(
            CardSecrets.from_card(login.held.card), login.request, Wordlist(words)))
        assert error is (ValueError if len(set(words)) < len(words) or not words else None)
        now, then, keyed = login.held.password, login.in_force, login.keyed
        match = keyed if now == then else now if keyed == then else then if keyed == now else None
        if error is None:
            assert found == ((match, login.secret) if match in words else None)
            assert found is None or _exact_blocks(found[1])

    @invariant()
    def cards_hold_what_the_model_predicts(self):
        assert self.server.accounts == self.counters
        for held in self.cards:
            fields = (held.card.verifier, held.card.masked_verifier, held.card.salt)
            assert _exact_blocks(*fields) and fields == (held.verifier, held.masked, held.salt)


TestSchemeModel = SchemeModel.TestCase
TestSchemeModel.settings = settings(max_examples=100, stateful_step_count=40, deadline=None,
                                    derandomize=True, database=None)
