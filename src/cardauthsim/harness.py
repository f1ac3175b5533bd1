"""Deterministic scenario runner.

One scenario is a scripted timeline over a logical clock: honest parties
exchange wire messages, one whole trip each, over a wire the intruder can
tap, and every send, delivery, interception, drop, verdict and state change
lands in an ordered transcript. The transcript is a pure function of the
scenario config, so runs can be diffed byte for byte and replayed. This
module alone writes a transcript: each message's wire form, the JSON lines
that replay reads and the human rendering.

Scenarios: an honest login round trip plus the four attacks from
`adversary`. The fixed timeline (registration at tick 0, login at tick
10, one tick per channel hop) keeps transcripts stable for any freshness
window of at least 2 ticks.
"""

import json
import random
from itertools import zip_longest
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .adversary import (
    INSIDER_SUPPLY_VERIFIER,
    CardSecrets,
    RegistrationRecord,
    Wordlist,
    forge_parallel_login,
    insider_change_password,
    offline_guess,
    outsider_change_password,
    read_text,
)
from .blocks import BLOCK_LEN
from .scheme import (
    DEFAULT_WINDOW,
    AuthServer,
    LoginRequest,
    ProtocolRejection,
    ServerResponse,
    SmartCard,
    enroll,
    password_digest,
    verify_mutual_auth,
)

VICTIM_ID = "alice"
ATTACKER_PASSWORD = "hijacked-by-mallory"

_PASSWORD_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
_PASSWORD_LEN = 10


class ScenarioError(ValueError):
    """A scenario could not run at all (as opposed to an attack failing)."""


class TranscriptParseError(ValueError):
    pass


class ReplayMismatch(Exception):
    """Replay diverged from the recorded transcript at event `seq`."""

    def __init__(self, seq: int):
        super().__init__(f"replay diverged at event seq {seq}")
        self.seq = seq


# exactly json.dumps(obj, sort_keys=True, separators=(",", ":")), built once
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _ConfigFields(NamedTuple):
    scenario: str
    seed: int
    window: int
    dictionary_path: Optional[str]


class ScenarioConfig(_ConfigFields):
    """Everything a scenario run depends on; equal configs give
    byte-identical transcripts. Construction raises ScenarioError for a
    config that cannot run."""

    __slots__ = ()

    def __new__(cls, scenario: str, seed: int = 0, window: int = DEFAULT_WINDOW,
                dictionary_path: Optional[str] = None) -> "ScenarioConfig":
        if not isinstance(scenario, str) or scenario not in SCENARIOS:
            raise ScenarioError(f"unknown scenario {scenario!r}, "
                                f"expected one of {sorted(SCENARIOS)}")
        # type() rather than isinstance(): a bool is an int subclass; and
        # random.Random seeds by absolute value, so -n would replay seed n
        if type(seed) is not int or seed < 0:
            raise ScenarioError("seed must be a non-negative integer")
        if type(window) is not int or window < 1:
            raise ScenarioError("window must be a positive tick count")
        if dictionary_path is not None and not isinstance(dictionary_path, str):
            raise ScenarioError("dictionary must be a path string or null")
        if scenario in WORDLIST_SCENARIOS and dictionary_path is None:
            raise ScenarioError(f"scenario {scenario!r} needs a dictionary")
        if scenario not in WORDLIST_SCENARIOS and dictionary_path is not None:
            raise ScenarioError(f"scenario {scenario!r} takes no dictionary")
        return super().__new__(cls, scenario, seed, window, dictionary_path)

    @classmethod
    def _make(cls, iterable) -> "ScenarioConfig":
        # the namedtuple `_make`, and so `_replace`, would skip the checks
        return cls(*iterable)

    def to_obj(self) -> dict:
        return {"scenario": self.scenario, "seed": self.seed,
                "window": self.window, "dictionary": self.dictionary_path}

    @classmethod
    def from_obj(cls, obj) -> "ScenarioConfig":
        keys = ("scenario", "seed", "window", "dictionary")
        if not isinstance(obj, dict) or set(obj) != set(keys):
            raise TranscriptParseError(f"config line is not an object with keys {', '.join(keys)}")
        return cls(*(obj[key] for key in keys))


class Event(NamedTuple):
    seq: int
    time: int
    actor: str
    kind: str
    payload: dict


class Transcript(NamedTuple):
    """Ordered event log of one scenario run, with its config embedded:
    an immutable record that equal configs make equal."""

    config: ScenarioConfig
    events: tuple[Event, ...]

    def outcome(self) -> str:
        """Outcome of the scenario verdict that ends the transcript."""
        return self.events[-1].payload["outcome"]

    def to_jsonl(self) -> str:
        # Each event line is framed with its keys in sorted order: actor and kind
        # are names `_Run` writes, with nothing to escape, and seq and time plain
        # ints. A message's events share a payload, encoded once.
        encoded: dict[int, str] = {}
        lines = [_dumps(self.config.to_obj())]
        for seq, time, actor, kind, payload in self.events:
            body = encoded.get(id(payload))
            if body is None:
                body = encoded[id(payload)] = _dumps(payload)
            lines.append(f'{{"actor":"{actor}","kind":"{kind}","payload":{body},'
                         f'"seq":{seq},"time":{time}}}')
        return "\n".join(lines) + "\n"

    def to_human(self) -> str:
        # one line per event, each payload value canonical JSON: quoted, escaped, ASCII
        lines = []
        for event in self.events:
            detail = ", ".join(f"{k}={_dumps(v)}" for k, v in sorted(event.payload.items()))
            lines.append(f"{event.seq:3d}  t={event.time:<3d} {event.actor:<8s} "
                         f"{event.kind:<12s} {detail}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        """The transcript that `text` records, verified by re-running its config:
        `text` must be byte for byte what `to_jsonl` writes for that run. Raises
        TranscriptParseError when line 1 is not a canonical config line or a line
        lacks its newline, ScenarioError when the config cannot run, and
        ReplayMismatch at the first event line that differs from the run's."""
        if not text.endswith("\n"):
            last = text.count("\n") + 1
            raise TranscriptParseError(f"line {last} does not end in a newline")
        header = text.partition("\n")[0]
        try:
            obj = json.loads(header)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError's own line number counts within the line
            detail = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            raise TranscriptParseError(f"bad JSON on line 1: {detail}") from None
        config = ScenarioConfig.from_obj(obj)
        canonical = _dumps(config.to_obj())
        if header != canonical:
            raise TranscriptParseError(f"config line 1 must read exactly {canonical}")
        transcript = run_scenario(config)
        fresh = transcript.to_jsonl()
        if text != fresh:
            # the config lines are equal, so some event line differs; a line
            # one side lacks is None on that side
            pairs = zip_longest(text[:-1].split("\n")[1:], fresh[:-1].split("\n")[1:])
            raise ReplayMismatch(next(seq for seq, (old, new) in enumerate(pairs) if old != new))
        return transcript


def _random_password(rng: random.Random) -> str:
    return "".join(_PASSWORD_ALPHABET[b % len(_PASSWORD_ALPHABET)]
                   for b in rng.randbytes(_PASSWORD_LEN))


def message_to_wire(message: LoginRequest | ServerResponse) -> dict:
    """Serialise a wire message to its JSON object form."""
    if isinstance(message, LoginRequest):
        return {"type": "login", "id": message.identity,
                "c2": message.authenticator.hex(), "t": message.timestamp}
    if isinstance(message, ServerResponse):
        return {"type": "response", "c3": message.authenticator.hex(), "t": message.timestamp}
    raise TypeError(f"not a wire message: {message!r}")


class _Run:
    """State threaded through one scenario script. The run owns the clock
    `now`, from tick 0, and stamps each event it records; all randomness
    comes from one seeded generator, drawn in a fixed order: master secret,
    card salt, then the victim password (picked from the wordlist when the
    scenario uses one)."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.now = 0
        self.events: list[Event] = []
        self.sent = 0
        self.server = AuthServer(self.rng.randbytes(BLOCK_LEN))
        self.salt = self.rng.randbytes(BLOCK_LEN)
        self.wordlist: Optional[Wordlist] = None
        if config.dictionary_path is not None:
            try:
                self.wordlist = Wordlist.load(config.dictionary_path)
            except OSError as exc:
                raise ScenarioError(f"cannot read dictionary: {exc}") from None
            except ValueError as exc:
                raise ScenarioError(
                    f"malformed dictionary {config.dictionary_path!r}: {exc}") from None
            self.victim_password = self.wordlist[self.rng.randrange(len(self.wordlist))]
        else:
            self.victim_password = _random_password(self.rng)

    # -- event helpers -------------------------------------------------

    def record(self, actor: str, kind: str, payload: dict) -> None:
        self.events.append(Event(len(self.events), self.now, actor, kind, payload))

    def transmit(self, sender: str, message, receiver: Optional[str] = None,
                 tap: bool = False) -> None:
        """One whole trip of `message` over the wire: `sender` sends it,
        the intruder copies it when `tap`, and it is delivered to
        `receiver` one tick later or, with no receiver, dropped by the
        intruder. Sends, taps and drops take no time, and the intruder
        never alters a message, so the receiver acts on `message` itself."""
        self.sent += 1
        payload = {"msg_id": self.sent, "message": message_to_wire(message)}
        self.record(sender, "send", payload)
        if tap:
            self.record("intruder", "intercept", payload)
        if receiver is None:
            self.record("intruder", "drop", payload)
        else:
            self.now += 1
            self.record(receiver, "deliver", payload)

    def note(self, actor: str, action: str, **detail) -> None:
        self.record(actor, "state-change", {"action": action, **detail})

    def run_check(self, actor: str, check: str, step: Callable, **detail):
        """Run one protocol check and record its verdict.

        Returns (accepted, what `step` returned); a `ProtocolRejection`
        from `step` is recorded as a reject with its reason.
        """
        payload = {"check": check, "outcome": "accept", **detail}
        result = None
        try:
            result = step()
        except ProtocolRejection as exc:
            payload.update(outcome="reject", reason=exc.reason)
        self.record(actor, "verdict", payload)
        return payload["outcome"] == "accept", result

    def scenario_verdict(self, outcome: str) -> Transcript:
        self.record("harness", "verdict", {"check": "scenario", "outcome": outcome,
                                           "scenario": self.config.scenario})
        return Transcript(self.config, tuple(self.events))

    def attack_verdict(self, succeeded: bool) -> Transcript:
        return self.scenario_verdict("attack-succeeded" if succeeded else "attack-failed")

    # -- protocol fragments ---------------------------------------------

    def register_victim(self) -> SmartCard:
        card = enroll(self.server, VICTIM_ID, self.victim_password, self.salt)
        self.note("server", "account-registered", id=VICTIM_ID,
                  counter=self.server.accounts[VICTIM_ID])
        self.note("card", "card-issued", id=VICTIM_ID)
        return card

    def server_verify(self, request: LoginRequest) -> Optional[ServerResponse]:
        _, response = self.run_check("server", "login", lambda: self.server.verify_login(
            request, self.now, self.config.window))
        return response

    def login_roundtrip(self, card: SmartCard, password: str, *, by_intruder: bool = False,
                        tap_request: bool = False, tap_response: bool = False):
        """One full login exchange: send, deliver, verify, reply, check.

        Returns (request, response, accepted); response is None when the
        server rejected. `by_intruder` has the intruder, not the card and
        the user, send and receive; `tap_*` make it copy messages in flight.
        """
        sender, receiver = ("intruder", "intruder") if by_intruder else ("card", "user")
        request, session = card.login(VICTIM_ID, password, self.now)
        self.transmit(sender, request, "server", tap=tap_request)
        response = self.server_verify(request)
        if response is None:
            return request, None, False
        self.transmit("server", response, receiver, tap=tap_response)
        accepted, _ = self.run_check(receiver, "mutual-auth", lambda: verify_mutual_auth(
            session, response, self.config.window))
        return request, response, accepted

    def steal_password(self) -> tuple[SmartCard, str]:
        """Register the victim, tap their login, extract the card secrets
        and scan the wordlist offline. Returns the card and the recovered
        password: the victim's password is drawn from the wordlist and
        distinct words give distinct proofs, so the scan always finds it."""
        card = self.register_victim()
        self.now += 10
        request, _, _ = self.login_roundtrip(card, self.victim_password, tap_request=True)
        secrets = CardSecrets.from_card(card)
        self.note("intruder", "breach-card-secrets",
                  verifier=secrets.verifier.hex(),
                  masked_verifier=secrets.masked_verifier.hex(),
                  salt=secrets.salt.hex())
        password, _ = offline_guess(secrets, request, self.wordlist)
        self.note("intruder", "offline-guess", result="found", password=password,
                  probes=self.wordlist.index(password) + 1, wordlist_size=len(self.wordlist))
        return card, password

    def hijack(self, card: SmartCard, change: Callable[[], None], **detail) -> Transcript:
        """The intruder's password change on the victim's card, then a
        login with the victim's password and one with the attacker's.
        The attack succeeds when only the attacker gets in."""
        changed, _ = self.run_check("card", "password-change", change, by="intruder", **detail)
        self.now += 1
        *_, victim_ok = self.login_roundtrip(card, self.victim_password)
        self.now += 1
        *_, attacker_ok = self.login_roundtrip(card, ATTACKER_PASSWORD, by_intruder=True)
        return self.attack_verdict(changed and not victim_ok and attacker_ok)


# -- the five scenarios ------------------------------------------------


def _scenario_honest(run: _Run) -> Transcript:
    card = run.register_victim()
    run.now += 10
    *_, accepted = run.login_roundtrip(card, run.victim_password)
    return run.scenario_verdict("accepted" if accepted else "rejected")


def _scenario_offline_guess(run: _Run) -> Transcript:
    _, password = run.steal_password()
    return run.attack_verdict(password == run.victim_password)


def _scenario_outsider_change(run: _Run) -> Transcript:
    card, password = run.steal_password()
    run.now += 1
    return run.hijack(card, lambda: outsider_change_password(card, password, ATTACKER_PASSWORD))


def _scenario_insider_change(run: _Run) -> Transcript:
    card = run.register_victim()
    record = RegistrationRecord(password_digest(run.victim_password, run.salt),
                                card.verifier, card.masked_verifier)
    run.note("intruder", "insider-recorded",
             password_digest=record.password_digest.hex(),
             verifier=record.verifier.hex(),
             masked_verifier=record.masked_verifier.hex())
    run.now += 10
    return run.hijack(card, lambda: insider_change_password(card, record, ATTACKER_PASSWORD),
                      mode=INSIDER_SUPPLY_VERIFIER)


def _scenario_parallel_session(run: _Run) -> Transcript:
    card = run.register_victim()
    run.now += 10
    request, response, _ = run.login_roundtrip(card, run.victim_password,
                                               tap_request=True, tap_response=True)
    forged = forge_parallel_login(request, response)
    run.transmit("intruder", forged, "server")
    second = run.server_verify(forged)
    if second is not None:
        run.transmit("server", second)
    return run.attack_verdict(second is not None)


SCENARIOS: dict[str, Callable[[_Run], Transcript]] = {
    "honest": _scenario_honest,
    "offline-guess": _scenario_offline_guess,
    "outsider-change": _scenario_outsider_change,
    "insider-change": _scenario_insider_change,
    "parallel-session": _scenario_parallel_session,
}

WORDLIST_SCENARIOS = frozenset({"offline-guess", "outsider-change"})


def run_scenario(config: ScenarioConfig) -> Transcript:
    """Execute a named scenario deterministically from its config."""
    return SCENARIOS[config.scenario](_Run(config))


def replay_transcript(path: str | Path) -> int:
    """Verify a transcript file by re-running its embedded config, as
    `Transcript.from_jsonl` does. Returns the number of verified events.
    Raises what `from_jsonl` raises, OSError when the path is not a readable
    regular file, and ValueError naming the line of bytes that are not UTF-8.
    """
    return len(Transcript.from_jsonl(read_text(path)).events)
