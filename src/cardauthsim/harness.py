"""Deterministic scenario runner.

One scenario is a scripted timeline over a logical clock: honest parties
exchange wire messages through a single channel the intruder can tap,
and every send, delivery, interception, drop, verdict and state change
lands in an ordered transcript. The transcript is a pure function of the
scenario config, so runs can be diffed byte for byte and replayed.

Scenarios: an honest login round trip plus the four attacks from
`adversary`. The fixed timeline (registration at tick 0, login at tick
10, one tick per channel hop) keeps transcripts stable for any freshness
window of at least 2 ticks.
"""

import json
import random
import string
from collections import deque
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Optional

from .adversary import (
    INSIDER_SUPPLY_VERIFIER,
    CardSecrets,
    RegistrationRecord,
    Wordlist,
    forge_parallel_login,
    insider_change_password,
    offline_guess,
    outsider_change_password,
)
from .blocks import BLOCK_LEN, Block
from .scheme import (
    DEFAULT_WINDOW,
    AuthServer,
    LoginRequest,
    ProtocolRejection,
    ServerResponse,
    SmartCard,
    enroll,
    message_to_wire,
    password_digest,
    verify_mutual_auth,
)

VICTIM_ID = "alice"
ATTACKER_PASSWORD = "hijacked-by-mallory"

ACTORS = ("user", "card", "server", "intruder", "harness")
EVENT_KINDS = ("send", "intercept", "drop", "deliver", "verdict", "state-change")

_PASSWORD_ALPHABET = string.ascii_lowercase + string.digits
_PASSWORD_LEN = 10


class ScenarioError(Exception):
    """A scenario could not run at all (as opposed to an attack failing)."""


class InvalidConfig(ScenarioError):
    pass


class MissingDictionary(ScenarioError):
    pass


class TranscriptParseError(ValueError):
    pass


class ReplayMismatch(Exception):
    """Replay diverged from the recorded transcript at event `seq`."""

    def __init__(self, seq: int):
        super().__init__(f"replay diverged at event seq {seq}")
        self.seq = seq


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _jsonl_lines(text: str) -> list[str]:
    """Split JSON Lines text; a final newline ends the last line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _fields(obj, keys: tuple[str, ...], what: str) -> list:
    """The values of a JSON object that has exactly `keys`, in key order."""
    if not isinstance(obj, dict) or set(obj) != set(keys):
        raise TranscriptParseError(f"{what} line is not an object with keys {', '.join(keys)}")
    return [obj[key] for key in keys]


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run depends on; equal configs give
    byte-identical transcripts. Construction raises InvalidConfig, or
    MissingDictionary for a guessing scenario without a dictionary."""

    scenario: str
    seed: int = 0
    window: int = DEFAULT_WINDOW
    dictionary_path: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.scenario, str) or self.scenario not in SCENARIOS:
            raise InvalidConfig(f"unknown scenario {self.scenario!r}, "
                                f"expected one of {sorted(SCENARIOS)}")
        # type() rather than isinstance(): a bool is an int subclass; and
        # random.Random seeds by absolute value, so -n would replay seed n
        if type(self.seed) is not int or self.seed < 0:
            raise InvalidConfig("seed must be a non-negative integer")
        if type(self.window) is not int or self.window < 1:
            raise InvalidConfig("window must be a positive tick count")
        if self.dictionary_path is not None and not isinstance(self.dictionary_path, str):
            raise InvalidConfig("dictionary must be a path string or null")
        if self.scenario in WORDLIST_SCENARIOS and self.dictionary_path is None:
            raise MissingDictionary(f"scenario {self.scenario!r} needs a dictionary")
        if self.scenario not in WORDLIST_SCENARIOS and self.dictionary_path is not None:
            raise InvalidConfig(f"scenario {self.scenario!r} takes no dictionary")

    def to_obj(self) -> dict:
        return {"scenario": self.scenario, "seed": self.seed,
                "window": self.window, "dictionary": self.dictionary_path}

    @classmethod
    def from_obj(cls, obj) -> "ScenarioConfig":
        return cls(*_fields(obj, ("scenario", "seed", "window", "dictionary"), "config"))


@dataclass(frozen=True)
class Event:
    seq: int
    time: int
    actor: str
    kind: str
    payload: dict

    def to_obj(self) -> dict:
        return {"seq": self.seq, "time": self.time, "actor": self.actor,
                "kind": self.kind, "payload": self.payload}

    @classmethod
    def from_obj(cls, obj) -> "Event":
        return cls(*_fields(obj, ("seq", "time", "actor", "kind", "payload"), "event"))


@dataclass
class Transcript:
    """Ordered event log of one scenario run, with its config embedded.
    `now` is the run's logical clock from tick 0; it stamps every event."""

    config: ScenarioConfig
    events: list[Event] = field(default_factory=list)
    now: int = field(default=0, init=False, compare=False)

    def step(self, ticks: int = 1) -> None:
        if ticks < 1:
            raise ValueError("clock only moves forward")
        self.now += ticks

    def record(self, actor: str, kind: str, payload: dict) -> Event:
        if actor not in ACTORS:
            raise ValueError(f"unknown actor {actor!r}")
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = Event(len(self.events), self.now, actor, kind, payload)
        self.events.append(event)
        return event

    def outcome(self) -> str:
        """Outcome of the scenario verdict that ends the transcript."""
        last = self.events[-1]
        if last.kind != "verdict" or last.payload.get("check") != "scenario":
            raise ValueError("transcript does not end in a scenario verdict")
        return last.payload["outcome"]

    def to_jsonl(self) -> str:
        lines = [_dumps(self.config.to_obj())]
        lines.extend(_dumps(event.to_obj()) for event in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        lines = _jsonl_lines(text)
        if not lines:
            raise TranscriptParseError("empty transcript")
        objs = []
        for number, line in enumerate(lines, 1):
            try:
                objs.append(json.loads(line))
            except (ValueError, RecursionError) as exc:
                # a JSONDecodeError's own line number counts within `line`
                detail = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise TranscriptParseError(f"bad JSON on line {number}: {detail}") from None
        transcript = cls(ScenarioConfig.from_obj(objs[0]))
        for position, obj in enumerate(objs[1:]):
            event = Event.from_obj(obj)
            if event.seq != position:
                raise TranscriptParseError(
                    f"event at position {position} carries seq {event.seq}")
            transcript.events.append(event)
        return transcript


class Channel:
    """Single insecure pipe between the parties. The intruder sits on it:
    it may copy the oldest in-flight message or remove it entirely.
    Whatever is sent is eventually delivered or explicitly dropped."""

    def __init__(self, transcript: Transcript):
        self._transcript = transcript
        self._in_flight: deque[tuple[int, object]] = deque()
        self._next_id = 1

    def _log(self, actor: str, kind: str, msg_id: int, message) -> None:
        self._transcript.record(actor, kind,
                                {"msg_id": msg_id, "message": message_to_wire(message)})

    def send(self, sender: str, message) -> int:
        msg_id = self._next_id
        self._next_id += 1
        self._in_flight.append((msg_id, message))
        self._log(sender, "send", msg_id, message)
        return msg_id

    def _take_oldest(self, actor: str, kind: str, remove: bool, hop: bool = False):
        if not self._in_flight:
            raise LookupError(f"nothing in flight to {kind}")
        if hop:
            self._transcript.step()
        msg_id, message = self._in_flight.popleft() if remove else self._in_flight[0]
        self._log(actor, kind, msg_id, message)
        return message

    def intercept(self):
        """Intruder copies the oldest in-flight message without removing it."""
        return self._take_oldest("intruder", "intercept", remove=False)

    def deliver(self, receiver: str):
        """Hand the oldest in-flight message to `receiver`; the hop takes one tick."""
        return self._take_oldest(receiver, "deliver", remove=True, hop=True)

    def drop(self):
        """Intruder removes the oldest in-flight message for good."""
        return self._take_oldest("intruder", "drop", remove=True)

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)


def _random_password(rng: random.Random) -> str:
    return "".join(_PASSWORD_ALPHABET[b % len(_PASSWORD_ALPHABET)]
                   for b in rng.randbytes(_PASSWORD_LEN))


class _Run:
    """State threaded through one scenario script.

    All randomness comes from one seeded generator, drawn in a fixed
    order: master secret, card salt, then the victim password (picked
    from the wordlist when the scenario uses one).
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.transcript = Transcript(config)
        self.channel = Channel(self.transcript)
        self.server = AuthServer(Block(self.rng.randbytes(BLOCK_LEN)))
        self.salt = Block(self.rng.randbytes(BLOCK_LEN))
        self.wordlist: Optional[Wordlist] = None
        if config.scenario in WORDLIST_SCENARIOS:
            try:
                self.wordlist = Wordlist.load(config.dictionary_path)
            except OSError as exc:
                raise MissingDictionary(f"cannot read dictionary: {exc}") from None
            except ValueError as exc:
                raise ScenarioError(f"malformed dictionary: {exc}") from None
            self.victim_password = self.wordlist[self.rng.randrange(len(self.wordlist))]
        else:
            self.victim_password = _random_password(self.rng)

    # -- event helpers -------------------------------------------------

    def note(self, actor: str, action: str, **detail) -> None:
        self.transcript.record(actor, "state-change", {"action": action, **detail})

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
        self.transcript.record(actor, "verdict", payload)
        return payload["outcome"] == "accept", result

    def scenario_verdict(self, outcome: str) -> Transcript:
        self.transcript.record("harness", "verdict", {"check": "scenario", "outcome": outcome,
                                                      "scenario": self.config.scenario})
        return self.transcript

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
            request, self.transcript.now, self.config.window))
        return response

    def login_roundtrip(self, card: SmartCard, password: str, *, by_intruder: bool = False,
                        tap_request: bool = False, tap_response: bool = False):
        """One full login exchange: send, deliver, verify, reply, check.

        Returns (request, response, accepted); response is None when the
        server rejected. `by_intruder` has the intruder, not the card and
        the user, send and receive; `tap_*` make it copy messages in flight.
        """
        sender, receiver = ("intruder", "intruder") if by_intruder else ("card", "user")
        request, session = card.login(VICTIM_ID, password, self.transcript.now)
        self.channel.send(sender, request)
        if tap_request:
            self.channel.intercept()
        delivered = self.channel.deliver("server")
        response = self.server_verify(delivered)
        if response is None:
            return request, None, False
        self.channel.send("server", response)
        if tap_response:
            self.channel.intercept()
        arrived = self.channel.deliver(receiver)
        accepted, _ = self.run_check(receiver, "mutual-auth", lambda: verify_mutual_auth(
            session, arrived, self.config.window))
        return request, response, accepted

    def steal_password(self) -> tuple[SmartCard, Optional[str]]:
        """Register the victim, tap their login, extract the card secrets
        and scan the wordlist offline. Returns the card and the recovered
        password, or None when no candidate matched."""
        card = self.register_victim()
        self.transcript.step(10)
        request, _, _ = self.login_roundtrip(card, self.victim_password, tap_request=True)
        secrets = CardSecrets.from_card(card)
        self.note("intruder", "breach-card-secrets",
                  verifier=secrets.verifier.hex(),
                  masked_verifier=secrets.masked_verifier.hex(),
                  salt=secrets.salt.hex())
        found = offline_guess(secrets, request, self.wordlist)
        password = None if found is None else found[0]
        size = len(self.wordlist)
        self.note("intruder", "offline-guess",
                  result="not-found" if password is None else "found", password=password,
                  probes=size if password is None else self.wordlist.index(password) + 1,
                  wordlist_size=size)
        return card, password

    def hijack(self, card: SmartCard, change: Callable[[], None], **detail) -> Transcript:
        """The intruder's password change on the victim's card, then a
        login with the victim's password and one with the attacker's.
        The attack succeeds when only the attacker gets in."""
        changed, _ = self.run_check("card", "password-change", change, by="intruder", **detail)
        self.transcript.step()
        *_, victim_ok = self.login_roundtrip(card, self.victim_password)
        self.transcript.step()
        *_, attacker_ok = self.login_roundtrip(card, ATTACKER_PASSWORD, by_intruder=True)
        return self.attack_verdict(changed and not victim_ok and attacker_ok)


# -- the five scenarios ------------------------------------------------


def _scenario_honest(run: _Run) -> Transcript:
    card = run.register_victim()
    run.transcript.step(10)
    *_, accepted = run.login_roundtrip(card, run.victim_password)
    return run.scenario_verdict("accepted" if accepted else "rejected")


def _scenario_offline_guess(run: _Run) -> Transcript:
    _, password = run.steal_password()
    return run.attack_verdict(password == run.victim_password)


def _scenario_outsider_change(run: _Run) -> Transcript:
    card, password = run.steal_password()
    if password is None:
        return run.attack_verdict(False)
    run.transcript.step()
    return run.hijack(card, lambda: outsider_change_password(card, password, ATTACKER_PASSWORD))


def _scenario_insider_change(run: _Run) -> Transcript:
    card = run.register_victim()
    record = RegistrationRecord(password_digest(run.victim_password, run.salt),
                                card.verifier, card.masked_verifier)
    run.note("intruder", "insider-recorded",
             password_digest=record.password_digest.hex(),
             verifier=record.verifier.hex(),
             masked_verifier=record.masked_verifier.hex())
    run.transcript.step(10)
    return run.hijack(card, lambda: insider_change_password(card, record, ATTACKER_PASSWORD),
                      mode=INSIDER_SUPPLY_VERIFIER)


def _scenario_parallel_session(run: _Run) -> Transcript:
    card = run.register_victim()
    run.transcript.step(10)
    request, response, _ = run.login_roundtrip(card, run.victim_password,
                                               tap_request=True, tap_response=True)
    forged = forge_parallel_login(request, response)
    run.channel.send("intruder", forged)
    delivered = run.channel.deliver("server")
    second = run.server_verify(delivered)
    if second is not None:
        run.channel.send("server", second)
        run.channel.drop()
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
    """Re-run a transcript file's embedded config and compare line by line.

    The file is compared byte for byte, line endings included. Returns
    the number of verified events. Raises ReplayMismatch at the first
    diverging event, TranscriptParseError on a malformed file and
    ScenarioError when the recorded config cannot run.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TranscriptParseError(f"transcript is not UTF-8: {exc}") from None
    fresh = run_scenario(Transcript.from_jsonl(text).config)
    fresh_lines = _jsonl_lines(fresh.to_jsonl())[1:]
    # a line missing from either side pairs with None and so differs
    for seq, (old, new) in enumerate(zip_longest(_jsonl_lines(text)[1:], fresh_lines)):
        if old != new:
            raise ReplayMismatch(seq)
    return len(fresh_lines)
