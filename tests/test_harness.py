"""Scenario runner: message trips, transcripts, determinism, replay."""

import copy
import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardauthsim import harness
from cardauthsim.blocks import digest
from cardauthsim.harness import (
    SCENARIOS,
    WORDLIST_SCENARIOS,
    ReplayMismatch,
    ScenarioConfig,
    ScenarioError,
    Transcript,
    TranscriptParseError,
    message_to_wire,
    run_scenario,
)
from cardauthsim.scheme import (
    DEFAULT_WINDOW,
    AuthServer,
    ServerResponse,
    UserSession,
    proof,
    verify_mutual_auth,
)

from parties import DICT_PATH, GOLDEN, IDENT, PASSWORD, enrolled

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8)


def config_for(scenario, **kwargs):
    if scenario in WORDLIST_SCENARIOS:
        kwargs.setdefault("dictionary_path", DICT_PATH)
    return ScenarioConfig(scenario=scenario, **kwargs)


class RecordingRandom(random.Random):
    """A `random.Random` that keeps every byte and index draw it makes."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def randbytes(self, n):
        value = super().randbytes(n)
        self.draws.append(value.hex())
        return value

    def randrange(self, *args):
        value = super().randrange(*args)
        self.draws.append(value)
        return value


SEED_0_SECRETS = ("cd072cd8be6f9f62ac4c09c28206e7e35594aa6b342f5d0a3a5e4842fab428f7",
                  "62e6e282e5c1657c78c3a967b36711eb3906a7c8603d71d409e7a54d87bdc1f7")
SEED_42_SECRETS = ("9d79b1a37f31801cd11a6706fb40d6bd57526846903bb13ede562439e9c1b823",
                   "a96089bca71f3d1a6d2d3cadb3669cbd50e165e434249d8b829f411669842a97")


class TestWireFormat:
    def test_login_request_wire_form(self):
        _, card = enrolled()
        request, _ = card.login(IDENT, PASSWORD, 10)
        assert message_to_wire(request) == {"type": "login", "id": IDENT,
                                            "c2": request.authenticator.hex(), "t": 10}

    def test_response_wire_form(self):
        server, card = enrolled()
        request, _ = card.login(IDENT, PASSWORD, 10)
        response = server.verify_login(request, 11)
        assert message_to_wire(response) == {"type": "response",
                                             "c3": response.authenticator.hex(), "t": 11}


class TestDraws:
    """Every transcript, the golden file included, rests on these draws.
    Python promises a stable sequence from `random()` only, not from
    `randbytes` or `randrange`, so a release that changes either must fail
    here by name rather than as a mismatch at some seq."""

    @pytest.mark.parametrize("scenario, seed, secrets, last, password", [
        ("honest", 0, SEED_0_SECRETS, ("victim password bytes", "0442027aaf1fa95b5895"),
         "e4co55ztqf"),
        ("honest", 42, SEED_42_SECRETS, ("victim password bytes", "9911036cf3e82208a007"),
         "jrda1q8iqh"),
        ("offline-guess", 0, SEED_0_SECRETS, ("wordlist index", 488), "killer99"),
        ("offline-guess", 42, SEED_42_SECRETS, ("wordlist index", 432), "soccer7"),
    ])
    def test_first_draws_are_pinned(self, monkeypatch, scenario, seed, secrets, last, password):
        monkeypatch.setattr(harness.random, "Random", RecordingRandom)
        run = harness._Run(config_for(scenario, seed=seed))
        # each draw as made, and as the run keeps it
        pinned = [("master secret", secrets[0], secrets[0]), ("salt", secrets[1], secrets[1]),
                  (*last, password)]
        kept = (run.server.master_secret.hex(), run.salt.hex(), run.victim_password)
        assert len(run.rng.draws) == len(pinned), run.rng.draws
        for (name, *want), *got in zip(pinned, run.rng.draws, kept):
            assert got == want, (f"{scenario} seed {seed}: draw {name} drawn and kept as "
                                 f"{got}, pinned as {want}")


class TestScenarios:
    def test_parallel_session_respects_small_windows(self):
        # the canned relay lands two ticks after the observed reply
        ok = run_scenario(config_for("parallel-session", seed=3, window=2))
        assert ok.outcome() == "attack-succeeded"
        late = run_scenario(config_for("parallel-session", seed=3, window=1))
        assert late.outcome() == "attack-failed"

    def test_event_bytes_pinned_across_scenarios_seeds_and_windows(self):
        # Pins every scenario's behaviour byte for byte. Only the event
        # lines are hashed: the header holds the absolute dictionary path.
        pin = hashlib.sha256()
        for scenario in sorted(SCENARIOS):
            for seed in range(8):
                for window in (1, 2, 5, 9):
                    text = run_scenario(config_for(scenario, seed=seed, window=window)).to_jsonl()
                    pin.update(text.split("\n", 1)[1].encode())
        assert pin.hexdigest() == (
            "c09ecbff16be0e1f802f0caf352adc9675ba30812d03799ce92d3d9d7c21a050")

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS) + ["escapes"])
    def test_writer_matches_plain_json_dumps(self, scenario, tmp_path):
        # `to_jsonl` against the plain reference writer, on a run's own events
        # (a message's events share one payload object) and on a copy of them
        # with every payload its own. In the `escapes` row every word, and so
        # the recovered password, needs each kind of JSON escape.
        escapes = '"\\\t\x00\u00e9 \U0001f511'
        dictionary = {}
        if scenario == "escapes":
            words = tmp_path / "words.txt"
            words.write_text("".join(f"{escapes}{n}\n" for n in range(5)), encoding="utf-8")
            scenario, dictionary = "offline-guess", {"dictionary_path": str(words)}
        for seed in range(4):
            for window in (2, 7):
                transcript = run_scenario(config_for(scenario, seed=seed, window=window,
                                                     **dictionary))
                objs = [transcript.config.to_obj(), *(e._asdict() for e in transcript.events)]
                reference = "\n".join(json.dumps(o, sort_keys=True, separators=(",", ":"))
                                      for o in objs) + "\n"
                assert len({id(e.payload) for e in transcript.events}) < len(objs) - 1
                assert transcript.to_jsonl() == reference
                unshared = tuple(e._replace(payload=copy.deepcopy(e.payload))
                                 for e in transcript.events)
                assert Transcript(transcript.config, unshared).to_jsonl() == reference
                if dictionary:
                    assert transcript.outcome() == "attack-succeeded"
                    assert escapes in transcript.events[-2].payload["password"]


class TestNegativeControl:
    """The parallel-session forge works only because the server's reply
    is the login-proof rule over the server's clock. Keying the reply
    with a domain-separated secret, and nothing else, defeats that one
    attack, while honest logins and the insider password change still
    behave as before."""

    class DomainSeparatedServer(AuthServer):
        def verify_login(self, request, received_at, window=DEFAULT_WINDOW):
            super().verify_login(request, received_at, window)
            # digest(xor(digest(verifier), encode_timestamp(received_at)))
            reply_key = digest(self._verifier_for(request.identity))
            return ServerResponse(proof(reply_key, received_at), received_at)

    @staticmethod
    def check_domain_separated_reply(session, response, window=DEFAULT_WINDOW):
        verify_mutual_auth(UserSession(digest(session.secret), session.sent_at),
                           response, window)

    # a design control, not a check of src: it swaps the reply out, so no mutant reaches it
    def test_domain_separated_reply_defeats_only_the_parallel_session(self, monkeypatch):
        monkeypatch.setattr(harness, "AuthServer", self.DomainSeparatedServer)
        monkeypatch.setattr(harness, "verify_mutual_auth", self.check_domain_separated_reply)
        runs = [(seed, window) for seed in range(50) for window in (2, 5, 9)]
        outcomes = {
            scenario: Counter(run_scenario(config_for(scenario, seed=seed, window=window)).outcome()
                              for seed, window in runs)
            for scenario in ("honest", "parallel-session", "insider-change")}
        assert outcomes == {
            "honest": {"accepted": 150},
            "parallel-session": {"attack-failed": 150},
            "insider-change": {"attack-succeeded": 150},
        }


class TestReplay:
    @settings(max_examples=100, deadline=None)
    @given(header=json_values | st.fixed_dictionaries(
               {"scenario": st.sampled_from(sorted(SCENARIOS)) | json_values,
                "seed": st.integers() | json_values, "window": st.integers() | json_values,
                "dictionary": st.none() | json_values}),
           event=json_values | st.fixed_dictionaries(
               {"seq": st.just(0) | json_values, "time": st.integers() | json_values,
                "actor": st.sampled_from(["harness", "intruder"]) | json_values,
                "kind": st.sampled_from(["verdict", "send"]) | json_values,
                "payload": st.fixed_dictionaries(
                    {"check": st.just("scenario") | json_values, "outcome": json_values})
                | json_values}),
           header_only=st.booleans())
    def test_any_json_line_is_replayed_or_rejected(self, header, event, header_only):
        # A bad header meets the parser or the config; a bad event line
        # after the golden header meets the comparison. Whatever is not
        # refused is exactly the text its run writes.
        golden_header = GOLDEN.read_text(encoding="utf-8").split("\n", 1)[0]
        # a canonical header, so that a bad value reaches ScenarioConfig
        canonical_header = json.dumps(header, sort_keys=True, separators=(",", ":"))
        lines = [canonical_header] if header_only else [golden_header, json.dumps(event)]
        text = "\n".join(lines) + "\n"
        try:
            transcript = Transcript.from_jsonl(text)
        except (ReplayMismatch, TranscriptParseError, ScenarioError):
            return
        assert transcript.to_jsonl() == text
