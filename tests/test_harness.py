"""Scenario runner: clock, message trips, transcripts, determinism, replay."""

import copy
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

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
    replay_transcript,
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

DICT_PATH = str(Path(__file__).parent.parent / "data" / "dictionary.txt")
GOLDEN = Path(__file__).parent.parent / "golden" / "parallel_session_seed42.jsonl"
# each decodes to the golden config, but none is the line `to_jsonl` writes:
# spaces, a duplicate key, an escape `_dumps` never writes
NON_CANONICAL_HEADERS = (
    '{"dictionary": null, "scenario": "parallel-session", "seed": 42, "window": 5}',
    '{"seed":1,"scenario":"parallel-session","seed":42,"window":5,"dictionary":null}',
    '{"dictionary":null,"scenario":"parallel\\u002dsession","seed":42,"window":5}',
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8)


def config_for(scenario, **kwargs):
    if scenario in WORDLIST_SCENARIOS:
        kwargs.setdefault("dictionary_path", DICT_PATH)
    return ScenarioConfig(scenario=scenario, **kwargs)


def assert_channel_conserved(transcript):
    """Every sent message makes one whole trip and ends exactly once.

    A trip is consecutive events that all carry the send's payload: the
    send, an optional intercept by the intruder, then a delivery one tick
    after the send or a drop by the intruder. Sends, intercepts and drops
    share the send's tick, and msg_ids run 1, 2, ... in send order.
    Returns the trips, each a list of events.
    """
    trips = []
    for event in transcript.events:
        if event.kind == "send":
            trips.append([event])
        elif event.kind in ("intercept", "deliver", "drop"):
            assert trips, f"{event.kind} at seq {event.seq} before any send"
            trips[-1].append(event)
    for msg_id, trip in enumerate(trips, 1):
        assert len(trip) > 1, f"message {msg_id} is neither delivered nor dropped"
        send, *taps, end = trip
        assert [e.seq for e in trip] == list(range(send.seq, send.seq + len(trip)))
        assert send.payload["msg_id"] == msg_id
        assert all(e.payload == send.payload for e in trip)
        assert [(e.actor, e.kind, e.time) for e in taps] in (
            [], [("intruder", "intercept", send.time)])
        assert (end.kind, end.time) == ("deliver", send.time + 1) or (
            (end.actor, end.kind, end.time) == ("intruder", "drop", send.time))
    return trips


class TestClock:
    """The run owns the logical clock and stamps each event it records."""

    def test_record_stamps_now_with_seq_equal_to_position(self):
        run = harness._Run(config_for("honest"))
        for tick in range(5):
            run.now += tick
            run.record("server", "state-change", {"action": "x"})
        assert [(event.seq, event.time) for event in run.events] == [
            (0, 0), (1, 1), (2, 3), (3, 6), (4, 10)]


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


class TestTranscript:
    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(TranscriptParseError):
            Transcript.from_jsonl("not json\n")
        with pytest.raises(TranscriptParseError, match="^line 1 does not end in a newline$"):
            Transcript.from_jsonl("")
        with pytest.raises(TranscriptParseError):
            Transcript.from_jsonl('{"scenario":"honest"}\n')
        header = run_scenario(config_for("honest")).to_jsonl().split("\n")[0]
        # every line ends in a newline, the last one included
        with pytest.raises(TranscriptParseError, match="line 1 does not end in a newline"):
            Transcript.from_jsonl(header)
        golden_events = GOLDEN.read_text(encoding="utf-8").split("\n", 1)[1]
        for bad_header in NON_CANONICAL_HEADERS:
            with pytest.raises(TranscriptParseError, match="line 1"):
                Transcript.from_jsonl(f"{bad_header}\n{golden_events}")
        # json refuses integers this long with a plain ValueError
        with pytest.raises(TranscriptParseError, match="line 1"):
            Transcript.from_jsonl("1" * 5000 + "\n")

    @staticmethod
    def _with_event1(edit):
        """The honest run's text with event 1 replaced by `edit` of its object,
        written as `to_jsonl` writes a line."""
        lines = run_scenario(config_for("honest")).to_jsonl().split("\n")
        lines[2] = harness._dumps(edit(json.loads(lines[2])))
        return "\n".join(lines)

    # a malformed event line is refused as any line that differs from the run's
    @pytest.mark.parametrize("edit", [
        lambda obj: [], lambda obj: 3, lambda obj: "seq",
        lambda obj: {k: v for k, v in obj.items() if k != "time"},
        lambda obj: {**obj, "extra": 1},
    ], ids=["list", "int", "string", "missing-key", "extra-key"])
    def test_event_line_that_is_not_an_event_object_is_refused(self, edit):
        with pytest.raises(ReplayMismatch) as info:
            Transcript.from_jsonl(self._with_event1(edit))
        assert info.value.seq == 1

    @pytest.mark.parametrize("field, value", [
        ("seq", True), ("seq", 1.0), ("seq", 0), ("seq", 2), ("time", "x"), ("time", 1.0),
        ("actor", 7), ("actor", "eve"), ("actor", []), ("kind", None), ("kind", {}),
        ("payload", 3), ("payload", []), ("payload", None),
    ])
    def test_event_line_with_a_bad_field_is_refused(self, field, value):
        Transcript.from_jsonl(self._with_event1(lambda obj: obj))  # unedited, it verifies
        with pytest.raises(ReplayMismatch) as info:
            Transcript.from_jsonl(self._with_event1(lambda obj: {**obj, field: value}))
        assert info.value.seq == 1

    def test_from_jsonl_rejects_reordered_events(self):
        text = run_scenario(config_for("honest", seed=3)).to_jsonl()
        lines = text.strip().split("\n")
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(ReplayMismatch) as info:
            Transcript.from_jsonl("\n".join(lines) + "\n")
        assert info.value.seq == 0


class TestScenarios:
    def test_outcomes_stable_across_seeds(self):
        for seed in (0, 1, 7, 1234):
            for scenario in SCENARIOS:
                transcript = run_scenario(config_for(scenario, seed=seed))
                expected = "accepted" if scenario == "honest" else "attack-succeeded"
                assert transcript.outcome() == expected

    def test_channel_conservation_everywhere(self):
        shapes = set()
        for scenario in SCENARIOS:
            for seed in (0, 42):
                # window 1 makes the forged login stale, so no reply is sent
                for window in (1, 2, 5, 9):
                    transcript = run_scenario(config_for(scenario, seed=seed, window=window))
                    shapes.update(tuple(e.kind for e in trip)
                                  for trip in assert_channel_conserved(transcript))
        # every trip shape the scenarios use was checked
        assert shapes == {("send", "deliver"), ("send", "intercept", "deliver"),
                               ("send", "drop")}

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

    def test_invalid_configs_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            run_scenario(ScenarioConfig(scenario="nonsense"))
        with pytest.raises(ScenarioError, match="window"):
            run_scenario(ScenarioConfig(scenario="honest", window=0))
        with pytest.raises(ScenarioError, match="seed"):
            run_scenario(ScenarioConfig(scenario="honest", seed="abc"))
        with pytest.raises(ScenarioError, match="window"):
            run_scenario(ScenarioConfig(scenario="honest", window=True))
        with pytest.raises(ScenarioError, match="unknown scenario"):
            run_scenario(ScenarioConfig(scenario=["x"]))
        with pytest.raises(ScenarioError, match="^dictionary must be a path string or null$"):
            run_scenario(ScenarioConfig(scenario="honest", dictionary_path=5))
        with pytest.raises(ScenarioError, match="seed"):
            run_scenario(ScenarioConfig(scenario="honest", seed=-5))
        # a dictionary-free scenario would record the path and ignore it
        for scenario in set(SCENARIOS) - WORDLIST_SCENARIOS:
            with pytest.raises(ScenarioError, match="takes no dictionary"):
                ScenarioConfig(scenario=scenario, dictionary_path=DICT_PATH)

    def test_wordlist_scenarios_need_a_dictionary(self):
        for scenario in WORDLIST_SCENARIOS:
            with pytest.raises(ScenarioError, match="needs a dictionary"):
                run_scenario(ScenarioConfig(scenario=scenario))
            # "a\0b" and "\ud800" cannot name a file; /dev/null is not a
            # regular file, and a FIFO is a row of test_cli.py::test_child_process
            for path in ("/nonexistent/words.txt", "a\u0000b", "\ud800", "/dev/null"):
                with pytest.raises(ScenarioError, match="cannot read dictionary"):
                    run_scenario(ScenarioConfig(scenario=scenario, dictionary_path=path))

    def test_victim_password_comes_from_the_wordlist(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("only-entry\n", encoding="utf-8")
        transcript = run_scenario(ScenarioConfig(scenario="offline-guess", seed=9,
                                                 dictionary_path=str(path)))
        guess = next(e for e in transcript.events
                     if e.payload.get("action") == "offline-guess")
        assert guess.payload["result"] == "found"
        assert guess.payload["password"] == "only-entry"
        assert guess.payload["probes"] == 1


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
    def _write(self, tmp_path, config) -> Path:
        path = tmp_path / "run.jsonl"
        path.write_text(run_scenario(config).to_jsonl(), encoding="utf-8")
        return path

    def test_every_scenario_replays(self, tmp_path):
        for scenario in SCENARIOS:
            path = tmp_path / f"{scenario}.jsonl"
            path.write_text(run_scenario(config_for(scenario, seed=8)).to_jsonl(),
                            encoding="utf-8")
            replay_transcript(path)

    def test_single_edited_hex_digit_detected(self, tmp_path):
        path = self._write(tmp_path, config_for("honest", seed=42))
        lines = path.read_text(encoding="utf-8").split("\n")
        # event seq 2 is the login send; flip one authenticator digit
        target = lines[3]
        obj = json.loads(target)
        c2 = obj["payload"]["message"]["c2"]
        flipped = ("0" if c2[17] != "0" else "1")
        obj["payload"]["message"]["c2"] = c2[:17] + flipped + c2[18:]
        lines[3] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ReplayMismatch) as exc:
            replay_transcript(path)
        assert exc.value.seq == 2

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        head = b"".join(GOLDEN.read_bytes().splitlines(keepends=True)[:3])
        path = tmp_path / "bad.jsonl"
        path.write_bytes(head + b"\xff\n")
        with pytest.raises(ValueError, match="line 4: not UTF-8"):
            replay_transcript(path)

    def test_edited_seed_diverges_at_first_random_event(self, tmp_path):
        path = self._write(tmp_path, config_for("honest", seed=1))
        lines = path.read_text(encoding="utf-8").split("\n")
        config = json.loads(lines[0])
        config["seed"] = 2
        lines[0] = json.dumps(config, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ReplayMismatch) as exc:
            replay_transcript(path)
        # registration events carry no randomness; the login send is the
        # first event whose bytes depend on the seed
        assert exc.value.seq == 2

    def test_truncated_transcript_detected(self, tmp_path):
        path = self._write(tmp_path, config_for("honest", seed=4))
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ReplayMismatch) as exc:
            replay_transcript(path)
        assert exc.value.seq == len(lines) - 2
        # an extra well-formed event after the verdict diverges at its own seq
        extra = {**json.loads(lines[-1]), "seq": len(lines) - 1}
        path.write_text("\n".join([*lines, json.dumps(extra)]) + "\n", encoding="utf-8")
        with pytest.raises(ReplayMismatch) as exc:
            replay_transcript(path)
        assert exc.value.seq == len(lines) - 1

    def test_line_endings_are_compared_byte_for_byte(self, tmp_path):
        golden = GOLDEN.read_bytes()
        path = tmp_path / "copy.jsonl"
        # json.loads reads past a CR, but the config line is then not canonical
        path.write_bytes(golden.replace(b"\n", b"\r\n"))
        with pytest.raises(TranscriptParseError, match="line 1"):
            replay_transcript(path)
        # a CR on an event line is a difference in that event's bytes
        header, event0, rest = golden.split(b"\n", 2)
        path.write_bytes(b"\n".join([header, event0 + b"\r", rest]))
        with pytest.raises(ReplayMismatch) as exc:
            replay_transcript(path)
        assert exc.value.seq == 0
        # with bare CRs the file is a single line of several JSON values
        path.write_bytes(golden.replace(b"\n", b"\r"))
        with pytest.raises(TranscriptParseError):
            replay_transcript(path)
        # the final newline is part of the last event's line
        path.write_bytes(golden[:-1])
        with pytest.raises(TranscriptParseError, match="line 17 does not end in a newline"):
            replay_transcript(path)

    def test_no_one_byte_deletion_of_the_golden_file_verifies(self, tmp_path):
        golden = GOLDEN.read_bytes()
        path = tmp_path / "cut.jsonl"
        for at in range(len(golden)):
            path.write_bytes(golden[:at] + golden[at + 1:])
            with pytest.raises((ReplayMismatch, TranscriptParseError, ScenarioError)):
                replay_transcript(path)

    def test_no_one_byte_insertion_of_a_newline_in_the_golden_file_verifies(self, tmp_path):
        golden = GOLDEN.read_bytes()
        path = tmp_path / "split.jsonl"
        for at in range(len(golden) + 1):
            path.write_bytes(golden[:at] + b"\n" + golden[at:])
            with pytest.raises((ReplayMismatch, TranscriptParseError, ScenarioError)):
                replay_transcript(path)

    @pytest.mark.parametrize("edit, seq", [
        (lambda lines: lines + [""], 16),
        (lambda lines: lines[:-1], 15),
    ], ids=["extra-blank-line", "last-line-missing"])
    def test_a_line_out_of_place_is_a_mismatch_at_its_seq(self, edit, seq):
        lines = GOLDEN.read_text(encoding="utf-8").split("\n")[:-1]
        with pytest.raises(ReplayMismatch) as exc:
            Transcript.from_jsonl("\n".join(edit(lines)) + "\n")
        assert exc.value.seq == seq

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
