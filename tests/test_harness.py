"""Scenario runner: clock, channel, transcripts, determinism, replay."""

import hashlib
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardauthsim.blocks import Block
from cardauthsim.harness import (
    SCENARIOS,
    WORDLIST_SCENARIOS,
    Channel,
    InvalidConfig,
    MissingDictionary,
    ReplayMismatch,
    ScenarioConfig,
    ScenarioError,
    Transcript,
    TranscriptParseError,
    replay_transcript,
    run_scenario,
)
from cardauthsim.scheme import AuthServer, enroll

DICT_PATH = str(Path(__file__).parent.parent / "data" / "dictionary.txt")
GOLDEN = Path(__file__).parent.parent / "golden" / "parallel_session_seed42.jsonl"

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
    """Every sent message is delivered or dropped exactly once."""
    sent, ended = {}, {}
    for event in transcript.events:
        if event.kind in ("send", "deliver", "drop"):
            msg_id = event.payload["msg_id"]
            bucket = sent if event.kind == "send" else ended
            bucket[msg_id] = bucket.get(msg_id, 0) + 1
    assert all(count == 1 for count in sent.values())
    assert set(sent) == set(ended)
    assert all(count == 1 for count in ended.values())


class TestClock:
    def test_starts_at_zero_and_steps(self):
        transcript = Transcript(config_for("honest"))
        assert transcript.now == 0
        transcript.step()
        transcript.step(9)
        assert transcript.now == 10
        assert transcript.record("server", "state-change", {"action": "x"}).time == 10

    def test_never_rewinds(self):
        transcript = Transcript(config_for("honest"))
        for bad in (0, -1):
            with pytest.raises(ValueError):
                transcript.step(bad)
        assert transcript.now == 0


class TestTranscript:
    def test_seq_strictly_increases(self):
        transcript = Transcript(config_for("honest"))
        for i in range(5):
            event = transcript.record("server", "state-change", {"action": "x"})
            assert event.seq == i

    def test_rejects_unknown_actor_and_kind(self):
        transcript = Transcript(config_for("honest"))
        with pytest.raises(ValueError):
            transcript.record("eve", "send", {})
        with pytest.raises(ValueError):
            transcript.record("user", "teleport", {})

    def test_jsonl_round_trip(self):
        transcript = run_scenario(config_for("honest", seed=3))
        text = transcript.to_jsonl()
        parsed = Transcript.from_jsonl(text)
        assert parsed.config == transcript.config
        assert parsed.events == transcript.events
        assert parsed.to_jsonl() == text

    def test_every_line_is_valid_json(self):
        text = run_scenario(config_for("parallel-session", seed=1)).to_jsonl()
        lines = text.strip().split("\n")
        for line in lines:
            json.loads(line)

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(TranscriptParseError):
            Transcript.from_jsonl("not json\n")
        with pytest.raises(TranscriptParseError):
            Transcript.from_jsonl("")
        with pytest.raises(TranscriptParseError):
            Transcript.from_jsonl('{"scenario":"honest"}\n')
        # the error names the line of the file, not a line within the JSON
        header = run_scenario(config_for("honest")).to_jsonl().split("\n")[0]
        with pytest.raises(TranscriptParseError, match="line 3"):
            Transcript.from_jsonl(f"{header}\n{header}\n\n")
        # json refuses integers this long with a plain ValueError
        with pytest.raises(TranscriptParseError, match="line 1"):
            Transcript.from_jsonl("1" * 5000 + "\n")

    def test_from_jsonl_rejects_reordered_events(self):
        text = run_scenario(config_for("honest", seed=3)).to_jsonl()
        lines = text.strip().split("\n")
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(TranscriptParseError):
            Transcript.from_jsonl("\n".join(lines) + "\n")


class TestChannel:
    def _fresh(self):
        transcript = Transcript(config_for("honest"))
        return Channel(transcript), transcript

    def test_send_then_deliver_in_order(self):
        from cardauthsim.scheme import LoginRequest
        from cardauthsim.blocks import Block
        channel, transcript = self._fresh()
        first = LoginRequest("alice", Block(bytes(32)), 1)
        second = LoginRequest("alice", Block(b"\x01" * 32), 2)
        channel.send("card", first)
        channel.send("card", second)
        assert channel.deliver("server") == first
        assert channel.deliver("server") == second
        assert [e.kind for e in transcript.events] == ["send", "send", "deliver", "deliver"]
        # each delivery is a hop of one tick; sends take no time
        assert [e.time for e in transcript.events] == [0, 0, 1, 2]

    def test_intercept_copies_without_removing(self):
        from cardauthsim.scheme import LoginRequest
        from cardauthsim.blocks import Block
        channel, transcript = self._fresh()
        message = LoginRequest("alice", Block(bytes(32)), 1)
        channel.send("card", message)
        assert channel.intercept() == message
        assert channel.in_flight == 1
        assert channel.deliver("server") == message

    def test_empty_channel_operations_fail(self):
        channel, _ = self._fresh()
        for op in (channel.intercept, channel.drop):
            with pytest.raises(LookupError):
                op()
        with pytest.raises(LookupError):
            channel.deliver("server")

    def _enrolled(self):
        server = AuthServer(Block(bytes(range(32))))
        card = enroll(server, "alice", "correct-horse", Block(bytes(range(32, 64))))
        return server, card

    def test_dropped_message_never_arrives(self):
        channel, transcript = self._fresh()
        server, card = self._enrolled()
        request, _ = card.login("alice", "correct-horse", 10)
        response = server.verify_login(request, 11)
        channel.send("server", response)
        assert channel.drop() == response
        assert channel.in_flight == 0
        assert [e.kind for e in transcript.events] == ["send", "drop"]

    def test_unrelated_exchange_unaffected(self):
        channel, _ = self._fresh()
        server, card = self._enrolled()
        first, _ = card.login("alice", "correct-horse", 10)
        channel.send("card", first)
        channel.drop()
        second, _ = card.login("alice", "correct-horse", 12)
        channel.send("card", second)
        delivered = channel.deliver("server")
        assert delivered == second
        assert server.verify_login(delivered, 13)

    def test_two_drops_logged_in_order(self):
        channel, transcript = self._fresh()
        _, card = self._enrolled()
        first, _ = card.login("alice", "correct-horse", 10)
        second, _ = card.login("alice", "correct-horse", 11)
        channel.send("card", first)
        channel.send("card", second)
        assert channel.drop() == first
        assert channel.drop() == second
        drops = [e for e in transcript.events if e.kind == "drop"]
        assert [d.payload["msg_id"] for d in drops] == [1, 2]

    def test_drop_on_idle_channel_fails(self):
        channel, transcript = self._fresh()
        with pytest.raises(LookupError):
            channel.drop()
        assert transcript.events == []


class TestScenarios:
    def test_expected_outcomes(self):
        expected = {
            "honest": "accepted",
            "offline-guess": "attack-succeeded",
            "outsider-change": "attack-succeeded",
            "insider-change": "attack-succeeded",
            "parallel-session": "attack-succeeded",
        }
        for scenario, outcome in expected.items():
            transcript = run_scenario(config_for(scenario, seed=42))
            assert transcript.outcome() == outcome, scenario

    def test_outcomes_stable_across_seeds(self):
        for seed in (0, 1, 7, 1234):
            for scenario in SCENARIOS:
                transcript = run_scenario(config_for(scenario, seed=seed))
                expected = "accepted" if scenario == "honest" else "attack-succeeded"
                assert transcript.outcome() == expected

    def test_honest_run_has_no_intruder_events(self):
        transcript = run_scenario(config_for("honest", seed=5))
        assert all(e.actor != "intruder" for e in transcript.events)

    def test_all_scenarios_bounded_below_hundred_events(self):
        for scenario in SCENARIOS:
            transcript = run_scenario(config_for(scenario, seed=11))
            assert len(transcript.events) < 100, scenario

    def test_channel_conservation_everywhere(self):
        for scenario in SCENARIOS:
            for seed in (0, 42):
                assert_channel_conserved(run_scenario(config_for(scenario, seed=seed)))

    def test_same_config_gives_identical_bytes(self):
        for scenario in SCENARIOS:
            config = config_for(scenario, seed=42)
            first = run_scenario(config).to_jsonl()
            second = run_scenario(config).to_jsonl()
            assert first == second, scenario

    def test_different_seeds_give_different_transcripts(self):
        a = run_scenario(config_for("honest", seed=1)).to_jsonl()
        b = run_scenario(config_for("honest", seed=2)).to_jsonl()
        assert a != b

    def test_event_times_never_rewind(self):
        for scenario in SCENARIOS:
            transcript = run_scenario(config_for(scenario, seed=13))
            times = [e.time for e in transcript.events]
            assert times == sorted(times), scenario

    def test_parallel_session_respects_small_windows(self):
        # the canned relay lands two ticks after the observed reply
        ok = run_scenario(config_for("parallel-session", seed=3, window=2))
        assert ok.outcome() == "attack-succeeded"
        late = run_scenario(config_for("parallel-session", seed=3, window=1))
        assert late.outcome() == "attack-failed"

    def test_timeline_matches_defaults(self):
        transcript = run_scenario(config_for("honest", seed=0))
        registration = transcript.events[0]
        assert registration.time == 0
        sends = [e for e in transcript.events if e.kind == "send"]
        assert sends[0].time == 10
        first_deliver = next(e for e in transcript.events if e.kind == "deliver")
        assert first_deliver.time == 11

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

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidConfig):
            run_scenario(ScenarioConfig(scenario="nonsense"))
        with pytest.raises(InvalidConfig):
            run_scenario(ScenarioConfig(scenario="honest", window=0))
        with pytest.raises(InvalidConfig):
            run_scenario(ScenarioConfig(scenario="honest", seed="abc"))
        with pytest.raises(InvalidConfig):
            run_scenario(ScenarioConfig(scenario="honest", window=True))
        with pytest.raises(InvalidConfig):
            run_scenario(ScenarioConfig(scenario=["x"]))
        with pytest.raises(InvalidConfig):
            run_scenario(ScenarioConfig(scenario="honest", dictionary_path=5))
        with pytest.raises(InvalidConfig):
            run_scenario(ScenarioConfig(scenario="honest", seed=-5))
        # a dictionary-free scenario would record the path and ignore it
        for scenario in set(SCENARIOS) - WORDLIST_SCENARIOS:
            with pytest.raises(InvalidConfig, match="takes no dictionary"):
                ScenarioConfig(scenario=scenario, dictionary_path=DICT_PATH)

    def test_wordlist_scenarios_need_a_dictionary(self, tmp_path):
        fifo = tmp_path / "words.fifo"
        os.mkfifo(fifo)  # reading it would block with no writer
        for scenario in WORDLIST_SCENARIOS:
            with pytest.raises(MissingDictionary):
                run_scenario(ScenarioConfig(scenario=scenario))
            # "a\0b" and "\ud800" cannot name a file; /dev/null and the FIFO are not regular files
            for path in ("/nonexistent/words.txt", "a\u0000b", "\ud800", "/dev/null", str(fifo)):
                with pytest.raises(MissingDictionary, match="cannot read dictionary"):
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


class TestReplay:
    def _write(self, tmp_path, config) -> Path:
        path = tmp_path / "run.jsonl"
        path.write_text(run_scenario(config).to_jsonl(), encoding="utf-8")
        return path

    def test_fresh_transcript_verifies(self, tmp_path):
        path = self._write(tmp_path, config_for("parallel-session", seed=42))
        assert replay_transcript(path) == 16

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

    def test_unparseable_file_raises_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("definitely not json\n", encoding="utf-8")
        with pytest.raises(TranscriptParseError):
            replay_transcript(path)

    def test_line_endings_are_compared_byte_for_byte(self, tmp_path):
        golden = GOLDEN.read_bytes()
        path = tmp_path / "copy.jsonl"
        path.write_bytes(golden.replace(b"\n", b"\r\n"))
        with pytest.raises(ReplayMismatch) as exc:
            replay_transcript(path)
        assert exc.value.seq == 0
        # with bare CRs the file is a single line of several JSON values
        path.write_bytes(golden.replace(b"\n", b"\r"))
        with pytest.raises(TranscriptParseError):
            replay_transcript(path)

    @settings(max_examples=100, deadline=None)
    @given(header=json_values | st.fixed_dictionaries(
               {"scenario": st.sampled_from(sorted(SCENARIOS)) | json_values,
                "seed": st.integers() | json_values, "window": st.integers() | json_values,
                "dictionary": st.none() | json_values}),
           event=json_values | st.fixed_dictionaries(
               {key: json_values for key in ("seq", "time", "actor", "kind", "payload")}),
           header_only=st.booleans())
    def test_any_json_line_is_replayed_or_rejected(self, tmp_path_factory, header, event,
                                                   header_only):
        # A bad header meets the parser or the config; a bad event line
        # after the golden header meets the parser or the comparison.
        path = tmp_path_factory.getbasetemp() / "any-json-line.jsonl"
        golden_header = GOLDEN.read_text(encoding="utf-8").split("\n", 1)[0]
        lines = [json.dumps(header)] if header_only else [golden_header, json.dumps(event)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            replay_transcript(path)
        except (ReplayMismatch, TranscriptParseError, ScenarioError):
            pass
