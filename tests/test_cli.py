"""Command-line behaviour: exit codes, output streams, file round trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cardauthsim import adversary, blocks, cli
from cardauthsim.blocks import BLOCK_LEN, GOLDEN_DIGESTS, ZERO_BLOCK
from cardauthsim.cli import main

DICT_PATH = str(Path(__file__).parent.parent / "data" / "dictionary.txt")
SRC = str(Path(__file__).parent.parent / "src")
GOLDEN = Path(__file__).parent.parent / "golden" / "parallel_session_seed42.jsonl"


class TestDemo:
    def test_attack_failure_maps_to_exit_one(self, tmp_path, capsys):
        # window 1 is too tight for the canned two-tick relay; a victim whose
        # password is the one the attacker sets still logs in after the change
        words = tmp_path / "words.txt"
        words.write_text("hijacked-by-mallory\n", encoding="utf-8")
        for argv in (["parallel-session", "--seed", "1", "--window", "1"],
                     ["outsider-change", "--dictionary", str(words)]):
            code = main(["demo", *argv])
            _, err = capsys.readouterr()
            assert code == 1, argv
            assert err.strip().split("\n")[-1] == "attack-failed", argv

    def test_unreadable_dictionary_is_io_error(self, tmp_path, capsys):
        malformed = {"duplicate": b"a\nb\na\n", "blank-line": b"a\n\nb\n",
                     "not-utf8": b"a\n\xff\xfe\n", "crlf": b"a\r\nb\r\n", "cr": b"a\rb\r"}
        paths = ["/no/such/file", ""]  # an empty path is given, and names no file
        for name, data in malformed.items():
            path = tmp_path / f"{name}.txt"
            path.write_bytes(data)
            paths.append(str(path))
        for path in paths:
            code = main(["demo", "offline-guess", "--dictionary", path])
            _, err = capsys.readouterr()
            assert code == 1, path
            assert err.startswith("error: "), path
            assert path in err, err
            # replay re-runs the recorded config, so it meets the same file
            transcript = tmp_path / "t.jsonl"
            header = json.dumps({"scenario": "offline-guess", "seed": 0, "window": 5,
                                 "dictionary": path}, sort_keys=True, separators=(",", ":"))
            transcript.write_text(header + "\n", encoding="utf-8")
            code = main(["replay", str(transcript)])
            _, err = capsys.readouterr()
            assert code == 1, path
            assert err.startswith(("error: cannot read dictionary",
                                   "error: malformed dictionary")), path
            assert path in err, err

    def test_out_that_cannot_be_written_is_error(self, tmp_path, monkeypatch):
        # a directory, the empty path (the current directory), and two
        # strings that cannot name a file at all; a StringIO takes the lone
        # surrogate that a process's stderr escapes
        for path in (str(tmp_path), "", "a\u0000b", "\ud800"):
            monkeypatch.setattr(sys, "stdout", io.StringIO())
            monkeypatch.setattr(sys, "stderr", io.StringIO())
            code = main(["demo", "honest", "--out", path])
            assert code == 1, path
            assert sys.stdout.getvalue() == "", path
            assert sys.stderr.getvalue().startswith(f"error: cannot write {path}"), path

    def test_error_line_survives_a_strict_stderr(self, monkeypatch):
        # a stderr that encodes strictly cannot take the lone surrogate, so
        # the line is written again with it escaped, path and all
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["demo", "honest", "--out", "\ud800"]) == 1
        stderr.flush()
        assert stderr.buffer.getvalue().startswith(b"error: cannot write \\ud800: ")
        monkeypatch.setattr(sys, "stderr", None)
        assert main(["demo", "honest", "--out", "\ud800"]) == 1

    def test_human_format(self, capsys):
        code = main(["demo", "honest", "--seed", "3", "--format", "human"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "verdict" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out.split("\n")[0])
        # nested payloads render as the transcript's canonical JSON
        send = next(line for line in out.split("\n") if "message=" in line)
        message = send.split("message=", 1)[1].split(", ")[0]
        assert json.loads(message)["type"] == "login"

    def test_human_format_escapes_control_characters(self, tmp_path, capsys):
        # a wordlist entry reaches the transcript as the guessed password, and
        # renders, like every value, as canonical JSON: quoted, escaped, ASCII
        words = tmp_path / "words.txt"
        for word, rendered in (("a\x1b[31mred", '"a\\u001b[31mred"'),
                               ("x, result=missed", '"x, result=missed"'),
                               ("caf\u00e9", '"caf\\u00e9"')):
            words.write_text(word + "\n", encoding="utf-8")
            code = main(["demo", "offline-guess", "--dictionary", str(words),
                         "--format", "human"])
            out, _ = capsys.readouterr()
            assert code == 0
            assert out.isascii()
            assert "\x1b" not in out
            line = next(line for line in out.split("\n") if "password=" in line)
            assert f'password={rendered}, ' in line
            assert ', result="found", ' in line
            # the line still parses into its fields, the guessed word one of them
            assert _human_fields(line) == [("action", "offline-guess"), ("password", word),
                                           ("probes", 1), ("result", "found"),
                                           ("wordlist_size", 1)]


@pytest.mark.parametrize("argv, header, error", [
    (["offline-guess"], {"scenario": "offline-guess"},
     "scenario 'offline-guess' needs a dictionary"),
    (["outsider-change"], {"scenario": "outsider-change"},
     "scenario 'outsider-change' needs a dictionary"),
    (["honest", "--dictionary", DICT_PATH], {"scenario": "honest", "dictionary": DICT_PATH},
     "scenario 'honest' takes no dictionary"),
    (["honest", "--seed", "-1"], {"scenario": "honest", "seed": -1},
     "seed must be a non-negative integer"),
    (["honest", "--window", "0"], {"scenario": "honest", "window": 0},
     "window must be a positive tick count"),
], ids=["offline-guess-no-dictionary", "outsider-change-no-dictionary",
        "honest-dictionary", "negative-seed", "zero-window"])
def test_config_refused_alike_by_demo_and_replay(argv, header, error, tmp_path, capsys):
    # ScenarioConfig alone judges a config, so demo's arguments and the
    # header that demo would record for them are refused with one line
    assert main(["demo", *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    header = {"seed": 0, "window": 5, "dictionary": None, **header}
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n",
                          encoding="utf-8")
    assert main(["replay", str(transcript)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_dictionary_that_is_not_a_string_is_refused_by_replay(tmp_path, capsys):
    # demo passes only strings, so only a header can hold one; unchecked, a list
    # made os.stat raise TypeError, and 1 or true made it stat file descriptor 1
    transcript = tmp_path / "t.jsonl"
    for dictionary in (1, True, ["a"]):
        header = {"dictionary": dictionary, "scenario": "offline-guess", "seed": 0, "window": 5}
        transcript.write_text(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n",
                              encoding="utf-8")
        assert main(["replay", str(transcript)]) == 1, dictionary
        assert capsys.readouterr() == ("", "error: dictionary must be a path string or null\n")


def _human_fields(line):
    """The (key, value) fields of a `--format human` line, each value read as JSON."""
    detail = line.split(None, 4)[4]
    fields, pos = [], 0
    while pos < len(detail):
        key = detail[pos:].partition("=")[0]
        value, pos = json.JSONDecoder().raw_decode(detail, pos + len(key) + 1)
        fields.append((key, value))
        assert detail[pos:pos + 2] in (", ", "")
        pos += 2
    return fields


class TestReplayCommand:
    def test_detects_tampering(self, tmp_path, capsys):
        out_file = tmp_path / "t.jsonl"
        main(["demo", "honest", "--seed", "5", "--out", str(out_file)])
        capsys.readouterr()
        text = out_file.read_text(encoding="utf-8")
        lines = text.split("\n")
        obj = json.loads(lines[3])
        obj["payload"]["message"]["t"] = 999
        lines[3] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        out_file.write_text("\n".join(lines), encoding="utf-8")
        code = main(["replay", str(out_file)])
        out, _ = capsys.readouterr()
        assert code == 1
        assert out.startswith("mismatch at seq 2")

    def test_missing_file_is_io_error(self, tmp_path, monkeypatch, capsys):
        # "a\0b" and "\ud800" cannot name a file; /dev/null and a directory are
        # not regular files, refused before they are opened: a device may never end
        opened = _record_opens(monkeypatch)
        for path in ("/no/such/transcript.jsonl", "a\u0000b", "\ud800", "/dev/null",
                     str(tmp_path)):
            code = main(["replay", path])
            _, err = capsys.readouterr()
            assert code == 1, path
            assert err.startswith("error: "), path
        assert opened == []

    def test_file_over_the_size_limit_is_refused_unread(self, monkeypatch, capsys):
        # the size comes from the stat that read_text takes anyway; a file of
        # exactly the limit is read
        opened = _record_opens(monkeypatch)
        monkeypatch.setattr(os, "stat", _stat_with_size(GOLDEN, adversary.MAX_INPUT_BYTES))
        assert (main(["replay", str(GOLDEN)]), opened) == (0, [str(GOLDEN)])
        assert capsys.readouterr() == ("verified (16 events)\n", "")
        opened.clear()
        monkeypatch.setattr(os, "stat", _stat_with_size(GOLDEN, adversary.MAX_INPUT_BYTES + 1))
        code = main(["replay", str(GOLDEN)])
        _, err = capsys.readouterr()
        assert (code, opened) == (1, [])
        assert err == (f"error: {GOLDEN} is {adversary.MAX_INPUT_BYTES + 1} bytes, over the "
                       f"{adversary.MAX_INPUT_BYTES}-byte limit for an input file\n")

    def test_read_stops_at_the_size_limit(self, monkeypatch, capsys):
        # a regular file may report size 0 and hold far more, as
        # /proc/self/pagemap does; the read itself is bounded
        monkeypatch.setattr(os, "stat", _stat_with_size(GOLDEN, 0))
        size = len(GOLDEN.read_bytes())
        monkeypatch.setattr(adversary, "MAX_INPUT_BYTES", size)
        assert main(["replay", str(GOLDEN)]) == 0
        monkeypatch.setattr(adversary, "MAX_INPUT_BYTES", size - 1)
        assert main(["replay", str(GOLDEN)]) == 1
        assert capsys.readouterr().err == (
            f"error: {GOLDEN} is over the {size - 1}-byte limit for an input file\n")

    def test_garbage_file_is_error(self, tmp_path, capsys):
        header = ('{"dictionary":null,"scenario":"parallel-session","seed":42,'
                  '"window":5}\n').encode()
        golden_events = GOLDEN.read_bytes().split(b"\n", 1)[1]
        # each decodes to the golden config, but none is the line demo writes
        non_canonical = [bad_header + b"\n" + golden_events for bad_header in (
            b'{"dictionary": null, "scenario": "parallel-session", "seed": 42, "window": 5}',
            b'{"seed":1,"scenario":"parallel-session","seed":42,"window":5,"dictionary":null}',
            b'{"dictionary":null,"scenario":"parallel\\u002dsession","seed":42,"window":5}')]
        bad = tmp_path / "bad.jsonl"
        for data in (b"garbage\n", b"5\n", b"null\n", b'"text"\n',
                     b'{"dictionary":null,"scenario":["x"],"seed":0,"window":5}\n',
                     b'{"dictionary":5,"scenario":"honest","seed":0,"window":5}\n',
                     b'{"dictionary":null,"scenario":"honest","seed":-1,"window":5}\n',
                     header + b"\xff\xfe\n", *non_canonical, GOLDEN.read_bytes()[:-1]):
            bad.write_bytes(data)
            code = main(["replay", str(bad)])
            _, err = capsys.readouterr()
            assert code == 1, data
            assert err.startswith("error: "), data
        # a malformed event line is a mismatch like a wrong one: an event that
        # is no object, or one bad field after a valid event 0 of the same run
        event0 = (b'{"actor":"server","kind":"state-change","payload":{"action":'
                  b'"account-registered","counter":0,"id":"alice"},"seq":0,"time":0}\n')
        event1 = {"actor": "card", "kind": "state-change",
                  "payload": {"action": "card-issued", "id": "alice"}, "seq": 1, "time": 0}
        bad_events = [(header + event0 + json.dumps({**event1, field: value}).encode() + b"\n", 1)
                      for field, value in (("seq", True), ("seq", 1.0), ("time", "x"),
                                           ("actor", 7), ("actor", "eve"), ("kind", None),
                                           ("payload", 3), ("payload", []))]
        for data, seq in ((header + b"7\n", 0), *bad_events):
            bad.write_bytes(data)
            code = main(["replay", str(bad)])
            assert (code, *capsys.readouterr()) == (1, f"mismatch at seq {seq}\n", ""), data


@pytest.mark.parametrize("data, stdout, detail", [
    (b"hunter2-secret\nx\nhunter2-secret\n", "", "entry 3 repeats entry 1"),
    (b"hunter2-secret" + b"z" * 64 + b"\n", "", "entry 1: password longer than 64 characters"),
    (b"hunter2-secret\n\nx\n", "", "entry 2: password must not be empty"),
    (b"hunter2-secret\r\n", "", "line 1: carriage return"),
    (b"hunter2-secret\n\xff\n", "", "line 2: not UTF-8 (invalid start byte)"),
    (b"", "", "wordlist must not be empty"),
    (b"hunter2-secret\nx\n", "mismatch at seq 0\n", ""),
], ids=["repeat", "overlong", "blank-line", "cr", "not-utf8", "empty", "valid"])
def test_replay_never_echoes_a_named_file(data, stdout, detail, tmp_path, capsys):
    # a transcript is untrusted, and its header names a file that replay reads:
    # a malformed one is reported by its path and numbers, a valid one only runs
    named = tmp_path / "named.txt"
    named.write_bytes(data)
    transcript = tmp_path / "t.jsonl"
    header = {"dictionary": str(named), "scenario": "offline-guess", "seed": 0, "window": 5}
    transcript.write_text(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n",
                          encoding="utf-8")
    assert main(["replay", str(transcript)]) == 1
    out, err = capsys.readouterr()
    assert "hunter2" not in out + err
    assert (out, err) == (stdout, detail and f"error: malformed dictionary {named}: {detail}\n")


def _record_opens(monkeypatch):
    """The paths that os.open is called with from now on."""
    opened, real_open = [], os.open
    monkeypatch.setattr(os, "open",
                        lambda path, *args: opened.append(path) or real_open(path, *args))
    return opened


def _stat_with_size(target, size):
    """os.stat, with `size` as the st_size of `target`."""
    real_stat = os.stat

    def fake_stat(path, *args, **kwargs):
        info = real_stat(path, *args, **kwargs)
        if str(path) != str(target):
            return info
        fields = list(info)
        fields[6] = size  # st_size
        return os.stat_result(fields)
    return fake_stat


class FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("argv", [["demo", "honest"], ["replay", str(GOLDEN)], ["vectors"]],
                         ids=lambda argv: argv[0])
def test_stdout_that_cannot_be_written_is_error(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(argv)
    _, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [["replay", str(GOLDEN)], ["vectors"]],
                         ids=lambda argv: argv[0])
def test_command_with_nothing_for_stderr_never_writes_it(argv, monkeypatch, capsys):
    # so a stderr that cannot be written fails only what has something to say
    monkeypatch.setattr(sys, "stderr", FullStdout())
    assert main(argv) == 0


@pytest.mark.parametrize("argv, status", [
    (["demo", "honest"], 0), (["demo", "parallel-session", "--window", "1"], 1),
    (["demo", "honest", "--out", "\ud800"], 1), (["demo", "bogus"], 2)],
    ids=["accepted", "rejected", "error", "usage"])
def test_stderr_that_cannot_be_written_is_status_one(argv, status, monkeypatch, capsys):
    # every one of these has stderr text; with nowhere to report, main returns 1
    assert main(argv) == status
    monkeypatch.setattr(sys, "stderr", FullStdout())
    assert main(argv) == 1


class FullDevice(io.RawIOBase):
    def writable(self):
        return True

    def write(self, data):
        raise OSError(28, "No space left on device")


def test_stderr_that_fails_only_when_flushed_is_status_one(tmp_path, monkeypatch):
    # a stderr that is not line-buffered holds the text until main flushes it
    stderr = io.TextIOWrapper(FullDevice(), encoding="utf-8", line_buffering=False)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["demo", "honest", "--out", str(tmp_path / "t.jsonl")]) == 1


# what the installed `cardauthsim` console script runs
SCRIPT = "import sys; from cardauthsim.cli import main; sys.exit(main())"
PIPE, NULL, FULL, CLOSED = subprocess.PIPE, subprocess.DEVNULL, "/dev/full", None
ENOSPC = b"error: [Errno 28] No space left on device\n"
needs_full = pytest.mark.skipif(not os.path.exists(FULL), reason="needs /dev/full")


def _child(argv, stdout, stderr):
    """Run `cardauthsim ARGV` in a child process. A stream is PIPE, NULL or
    FULL; stdout may also be CLOSED, which closes fd 1 at start-up. The
    timeout turns a child that waits forever into a failure, not a hang."""
    # an unbuffered stdout would fail at the write, not at the flush under test
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with contextlib.ExitStack() as files:
        streams = [files.enter_context(open(FULL, "wb")) if stream == FULL else stream
                   for stream in (stdout, stderr)]
        result = subprocess.run([sys.executable, "-c", SCRIPT, *argv],
                                stdout=streams[0], stderr=streams[1],
                                preexec_fn=(lambda: os.close(1)) if stdout is CLOSED else None,
                                timeout=10, env={**env, "PYTHONPATH": SRC})
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize("argv, stdout, stderr, expected", [
    # a reader that opened a FIFO would wait for a writer
    pytest.param(["replay", "{tmp}/t.fifo"], PIPE, PIPE,
                 (1, b"", b"error: not a regular file: {tmp}/t.fifo\n"), id="fifo"),
    pytest.param(["demo", "offline-guess", "--dictionary", "{tmp}/t.fifo"], PIPE, PIPE,
                 (1, b"", b"error: cannot read dictionary: not a regular file: {tmp}/t.fifo\n"),
                 id="dictionary-fifo"),
    # a process's stdout is buffered, so a full device fails only at a flush;
    # one left to the interpreter's exit would print a warning and exit 120
    pytest.param(["vectors"], FULL, PIPE, (1, None, ENOSPC), id="vectors-full", marks=needs_full),
    pytest.param(["--help"], FULL, PIPE, (1, None, ENOSPC), id="help-full", marks=needs_full),
    pytest.param(["demo", "honest"], NULL, FULL, (1, None, None),
                 id="demo-stderr-full", marks=needs_full),
    # with fd 1 closed, sys.stdout is None: output that has nowhere to go is
    # an error, and --out needs no stdout
    *(pytest.param(argv, CLOSED, PIPE, (1, None, b"error: no standard output\n"),
                   id=f"{argv[0]}-closed")
      for argv in (["demo", "honest"], ["replay", str(GOLDEN)], ["vectors"])),
    pytest.param(["demo", "honest", "--out", "{tmp}/t.jsonl"], CLOSED, PIPE,
                 (0, None, b"scenario honest seed=0 window=5 events=9\naccepted\n"),
                 id="demo-out-closed"),
    pytest.param(["demo", "parallel-session", "--seed", "42"], PIPE, PIPE,
                 (0, GOLDEN.read_bytes(),
                  b"scenario parallel-session seed=42 window=5 events=16\nattack-succeeded\n"),
                 id="golden"),
    # an extra line is a mismatch at the seq it would have, not a crash
    pytest.param(["replay", "{tmp}/extra.jsonl"], PIPE, PIPE,
                 (1, b"mismatch at seq 16\n", b""), id="golden-extra-line"),
])
def test_child_process(argv, stdout, stderr, expected, tmp_path):
    os.mkfifo(tmp_path / "t.fifo")  # for the two fifo rows
    (tmp_path / "extra.jsonl").write_bytes(GOLDEN.read_bytes() + b"\n")
    status, out, err = expected
    err = err and err.replace(b"{tmp}", bytes(tmp_path))
    assert _child([arg.format(tmp=tmp_path) for arg in argv], stdout, stderr) == (status, out, err)
    if "--out" in argv:  # what demo wrote in place of stdout replays
        assert main(["replay", str(tmp_path / "t.jsonl")]) == 0


def test_fifo_swapped_in_after_the_stat_is_refused(tmp_path):
    # os.stat calls the FIFO a regular file, as when one is swapped in after
    # the stat; a reader that opened it would wait for a writer until the
    # timeout. The descriptor it opens is closed by the refusal.
    os.mkfifo(tmp_path / "t.fifo")
    script = ("import os, stat, sys; from cardauthsim.adversary import read_text\n"
              "s, o, fds = os.stat, os.open, []\n"
              "os.stat = lambda path: os.stat_result([stat.S_IFREG, *s(path)[1:]])\n"
              "os.open = lambda *args: fds.append(o(*args)) or fds[-1]\n"
              "try: read_text(sys.argv[1])\nexcept OSError as exc: print(exc)\n"
              "try: os.fstat(fds[0])\nexcept OSError: print('closed')\n")
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t.fifo")],
                            capture_output=True, timeout=10, env={**os.environ, "PYTHONPATH": SRC})
    assert (result.returncode, result.stdout, result.stderr) == (
        0, f"not a regular file: {tmp_path}/t.fifo\nclosed\n".encode(), b"")


class TestVectors:
    def test_digest_that_differs_from_its_pin_is_error(self, monkeypatch, capsys):
        assert main(["vectors"]) == 0
        assert capsys.readouterr().out == (
            f"block-length {BLOCK_LEN}\nhash sha256\nones-block {GOLDEN_DIGESTS['ones-block']}\n"
            f"zero-block {GOLDEN_DIGESTS['zero-block']}\n")
        monkeypatch.setattr(cli, "digest", lambda block: bytes(BLOCK_LEN) if block == ZERO_BLOCK
                            else blocks.digest(block))
        code = main(["vectors"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == (f"error: vector zero-block: digest {'00' * BLOCK_LEN}, "
                       f"pinned {GOLDEN_DIGESTS['zero-block']}\n")


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: cardauthsim")

    def test_argparse_output_goes_through_main(self, monkeypatch, capsys):
        # help that stdout cannot take is an error, not a silent exit 0
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["--help"]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        # a usage error keeps its status and text, whatever stdout is
        assert main(["demo", "honest", "--window", "x"]) == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --window: invalid int value: 'x'\n")


class TestStartup:
    def test_cli_import_leaves_out_unneeded_stdlib_modules(self):
        # every `cardauthsim` process pays its imports; these three cost
        # milliseconds and nothing in the program needs them
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import cardauthsim.cli; "
                  "print(sorted({'dataclasses', 'inspect', 'string'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-S", "-c", script, SRC],
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"
