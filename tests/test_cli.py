"""Command-line behaviour: exit codes, output streams, refused inputs."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cardauthsim import adversary
from cardauthsim.cli import main
from cardauthsim.harness import (SCENARIOS, WORDLIST_SCENARIOS, ReplayMismatch, ScenarioError,
                                 TranscriptParseError, replay_transcript)

from parties import DICT_PATH, GOLDEN, canonical

SRC = str(Path(__file__).parent.parent / "src")
CONFIG = {"dictionary": None, "scenario": "honest", "seed": 0, "window": 5}  # `demo honest`


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

    def test_defaults_are_the_config_header(self, capsys):
        # pins demo's defaults: with the help pin and ScenarioConfig's defaults,
        # one of the three killers of `harness`'s `0 to 1` on `DEFAULT_SEED = 0`
        assert main(["demo", "honest"]) == 0
        assert capsys.readouterr().out.startswith(canonical(CONFIG) + "\n")

    def test_error_line_survives_a_strict_stderr(self, tmp_path, monkeypatch):
        # a stderr that encodes strictly cannot take the quoted path's "é", so
        # the line is written again with it escaped
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="ascii", errors="strict")
        monkeypatch.setattr(sys, "stderr", stderr)
        path = str(tmp_path / "caf\u00e9")
        assert main(["replay", path]) == 1
        stderr.flush()
        assert stderr.buffer.getvalue() == (
            f"error: [Errno 2] No such file or directory: '{tmp_path}/caf\\xe9'\n".encode())
        monkeypatch.setattr(sys, "stderr", None)
        assert main(["replay", path]) == 1

    def test_human_bytes_pinned_across_scenarios_seeds_and_windows(self, capsys):
        # Pins `--format human` byte for byte, its columns among them, as the
        # event-bytes pin of test_harness.py pins the JSON lines. The human
        # form holds no config line, so no dictionary path enters the digest.
        pin = hashlib.sha256()
        for scenario in sorted(SCENARIOS):
            dictionary = ["--dictionary", DICT_PATH] if scenario in WORDLIST_SCENARIOS else []
            for seed in range(4):
                for window in (1, 2, 5):
                    main(["demo", scenario, "--seed", str(seed), "--window", str(window),
                          "--format", "human", *dictionary])
                    pin.update(capsys.readouterr().out.encode())
        assert pin.hexdigest() == (
            "089e2534fbbc5c20346efb26a3f5ae8fe64abfa99a165b55ce108df233efdec3")

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
    transcript = _transcript(tmp_path, {**CONFIG, **header})
    assert main(["replay", str(transcript)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def _transcript(tmp_path, header):
    """tmp_path/t.jsonl: `header` as the config line demo writes, or as is if bytes."""
    path = tmp_path / "t.jsonl"
    path.write_bytes(header if isinstance(header, bytes) else f"{canonical(header)}\n".encode())
    return path


GOLDEN_LINES = GOLDEN.read_bytes().splitlines(keepends=True)
GOLDEN_BYTES, HEADER, EVENT1 = b"".join(GOLDEN_LINES), GOLDEN_LINES[0], json.loads(GOLDEN_LINES[2])
SCENARIO_LIST = ("expected one of ['honest', 'insider-change', 'offline-guess', "
                 "'outsider-change', 'parallel-session']")
# (class, error text): the transcripts that replay refuses with it, by id;
# a transcript is bytes, or a header object written as demo writes it
ERRORS = {
    (TranscriptParseError, "bad JSON on line 1: Expecting value"): {
        "not-json": b"not json\n", "garbage": b"garbage\n"},
    (TranscriptParseError, "bad JSON on line 1: Exceeds the limit (4300 digits) for integer "
                           "string conversion: value has 5000 digits; use "
                           "sys.set_int_max_str_digits() to increase the limit"): {
        "int-5000-digits": b"1" * 5000 + b"\n"},
    (TranscriptParseError, "config line is not an object with keys scenario, seed, window, "
                           "dictionary"): {
        "number": b"5\n", "null": b"null\n", "string": b'"text"\n',
        "keys-missing": {"scenario": "honest"}},
    # with bare CRs the file is one line of several JSON values
    (TranscriptParseError, "line 1 does not end in a newline"): {
        "empty": b"", "header-without-newline": canonical(CONFIG).encode(),
        "cr": GOLDEN_BYTES.replace(b"\n", b"\r")},
    (TranscriptParseError, "line 17 does not end in a newline"): {
        "no-final-newline": GOLDEN_BYTES[:-1]},
    # each decodes to the golden config: spaces, a duplicate key, an escape
    # that demo never writes, and CRs, which json.loads reads past
    (TranscriptParseError, f"config line 1 must read exactly {HEADER.decode()[:-1]}"): {
        "spaces": b'{"dictionary": null, "scenario": "parallel-session", "seed": 42, '
                  b'"window": 5}\n' + b"".join(GOLDEN_LINES[1:]),
        "duplicate-key": b'{"seed":1,"scenario":"parallel-session","seed":42,"window":5,'
                         b'"dictionary":null}\n' + b"".join(GOLDEN_LINES[1:]),
        "escaped-dash": b'{"dictionary":null,"scenario":"parallel\\u002dsession","seed":42,'
                        b'"window":5}\n' + b"".join(GOLDEN_LINES[1:]),
        "crlf": GOLDEN_BYTES.replace(b"\n", b"\r\n")},
    (ValueError, "line 2: not UTF-8 (invalid start byte)"): {
        "not-utf8-line-2": HEADER + b"\xff\xfe\n"},
    (ValueError, "line 4: not UTF-8 (invalid start byte)"): {
        "not-utf8-line-4": b"".join(GOLDEN_LINES[:3]) + b"\xff\n"},
    # a config that cannot run; one that demo's arguments can give too is a
    # row of test_config_refused_alike_by_demo_and_replay
    (ScenarioError, f"unknown scenario 'nonsense', {SCENARIO_LIST}"): {
        "unknown-scenario": {**CONFIG, "scenario": "nonsense"}},
    (ScenarioError, f"unknown scenario ['x'], {SCENARIO_LIST}"): {
        "scenario-list": {**CONFIG, "scenario": ["x"]}},
    (ScenarioError, "seed must be a non-negative integer"): {
        "seed-string": {**CONFIG, "seed": "abc"}, "seed-minus-5": {**CONFIG, "seed": -5}},
    (ScenarioError, "window must be a positive tick count"): {
        "window-true": {**CONFIG, "window": True}},
    # only a header can hold these: unchecked, a list made os.stat raise
    # TypeError, and 1 or true made it stat fd 1
    (ScenarioError, "dictionary must be a path string or null"): {
        "dictionary-5": {**CONFIG, "dictionary": 5},
        **{f"dictionary-{name}": {**CONFIG, "scenario": "offline-guess", "dictionary": value}
           for name, value in [("1", 1), ("true", True), ("list", ["a"])]}},
    # a dictionary-free scenario would record the path and ignore it
    **{(ScenarioError, f"scenario {scenario!r} takes no dictionary"): {
        f"{scenario}-dictionary": {**CONFIG, "scenario": scenario, "dictionary": DICT_PATH}}
       for scenario in ("insider-change", "parallel-session")},
}
# seq: the transcripts whose first line to differ from the run's is that
# event's, by id; a malformed line differs, and so does a line one side lacks
MISMATCHES = {
    0: {"event0-number": HEADER + b"7\n",
        "event0-cr": b"".join([HEADER, GOLDEN_LINES[1][:-1], b"\r\n", *GOLDEN_LINES[2:]])},
    # event 1 as an object that is not an event, or with one bad field
    1: {f"event1-{name}": b"".join([*GOLDEN_LINES[:2], f"{canonical(obj)}\n".encode(),
                                    *GOLDEN_LINES[3:]])
        for name, obj in [
            ("list", []), ("number", 3), ("string", "seq"),
            ("missing-key", {k: v for k, v in EVENT1.items() if k != "time"}),
            ("extra-key", {**EVENT1, "extra": 1}),
            *((f"{field}-{name}", {**EVENT1, field: value}) for field, name, value in [
                ("seq", "true", True), ("seq", "float", 1.0), ("seq", "0", 0), ("seq", "2", 2),
                ("time", "string", "x"), ("time", "float", 1.0), ("actor", "number", 7),
                ("actor", "eve", "eve"), ("actor", "list", []), ("kind", "null", None),
                ("kind", "object", {}), ("payload", "number", 3), ("payload", "list", []),
                ("payload", "null", None)])]},
    15: {"last-line-missing": b"".join(GOLDEN_LINES[:-1])},
    16: {"extra-blank-line": GOLDEN_BYTES + b"\n"},
}
REFUSALS = [  # (id, transcript, exception class, stdout, stderr)
    *((name, data, cls, "", f"error: {error}\n")
      for (cls, error), rows in ERRORS.items() for name, data in rows.items()),
    *((name, data, ReplayMismatch, f"mismatch at seq {seq}\n", "")
      for seq, rows in MISMATCHES.items() for name, data in rows.items()),
]


@pytest.mark.parametrize("transcript, cls, stdout, stderr", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_replay_refusal(transcript, cls, stdout, stderr, tmp_path, capsys):
    # the command's exact output, and the exact class of replay_transcript's error
    path = _transcript(tmp_path, transcript)
    assert main(["replay", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == (stdout, stderr)
    with pytest.raises(Exception) as info:
        replay_transcript(path)
    assert type(info.value) is cls
    if cls is ReplayMismatch:
        assert stdout == f"{info.value}\n"


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


# a directory name that, printed as itself, would write an escape sequence
# and a forged second line to the terminal
FORGED = "w\x1b[31mred\nforged line"


@pytest.mark.parametrize("name, data, stdout, detail", [
    ("named.txt", b"hunter2-secret\nx\nhunter2-secret\n", "", "entry 3 repeats entry 1"),
    ("named.txt", b"hunter2-secret" + b"z" * 64 + b"\n", "",
     "entry 1: password longer than 64 characters"),
    ("named.txt", b"hunter2-secret\n\nx\n", "", "entry 2: password must not be empty"),
    ("named.txt", b"hunter2-secret\r\n", "", "line 1: carriage return"),
    ("named.txt", b"hunter2-secret\n\xff\n", "", "line 2: not UTF-8 (invalid start byte)"),
    ("named.txt", b"", "", "wordlist must not be empty"),
    (f"{FORGED}/x\x1b[0m\nblank.txt", b"hunter2-secret\n\nx\n", "",
     "entry 2: password must not be empty"),
    ("named.txt", b"hunter2-secret\nx\n", "mismatch at seq 0\n", ""),
], ids=["repeat", "overlong", "blank-line", "cr", "not-utf8", "empty", "forged-name", "valid"])
def test_replay_never_echoes_a_named_file(name, data, stdout, detail, tmp_path, capsys):
    # a transcript is untrusted, and its header names a file that replay reads:
    # a malformed one is reported by its quoted path and numbers, a valid one only runs
    named = tmp_path / name
    named.parent.mkdir(exist_ok=True)
    named.write_bytes(data)
    transcript = _transcript(tmp_path, {**CONFIG, "scenario": "offline-guess",
                                        "dictionary": str(named)})
    error = detail and f"error: malformed dictionary {str(named)!r}: {detail}\n"
    assert main(["replay", str(transcript)]) == 1
    out, err = capsys.readouterr()
    assert "hunter2" not in out + err
    assert (out, err) == (stdout, error)
    if detail:  # demo refuses the same file as its --dictionary alike; a valid one runs
        assert main(["demo", "offline-guess", "--dictionary", str(named)]) == 1
        assert capsys.readouterr() == ("", error)


# the entry points that read a path, each with what it puts before the
# refusal; a header's dictionary is read once its transcript is
READERS = [(["replay", "{path}"], ""),
           (["demo", "offline-guess", "--dictionary", "{path}"], "cannot read dictionary: "),
           (["replay", "{transcript}"], "cannot read dictionary: ")]
LIMIT = 4096  # test_path_refusal's input limit; {tmp}/big and {tmp}/size-0 are a byte over
# (id, path, refusal text, whether the path is opened)
PATH_REFUSALS = [
    ("missing", "{tmp}/missing", "[Errno 2] No such file or directory: {path!r}", False),
    ("empty", "", "[Errno 2] No such file or directory: ''", False),
    # these two cannot name a file at all
    ("nul", "a\x00b", "unusable path 'a\\x00b'", False),
    ("surrogate", "\ud800", "unusable path '\\ud800'", False),
    # refused before they are opened: a device may never end, a FIFO block
    ("dev-null", "/dev/null", "not a regular file: '/dev/null'", False),
    ("directory", "{tmp}", "not a regular file: {path!r}", False),
    ("forged-directory", "{tmp}/" + FORGED, "not a regular file: {path!r}", False),
    # the size comes from the stat that read_text takes anyway
    ("over-the-limit", "{tmp}/big",
     f"{{path!r}} is {LIMIT + 1} bytes, over the {LIMIT}-byte limit for an input file", False),
    # a regular file may report size 0 and hold far more, as /proc/self/pagemap
    # does; the read itself is bounded
    ("past-size-0", "{tmp}/size-0",
     f"{{path!r}} is over the {LIMIT}-byte limit for an input file", True),
]


@pytest.mark.parametrize("path, text, opens", [row[1:] for row in PATH_REFUSALS],
                         ids=[row[0] for row in PATH_REFUSALS])
def test_path_refusal(path, text, opens, tmp_path, monkeypatch, capsys):
    # one line on stderr through every entry point, and nothing opened but
    # the transcript that names the path
    (tmp_path / FORGED).mkdir()
    for name in ("big", "size-0"):
        (tmp_path / name).write_bytes(b"x" * (LIMIT + 1))
    monkeypatch.setattr(adversary, "MAX_INPUT_BYTES", LIMIT)
    monkeypatch.setattr(os, "stat", _stat_with_size(tmp_path / "size-0", 0))
    path = path.format(tmp=tmp_path)
    transcript = str(_transcript(tmp_path, {**CONFIG, "scenario": "offline-guess",
                                            "dictionary": path}))
    opened = _record_opens(monkeypatch)
    for argv, prefix in READERS:
        argv = [arg.format(path=path, transcript=transcript) for arg in argv]
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        error = f"error: {prefix}{text.format(path=path)}\n"
        assert (out, err) == ("", error), argv
        assert opened == [transcript] * (transcript in argv) + [path] * opens, argv
        opened.clear()


@pytest.mark.parametrize("size", [len(GOLDEN_BYTES), 0], ids=["size", "size-0"])
def test_file_of_the_limit_is_read(size, monkeypatch, capsys):
    # the control of test_path_refusal's size rows: the golden file at exactly
    # the limit, whether its stat reports its size or 0
    monkeypatch.setattr(adversary, "MAX_INPUT_BYTES", len(GOLDEN_BYTES))
    monkeypatch.setattr(os, "stat", _stat_with_size(GOLDEN, size))
    assert main(["replay", str(GOLDEN)]) == 0
    assert capsys.readouterr() == ("verified (16 events)\n", "")


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


def test_command_with_nothing_for_stderr_never_writes_it(monkeypatch, capsys):
    # so a stderr that cannot be written fails only what has something to say
    monkeypatch.setattr(sys, "stderr", FullStdout())
    assert main(["replay", str(GOLDEN)]) == 0


class FullDevice(io.RawIOBase):
    def writable(self):
        return True

    def write(self, data):
        raise OSError(28, "No space left on device")


def test_stderr_that_fails_only_when_flushed_is_status_one(monkeypatch, capsys):
    # a stderr that is not line-buffered holds the text until main flushes it
    stderr = io.TextIOWrapper(FullDevice(), encoding="utf-8", line_buffering=False)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["demo", "honest"]) == 1


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
                 (1, b"", b"error: not a regular file: '{tmp}/t.fifo'\n"), id="fifo"),
    pytest.param(["demo", "offline-guess", "--dictionary", "{tmp}/t.fifo"], PIPE, PIPE,
                 (1, b"", b"error: cannot read dictionary: not a regular file: '{tmp}/t.fifo'\n"),
                 id="dictionary-fifo"),
    pytest.param(["replay", "{tmp}/fifo.jsonl"], PIPE, PIPE,
                 (1, b"", b"error: cannot read dictionary: not a regular file: '{tmp}/t.fifo'\n"),
                 id="header-dictionary-fifo"),
    # a process's stdout is buffered, so a full device fails only at a flush;
    # one left to the interpreter's exit would print a warning and exit 120
    pytest.param(["--help"], FULL, PIPE, (1, None, ENOSPC), id="help-full", marks=needs_full),
    pytest.param(["demo", "honest"], NULL, FULL, (1, None, None),
                 id="demo-stderr-full", marks=needs_full),
    # with fd 1 closed, sys.stdout is None: output that has nowhere to go is
    # an error
    *(pytest.param(argv, CLOSED, PIPE, (1, None, b"error: no standard output\n"),
                   id=f"{argv[0]}-closed")
      for argv in (["demo", "honest"], ["replay", str(GOLDEN)])),
    pytest.param(["demo", "parallel-session", "--seed", "42"], PIPE, PIPE,
                 (0, GOLDEN.read_bytes(),
                  b"scenario parallel-session seed=42 window=5 events=16\nattack-succeeded\n"),
                 id="golden"),
    # an extra line is a mismatch at the seq it would have, not a crash
    pytest.param(["replay", "{tmp}/extra.jsonl"], PIPE, PIPE,
                 (1, b"mismatch at seq 16\n", b""), id="golden-extra-line"),
])
def test_child_process(argv, stdout, stderr, expected, tmp_path):
    os.mkfifo(tmp_path / "t.fifo")  # for the three fifo rows
    fifo_header = {**CONFIG, "scenario": "offline-guess", "dictionary": str(tmp_path / "t.fifo")}
    (tmp_path / "fifo.jsonl").write_bytes(f"{canonical(fifo_header)}\n".encode())
    (tmp_path / "extra.jsonl").write_bytes(GOLDEN.read_bytes() + b"\n")
    status, out, err = expected
    err = err and err.replace(b"{tmp}", bytes(tmp_path))
    assert _child([arg.format(tmp=tmp_path) for arg in argv], stdout, stderr) == (status, out, err)


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
        0, f"not a regular file: '{tmp_path}/t.fifo'\nclosed\n".encode(), b"")


class TestUsage:
    # pins the subparsers' `required=True`, demo's `choices` and every help, metavar
    # and description keyword, keyword arguments that no operator edits
    def test_no_arguments_is_usage_error(self, capsys):
        # an unknown command, option, scenario or format, as `vectors`,
        # `demo --out` or `demo nonsense`, is argparse's usage error
        usage = "usage: cardauthsim [-h] {demo,replay} ..."
        demo = "usage: cardauthsim demo [-h] [--seed SEED] [--window WINDOW]"
        for argv, first, error in (
                ([], usage, "the following arguments are required: command"),
                (["vectors"], usage, "invalid choice: 'vectors'"),
                (["demo", "honest", "--out", "x"], usage, "unrecognized arguments: --out x"),
                (["demo", "honest", "--format", "xml"], demo, "invalid choice: 'xml'"),
                (["demo", "nonsense"], demo, "invalid choice: 'nonsense'")):
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert (out, err.split("\n")[0]) == ("", first), argv
            assert error in err, argv

    def test_help_exits_zero(self, monkeypatch, capsys):
        # each parser's whole help at 80 columns, every `%(default)s` rendered
        monkeypatch.setenv("COLUMNS", "80")
        for argv, pin in (
                (["--help"], "63c654eadeb387adf485c303d428abf3b7c0734307bafce8895e94ed25d92374"),
                (["demo", "--help"],
                 "60e6c7f86d50bc05e568aa05c4e372d265164110747a0deec59b7d5a5efd31e2"),
                (["replay", "--help"],
                 "c0af6f617ac2fbc4d215de35999727775298d79e1b9954466a362c726bc4e426")):
            assert main(argv) == 0, argv
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pin, argv

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
    # pins an import set, which no operator edits
    def test_cli_import_leaves_out_unneeded_stdlib_modules(self):
        # every `cardauthsim` process pays its imports; these three cost
        # milliseconds and nothing in the program needs them
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import cardauthsim.cli; "
                  "print(sorted({'dataclasses', 'inspect', 'string'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-S", "-c", script, SRC],
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"
