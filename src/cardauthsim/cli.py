"""Command-line front end: argv, the demo and replay commands, and the
standard streams; `harness` writes every byte of a transcript.

Each command, and argparse's help and usage errors, returns its exit
status, stdout text and stderr text, and `main` alone writes them. Exit
codes: 0 when the honest scenario accepts or an attack scenario succeeds
(this tool exists to demonstrate the attacks, so success is the expected
outcome), 1 on a contrary outcome, a config that cannot run, an I/O
failure (output that stdout cannot take, no stdout at all, or stderr text
that cannot be written), or a malformed dictionary or transcript, 2 on
usage errors.
"""

import argparse
import contextlib
import io
import sys

from .harness import (
    SCENARIOS,
    ReplayMismatch,
    ScenarioConfig,
    replay_transcript,
    run_scenario,
)
from .scheme import DEFAULT_WINDOW

PASSING_OUTCOMES = ("accepted", "attack-succeeded")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardauthsim",
        description="Smart-card login scheme simulator and attack demonstrator.")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a canned scenario and emit its transcript")
    demo.set_defaults(run=_cmd_demo)
    demo.add_argument("scenario", choices=sorted(SCENARIOS),
                      help="which scenario to run")
    demo.add_argument("--seed", type=int, default=0,
                      help="seed for all scenario randomness (default 0)")
    demo.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                      help=f"freshness window in ticks (default {DEFAULT_WINDOW})")
    demo.add_argument("--dictionary", metavar="PATH",
                      help="password wordlist, required by the guessing scenarios")
    demo.add_argument("--format", choices=("human", "json"), default="json",
                      help="transcript rendering (default json, replayable)")

    replay = sub.add_parser("replay", help="re-run a transcript and verify it matches")
    replay.add_argument("transcript", metavar="FILE")
    replay.set_defaults(run=_cmd_replay)
    return parser


def _cmd_demo(args) -> tuple[int, str, str]:
    config = ScenarioConfig(scenario=args.scenario, seed=args.seed,
                            window=args.window, dictionary_path=args.dictionary)
    transcript = run_scenario(config)
    rendered = transcript.to_jsonl() if args.format == "json" else transcript.to_human()
    outcome = transcript.outcome()
    summary = (f"scenario {config.scenario} seed={config.seed} window={config.window} "
               f"events={len(transcript.events)}\n{outcome}\n")
    return (0 if outcome in PASSING_OUTCOMES else 1), rendered, summary


def _cmd_replay(args) -> tuple[int, str, str]:
    try:
        count = replay_transcript(args.transcript)
    except ReplayMismatch as exc:
        return 1, f"mismatch at seq {exc.seq}\n", ""
    return 0, f"verified ({count} events)\n", ""


def _run(argv) -> tuple[int, str, str]:
    """Parse `argv` and run its command. argparse writes its help and usage
    errors itself; they are captured and returned like a command's output."""
    parser = build_parser()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    return args.run(args)


def _drop(stream) -> None:
    """Drop what `stream` could not take, or the interpreter's flush at exit fails again."""
    try:
        stream.flush()
    except (OSError, ValueError):
        with contextlib.suppress(OSError):  # close closes even when its flush fails
            stream.close()


def main(argv=None) -> int:
    try:  # each command returns its output; this is the one place that writes it
        status, out, err = _run(argv)
        if out:
            if sys.stdout is None:  # fd 1 was closed when the process started
                raise OSError("no standard output")
            sys.stdout.write(out)
            sys.stdout.flush()
    except (ValueError, OSError) as exc:
        status, err = 1, f"error: {exc}\n"
        if sys.stdout is not None:
            _drop(sys.stdout)
    if err and sys.stderr is not None:
        try:
            try:
                sys.stderr.write(err)
            except UnicodeEncodeError:  # a strict stderr: again, with non-ASCII escaped
                sys.stderr.write(err.encode("ascii", "backslashreplace").decode("ascii"))
            sys.stderr.flush()
        except (OSError, ValueError):  # nothing is left to report to
            _drop(sys.stderr)
            return 1
    return status
