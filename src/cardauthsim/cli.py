"""Command-line front end: run scenarios, replay transcripts, print vectors.

Exit codes: 0 when the honest scenario accepts or an attack scenario
succeeds (this tool exists to demonstrate the attacks, so success is the
expected outcome), 1 on a contrary outcome, I/O failure, malformed
dictionary or malformed transcript, 2 on usage errors.
"""

import argparse
import sys
from pathlib import Path

from .blocks import BLOCK_LEN, GOLDEN_DIGESTS
from .harness import (
    SCENARIOS,
    WORDLIST_SCENARIOS,
    ReplayMismatch,
    ScenarioConfig,
    ScenarioError,
    Transcript,
    TranscriptParseError,
    _dumps,
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
    demo.add_argument("scenario", choices=sorted(SCENARIOS),
                      help="which scenario to run")
    demo.add_argument("--seed", type=int, default=0,
                      help="seed for all scenario randomness (default 0)")
    demo.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                      help=f"freshness window in ticks (default {DEFAULT_WINDOW})")
    demo.add_argument("--dictionary", metavar="PATH",
                      help="password wordlist, required by the guessing scenarios")
    demo.add_argument("--out", metavar="PATH",
                      help="write the transcript here instead of stdout")
    demo.add_argument("--format", choices=("human", "json"), default="json",
                      help="transcript rendering (default json, replayable)")

    replay = sub.add_parser("replay", help="re-run a transcript and verify it matches")
    replay.add_argument("transcript", metavar="FILE")

    sub.add_parser("vectors", help="print the pinned golden digests")
    return parser


def _render_human(transcript: Transcript) -> str:
    lines = []
    for event in transcript.events:
        detail = ", ".join(f"{k}={_dumps(v) if isinstance(v, dict) else v}"
                           for k, v in sorted(event.payload.items()))
        lines.append(f"{event.seq:3d}  t={event.time:<3d} {event.actor:<8s} "
                     f"{event.kind:<12s} {detail}")
    return "\n".join(lines) + "\n"


def _cmd_demo(args) -> int:
    try:
        config = ScenarioConfig(scenario=args.scenario, seed=args.seed,
                                window=args.window, dictionary_path=args.dictionary)
        transcript = run_scenario(config)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rendered = transcript.to_jsonl() if args.format == "json" else _render_human(transcript)
    if args.out:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(rendered)

    outcome = transcript.outcome()
    print(f"scenario {config.scenario} seed={config.seed} window={config.window} "
          f"events={len(transcript.events)}", file=sys.stderr)
    print(outcome, file=sys.stderr)
    return 0 if outcome in PASSING_OUTCOMES else 1


def _cmd_replay(args) -> int:
    try:
        count = replay_transcript(args.transcript)
    except ReplayMismatch as exc:
        print(f"mismatch at seq {exc.seq}")
        return 1
    except (TranscriptParseError, ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"verified ({count} events)")
    return 0


def _cmd_vectors() -> int:
    print(f"block-length {BLOCK_LEN}")
    print("hash sha256")
    for name, hexdigest in sorted(GOLDEN_DIGESTS.items()):
        print(f"{name} {hexdigest}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.command == "demo" and args.scenario in WORDLIST_SCENARIOS
                and not args.dictionary):
            parser.error(f"scenario {args.scenario!r} requires --dictionary")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "replay":
        return _cmd_replay(args)
    return _cmd_vectors()


if __name__ == "__main__":
    sys.exit(main())
