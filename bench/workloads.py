"""The benchmark's three workloads: inputs generated from a seed, the
operations that are timed, and the check of every operation's result.

A workload's operations form a fixed pool of blocks, which a run cycles
through in whole passes. Every block holds the workload's mix in fixed
proportions, so every pass measures the same mix. One pass over the
pool is the fixed window that the determinism fingerprint and the exact
operation counts cover.

Each workload is built in two steps. The constructor makes what the
untimed set-up needs; `prepare()` makes the inputs of the timed loop.
`setup()` is the workload's first operation, which `setup_s` times
together with the import of `cardauthsim`.
"""

import contextlib
import io
import random
import string
from dataclasses import dataclass
from pathlib import Path

from cardauthsim import adversary, blocks, cli, harness, scheme

# The scenario whose final verdict each operation must reach.
EXPECTED_OUTCOME = {
    "honest": "accepted",
    "offline-guess": "attack-succeeded",
    "outsider-change": "attack-succeeded",
    "insider-change": "attack-succeeded",
    "parallel-session": "attack-succeeded",
}
GUESSING = ("offline-guess", "outsider-change")
DICTIONARY_FREE = ("honest", "insider-change", "parallel-session")

# Freshness windows the transcripts are stable for (see `harness`).
WINDOWS = range(2, 11)
SEED_SPACE = 2**31

_WORD_CHARS = string.ascii_letters + string.digits + "!#$%&*+-.?@_~"
# Two-, three- and four-byte UTF-8 characters.
_MULTIBYTE_CHARS = "éüßñøåçжлλπ€™中文字🔑🙂"


@dataclass
class Outcome:
    """What the check of one operation found."""

    ok: bool
    probes: int = 0          # dictionary candidates the operation tested
    output: bytes = b""      # what it produced, when the fingerprint asks
    pure_scan: bool = False  # the whole operation was one dictionary scan


def victim_index(scenario_seed: int, size: int) -> int:
    """Index of the victim's password in a wordlist of `size` entries.

    The harness draws from one generator seeded by the scenario seed, in
    a documented order: master secret, card salt, then the password.
    Checks compare every prediction with the transcript, so a change to
    that order shows as failed operations.
    """
    rng = random.Random(scenario_seed)
    rng.randbytes(blocks.BLOCK_LEN)
    rng.randbytes(blocks.BLOCK_LEN)
    return rng.randrange(size)


def stratified_seeds(rng: random.Random, size: int, count: int) -> list[tuple[int, int]]:
    """`count` (scenario seed, victim index) pairs, one index in each of
    `count` equal strata of the wordlist, in shuffled order.

    Each index is still uniform over the list, but every pool scans the
    same total length up to one stratum, which keeps latency percentiles
    and throughput steady from one seed to the next.
    """
    pairs = []
    for stratum in range(count):
        low, high = stratum * size // count, (stratum + 1) * size // count
        while True:
            seed = rng.randrange(SEED_SPACE)
            index = victim_index(seed, size)
            if low <= index < high:
                pairs.append((seed, index))
                break
    rng.shuffle(pairs)
    return pairs


def make_wordlist(rng: random.Random, count: int) -> list[str]:
    """`count` distinct passwords of 1 to 64 characters; about one in ten
    holds multi-byte UTF-8 characters."""
    words, seen = [], set()
    while len(words) < count:
        roll = rng.random()
        if roll < 0.03:
            length = rng.randint(1, 3)
        elif roll < 0.08:
            length = rng.randint(33, 64)
        else:
            length = rng.randint(4, 16)
        chars = rng.choices(_WORD_CHARS, k=length)
        if rng.random() < 0.1:
            for _ in range(rng.randint(1, min(3, length))):
                chars[rng.randrange(length)] = rng.choice(_MULTIBYTE_CHARS)
        word = "".join(chars)
        if word not in seen and word != harness.ATTACKER_PASSWORD:
            seen.add(word)
            words.append(word)
    return words


class Workload:
    """What the three workloads share: a seeded generator, and the
    checkout and scratch directory, which `portable` takes out of
    outputs so the fingerprint does not depend on where a run happens."""

    name = ""

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.root, self.workdir = root.resolve(), workdir.resolve()
        self.pool: list[list] = []

    def portable(self, text: str) -> bytes:
        return (text.replace(str(self.workdir), "$WORKDIR")
                .replace(str(self.root), "$ROOT").encode())


def guess_note(transcript) -> dict:
    """Payload of the transcript's `offline-guess` state change."""
    for event in transcript.events:
        if event.kind == "state-change" and event.payload.get("action") == "offline-guess":
            return event.payload
    raise ValueError("transcript has no offline-guess note")


class DictionaryScan(Workload):
    """`run_scenario` for `offline-guess` and `outsider-change`,
    alternating, over a generated wordlist; every tenth operation is a
    direct `offline_guess` for a password not in the list."""

    name = "dictionary-scan"
    # One block of 21 operations, which take two to three seconds here. With
    # 19 scenarios, the two misses are the slowest tenth of a pass, and
    # op_p90_ms falls inside the longest scenario's scan rather than on
    # the step up to a miss.
    SCENARIOS = 19

    def __init__(self, seed: int, root: Path, workdir: Path, words: int = 10_000):
        super().__init__(seed, root, workdir)
        self.words = make_wordlist(self.rng, words)
        self.path = self.workdir / "wordlist.txt"
        self.path.write_text("\n".join(self.words) + "\n", encoding="utf-8")
        seen = set(self.words)
        while True:
            self.miss_password = "".join(self.rng.choices(_WORD_CHARS, k=12))
            if self.miss_password not in seen:
                break
        server = scheme.AuthServer(blocks.Block(self.rng.randbytes(blocks.BLOCK_LEN)))
        salt = blocks.Block(self.rng.randbytes(blocks.BLOCK_LEN))
        card = scheme.enroll(server, harness.VICTIM_ID, self.miss_password, salt)
        self.request, _ = card.login(harness.VICTIM_ID, self.miss_password,
                                     self.rng.randrange(1, 2**32))
        self.secrets = adversary.CardSecrets.from_card(card)
        self.wordlist = None

    def setup(self) -> bool:
        self.wordlist = adversary.Wordlist.load(self.path)
        return adversary.offline_guess(self.secrets, self.request, self.wordlist) is None

    def prepare(self) -> None:
        dictionary = str(self.path)
        block = []
        pairs = stratified_seeds(self.rng, len(self.words), self.SCENARIOS)
        for n, (seed, index) in enumerate(pairs):
            config = harness.ScenarioConfig(GUESSING[n % 2], seed, self.rng.choice(WINDOWS),
                                            dictionary)
            block.append(("scenario", config, index))
            if n % 9 == 8:
                block.append(("miss",))
        self.pool = [block]

    def execute(self, op):
        if op[0] == "miss":
            return adversary.offline_guess(self.secrets, self.request, self.wordlist)
        return harness.run_scenario(op[1])

    def check(self, op, result, want_output: bool) -> Outcome:
        if op[0] == "miss":
            return Outcome(result is None, len(self.words), b"miss\n" if want_output else b"",
                           pure_scan=True)
        _, config, index = op
        note = guess_note(result)
        ok = (result.outcome() == EXPECTED_OUTCOME[config.scenario]
              and note["result"] == "found" and note["password"] == self.words[index]
              and note["probes"] == index + 1)
        output = self.portable(result.to_jsonl()) if want_output else b""
        return Outcome(ok, note["probes"], output)


class SessionMix(Workload):
    """In-process `cardauthsim demo` for the dictionary-free scenarios in
    equal thirds, one operation in four rendered with `--format human`."""

    name = "session-mix"
    POOL_BLOCKS = 10

    def __init__(self, seed: int, root: Path, workdir: Path, words: int = 0):
        super().__init__(seed, root, workdir)
        self.first = self._argv("parallel-session", "json", seed, 5)

    @staticmethod
    def _argv(scenario, fmt, seed, window):
        return ("demo", scenario, "--seed", str(seed), "--window", str(window),
                "--format", fmt)

    def setup(self) -> bool:
        return self.check(self.first, self.execute(self.first), False).ok

    def prepare(self) -> None:
        for _ in range(self.POOL_BLOCKS):
            block = [self._argv(scenario, fmt, self.rng.randrange(SEED_SPACE),
                                self.rng.choice(WINDOWS))
                     for scenario in DICTIONARY_FREE
                     for fmt in ("human", "json", "json", "json")]
            self.rng.shuffle(block)
            self.pool.append(block)

    def execute(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, argv, result, want_output: bool) -> Outcome:
        code, out, err = result
        ok = code == 0 and err.rstrip("\n").rsplit("\n", 1)[-1] == EXPECTED_OUTCOME[argv[1]]
        return Outcome(ok, 0, self.portable(out + err) if want_output else b"")


class ReplayAudit(Workload):
    """`replay_transcript` over transcripts recorded before timing starts,
    twenty per scenario, plus the checked-in golden transcript."""

    name = "replay-audit"
    PER_SCENARIO = 20

    def __init__(self, seed: int, root: Path, workdir: Path, words: int = 0):
        super().__init__(seed, root, workdir)
        self.dictionary = self.root / "data" / "dictionary.txt"
        golden = self.root / "golden" / "parallel_session_seed42.jsonl"
        text = golden.read_text(encoding="utf-8")
        self.golden = (golden, text.count("\n") - 1, 0, text)

    def setup(self) -> bool:
        return self.check(self.golden, self.execute(self.golden), False).ok

    def prepare(self) -> None:
        size = len(self.dictionary.read_text(encoding="utf-8").splitlines())
        configs = []
        guesses = stratified_seeds(self.rng, size, self.PER_SCENARIO * len(GUESSING))
        for n, (seed, _) in enumerate(guesses):
            configs.append((GUESSING[n % 2], seed, str(self.dictionary)))
        for scenario in DICTIONARY_FREE:
            configs.extend((scenario, self.rng.randrange(SEED_SPACE), None)
                           for _ in range(self.PER_SCENARIO))
        block = [self.golden]
        for n, (scenario, seed, dictionary) in enumerate(configs):
            transcript = harness.run_scenario(harness.ScenarioConfig(
                scenario, seed, self.rng.choice(WINDOWS), dictionary))
            if transcript.outcome() != EXPECTED_OUTCOME[scenario]:
                raise RuntimeError(f"recording {scenario} seed {seed} gave {transcript.outcome()}")
            probes = guess_note(transcript)["probes"] if dictionary else 0
            path = self.workdir / f"transcript-{n:03d}.jsonl"
            text = transcript.to_jsonl()
            path.write_text(text, encoding="utf-8")
            block.append((path, len(transcript.events), probes, text))
        self.rng.shuffle(block)
        self.pool = [block]

    def execute(self, item):
        return harness.replay_transcript(item[0])

    def check(self, item, verified, want_output: bool) -> Outcome:
        _, events, probes, text = item
        output = self.portable(f"{text}verified {verified}\n") if want_output else b""
        return Outcome(verified == events, probes, output)


WORKLOADS = {cls.name: cls for cls in (DictionaryScan, SessionMix, ReplayAudit)}
