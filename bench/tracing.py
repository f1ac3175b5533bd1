"""Tracing for the benchmark's traced run.

The tracer wraps public names of the five `cardauthsim` modules where
callers look them up. Modules bind functions with `from ... import`, so a
function is rebound in every module namespace that holds it, and a
method is rebound on its class. `close()` undoes every rebinding.

Spanned calls record `[name, start, end, parent, op]` in memory, where
`parent` is the index of the enclosing span (-1 at the top) and `op` the
benchmark operation that caused it. The block primitives run millions of
times per run, so they are only counted; the first arguments each one
sees are kept so `time_samples` can time the bare function on them.
"""

import gc
import statistics
import time
from collections import Counter, defaultdict

import cardauthsim
from cardauthsim import adversary, blocks, cli, harness, scheme

MODULES = (cardauthsim, blocks, scheme, adversary, harness, cli)

# Counted block primitives, grouped as the per-layer metrics report them.
COUNTED = {
    "xor": ("xor",),
    "digest": ("digest",),
    "encode": ("encode_identity", "encode_password", "encode_timestamp",
               "encode_registered_identity"),
}
ARG_SAMPLES = 256


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = {group: [] for group in COUNTED}
        self.op = -1
        self._stack: list[int] = []
        self._in_guess = 0
        self._undo: list[tuple] = []

    def install(self, count_blocks: bool) -> "Tracer":
        """Wrap the spanned names and, with `count_blocks`, count the block
        primitives too. Counting costs a wrapper call per primitive, so
        the run counts in a pass of its own and times without it."""
        if count_blocks:
            for group, names in COUNTED.items():
                for name in names:
                    original = getattr(blocks, name)
                    self._rebind(original, self._counted(group, name, original))
        self._rebind(scheme.enroll, self._spanned("scheme.enroll", scheme.enroll))
        self._rebind(scheme.verify_mutual_auth,
                     self._spanned("scheme.verify_mutual_auth", scheme.verify_mutual_auth))
        self._rewrap(scheme.SmartCard, "login", "scheme.login")
        self._rewrap(scheme.SmartCard, "change_password", "scheme.change_password")
        self._rewrap(scheme.AuthServer, "verify_login", "scheme.verify_login")
        self._rebind(adversary.offline_guess,
                     self._spanned("adversary.offline_guess", adversary.offline_guess,
                                   guess=True))
        self._rewrap(adversary.Wordlist, "load", "adversary.wordlist_load")
        self._rebind(harness.run_scenario, self._spanned(
            "harness.run_scenario", harness.run_scenario,
            after=lambda args, result: self._add("harness.events", len(result.events))))
        # Transcripts are ASCII (`json.dumps` escapes the rest), so
        # characters are bytes.
        self._rewrap(harness.Transcript, "to_jsonl", "harness.to_jsonl",
                     after=lambda args, result: self._add("harness.transcript_bytes",
                                                          len(result)))
        self._rewrap(harness.Transcript, "from_jsonl", "harness.from_jsonl",
                     after=lambda args, result: self._add("harness.transcript_bytes",
                                                          len(args[1])))
        self._rebind(harness.replay_transcript,
                     self._spanned("harness.replay_transcript", harness.replay_transcript))
        self._rebind(cli.main, self._spanned("cli.main", cli.main))
        return self

    def close(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _rebind(self, original, wrapper) -> None:
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)

    def _rewrap(self, cls, attr: str, span: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._spanned(span, raw.__func__, after))
        else:
            wrapped = self._spanned(span, raw, after)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _counted(self, group: str, name: str, fn):
        counts, samples = self.counts, self.samples[group]
        key, guess_key = "blocks." + group, f"blocks.{name}.in_guess"

        def wrapper(*args):
            counts[key] += 1
            if self._in_guess:
                counts[guess_key] += 1
            if len(samples) < ARG_SAMPLES:
                samples.append((fn, args))
            return fn(*args)
        return wrapper

    def _spanned(self, name: str, fn, after=None, guess: bool = False):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            counts[name] += 1
            if guess:
                self._in_guess += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
                if guess:
                    self._in_guess -= 1
            if after is not None:
                after(args, result)
            return result
        return wrapper


def span_totals(spans: list[list]) -> dict[str, list]:
    """Per span name: [calls, inclusive seconds, self seconds]. Self time
    is a span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for index, (name, start, end, parent, op) in enumerate(spans):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[index]
    return totals


def time_samples(samples: list, repeats: int = 15) -> float:
    """Median microseconds per call of the bare functions on the kept
    arguments; 0 when the primitive was never called. Like `timeit`, it
    keeps the garbage collector off, so the spans held in memory do not
    slow it."""
    if not samples:
        return 0.0
    per_call = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            for fn, args in samples:
                fn(*args)
            per_call.append((time.perf_counter() - start) / len(samples))
    finally:
        gc.enable()
    return statistics.median(per_call) * 1e6
