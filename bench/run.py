"""Benchmark for cardauthsim: runs one workload, closed loop, one client.

    python3 bench/run.py --workload replay-audit --seed 1 --seconds 30 --trace 0

With `--trace 0` the run measures the end-to-end metrics untraced, with
the set-up probes spread over its time. With `--trace 1` it runs half
its time untraced, one counting pass and half its time with the spans
of `tracing.py`, and reports the per-layer metrics. Every operation's
result is checked. The output is a one-line JSON report
(environment, fingerprint, sample counts, every metric) and, as the last
line, the result: {"correct", "attempted", "failed", "metrics"}.
`--out DIR` also writes the report, and in a traced run every span, to
DIR. See bench/README.md for the workloads and what each metric means.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import ssl
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import scale, time_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# workloads.py imports cardauthsim, so its names are repeated here for the
# argument parser, which runs before that import.
WORKLOAD_NAMES = ("dictionary-scan", "session-mix", "replay-audit")

# Set-up probes per untraced run, spread evenly over its time, so their
# median does not hang on the load of one moment.
SETUP_PROBES = 21
PROBE_TIMEOUT_S = 60
# Every operation of the pool runs at least this often in a timed loop.
MIN_PASSES = 3
# Enough executions that op_p90_ms has at least ten beyond it.
MIN_OPS = 100
# The reference runs once this long has passed, when an operation
# returns, and at the end of every pass (see Stretch).
REFERENCE_EVERY_S = 0.1
REFERENCE_REPEATS = 3
# op_p99_ms is reported only with at least ten executions beyond it.
P99_MIN_EXECUTIONS = 1000

SCHEME_PHASES = ("enroll", "login", "verify_login", "verify_mutual_auth", "change_password")
# Per-layer times of a layer that one of BENCHMARK.json's workloads never
# calls: there they read 0 on every run, which is no measurement, so they
# go to the report only.
REPORT_ONLY_LAYER = frozenset({
    "scheme.change_password.us_per_call", "adversary.offline_guess.us_per_probe",
    "adversary.offline_guess.self_frac", "adversary.wordlist_load.ms_per_call",
    "harness.to_jsonl.us_per_call", "harness.from_jsonl.us_per_call",
    "harness.replay_transcript.self_us_per_call", "cli.main.self_us_per_call",
})


@dataclass
class Phase:
    """What one timed loop measured. `latencies` are wall-clock times;
    `scaled` are the same at the reference speed (see reference.py)."""

    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)
    passes: int = 0
    failed: int = 0
    probes: int = 0
    busy_s: float = 0.0
    scan_probes: int = 0
    scan_s: float = 0.0
    fingerprint: str = ""

    @property
    def ops_per_s(self) -> float:
        return len(self.scaled) / sum(self.scaled)


class Stretch:
    """The operations of a timed loop since the reference last ran. The
    reference runs before the first and after every stretch, and each
    stretch is scaled by the reference times just before and after it."""

    def __init__(self, phase: Phase):
        self.phase = phase
        self.before = self._reference()
        self.start, self.scan_s = 0, 0.0
        self.due = time.perf_counter() + REFERENCE_EVERY_S

    def _reference(self) -> list[float]:
        samples = time_reference(REFERENCE_REPEATS)
        self.phase.reference.extend(samples)
        return samples

    def scale(self) -> None:
        """Close the stretch, if it holds any operation, and start the next."""
        phase = self.phase
        if len(phase.latencies) == self.start:
            return
        after = self._reference()
        factor = scale(self.before + after)
        phase.scaled.extend(latency * factor for latency in phase.latencies[self.start:])
        phase.scan_s += self.scan_s * factor
        self.before, self.start, self.scan_s = after, len(phase.latencies), 0.0
        self.due = time.perf_counter() + REFERENCE_EVERY_S


def measure(workload, seconds: float, min_passes: int = MIN_PASSES, min_ops: int = MIN_OPS,
            tracer=None, between_passes=None) -> Phase:
    """Cycle through the workload's pool until `seconds` have passed and
    at least `min_passes` passes and `min_ops` operations ran. Only the
    operation itself is timed; its check, the reference and
    `between_passes(elapsed)` run outside the timing. The first pass
    feeds the fingerprint."""
    phase = Phase()
    fingerprint = hashlib.sha256()
    start_s = time.perf_counter()
    deadline = start_s + seconds
    stretch = Stretch(phase)
    while True:
        first_pass = phase.passes == 0
        for block in workload.pool:
            for op in block:
                if tracer is not None:
                    tracer.op = len(phase.latencies)
                start = time.perf_counter()
                try:
                    result = workload.execute(op)
                    error = None
                except Exception as exc:  # counted as a failed operation
                    error = exc
                latency = time.perf_counter() - start
                phase.latencies.append(latency)
                phase.busy_s += latency
                if error is None:
                    try:
                        outcome = workload.check(op, result, first_pass and tracer is None)
                    except Exception as exc:  # a malformed result is a wrong one
                        error = exc
                if error is not None or not outcome.ok:
                    if phase.failed < 5:
                        detail = repr(error) if error else f"wrong result for {op!r}"
                        print(f"operation {len(phase.latencies) - 1} failed: {detail}",
                              file=sys.stderr)
                    phase.failed += 1
                else:
                    phase.probes += outcome.probes
                    if outcome.pure_scan:
                        phase.scan_probes += outcome.probes
                        stretch.scan_s += latency
                    if first_pass:
                        fingerprint.update(len(outcome.output).to_bytes(8, "big"))
                        fingerprint.update(outcome.output)
                if time.perf_counter() >= stretch.due:
                    stretch.scale()
        stretch.scale()
        phase.passes += 1
        if between_passes is not None:
            between_passes(time.perf_counter() - start_s)
            stretch.due = time.perf_counter() + REFERENCE_EVERY_S
        if (phase.passes >= min_passes and len(phase.latencies) >= min_ops
                and time.perf_counter() >= deadline):
            break
    phase.fingerprint = fingerprint.hexdigest()
    return phase


class SetupProbes:
    """Fresh-interpreter set-ups (import plus the first operation), due
    at even intervals over a run of `seconds`. Each is scaled to the
    reference speed by the reference times of its own interpreter."""

    def __init__(self, args, workdir: Path, seconds: float):
        self.args, self.workdir, self.interval = args, workdir, seconds / SETUP_PROBES
        self.scaled: list[float] = []
        self.wall: list[float] = []

    def probe(self) -> None:
        args = self.args
        command = [sys.executable, str(BENCH / "probe.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--workdir", str(self.workdir),
                   "--words", str(args.words)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        probe = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
        wall = probe["import_s"] + probe["first_op_s"]
        self.wall.append(wall)
        self.scaled.append(wall * scale(probe["reference_s"]))

    def catch_up(self, elapsed_s: float) -> None:
        """Run the probes due by `elapsed_s` into the run."""
        due = min(SETUP_PROBES, int(elapsed_s / self.interval))
        while len(self.wall) < due:
            self.probe()

    def finish(self) -> None:
        while len(self.wall) < SETUP_PROBES:
            self.probe()


def percentiles_ms(latencies) -> tuple[float, float]:
    latencies_ms = [latency * 1e3 for latency in latencies]
    return (statistics.median(latencies_ms),
            statistics.quantiles(latencies_ms, n=10, method="inclusive")[8])


def end_to_end(phase: Phase, setup: SetupProbes) -> dict:
    """Every execution, at the reference speed."""
    p50, p90 = percentiles_ms(phase.scaled)
    return {
        "setup_s": (statistics.median(setup.scaled), "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def extra_metrics(phase: Phase, setup: SetupProbes | None) -> dict:
    """Report-only metrics: those some workloads lack, so BENCHMARK.json
    cannot list them, the reference's own time, and the wall-clock
    figures."""
    wall_p50, wall_p90 = percentiles_ms(phase.latencies)
    metrics = {
        "failed_frac": (phase.failed / len(phase.latencies), "fraction"),
        "reference_ms": (statistics.median(phase.reference) * 1e3, "ms"),
        "wall_ops_per_s": (len(phase.latencies) / phase.busy_s, "1/s"),
        "wall_op_p50_ms": (wall_p50, "ms"),
        "wall_op_p90_ms": (wall_p90, "ms"),
    }
    if setup is not None:
        metrics["wall_setup_s"] = (statistics.median(setup.wall), "s")
    if len(phase.scaled) >= P99_MIN_EXECUTIONS:
        scaled_ms = [latency * 1e3 for latency in phase.scaled]
        metrics["op_p99_ms"] = (
            statistics.quantiles(scaled_ms, n=100, method="inclusive")[98], "ms")
    if phase.scan_s:
        metrics["guess_probes_per_s"] = (phase.scan_probes / phase.scan_s, "1/s")
    return metrics


def per_layer(plain: Phase, counted: Phase, counter, traced: Phase, tracer) -> dict:
    """Per-layer metrics: exact counts from the counting pass, one pass
    over the pool; times from the spans of the traced phase."""
    from tracing import COUNTED, span_totals, time_samples

    window, ops, probes = counter.counts, len(counted.latencies), counted.probes
    totals = span_totals(tracer.spans)
    traced_ops = len(traced.latencies)

    def per_call(name: str, scale: float) -> float:
        calls, inclusive, _ = totals.get(name, (0, 0.0, 0.0))
        return inclusive / calls * scale if calls else 0.0

    def self_us_per_call(name: str) -> float:
        calls, _, own = totals.get(name, (0, 0.0, 0.0))
        return own / calls * 1e6 if calls else 0.0

    def per_probe(count: int) -> float:
        return count / probes if probes else 0.0

    metrics = {}
    for group in COUNTED:
        metrics[f"blocks.{group}.calls_per_op"] = (window["blocks." + group] / ops, "count")
        metrics[f"blocks.{group}.us_per_call"] = (time_samples(counter.samples[group]), "us")
    for phase_name in SCHEME_PHASES:
        name = "scheme." + phase_name
        metrics[name + ".calls_per_op"] = (window[name] / ops, "count")
        metrics[name + ".us_per_call"] = (per_call(name, 1e6), "us")
    metrics["scheme.verify_login.rejects_per_op"] = (
        window["scheme.verify_login.raised"] / ops, "count")

    _, guess_inclusive, guess_self = totals.get("adversary.offline_guess",
                                                          (0, 0.0, 0.0))
    # The scan's one encode_timestamp of the request's clock is per scan,
    # not per probe, so it is left out.
    hashes = sum(window[f"blocks.{name}.in_guess"]
                 for name in ("digest", *COUNTED["encode"]) if name != "encode_timestamp")
    metrics.update({
        "adversary.offline_guess.us_per_probe": (
            guess_inclusive / traced.probes * 1e6 if traced.probes else 0.0, "us"),
        "adversary.offline_guess.self_frac": (guess_self / traced.busy_s, "fraction"),
        "adversary.probes_per_op": (probes / ops, "count"),
        "adversary.hashes_per_probe": (per_probe(hashes), "count"),
        "adversary.xors_per_probe": (per_probe(window["blocks.xor.in_guess"]), "count"),
        "adversary.wordlist_load.ms_per_call": (per_call("adversary.wordlist_load", 1e3), "ms"),
        "harness.run_scenario.self_us_per_op": (
            totals.get("harness.run_scenario", (0, 0.0, 0.0))[2] / traced_ops * 1e6, "us"),
        "harness.to_jsonl.us_per_call": (per_call("harness.to_jsonl", 1e6), "us"),
        "harness.from_jsonl.us_per_call": (per_call("harness.from_jsonl", 1e6), "us"),
        "harness.replay_transcript.self_us_per_call": (
            self_us_per_call("harness.replay_transcript"), "us"),
        "harness.events_per_op": (window["harness.events"] / ops, "count"),
        "harness.transcript_bytes_per_op": (window["harness.transcript_bytes"] / ops, "B"),
        "cli.main.calls_per_op": (window["cli.main"] / ops, "count"),
        "cli.main.self_us_per_call": (self_us_per_call("cli.main"), "us"),
        "trace.overhead_frac": (plain.ops_per_s / traced.ops_per_s - 1, "fraction"),
    })
    return metrics


def environment(load_start) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "openssl": ssl.OPENSSL_VERSION,
            "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start, "loadavg_end": list(os.getloadavg())}


def run(args, workdir: Path) -> tuple[dict, dict, list]:
    """Measure one workload; returns (report, result, spans)."""
    load_start = list(os.getloadavg())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT, workdir, args.words)
    if not workload.setup():
        raise RuntimeError("the workload's first operation gave a wrong result")
    workload.prepare()

    spans = []
    if args.trace:
        from tracing import Tracer

        plain = measure(workload, args.seconds / 2)
        counter = Tracer().install(count_blocks=True)
        try:
            counted = measure(workload, 0, min_passes=1, min_ops=0, tracer=counter)
        finally:
            counter.close()
        tracer = Tracer().install(count_blocks=False)
        try:
            traced = measure(workload, args.seconds / 2, tracer=tracer)
        finally:
            tracer.close()
        layers = per_layer(plain, counted, counter, traced, tracer)
        metrics = {name: value for name, value in layers.items()
                   if name not in REPORT_ONLY_LAYER}
        spans = tracer.spans
        phases = (plain, counted, traced)
        setup = None
    else:
        setup = SetupProbes(args, workdir / "probe", args.seconds)
        plain = measure(workload, args.seconds, between_passes=setup.catch_up)
        setup.finish()
        metrics = end_to_end(plain, setup)
        phases = (plain,)

    attempted = sum(len(phase.latencies) for phase in phases)
    failed = sum(phase.failed for phase in phases)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    extra = extra_metrics(plain, setup)
    if args.trace:
        extra.update(layers)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(load_start),
        "fingerprint": plain.fingerprint,
        "samples": {"executions": len(plain.latencies),
                    "operations": sum(map(len, workload.pool)), "passes": plain.passes,
                    "reference_runs": len(plain.reference),
                    "setup_probes": len(setup.wall) if setup else 0},
        "setup_s_samples": setup.scaled if setup else [],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in {**metrics, **extra}.items()},
    }
    if args.trace:
        report["window_counts"] = dict(sorted(counter.counts.items()))
        report["samples"]["traced_executions"] = len(traced.latencies)
    return report, result, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cardauthsim benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--words", type=int, default=10_000,
                        help="dictionary-scan wordlist size (default 10000)")
    parser.add_argument("--out", type=Path, help="also write the report and spans here")
    args = parser.parse_args(argv)

    workdir = BENCH / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        report, result, spans = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
        if spans:
            with open(args.out / "spans.jsonl", "w", encoding="utf-8") as out:
                for name, start, end, parent, op in spans:
                    out.write(json.dumps({"name": name, "start": start, "end": end,
                                          "parent": parent, "op": op}) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
