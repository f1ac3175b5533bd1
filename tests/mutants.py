"""Mutation runner: the suite must fail under every mutant of `src`.

Run `python tests/mutants.py`; it takes no options. The mutants are the 12 hand
rows of HAND and those that generate() makes with stdlib `ast` over every module
of src. A generated mutant that gives the module of a hand row runs once, under
the row's number; one on EQUIVALENT, which no test can tell from the program, is
not run.

Every run is JUDGE in a temporary copy of the tree, with hypothesis shrinking
and its database off, and without tests/test_model.py, whose derandomized draws
can move with a hypothesis release. A traced control run (TRACER) maps each line
of src to the tests that execute it, in process or in a child process. A mutant
runs the tests that execute one of its lines, and those that reach no traced
line: a test that never reaches a mutated line runs as in the control, so it
cannot fail. The whole of JUDGE runs instead when a mutated line runs outside
any test (at import or collection), or when a selected run exits 4 or 5 because
a mutant broke the collection of a selected test. No run stops at a failure, so
each mutant is printed with every killer, and the last lines list the tests
whose every kill keeps three other killers; a collection error kills but is no
test's kill, and a timeout kills too. Mutants are judged in os.cpu_count()
threads, each in a copy of its own: 224 took 3 minutes on a shared 2-vCPU VM.

Exit status 1, before any run, when a hand row's old text is not found exactly
once or an EQUIVALENT entry does not match exactly one generated mutant; and
after the runs when the control fails or any mutant survives. SIGTERM ends the
runner with status 143 as an exception would: every pytest under way is killed
with its children, and every copy removed.
"""

import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, suppress
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "data", "golden", "pyproject.toml")
JUDGE = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--tb=no", "--assert=plain", "--ignore=tests/test_model.py", "--hypothesis-seed=0")
TIMEOUT_S = 300
CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", database=None,
                          phases=[p for p in Phase if p != Phase.shrink])
settings.load_profile("mutants")
"""
# The control run's src/sitecustomize.py, imported by its pytest process and by
# each process that a test starts. Each writes trace-PID.json at exit: the lines
# of src that each test executed, by pytest's PYTEST_CURRENT_TEST, which child
# processes inherit; "" stands for a run outside any test's own calls.
TRACER = """\
import atexit, json, os, sys

ROOT = os.path.dirname(os.path.dirname(__file__))
SRC, covered = os.path.join(ROOT, "src", ""), {}


def call(frame, event, arg):  # 2 is CO_NEWLOCALS: a module or class body runs in no test
    code = frame.f_code
    if not code.co_filename.startswith(SRC):
        return None
    test = os.environ.get("PYTEST_CURRENT_TEST", "").rpartition(" ")[0] if code.co_flags & 2 else ""
    add = covered.setdefault((code.co_filename, test), set()).add

    def line(frame, event, arg):
        add(frame.f_lineno)
        return line
    return line


@atexit.register
def write():
    with open(os.path.join(ROOT, f"trace-{os.getpid()}.json"), "w", encoding="utf-8") as out:
        json.dump([(os.path.relpath(path, ROOT), test, sorted(lines))
                   for (path, test), lines in covered.items()], out)


sys.settrace(call)
"""

SCHEME, BLOCKS = "src/cardauthsim/scheme.py", "src/cardauthsim/blocks.py"
ADVERSARY, HARNESS = "src/cardauthsim/adversary.py", "src/cardauthsim/harness.py"
CLI = "src/cardauthsim/cli.py"
FRESH = "    return earliest <= stamp <= latest and 0 <= stamp < TIMESTAMP_LIMIT"
WINDOW = "        if not _fresh(request.timestamp, received_at - window, received_at):"
REPLY = "    if not _fresh(response.timestamp, session.sent_at, session.sent_at + window):"
PAIRS = 'zip_longest(text[:-1].split("\\n")[1:], fresh[:-1].split("\\n")[1:])'

# number, what it breaks, file, old text, new text: edits that no operator makes;
# a missing number lost its target or gave the module of a generated mutant
HAND = [
    (1, "_fresh without its clock range", SCHEME, FRESH, FRESH.split(" and")[0]),
    (2, "_fresh without its lower edge", SCHEME, FRESH, FRESH.replace("earliest <= ", "")),
    (4, "verify_login window from tick 0", SCHEME, WINDOW,
     WINDOW.replace("received_at - window", "0")),
    (5, "mutual-auth window one tick wider", SCHEME, REPLY, REPLY.replace("window", "window + 1")),
    (7, "re-registration keeps the counter", SCHEME,
     "            self.accounts[identity] += 1", "            self.accounts[identity] += 0"),
    (9, "a negative seed allowed", HARNESS,
     "        if type(seed) is not int or seed < 0:", "        if type(seed) is not int:"),
    (11, "encode_timestamp without its upper bound", BLOCKS,
     "    if not 0 <= ticks < TIMESTAMP_LIMIT:", "    if not 0 <= ticks:"),
    (12, "identities admit a space", BLOCKS,
     '    if not (identity.isascii() and identity.isprintable() and " " not in identity):',
     "    if not (identity.isascii() and identity.isprintable()):"),
    (13, "the domain-separated reply of TestNegativeControl", SCHEME,
     "        return ServerResponse(proof(verifier, received_at), received_at)",
     "        return ServerResponse(proof(digest(verifier), received_at), received_at)"),
    (14, "remask checks the verifier against itself", SCHEME,
     "        candidate = xor(self.masked_verifier, old_digest)",
     "        candidate = self.verifier"),
    (15, "verify_login uses DEFAULT_WINDOW for its window", SCHEME, WINDOW,
     WINDOW.replace("- window", "- DEFAULT_WINDOW")),
    (17, "zip for zip_longest in from_jsonl", HARNESS, PAIRS, PAIRS.replace("zip_longest", "zip")),
]

# generated mutants that behave as the program does wherever a test can reach,
# keyed by file, enclosing function, operator and the mutated source text
EQUIVALENT = {
    (HARNESS, "Transcript.to_jsonl", "condition to True", "body is None"):
        "encoding a shared payload again gives the text the cache holds",
    (ADVERSARY, "read_text", "condition to True", "len(data) > info.st_size"):
        "a second read of a file that held no more than its size returns nothing",
    (ADVERSARY, "read_text", "> to >=", "len(data) > info.st_size"):
        "a file of exactly its size leaves nothing for the second read",
    (CLI, "<module>", "condition to False", '__name__ == "__main__"'):
        "only `python -m cardauthsim.cli` runs it; the console script and the tests call main",
}

FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.In: ("in", "not in"),
         ast.NotIn: ("not in", "in"), ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is")}


class Mutant(NamedTuple):
    name: str  # "(n)" for a hand row, "file:line" for a generated mutant
    what: str
    path: str
    key: Optional[tuple]  # EQUIVALENT's key of a generated mutant
    text: str  # the whole mutated module
    lines: range  # the lines of the module's source that the edit touches


def generate(path: str) -> list[Mutant]:
    """Every mutant of the module at `path` by five operators: an `if`, `elif` or
    `while` condition set to `False` and to `True`; a one-line `raise` set to
    `pass`; a bare `flush`, `close` or `os.close` call set to `pass`; a comparison
    of one operator flipped as FLIPS says; and `and` swapped with `or`."""
    source = (ROOT / path).read_bytes()  # ast offsets count UTF-8 bytes
    starts = list(accumulate(map(len, source.splitlines(keepends=True)), initial=0))

    def begin(node):
        return starts[node.lineno - 1] + node.col_offset

    def end(node):
        return starts[node.end_lineno - 1] + node.end_col_offset

    def between(left, right, token):
        """The span of operator `token` between two operands."""
        pattern = r"\s+".join(map(re.escape, token.split()))
        found = re.search(pattern.encode(), source[end(left):begin(right)])
        return end(left) + found.start(), end(left) + found.end()

    def mutant(function, operator, node, *edits):
        text = bytearray(source)
        for start, stop, new in sorted(edits, reverse=True):
            text[start:stop] = new.encode()
        code = " ".join(source[begin(node):end(node)].decode().split())
        return Mutant(f"{Path(path).name}:{node.lineno}", f"{function}, {operator}: {code}",
                      path, (path, function, operator, code), text.decode(),
                      range(node.lineno, node.end_lineno + 1))

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, child.name if function == "<module>"
                                else f"{function}.{child.name}")
                continue
            if isinstance(child, (ast.If, ast.While)):
                for value in ("False", "True"):
                    yield mutant(function, f"condition to {value}", child.test,
                                 (begin(child.test), end(child.test), value))
            elif isinstance(child, ast.Raise) and child.lineno == child.end_lineno:
                yield mutant(function, "raise to pass", child, (begin(child), end(child), "pass"))
            elif (isinstance(child, ast.Expr) and isinstance(child.value, ast.Call)
                  and isinstance(child.value.func, ast.Attribute)
                  and child.value.func.attr in ("flush", "close")):
                yield mutant(function, "call to pass", child, (begin(child), end(child), "pass"))
            elif (isinstance(child, ast.Compare) and len(child.ops) == 1
                  and type(child.ops[0]) in FLIPS):
                old, new = FLIPS[type(child.ops[0])]
                yield mutant(function, f"{old} to {new}", child,
                             (*between(child.left, child.comparators[0], old), new))
            elif isinstance(child, ast.BoolOp):
                old, new = ("and", "or") if isinstance(child.op, ast.And) else ("or", "and")
                yield mutant(function, f"{old} to {new}", child,
                             *((*between(a, b, old), new)
                               for a, b in zip(child.values, child.values[1:])))
            yield from walk(child, function)

    return list(walk(ast.parse(source), "<module>"))


RUNNING, LOCK = set(), threading.Lock()  # every pytest started; None once stopped


def pytest(work, *args, **env):
    """(stdout, exit status) of JUDGE on `args` in the copy `work`, or None on
    a timeout; in a process group of its own, so that a kill ends its children."""
    with LOCK:
        if RUNNING is None:
            raise SystemExit("stopped")
        run = subprocess.Popen(  # pyproject.toml puts the copy's src first on the path
            [sys.executable, *JUDGE, f"--basetemp={work / 'tmp'}", *args], cwd=work,
            env={**os.environ, **env}, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True)
        RUNNING.add(run)
    with run:
        try:
            return run.communicate(timeout=TIMEOUT_S)[0], run.returncode
        except subprocess.TimeoutExpired:
            return None
        finally:
            kill(run)


def kill(run):
    if run.poll() is None:
        with suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)


def stop():
    """End every pytest under way, and start no more."""
    global RUNNING
    with LOCK:
        for run in RUNNING:
            kill(run)
        RUNNING = None


def killers(run):
    """The ids that failed in `run`, or None when it timed out."""
    if run is None:
        return None
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in run[0].splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed or ([] if run[1] == 0 else [f"pytest exit status {run[1]}"])


def mutants():
    """The hand rows, then each generated mutant that differs from all before
    it, and the preflight faults: stale hand rows and EQUIVALENT entries."""
    faults, found = [], {}
    for number, what, path, old, new in HAND:
        text = (ROOT / path).read_text(encoding="utf-8")
        if text.count(old) != 1:
            faults.append(f"({number}) old text found {text.count(old)} times in {path}")
        first = text.count("\n", 0, text.find(old)) + 1
        found[path, text.replace(old, new)] = Mutant(
            f"({number})", what, path, None, text.replace(old, new),
            range(first, first + old.count("\n") + 1))
    generated = [mutant for path in sorted((ROOT / "src").rglob("*.py"))
                 for mutant in generate(path.relative_to(ROOT).as_posix())]
    for key in EQUIVALENT:
        if (count := sum(mutant.key == key for mutant in generated)) != 1:
            faults.append(f"equivalent {key} matches {count} generated mutants")
    for mutant in generated:
        found.setdefault((mutant.path, mutant.text), mutant)
    return list(found.values()), faults


def copy(work):
    """`work`, holding a copy of the tree to run JUDGE in."""
    shutil.copytree(ROOT, work, dirs_exist_ok=True, ignore=lambda folder, names: [
        name for name in names
        if name == "__pycache__" or folder == str(ROOT) and name not in COPIED])
    (work / "conftest.py").write_text(CONFTEST, encoding="utf-8")
    return work


def main():
    sys.stdout.reconfigure(line_buffering=True)  # progress shows as it comes
    # the default action would end the process at once, leaving the copies behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    todo, faults = mutants()
    if faults:
        print(*faults, sep="\n")
        return 1
    with ExitStack() as stack:  # on any exit: stop the runs, then remove the copies
        work = copy(Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="mutant-"))))
        pool = ThreadPoolExecutor(os.cpu_count() or 1)
        stack.callback(pool.shutdown, cancel_futures=True)
        stack.callback(stop)
        (work / "src" / "sitecustomize.py").write_text(TRACER, encoding="utf-8")
        control = pytest(work, "-rA", PYTHONPATH=str(work / "src"))
        print("control (no mutation):", "passes" if control and control[1] == 0
              else f"FAILS {killers(control) or 'by a timeout'}")
        if not (control and control[1] == 0):
            return 1
        ids, covers = [line[7:] for line in control[0].splitlines() if line[:7] == "PASSED "], {}
        for trace in map(json.loads, map(Path.read_text, work.glob("trace-*.json"))):
            for path, test, lines in trace:
                for line in lines:
                    covers.setdefault(f"{path}:{line}", set()).add(test)
        # a test that reaches no traced line, as one whose child runs python -S, always runs
        always = set(ids).difference(*covers.values())

        # what hypothesis derives once, as its charmap, cached for every run
        cache = {"HYPOTHESIS_STORAGE_DIRECTORY": str(work / ".hypothesis")}

        def judge(mutant):
            """How many ids ran ("all" for the whole of JUDGE), and those that fail
            (None for a timeout), in a copy of the tree with `mutant` in place."""
            tests = {test for line in mutant.lines
                     for test in covers.get(f"{mutant.path}:{line}", ())}
            with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
                copied = copy(Path(tmp))
                (copied / mutant.path).write_text(mutant.text, encoding="utf-8")
                if "" not in tests:  # else a mutated line runs outside any test's own calls
                    chosen = [test for test in ids if test in tests | always]
                    run = pytest(copied, *chosen, **cache)
                    if run is None or run[1] not in (4, 5):  # 4, 5: a chosen id not collected
                        return len(chosen), killers(run)
                return "all", killers(pytest(copied, **cache))

        runs = [None if mutant.key in EQUIVALENT else pool.submit(judge, mutant)
                for mutant in todo]
        survivors, kills = [], []
        for mutant, run in zip(todo, runs):
            if run is None:
                print(f"{mutant.name} {mutant.what}: equivalent, {EQUIVALENT[mutant.key]}")
                continue
            ran, failed = run.result()
            print(f"{mutant.name} {mutant.what} [{ran} ids]:",
                  f"killed by a timeout after {TIMEOUT_S} s" if failed is None
                  else f"killed by {', '.join(failed)}" if failed else "SURVIVES")
            if failed == []:
                survivors.append(mutant.name)
            elif failed:  # a collection error or an exit status names no id
                kills.append({test for test in failed if "::" in test})
    judged = len(todo) - runs.count(None)
    print(f"{judged - len(survivors)} of {judged} mutants killed, {runs.count(None)} equivalent",
          *survivors)
    print("ids whose every kill keeps three other killers:")
    for test in ids:
        if all(len(killed) > 3 for killed in kills if test in killed):
            print(f"  {test}: {sum(test in killed for killed in kills)} kills")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
