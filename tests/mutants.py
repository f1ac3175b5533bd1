"""Mutation runner: the suite must fail under every mutant of `src`.

Run `python tests/mutants.py`; it takes no options. The mutants are the 4 hand
rows of HAND and those that generate() makes by ten operators, listed in its
docstring, with stdlib `ast` over every module of src. A generated mutant on
EQUIVALENT, which no test can tell from the program, is not run. A generated
mutant is keyed and logged by its file, function, operator and source text;
where mutants of one function share all four, each source text becomes its
line with the mutated span in brackets, and where those lines are shared too,
that line numbered "(1)", "(2)".

Every run is JUDGE in a temporary copy of the tree, with hypothesis shrinking
and its database off, and without tests/test_model.py, whose derandomized draws
can move with a hypothesis release. A traced control run (TRACER) maps each line
of src to the tests that execute it, in process or in a child process. A mutant
runs the tests that execute one of its lines, and those that reach no traced
line: a test that never reaches a mutated line runs as in the control, so it
should not fail. The whole of JUDGE runs instead when a mutated line runs outside
any test (at import or collection), when a selected run exits 4 or 5 because a
mutant broke the collection of a selected test, and when a selected run exits 0:
hypothesis draws from the literals of every module it sees, so a mutant can move
the draws of a test that never reaches it, and a mutant is a survivor only when
the whole of JUDGE passes too. No run stops at a failure, so each mutant is
printed with every killer; a collection error or a timeout kills too. Mutants
are judged in os.cpu_count() threads, each in a copy of its own: 332, 10 of
them equivalent, took 8 min 1 s on a shared 2-vCPU VM with Python 3.11.7.

Exit status 1, before any run, when a hand row's old text is not found exactly
once, a hand row gives the module of a generated mutant (the operator makes it,
so the row is retired), a mutant does not compile (a run would count it killed
by its collection error), or an EQUIVALENT entry does not match exactly one
generated mutant; and after the runs when the control fails or any mutant
survives. SIGTERM ends the runner with status 143 as an exception would: every
pytest under way is killed with its children, and every copy removed.
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
from collections import Counter
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

SCHEME = "src/cardauthsim/scheme.py"
ADVERSARY, HARNESS = "src/cardauthsim/adversary.py", "src/cardauthsim/harness.py"
WINDOW = "        if not _fresh(request.timestamp, received_at - window, received_at):"
PAIRS = 'zip_longest(text[:-1].split("\\n")[1:], fresh[:-1].split("\\n")[1:])'
VERDICT = "changed and not victim_ok and attacker_ok"
HONEST = '"accepted" if accepted else "rejected"'
CHECK = "all(self) and max(map(len, self)) <= MAX_TEXT_LEN and len(set(self)) == len(self)"

# number, what it breaks, file, old text, new text: edits that no operator makes;
# a missing number lost its target or is made, or subsumed, by an operator
HAND = [
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
# keyed by file, enclosing function, operator and the mutated source text, as
# generate() tells it
EQUIVALENT = {
    (HARNESS, "Transcript.to_jsonl", "condition to True", "body is None"):
        "encoding a shared payload again gives the text the cache holds",
    (ADVERSARY, "read_text", "condition to True", "len(data) > info.st_size"):
        "a second read of a file that held no more than its size returns nothing",
    (ADVERSARY, "read_text", "> to >=", "len(data) > info.st_size"):
        "a file of exactly its size leaves nothing for the second read",
    (ADVERSARY, "read_text", "arithmetic + 1", "info.st_size + 1"):
        "a file within the limit is still read whole, and one past it still refused",
    (ADVERSARY, "read_text", "arithmetic + 1", "MAX_INPUT_BYTES - info.st_size"):
        "a second read bounded one byte later still reads past the limit",
    # hijack's verdict keeps all three: it states the scenario's success rule
    (HARNESS, "_Run.hijack", "and without operand 1", VERDICT):
        "a refused change leaves the victim's login accepted",
    (HARNESS, "_Run.hijack", "and without operand 3", VERDICT):
        "an accepted change always lets the attacker's password in, at any window of at least 1",
    # the honest scenario's verdict keeps its branch: it states the outcome rule
    (HARNESS, "_scenario_honest", "if-expression to its body", HONEST):
        "an honest login is accepted at any window of at least 1",
    # the whole-list check only spares a good list the walk, which would accept it
    (ADVERSARY, "Wordlist.__new__", "condition to False", CHECK):
        "every list is walked, and the walk accepts what the check would have",
    (ADVERSARY, "Wordlist.__new__", "<= to <", "max(map(len, self)) <= MAX_TEXT_LEN"):
        "a list with a 64-character entry is walked, and the walk accepts it",
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
    """Every mutant of the module at `path` by ten operators: an `if`, `elif` or
    `while` condition set to `False` and to `True`; a one-line `raise` set to
    `pass`; a bare `flush`, `close` or `os.close` call set to `pass`; a comparison
    of one operator flipped as FLIPS says; `and` swapped with `or`; each operand
    of an `and` or `or` dropped in turn; each end of a chained comparison
    dropped, `a <= b < c` to `b < c` and to `a <= b`; an `int` literal `0` set to
    `1` and `1` to `0`; ` + 1` and ` - 1` appended to each `+` or `-` operation;
    and `a if c else b` set to `a` and to `b`."""
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

    def drop(operands, n):
        """The edit that deletes operand n and the operator joining it to the others."""
        edge, first = (begin, 0) if n == 0 else (end, n - 1)
        return edge(operands[first]), edge(operands[first + 1]), ""

    def code(node, marked=False):
        """The source of `node`, or with `marked` its whole lines with `node` in
        brackets, its runs of whitespace made one space."""
        span = source[begin(node):end(node)]
        if marked:
            span = b"%s[%s]%s" % (source[starts[node.lineno - 1]:begin(node)], span,
                                  source[end(node):starts[node.end_lineno]])
        return " ".join(span.decode().split())

    def mutant(function, operator, node, *edits):
        # built below, once the module's other mutants are known
        return function, operator, node, edits

    def tell_apart(found, codes, retell):
        """`codes`, each that another mutant of its function and operator shares
        replaced by retell(node, code, n), n counting those that share it."""
        keys = [(function, operator, text) for (function, operator, *_), text in zip(found, codes)]
        shared, seen, told = Counter(keys), Counter(), []
        for (*_, node, _), key in zip(found, keys):
            seen[key] += 1
            told.append(retell(node, key[2], seen[key]) if shared[key] > 1 else key[2])
        return told

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
            elif isinstance(child, ast.Compare) and len(child.ops) > 1:
                operands = [child.left, *child.comparators]
                for n, side in ((0, "left"), (len(operands) - 1, "right")):
                    yield mutant(function, f"chain without its {side} end", child,
                                 drop(operands, n))
            elif isinstance(child, ast.BoolOp):
                old, new = ("and", "or") if isinstance(child.op, ast.And) else ("or", "and")
                yield mutant(function, f"{old} to {new}", child,
                             *((*between(a, b, old), new)
                               for a, b in zip(child.values, child.values[1:])))
                for n in range(len(child.values)):
                    yield mutant(function, f"{old} without operand {n + 1}", child,
                                 drop(child.values, n))
            elif (isinstance(child, ast.Constant) and type(child.value) is int
                  and child.value in (0, 1)):
                yield mutant(function, f"{child.value} to {1 - child.value}", child,
                             (begin(child), end(child), str(1 - child.value)))
            elif isinstance(child, ast.BinOp) and isinstance(child.op, (ast.Add, ast.Sub)):
                for sign in "+-":  # the span leaves out parentheses, so the term stays in them
                    yield mutant(function, f"arithmetic {sign} 1", child,
                                 (end(child), end(child), f" {sign} 1"))
            elif isinstance(child, ast.IfExp):
                for part, branch in (("body", child.body), ("else", child.orelse)):
                    kept = source[begin(branch):end(branch)].decode()
                    yield mutant(function, f"if-expression to its {part}", child,
                                 (begin(child), end(child), kept))
            yield from walk(child, function)

    found = list(walk(ast.parse(source), "<module>"))
    # a key of its own for each mutant, as the module docstring says
    codes = [code(node) for *_, node, _ in found]
    codes = tell_apart(found, codes, lambda node, text, n: code(node, marked=True))
    codes = tell_apart(found, codes, lambda node, text, n: f"{text} ({n})")
    mutants = []
    for (function, operator, node, edits), text in zip(found, codes):
        module = bytearray(source)
        for start, stop, new in sorted(edits, reverse=True):
            module[start:stop] = new.encode()
        mutants.append(Mutant(f"{Path(path).name}:{node.lineno}",
                              f"{function}, {operator}: {text}", path,
                              (path, function, operator, text), module.decode(),
                              range(node.lineno, node.end_lineno + 1)))
    return mutants


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
    """The hand rows, then the generated mutants, and the preflight faults: a
    stale hand row or EQUIVALENT entry, a hand row that gives the module of a
    generated mutant, and a mutant that does not compile, which a run would
    count as killed by its collection error."""
    faults, hand = [], []
    for number, what, path, old, new in HAND:
        text = (ROOT / path).read_text(encoding="utf-8")
        if text.count(old) != 1:
            faults.append(f"({number}) old text found {text.count(old)} times in {path}")
        first = text.count("\n", 0, text.find(old)) + 1
        hand.append(Mutant(f"({number})", what, path, None, text.replace(old, new),
                           range(first, first + old.count("\n") + 1)))
    generated = [mutant for path in sorted((ROOT / "src").rglob("*.py"))
                 for mutant in generate(path.relative_to(ROOT).as_posix())]
    for key in EQUIVALENT:
        if (count := sum(mutant.key == key for mutant in generated)) != 1:
            faults.append(f"equivalent {key} matches {count} generated mutants")
    modules = {(mutant.path, mutant.text): mutant for mutant in generated}
    for row in hand:
        if twin := modules.get((row.path, row.text)):
            faults.append(f"{row.name} {row.what} gives the module of {twin.name} {twin.what}")
    for mutant in hand + generated:
        try:
            compile(mutant.text, mutant.path, "exec")
        except SyntaxError as exc:
            faults.append(f"{mutant.name} {mutant.what} does not compile: {exc}")
    return hand + generated, faults


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
                    # 0: a survivor, judged again by all; 4, 5: a chosen id not collected
                    if run is None or run[1] not in (0, 4, 5):
                        return len(chosen), killers(run)
                return "all", killers(pytest(copied, **cache))

        runs = [None if mutant.key in EQUIVALENT else pool.submit(judge, mutant)
                for mutant in todo]
        survivors = []
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
    judged = len(todo) - runs.count(None)
    print(f"{judged - len(survivors)} of {judged} mutants killed, {runs.count(None)} equivalent",
          *survivors)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
