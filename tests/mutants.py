"""Mutation runner: the suite must fail under every mutant of `src`.

Run `python tests/mutants.py`; it takes no options. The mutants are the 12 hand
rows of HAND and those that stdlib `ast` generates over every module of src by
five operators: an `if`, `elif` or `while` condition set to `False` and to
`True`; a one-line `raise` set to `pass`; a bare `flush`, `close` or `os.close`
call set to `pass`; a comparison of one operator flipped (`<`/`<=`, `>`/`>=`,
`==`/`!=`, `in`/`not in`, `is`/`is not`); and `and` swapped with `or`. A
generated mutant that gives the same module as a hand row runs once, under the
row's number. A mutant on EQUIVALENT, which no test can tell from the program,
is not run.

Each mutant is judged by one command, JUDGE, in a temporary copy of src/,
tests/, data/, golden/ and pyproject.toml, where a conftest.py turns hypothesis
shrinking off. JUDGE leaves out tests/test_model.py, whose derandomized draws can
move with a hypothesis release, so no kill rests on the model. A timeout is a
kill too. 224 mutants took 16 minutes on a shared 2-vCPU VM with Python 3.11.

Exit status 1, before any run, when a hand row's old text is not found exactly
once or an EQUIVALENT entry does not match exactly one generated mutant; and
after the runs when the unmutated copy fails or any mutant survives. SIGTERM
(`kill`, `timeout`) ends the runner with status 143 as an exception would: the
running pytest is killed and the temporary copy removed.
"""

import ast
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "data", "golden", "pyproject.toml")
JUDGE = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--ignore=tests/test_model.py", "--hypothesis-seed=0")
TIMEOUT_S = 300
CONFTEST = ("from hypothesis import Phase, settings\n"
            "settings.register_profile('mutants', phases=[p for p in Phase if p != Phase.shrink])\n"
            "settings.load_profile('mutants')\n")

SCHEME, BLOCKS = "src/cardauthsim/scheme.py", "src/cardauthsim/blocks.py"
ADVERSARY, HARNESS = "src/cardauthsim/adversary.py", "src/cardauthsim/harness.py"
CLI = "src/cardauthsim/cli.py"
FRESH = "    return earliest <= stamp <= latest and 0 <= stamp < TIMESTAMP_LIMIT"
WINDOW = "        if not _fresh(request.timestamp, received_at - window, received_at):"
REPLY = "    if not _fresh(response.timestamp, session.sent_at, session.sent_at + window):"
PAIRS = 'zip_longest(text[:-1].split("\\n")[1:], fresh[:-1].split("\\n")[1:])'

# number, what it breaks, file, old text, new text: edits that no operator
# makes. Number 8, a check of the transcript parser, lost its target when
# replay became a re-run; the other missing numbers gave the same module as a
# generated mutant.
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


def generate(path: str) -> list[Mutant]:
    """Every mutant that the operators make of the module at `path`."""
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
                      path, (path, function, operator, code), text.decode())

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


def judge(mutant=None):
    """The ids of the tests that fail under JUDGE in a copy of the tree with
    `mutant` in place of its module, or None when the run timed out."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT, work, dirs_exist_ok=True, ignore=lambda folder, names: [
            name for name in names
            if name == "__pycache__" or folder == str(ROOT) and name not in COPIED])
        (work / "conftest.py").write_text(CONFTEST, encoding="utf-8")
        if mutant is not None:
            (work / mutant.path).write_text(mutant.text, encoding="utf-8")
        try:  # pyproject.toml puts the copy's src first on the path
            run = subprocess.run([sys.executable, *JUDGE], cwd=work,
                                 capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed or ([] if run.returncode == 0 else [f"pytest exit status {run.returncode}"])


def mutants():
    """The hand rows, then each generated mutant that differs from all before
    it, and the preflight faults: stale hand rows and EQUIVALENT entries."""
    faults, found = [], {}
    for number, what, path, old, new in HAND:
        text = (ROOT / path).read_text(encoding="utf-8")
        if text.count(old) != 1:
            faults.append(f"({number}) old text found {text.count(old)} times in {path}")
        found[path, text.replace(old, new)] = Mutant(f"({number})", what, path, None,
                                                     text.replace(old, new))
    generated = [mutant for path in sorted((ROOT / "src").rglob("*.py"))
                 for mutant in generate(path.relative_to(ROOT).as_posix())]
    for key in EQUIVALENT:
        if (count := sum(mutant.key == key for mutant in generated)) != 1:
            faults.append(f"equivalent {key} matches {count} generated mutants")
    for mutant in generated:
        found.setdefault((mutant.path, mutant.text), mutant)
    return list(found.values()), faults


def main():
    sys.stdout.reconfigure(line_buffering=True)  # progress shows as it comes
    # the default action would end the process at once, leaving the copy behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    todo, faults = mutants()
    if faults:
        print(*faults, sep="\n")
        return 1
    control = judge()
    print("control (no mutation):",
          "passes" if control == [] else f"FAILS {control or 'by a timeout'}")
    if control != []:
        return 1
    survivors, equivalent = [], 0
    for mutant in todo:
        if mutant.key in EQUIVALENT:
            equivalent += 1
            print(f"{mutant.name} {mutant.what}: equivalent, {EQUIVALENT[mutant.key]}")
            continue
        failed = judge(mutant)
        print(f"{mutant.name} {mutant.what}:",
              f"killed by a timeout after {TIMEOUT_S} s" if failed is None
              else f"killed by {failed[0]}" if failed else "SURVIVES")
        if failed == []:
            survivors.append(mutant.name)
    print(f"{len(todo) - equivalent - len(survivors)} of {len(todo) - equivalent} mutants killed, "
          f"{equivalent} equivalent", *survivors)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
