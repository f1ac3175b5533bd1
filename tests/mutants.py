"""Mutation runner: tier-1 must fail under each of 25 one-line edits of `src`.

Run `python tests/mutants.py`; it takes no options. Each edit is made in a temporary
copy of src/, tests/, data/, golden/ and pyproject.toml, where a conftest.py turns
hypothesis shrinking off, and tier-1 runs there under a timeout (a kill too). Exit
status 1 when an old text is not found exactly once, when the unmutated copy fails,
or when only tests/test_model.py fails under an edit: the model's derandomized draws
can move with a hypothesis release, so no kill may rest on it alone.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "data", "golden", "pyproject.toml")
TIMEOUT_S = 300
MODEL = "tests/test_model.py::"
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
# read_text's first check, with its line before it: the fstat check raises the same text
FIRST = ('        if not stat.S_ISREG(info.st_mode):\n'
         '            raise OSError(f"not a regular file: {path}")')
VERDICT = "        return self.attack_verdict(changed and not victim_ok and attacker_ok)"

# number, what it breaks, file, old text, new text; number 8, a check of the
# transcript parser, lost its target when replay became a re-run
MUTATIONS = [
    (1, "_fresh without its clock range", SCHEME, FRESH, FRESH.split(" and")[0]),
    (2, "_fresh without its lower edge", SCHEME, FRESH, FRESH.replace("earliest <= ", "")),
    (3, "remask accepts any old digest", SCHEME,
     '            raise PasswordChangeRejected("old password does not unmask the verifier")',
     "            pass"),
    (4, "verify_login window from tick 0", SCHEME, WINDOW,
     WINDOW.replace("received_at - window", "0")),
    (5, "mutual-auth window one tick wider", SCHEME, REPLY, REPLY.replace("window", "window + 1")),
    (6, "mutual-auth proof check skipped", SCHEME, "    if not hmac.compare_digest("
     "response.authenticator, proof(session.secret, response.timestamp)):", "    if False:"),
    (7, "re-registration keeps the counter", SCHEME,
     "            self.accounts[identity] += 1", "            self.accounts[identity] += 0"),
    (9, "a negative seed allowed", HARNESS,
     "        if type(seed) is not int or seed < 0:", "        if type(seed) is not int:"),
    (10, "wordlist repeats allowed", ADVERSARY,
     "            if word in seen:", "            if False:"),
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
    (16, "the server-clock check removed", SCHEME,
     "        if not 0 <= received_at < TIMESTAMP_LIMIT:", "        if False:"),
    (17, "zip for zip_longest in from_jsonl", HARNESS, PAIRS, PAIRS.replace("zip_longest", "zip")),
    (18, "a dictionary that is not a string allowed", HARNESS,
     '            raise ScenarioError("dictionary must be a path string or null")',
     "            pass"),
    (19, "read_text opens what is not a regular file", ADVERSARY, FIRST,
     FIRST.replace('raise OSError(f"not a regular file: {path}")', "pass")),
    (20, "read_text refuses a file of exactly the size limit", ADVERSARY,
     "        if info.st_size > MAX_INPUT_BYTES:", "        if info.st_size >= MAX_INPUT_BYTES:"),
    (21, "read_text leaves the refused descriptor open", ADVERSARY,
     "            os.close(fd)", "            pass"),
    (22, "main leaves stderr unflushed", CLI,
     "            sys.stderr.flush()", "            pass"),
    (23, "a 64-character password refused", BLOCKS,
     "    if len(password) > MAX_TEXT_LEN:", "    if len(password) >= MAX_TEXT_LEN:"),
    (24, "a hijack that leaves the victim a way in succeeds", HARNESS, VERDICT,
     VERDICT.replace(" and ", " or ")),
    (25, "verify_login looks up an unknown identity", SCHEME,
     "        if request.identity not in self.accounts:", "        if False:"),
    (26, "an unknown insider entry mode accepted", ADVERSARY,
     "    if mode not in INSIDER_MODES:", "    if False:"),
]


def tier1(path=None, old=None, new=None):
    """The ids of the tests that fail in a copy of the tree with `old` replaced
    by `new` in `path`, or None when the run timed out."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT, work, dirs_exist_ok=True, ignore=lambda folder, names: [
            name for name in names
            if name == "__pycache__" or folder == str(ROOT) and name not in COPIED])
        (work / "conftest.py").write_text(CONFTEST, encoding="utf-8")
        if path is not None:
            text = (work / path).read_text(encoding="utf-8")
            (work / path).write_text(text.replace(old, new), encoding="utf-8")
        try:  # pyproject.toml puts the copy's src first on the path
            run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                                  "no:cacheprovider", "--continue-on-collection-errors"],
                                 cwd=work, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed or ([] if run.returncode == 0 else [f"pytest exit status {run.returncode}"])


def main():
    sys.stdout.reconfigure(line_buffering=True)  # progress shows as it comes
    faults = [f"({number}) old text found {found} times in {path}"
              for number, _, path, old, _ in MUTATIONS
              if (found := (ROOT / path).read_text(encoding="utf-8").count(old)) != 1]
    if faults:
        print(*faults, sep="\n")
        return 1
    control = tier1()
    print("control (no mutation):",
          "passes" if control == [] else f"FAILS {control or 'by a timeout'}")
    if control != []:
        return 1
    for number, what, path, old, new in MUTATIONS:
        failed = tier1(path, old, new)
        outside = failed is None or any(not test.startswith(MODEL) for test in failed)
        verdict = (f"killed by a timeout after {TIMEOUT_S} s" if failed is None
                   else f"killed by {len(failed)}" if outside
                   else "killed by the model alone" if failed else "SURVIVES")
        print(f"({number}) {what}: {verdict}", *(f"    {test}" for test in failed or []), sep="\n")
        if not outside:
            faults.append(f"({number})")
    print(f"{len(MUTATIONS) - len(faults)} of {len(MUTATIONS)} mutations killed outside the model",
          *faults)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
