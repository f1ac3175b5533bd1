"""The parties and files that several test modules share: one server secret,
one card salt, one user and password, the checked-in wordlist and golden
transcript, and the canonical JSON of a transcript line. test_acceptance.py
and test_model.py keep their own."""

import json
from pathlib import Path

from cardauthsim.blocks import Block
from cardauthsim.scheme import AuthServer, enroll

MASTER = Block(bytes(range(32)))
SALT = Block(bytes(range(32, 64)))
IDENT = "alice"
PASSWORD = "correct-horse"
DICT_PATH = str(Path(__file__).parent.parent / "data" / "dictionary.txt")
GOLDEN = Path(__file__).parent.parent / "golden" / "parallel_session_seed42.jsonl"


def enrolled(password=PASSWORD):
    """A server, and the card it issues to IDENT for `password`."""
    server = AuthServer(MASTER)
    return server, enroll(server, IDENT, password, SALT)


def canonical(obj):
    """`obj` as a transcript line holds it: sorted keys, no spaces, no newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
