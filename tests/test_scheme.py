"""Honest-party behaviour beside the reference model of test_model.py: the
frozen known-answer chain and the first tick of the clock. The wire form of a
message is the harness's, pinned in test_harness.py.

What the parties refuse is pinned by one of three refusal tables, each row
by its exact class and whole text: test_refusals.py::test_library_refusal
holds the values passed to the API (a login, a reply),
test_cli.py::test_replay_refusal the transcripts and
test_cli.py::test_path_refusal the paths.

The known-answer chain below was computed with hashlib and a local XOR
helper (never the package's own operations) before the implementation
existed, then frozen.
"""

from cardauthsim.scheme import password_digest, proof

from parties import IDENT, PASSWORD, SALT, enrolled

# Frozen oracle values for the chain of parties.py with counter 0, login tick
# 10, server tick 11.
KAT = {
    "password_digest": "42697b93517140264af1cb39d64297bdcf127e7a4a231c55adf61f0d457b8332",
    "verifier": "733cc4b7b02432878056a59b8d69ad6fcdf6352ce87dd415e0897578b8cb76f7",
    "masked_verifier": "3155bf24e15572a1caa76ea25b2b3ad202e44b56a25ec8404d7f6a75fdb0f5c5",
    "login_authenticator": "065f405730c103c63655f3b96db3ca5c1615ed8336b06c8fa51b4647de3d48bc",
    "response_authenticator": "62703140f087cdc230fae8ad4a4de72d36264d1057693f87a875edadc08b4f49",
}


class TestKnownAnswers:
    """End-to-end chain against the frozen oracle values."""

    def test_full_chain_matches_frozen_oracle(self):
        server, card = enrolled()
        request, session = card.login(IDENT, PASSWORD, 10)
        response = server.verify_login(request, 11)

        assert password_digest(PASSWORD, SALT).hex() == KAT["password_digest"]
        assert card.verifier.hex() == KAT["verifier"]
        assert card.masked_verifier.hex() == KAT["masked_verifier"]
        assert request.authenticator.hex() == KAT["login_authenticator"]
        assert response.authenticator.hex() == KAT["response_authenticator"]
        # the login proof and the reply are one rule over two clocks
        assert proof(card.verifier, 10) == request.authenticator
        assert proof(card.verifier, 11) == response.authenticator


def test_tick_zero_is_a_valid_clock():
    # a login stamped at tick 0 and received at server tick 0 is fresh: pins the
    # lower clock edges of _fresh and verify_login, which no operator moves
    server, card = enrolled()
    response = server.verify_login(card.login(IDENT, PASSWORD, 0)[0], 0)
    assert response.timestamp == 0
