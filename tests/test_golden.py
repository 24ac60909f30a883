"""Golden stdout of ``threebox exact``: sha256 of every byte printed.

The hashes were recorded from the enumerating tree reports (a ``Branch``
tree per request, the whole report through ``json.dumps(indent=2)``).  The
requests are the benchmark's 16 exact-deep ops (depths 2-8, complete and
partial suit checks alternating with face checks, prepared Q, K kept at the
last event, ``--json``) and the depth-6 Suit/Face tree as text and CSV.
"""

import hashlib
from pathlib import Path

import pytest

from threebox import cli

DECK = str(Path(__file__).resolve().parent.parent / "decks" / "threebox.deck")

GOLDEN = {
    "Suit-Face-d2 query": "47fe658447f4b127b1f4554f6eb8ba828376b25967011cb1a2f9544f640ce0fe",
    "Suit-Face-d2 tree": "3b49dd2f8dcbd564569db40a3127f81e13fa3e9ed4877ad9f99029310978c1a4",
    "Suit?S-Face-d2 query": "b4ccdf7e7d697bcb900eca53d707056774bf0f26eb0ca5cd152e34bdb8700afe",
    "Suit?S-Face-d2 tree": "dc6498d5d0ff426a7e744e0bb82b2a91fc2b56041e5d6613b06f57e2fec209fd",
    "Suit-Face-d4 query": "2110f283c397c02d79b792ca0672e504898c39113a1580a8fedb6a57f257f21e",
    "Suit-Face-d4 tree": "de1e98ae286583ce4527ded62d035903dcc8abc6000a65f6156b1ea0f5c1ec09",
    "Suit?S-Face-d4 query": "8bcc108bc62c1ea22a42b7db5a6c96ba8ed3cf118fee3a9b45ef951d2efce0eb",
    "Suit?S-Face-d4 tree": "9e34d7c2cdc816070246d61f69e7f0a7fa04f1695a0ccc6bcc51bc2b35b92fc4",
    "Suit-Face-d6 query": "54b74f93085a09ddaa82c7a1b8870be50dc05b47bfd5e60b76f9d762773869f2",
    "Suit-Face-d6 tree": "019158a0634fd35c574764330cb869aab2ad2f590d40db14661f76d8591bb66d",
    "Suit?S-Face-d6 query": "9ee8b313717b014ceac6f0a48f09b58b3524f25f7f36044b97171ac1929e5cf3",
    "Suit?S-Face-d6 tree": "339ab4f563b4ab25c9346e2918383af02dc846c29617a06baf46a8c7659b8ddb",
    "Suit-Face-d8 query": "67c5ce39cec6fb289718736c50b5812f094d7fce18d044218afabd7a57e8d18b",
    "Suit-Face-d8 tree": "6eae808f43a6fb5cba380b7546f86246f8f4f88f71a3770767f4f4ad7afe858e",
    "Suit?S-Face-d8 query": "a7cf57191f0f258e0743f7aa3d81ca60dc3495f3bd864fdcf91f58efc1bd47d9",
    "Suit?S-Face-d8 tree": "9b797af03f8849e5bb426e17796955bcc0587833fcfcc2317941bb5cd5b540e1",
    "Suit-Face-d6 tree text": "b5e6ef29de3627547c3cc1e7e5778e8e1cc0ba256fd4a569e719e140937419d2",
    "Suit-Face-d6 tree csv": "ae18f8cf50f9975f96f3c6bdb9a161ac52cdfb4f1e4901fe867e8b0fc61d70af",
}


def request(key: str) -> list[str]:
    """The argv of a golden request, from its key: ``<alternation>-d<depth> <kind>[ <format>]``."""
    experiment, kind, *fmt = key.split()
    alternation, depth = experiment.rsplit("-d", 1)
    first, second = alternation.split("-")
    depth = int(depth)
    observe = [arg for i in range(depth) for arg in ("--observe", (first, second)[i % 2])]
    argv = ["exact", "--deck", DECK, "--prepare", "Face=Q", *observe, "--postselect", f"{depth}:Face=K"]
    if kind == "query":
        argv += ["--query", "1:Suit=S"]
    return argv + {(): ["--json"], ("text",): [], ("csv",): ["--csv"]}[tuple(fmt)]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_exact_stdout_is_byte_identical(capsys, key):
    assert cli.main(request(key)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN[key]
