"""Golden stdout of ``threebox exact`` and ``threebox scenario``: sha256 of every byte printed.

The ``exact`` hashes were recorded from the enumerating tree reports (a ``Branch``
tree per request, the whole report through ``json.dumps(indent=2)``).  The
requests are the benchmark's 16 exact-deep ops (depths 2-8, complete and
partial suit checks alternating with face checks, prepared Q, K kept at the
last event, ``--json``) and the depth-6 Suit/Face tree as text and CSV.

The scenario hashes were recorded while the Monte Carlo claims still counted
the frequency table by hand-written loops and the closed forms were chosen
by formula name.  Every scenario is asked in text, ``--json`` and ``--csv``,
at the defaults (100k trials, seed 42), with ``--trials 0`` (no Monte Carlo)
and with ``--trials 1 --seed 17`` (Monte Carlo claims without samples, so
some scenarios fail and exit 1).
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


# "<scenario> <options> <format>": (exit code, sha256 of stdout)
GOLDEN_SCENARIOS = {
    "aad defaults text": (0, "a7f246b2f23cf0b3f43adbb10fae2ce821d20dd5c62037ba46a0fdcfb38bcdf5"),
    "aad defaults json": (0, "c3d77599966d168c105aaacf987839f23368a0c3ce996458f051dd8b43074169"),
    "aad defaults csv": (0, "ee5ddcec6645f418bccf0fbb75ae209156b4cd9565d841281a5b7add2b7ace53"),
    "aad trials-0 text": (0, "a7f246b2f23cf0b3f43adbb10fae2ce821d20dd5c62037ba46a0fdcfb38bcdf5"),
    "aad trials-0 json": (0, "c3d77599966d168c105aaacf987839f23368a0c3ce996458f051dd8b43074169"),
    "aad trials-0 csv": (0, "ee5ddcec6645f418bccf0fbb75ae209156b4cd9565d841281a5b7add2b7ace53"),
    "aad trials-1-seed-17 text": (0, "a7f246b2f23cf0b3f43adbb10fae2ce821d20dd5c62037ba46a0fdcfb38bcdf5"),
    "aad trials-1-seed-17 json": (0, "c3d77599966d168c105aaacf987839f23368a0c3ce996458f051dd8b43074169"),
    "aad trials-1-seed-17 csv": (0, "ee5ddcec6645f418bccf0fbb75ae209156b4cd9565d841281a5b7add2b7ace53"),
    "counterfactual defaults text": (0, "755ea0d35eff3358a943f5eacb77c58faa6118006283a5326a4dc8928bca296c"),
    "counterfactual defaults json": (0, "46312e6fc3c7909d7fa4bc360a2693cb39d252920c1f4d5cc65da8d4ecf6b782"),
    "counterfactual defaults csv": (0, "89005e0b27e65bc8d4c7d783978b47afc6fe001b69541988d2203e6a5a574c5a"),
    "counterfactual trials-0 text": (0, "38ba71064bed67a2f8631599b1ca317ce61f4bf5c6dfe635f8d52304715e3ebd"),
    "counterfactual trials-0 json": (0, "803d21e8187e59f86c2015f0abd6a5f5d0b1eb29b20e209e8c813eb54882a4dd"),
    "counterfactual trials-0 csv": (0, "144b15a78b4cac91f91977878d908ceba2f6a423ed29d1ad4d4cd6909e4dbefe"),
    "counterfactual trials-1-seed-17 text": (0, "5fff31690e10b436713d38e26affcacb1f2f5bdac715ce17e3cfe325f1a2fd96"),
    "counterfactual trials-1-seed-17 json": (0, "44ef67471f6b9aacd6c3d6e23649abb64716a6c13e262cca7c615863efab4d41"),
    "counterfactual trials-1-seed-17 csv": (0, "d62013b373ceac1209936bceb5e0f27e8c0859701251ea1097b2fe340de4e523"),
    "interference defaults text": (0, "e5fbdd026bf3880292b95f9c764501f67cf0be2cc41513e3114f55b01ff4da0c"),
    "interference defaults json": (0, "1d56e40d3e66bb06ae82c7823d6a9076fd5921c931bd13a2eb7d99e58bc08531"),
    "interference defaults csv": (0, "bc5424ba0a5e7e76ef241bcc53390551184623498f9e1a7af23ed7f1e8d74223"),
    "interference trials-0 text": (0, "fb53d86a4d9612c3fc08762327f6d0cfd8e82d051b7b262591c768cc92af2090"),
    "interference trials-0 json": (0, "c62d2b6a93326ba3e18b4211a8b23ab609376d98ab38f7937be00778c40f5b4b"),
    "interference trials-0 csv": (0, "466d48d17364152bc7aebfad61461131b050a32cc14e73e89049977d6b3dcee2"),
    "interference trials-1-seed-17 text": (1, "59556b06c0efbca642cd9953dddbcfaf8cf5fad47853daac78e9f554d9a388ed"),
    "interference trials-1-seed-17 json": (1, "9f571f653092ac810d44c53723be4692eed90ed17eca3724bd18429f6d9dbcb4"),
    "interference trials-1-seed-17 csv": (1, "1c5ef0bde7a5704b0be020bd577cd736f9351daf76dd815c641ae15ee3f42e14"),
    "three-box-card defaults text": (0, "8802634f81cda43812ea6a0107d78a091291675f5f77cd70564fc0f17e9dfcc6"),
    "three-box-card defaults json": (0, "cc17b88f30acdb4e2831917bce21f148c346ac2a850623951a69425bea527604"),
    "three-box-card defaults csv": (0, "bb389f96e95f80b7f0a98025cf7f70b8675147edb59be5b0fe34e76818f2702f"),
    "three-box-card trials-0 text": (0, "b3f207e64edb2cc18d89e3c4ce992deef14a9df4e0c208bbee71a1e9fc04c019"),
    "three-box-card trials-0 json": (0, "a29d60b4906868fb2a279df76a51704faaf16d9a84b9fe434be3306dfab104e8"),
    "three-box-card trials-0 csv": (0, "06b8773e6ed4e029bcdeb47cd63a63ddd529caa76bd5002a42eeaf20acb5916e"),
    "three-box-card trials-1-seed-17 text": (1, "a7fec1336e042ead2978eeec31d33b833cdd18a7aee996f9a11df5448cff69fa"),
    "three-box-card trials-1-seed-17 json": (1, "3696e95466c8fe7e1d5a6a29b822960101a02c3d086593b19bc106087ce02ea1"),
    "three-box-card trials-1-seed-17 csv": (1, "fcea590450057f99649905a463846c4fbfe50f7fb8d327719efaf1161d733b31"),
    "three-box-quantum defaults text": (0, "6b6a8b2b9da2730abd65036a9510a42520a1489d5636b9741b1cb887504d9419"),
    "three-box-quantum defaults json": (0, "e205dd7d86f7524379a73011ef4f11aaf3d773c9d3c0f1c875f997c2dd354dab"),
    "three-box-quantum defaults csv": (0, "8158869e0a79e3a1889a51ba2e4bf6c2cd30808aa505bba2974bd95351812c77"),
    "three-box-quantum trials-0 text": (0, "6b6a8b2b9da2730abd65036a9510a42520a1489d5636b9741b1cb887504d9419"),
    "three-box-quantum trials-0 json": (0, "e205dd7d86f7524379a73011ef4f11aaf3d773c9d3c0f1c875f997c2dd354dab"),
    "three-box-quantum trials-0 csv": (0, "8158869e0a79e3a1889a51ba2e4bf6c2cd30808aa505bba2974bd95351812c77"),
    "three-box-quantum trials-1-seed-17 text": (0, "6b6a8b2b9da2730abd65036a9510a42520a1489d5636b9741b1cb887504d9419"),
    "three-box-quantum trials-1-seed-17 json": (0, "e205dd7d86f7524379a73011ef4f11aaf3d773c9d3c0f1c875f997c2dd354dab"),
    "three-box-quantum trials-1-seed-17 csv": (0, "8158869e0a79e3a1889a51ba2e4bf6c2cd30808aa505bba2974bd95351812c77"),
}

SCENARIO_OPTIONS = {"defaults": [], "trials-0": ["--trials", "0"], "trials-1-seed-17": ["--trials", "1", "--seed", "17"]}
SCENARIO_FORMATS = {"text": [], "json": ["--json"], "csv": ["--csv"]}


@pytest.mark.parametrize("key", sorted(GOLDEN_SCENARIOS))
def test_scenario_stdout_is_byte_identical(capsys, key):
    name, options, fmt = key.split()
    code, digest = GOLDEN_SCENARIOS[key]
    assert cli.main(["scenario", name, *SCENARIO_OPTIONS[options], *SCENARIO_FORMATS[fmt]]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
