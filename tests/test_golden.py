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


# ``threebox quantum`` requests, each asked in text, ``--json`` and ``--csv``:
# every operation, a custom basis, complex amplitudes, a 4-dim state, three
# slit geometries and complex α/β.  Recorded while the quantum module still
# computed with numpy arrays.
QUANTUM_REQUESTS = {
    "abl-complete": ["abl-complete", "--state", "1,1,1", "--post", "1,1,-1", "--index", "2"],
    "abl-complete-basis": [
        "abl-complete", "--state", "1,2i,-1", "--post", "1-2i,1,0.5", "--index", "0", "--basis", "1,1,0;1,-1,0;0,0,1",
    ],
    "abl-complete-4d": ["abl-complete", "--state", "1,2,-1i,0.5", "--post", "1-2i,1,1,-1", "--index", "3"],
    "abl-partial": ["abl-partial", "--state", "1,1,1", "--post", "1,1,-1", "--index", "2"],
    "abl-partial-basis": [
        "abl-partial", "--state", "1-2i,1,1", "--post", "1,1i,-1", "--index", "1", "--basis", "1,1i,0;1,-1i,0;0,0,1",
    ],
    "abl-partial-4d": ["abl-partial", "--state", "1,2,-1i,0.5", "--post", "1-2i,1,1,-1", "--index", "0"],
    "born": ["born", "--state", "1,1,1", "--post", "1,1,-1"],
    "born-complex": ["born", "--state", "1-2i,2+i", "--post", "1,1i"],
    "condition": ["condition", "--state", "1,1,1", "--post", "1,1,-1"],
    "condition-fails": ["condition", "--state", "1,2i,-1", "--post", "1,1,1"],
    "slits-10-1": ["slits", "--separation", "10", "--wavelength", "1"],
    "slits-3.7-0.21": ["slits", "--separation", "3.7", "--wavelength", "0.21"],
    "slits-1e6-0.5": ["slits", "--separation", "1e6", "--wavelength", "0.5"],
    "aad": ["aad"],
    "aad-complex": ["aad", "--alpha", "0.6+0.48i", "--beta", "0.64"],
    "aad-imaginary": ["aad", "--alpha", "0.6i", "--beta", "0.8"],
}
QUANTUM_FORMATS = {"text": [], "json": ["--json"], "csv": ["--csv"]}

# "<request> <format>": (exit code, sha256 of stdout)
GOLDEN_QUANTUM = {
    "abl-complete text": (0, "7e1afa6b59f3dc3bed99cee62a79a5d04702e9f51fba0ec6353ed78c08ac2801"),
    "abl-complete json": (0, "f8cb303ce3da68e657a9f85394e5b120eeb26a223c88d4646e5e8d4bcb87eb58"),
    "abl-complete csv": (0, "be657512570959313fa304b65bc79c01f2acb77a0fb2b68ce6a62030b3aa8c63"),
    "abl-complete-basis text": (0, "503826b28982b174b5ddfed5c376601f2749d895080d959a56929cdf0f958518"),
    "abl-complete-basis json": (0, "53f005de42cd3874eb411649b8ff4a8b6ddad4259166a184bdd9848c8e3bc614"),
    "abl-complete-basis csv": (0, "32cf668bbdf346d579cd08bc0a9ae13d1a891ba9a4bf073645fd9370dd046391"),
    "abl-complete-4d text": (0, "2cc549b918b667783620deb6d7309509bf03c0557fc069b6ba9361eff50a059c"),
    "abl-complete-4d json": (0, "f13c37421c3a41a6b46bba5d1a314da7868f502a68d0dfb6907cc105949c184d"),
    "abl-complete-4d csv": (0, "6ac3e2b2fd1a9d1d68dc14b2953b1e4d28111219322b0001c3a170102bbb3e50"),
    "abl-partial text": (0, "88930bd051d214a973581b9492a5ca110aea3fdd5dc65a68bc444b6173877bbd"),
    "abl-partial json": (0, "ae0acdba7227b29a3e750f499be9545485778dd6068c23309c6d466a3e0a2e11"),
    "abl-partial csv": (0, "9450c8cb8d3d8922661a42eb1d4accb422eb4a62a9a6f8c05f2a16d2bf097e32"),
    "abl-partial-basis text": (0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    "abl-partial-basis json": (0, "00fa4e56b9154fe5bf3e66e210826387351bd06dbd2a38937dab71d668a83c37"),
    "abl-partial-basis csv": (0, "a01644246de97c659150dd43501676329f132fd21f011a4e04cf7bd6a301003a"),
    "abl-partial-4d text": (0, "d75f4c0e835410635615cc48f4218a763c7c6b5b46621a2038eb0218a362ce46"),
    "abl-partial-4d json": (0, "70b4232057a7789d73185f0dc0b92609017975f177ec0046ba5ddf9df1c8bb49"),
    "abl-partial-4d csv": (0, "2f8f944ee06abc509033c4efee35fa12c8fc73b69229bb8c97ea40e3646366c0"),
    "born text": (0, "07cabe8802d24c21920c95f5556df09d9e0cccc1fd550c769fc01e64a939cae7"),
    "born json": (0, "39951fc390e3b403204b784eab4ed91883cbbe5da0bb6a6c73b555c2fef74f60"),
    "born csv": (0, "af6040ceb2f9d7a5fa5dbfe606b0c0436976d7a08fc4bbee6ae136103c57030e"),
    "born-complex text": (0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    "born-complex json": (0, "9b07f69345e4f075502114ffe27e9c6a18aa4842da5a8ee8b2a00e4422e1965a"),
    "born-complex csv": (0, "29ee12142f8df8efbccfd16458a7dc9832589cbf3d99bee055cbd852f70229af"),
    "condition text": (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    "condition json": (0, "3a2413926231b860c478cf5eae0b2ceff9c5fe7fe18ead1934b66eebee8edd9d"),
    "condition csv": (0, "b09bf272a9624c2704ab641e108861817e65d1586ad29415b12fcf9753750601"),
    "condition-fails text": (0, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    "condition-fails json": (0, "3b1903fab3cc91e06ddeee3f835aff6f321e0ce7622720d59f55d431da780c03"),
    "condition-fails csv": (0, "12a8a9eae7032942d0ba58edb2a73f152d4b0bca80f826102f3a2aba1b6e72d0"),
    "slits-10-1 text": (0, "dc0b3672f8b70a776b412e0b27e3b71cacf086f97038dfcbc623d33bd5fd27c5"),
    "slits-10-1 json": (0, "e3046ec05b757b11bcdc9f2c091077f9cb360c7aae0c26d844cbf1154cef6368"),
    "slits-10-1 csv": (0, "1e8eee498957837d8d85981ae567d77c9a9bf2888a4a6c023dee73f81d972cb5"),
    "slits-3.7-0.21 text": (0, "586fdb43e30ab864fbc5ef02dd5b454c900edf6687a3f15453cd0c6d7cb6f9cc"),
    "slits-3.7-0.21 json": (0, "3674a5e36c08f9eeaf2c73547461474994fa6d46ac8f8b86ab00a68e644f97e3"),
    "slits-3.7-0.21 csv": (0, "b6f85d704de9194969a0576785eb2aa5067c9225f26d97a8bc6c4bd2fabd4f10"),
    "slits-1e6-0.5 text": (0, "186775baddc50ad1d83573ce4721f17cdcba5585d728f2ac8ce0d13ccb9f8e88"),
    "slits-1e6-0.5 json": (0, "8116230096d2d780dd9f97d9de0a04b42a76d8469c9296afb529463fecc07458"),
    "slits-1e6-0.5 csv": (0, "80453c24d65cd6833eec0e7b7ef75e13862055ae677b11954e0dd3b41d016b1a"),
    "aad text": (0, "42709516118eae1876f91255db79225cfb7419ff565a55d541157dec41f547c3"),
    "aad json": (0, "b9e56fb6e70f1057cf14e77499f6fe2e4953d9ab520d19180bffd00beb37b463"),
    "aad csv": (0, "410a391a95c046e1da622c830443dab53b894b337f901b27b2bef7d33edba4ea"),
    "aad-complex text": (0, "4713b95e32652c88830d549205f3dd67f8be596b9ffda410e3279a9c91cb20f6"),
    "aad-complex json": (0, "d532360e2d015cccfde2881233871448c107cc3c618ce88076abd86beabcb9cc"),
    "aad-complex csv": (0, "96c6317bc4cf6ebef28c48014cd7855f3c340e4881582df59783cdedd951692a"),
    "aad-imaginary text": (0, "d3425ff8b6f49ad721e6503e171170eb2ead6595dc49630f11fc726b57b74f51"),
    "aad-imaginary json": (0, "1cc68313ddfb381b276308b81cdeb0bbc1b510ac3b9b9759eea7ea8327e2d04a"),
    "aad-imaginary csv": (0, "c86f27bad0dfa063efc66484071d0adf2fee5abae0ca2e9a5e6c3cfc2df91d30"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_QUANTUM))
def test_quantum_stdout_is_byte_identical(capsys, key):
    name, fmt = key.split()
    code, digest = GOLDEN_QUANTUM[key]
    assert cli.main(["quantum", *QUANTUM_REQUESTS[name], *QUANTUM_FORMATS[fmt]]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


# Refused requests: exit 2, nothing on stdout, one ``error:`` line on stderr.
QUANTUM_REFUSALS = {
    "zero denominator": ["abl-complete", "--state", "1,0", "--post", "0,1", "--index", "0"],
    "non-orthonormal basis": ["abl-partial", "--state", "1,1", "--post", "1,-1", "--index", "0", "--basis", "1,0;1,1"],
    "non-finite state": ["born", "--state", "nan,1", "--post", "1,0"],
}


@pytest.mark.parametrize("key", sorted(QUANTUM_REFUSALS))
def test_quantum_refusal_is_one_error_line(capsys, key):
    assert cli.main(["quantum", *QUANTUM_REFUSALS[key]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


TWOVALUE_DECK = str(Path(DECK).parent / "twovalue.deck")
README_EXPERIMENT = [
    "--deck", DECK, "--prepare", "Face=Q", "--observe", "Suit?S", "--observe", "Face", "--postselect", "Face=K",
]


def alternating(depth: int) -> list[str]:
    return [arg for i in range(depth) for arg in ("--observe", ("Suit", "Face")[i % 2])]


# ``threebox simulate`` requests at seed 42: the README request, complete
# Suit/Face events at depth 4 (one array of counts) and 12 (merged chunk
# tallies), the two-value deck, whose pools hold 3 cards, and one trial,
# which at seed 42 is not accepted, without and with a query.
SIMULATE_REQUESTS = {
    "readme": [*README_EXPERIMENT, "--query", "Suit=S", "--trials", "100000", "--seed", "42"],
    "suit-face-d4": [
        "--deck", DECK, "--prepare", "Face=Q", *alternating(4), "--postselect", "4:Face=K", "--query", "1:Suit=S",
        "--trials", "20000", "--seed", "42",
    ],
    "suit-face-d12": ["--deck", DECK, "--prepare", "Face=Q", *alternating(12), "--trials", "3000", "--seed", "42"],
    "twovalue": [
        "--deck", TWOVALUE_DECK, "--prepare", "Face=Q", "--observe", "Suit", "--observe", "Face",
        "--postselect", "Face=K", "--query", "Suit=S", "--trials", "100000", "--seed", "42",
    ],
    "trials-1": [*README_EXPERIMENT, "--trials", "1", "--seed", "42"],
    "trials-1-query": [*README_EXPERIMENT, "--query", "Suit=S", "--trials", "1", "--seed", "42"],
}
SIMULATE_FORMATS = {"text": [], "json": ["--json"], "csv": ["--csv"]}

# "<request> <format>": (exit code, sha256 of stdout); recorded while every
# chunk of a run still derived its draw rule from a per-trial size array.
GOLDEN_SIMULATE = {
    "readme text": (0, "2ba27fa2757e2ca92e24ebc47396eca3ca47b63249b4b3f76574a3fcfb025b5e"),
    "readme json": (0, "338d13a0ebbc2c3f20e7a305d64da680d8cdef52dbbe01c1b6c0da4d68e64482"),
    "readme csv": (0, "1ea7c370581c9e5697a45cef6574ce7dcb3d88afcc7bbec4b1b961e597af76ec"),
    "suit-face-d4 text": (0, "84680b1be3d4f42bf23e41bc3b06dced6b3ab6caad8f578dadbaeb9303047af7"),
    "suit-face-d4 json": (0, "b529126257437cd225b3ed1a38983b09cb2a100bbbe6ffbbab127f02685e4245"),
    "suit-face-d12 json": (0, "cf0f715484454cc2a47a8657d0ebd7c4fbb7d14a1cb9f9a4d44e38731bb4eb29"),
    "suit-face-d12 csv": (0, "7b19f3308ca89615327fdd6744bda5b4edfcb860cd592253dba8ef35516b02f2"),
    "twovalue text": (0, "2236b836b9e78cd2d6deb387ba40abe25d1557fc4f2a838a8b5ae375939a1b48"),
    "twovalue csv": (0, "e2d2f80e42049180d9555e11365cc211bc74ba9d1d423f128c30ba16cdb5a5f0"),
    "twovalue json": (0, "99a0ceb73554e9de4226de857cc073674115685af6c96f3dab73f4ab98ceeda3"),
    "trials-1 text": (0, "088b732725464550aab11f1da3ab0a9aa36c516d7fe19e44c84ca7678114e2ac"),
    "trials-1 json": (0, "18d1b243105fa39541977dbb54b346f90b1648bdd983c38984a3ec2724e969d3"),
    # Recorded when a run with no accepted trial began to report its query as
    # undecided; until then the request exited 2.
    "trials-1-query text": (0, "75b623e45207ae6e798dddbbbbc129064f79d5d1a18b5f4ca73ef9c85e8edbdc"),
    "trials-1-query json": (0, "59e8d9aa9c2ada6c2dc85482b1babbb55e57325e89c0afe7b9055625a37846d2"),
    "trials-1-query csv": (0, "f3f7f77f7cb2496c87b58a146049e749c7f235309cec13763901ef62a54ff515"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_SIMULATE))
def test_simulate_stdout_is_byte_identical(capsys, key):
    name, fmt = key.split()
    code, digest = GOLDEN_SIMULATE[key]
    assert cli.main(["simulate", *SIMULATE_REQUESTS[name], *SIMULATE_FORMATS[fmt]]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
