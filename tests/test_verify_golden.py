"""Byte-exact stdout of ``verify --identity`` for every identity.

Each digest is the sha256 of stdout.  The digests pin the detail strings,
the per-unit granularity (per n, m, r or lambda on one pair, per pair on
the grid) and the notes of single-identity runs.  The whole-grid run,
``verify --all``, is pinned by its digest in ``perfbench/expected.json``,
which the benchmark checks.
"""

import hashlib

import pytest

from gstirling import cli, suite

PAIR = ("--alpha", "-1/2", "--beta", "-1/2")
TARGET = ("--alpha2", "0", "--beta2", "-1")

# verify --identity NAME --nmax 2, over the built-in grid
GRID_NMAX2 = {
    "triple-route": "4686b21a80238953d4b2b7516c855432a4a467404c67dfb7c9bb3e2d33063d64",
    "first-values": "9f5a6abd90a579e78a023cb811b86963f1d496eb28f38b95af668e4893f075dd",
    "recurrence-chain": "945a72a9dc1a707b3ae38a7790a0f60cf0b0434138e676342e743c224ae053cd",
    "inverse-pair": "e564de66f416698bbb2caf93cab1560604b3d77a608b1333c576504741c56001",
    "bell-basis": "e263e830bfc6da8c1c036e1d8be59d2d98444d8a1c18029ef8590192ca18ce78",
    "rbell": "2fefac80daed6c7859330690769ec049d0663d39f38addc32bf09e1112a2e6aa",
    "addition": "19d0d2c3777d6c569e6289dfd8e78275cabd557922407e9649b9a07b66f67013",
    "gf-derivative": "23c81b5f7ecf851b4c3b841510331039fcdffdb87ea4fcd3ed459e848497daca",
    "rodrigues": "446aaedd29f0cb832a8a4676eaf047c7289eeb991851b557731c1a69d31720f6",
    "bell-operator": "31a7e453d52e4a7e71e7fb805daeca803e35309253b2b1f9da2a4a1e17c987ab",
    "rebase": "05dfc007dd65c30c71dc75ef99595437fcb611577c9c132532b882b74b37f510",
    "lah-rebase": "79db3478aa06052e768d66da94d3488bbef99d540568b1688e5d37ae5d719c4e",
    "composition": "889d089616b88feeb3a7f772168dc830989e8c42ffa2055b5e7de49ca3d597e7",
    "rising-expansion": "b37d000f374e5f8b4f24d87e657d5a760505fbeb110dde296146f7ac4cf28c45",
    "real-zeros": "e0abca43dcf127b30aa49cc5787349ce3275ff895fba83a532156aa9a1f41da1",
    "log-concave": "111a7050c18eacf9f77b66a248329abf881ab9645898615542242ee643b75f5c",
    "specializations": "ed17d31af4265d30f0b8b80e33a38060d25b9a28e28cfaaf954a6a4ec8c41ae6",
}

# verify --identity NAME --nmax 3 on one pair; rebase and composition
# also take a target pair, and specializations takes no pair at all
PAIR_NMAX3 = {
    "triple-route": "9fa806fb294cfb34202221aa8cd6ec2142d93aae0727d1a05b8d43e6f2d23582",
    "first-values": "a459ec68f8d9979899649ac0b3b194a12f9b56b8e1e97f2e3523dc35f31ce106",
    "recurrence-chain": "5988292afe221010e93e174d2c77c40de43f4144716500434d711f7dfadefce0",
    "inverse-pair": "67911d432c60636a85bbad11f33fc0dc7fd0343aca6281a69e8e2be2b1840bb2",
    "bell-basis": "ae09be91d9b8e77fe7143dcb340e0597d27bd93477eccc2f3a71b575e54db396",
    "rbell": "c647cb93686de0fb2f8eb22154f23a790934b3fb84a124370aaf9db4083c134e",
    "addition": "765ba8e9a2c7124e23bca4ab06b6b6112d9829d6829886048205804a845f771f",
    "gf-derivative": "c41bca1afa39c7404c4e2707f44a5ca7aacefac6a75306d5d71016dc759e5ec8",
    "rodrigues": "d36e78be770df6109ede54f9c55672c771b838f15e148f28b823a0d753ac9b3d",
    "bell-operator": "b7a2726ac0b752e0e93c13a0eb67d3cebd9448632b22bfe097e81f2277e145bc",
    "rebase": "f9ee1df779f6134e31232403501d5a4ef61e02f1474aea026d39fc509e895cd8",
    "lah-rebase": "fb1161d45e92f70b16221a9e2eceee942d036a8f787097ca08e691dc2a9d372c",
    "composition": "4d3b0fc9d7a483f9d4b1f5208eb9895fbc36d9719e21c3dcea2442af7d3e747c",
    "rising-expansion": "22dc188c957c450071c3f869c0031f02fac35ade0a576264eeb182a48d025c62",
    "real-zeros": "768041fa27f3c8b7ec025ffd5812f1304f18f3a5e9da9d2250f1ed85ab8c4dfe",
    "log-concave": "a012ad990881f26b1d7b084b8450a024c4e344305c4ce262d2cd842ac01a1ad1",
    "specializations": "04623500c95b07ac6e47d8d2fcc2d704e1ecd75145cfff7b69080516336b8075",
}

# the per-identity options --r, --m, --order and --lambda
WITH_OPTIONS = (
    (
        ("--identity", "rbell", "--r", "2", "--nmax", "3", *PAIR),
        "0ad2e38f8d00bb400a9a45b957ecbed6726e5a903cd45c70ce899b821bba8ff4",
    ),
    (
        ("--identity", "gf-derivative", "--m", "1", "--order", "4", *PAIR),
        "76dcb22214e9538f30def3ff6020c8fd9f3e263db9b1ca1d59ce04e9eb161ab2",
    ),
    (
        ("--identity", "gf-derivative", "--m", "1", "--nmax", "2"),
        "708c391f945574c7c4ca885b01e2823d7b2e6b8fac524d877318425c21296eb7",
    ),
    (
        ("--identity", "bell-operator", "--lambda", "1/2", "--nmax", "3", *PAIR),
        "1fb5c3009c977d7967cde3bd2f5885ec436e93225cdfba365c9e27aaa500b66d",
    ),
)

ALIASES = {
    "triple": "triple-route",
    "t2": "gf-derivative",
    "t4": "rodrigues",
    "p2": "bell-basis",
    "p3": "rbell",
    "p4": "rebase",
    "p4-lah": "lah-rebase",
    "p5": "inverse-pair",
    "c1": "log-concave",
    "c3": "addition",
    "c4": "rising-expansion",
    "lemma1": "recurrence-chain",
    "t3": "real-zeros",
    "bell-op": "bell-operator",
    "families": "specializations",
}


def _pair_args(name):
    if name == "specializations":
        return ()
    return PAIR + (TARGET if name in ("rebase", "composition") else ())


def _verify(capsys, *argv):
    code = cli.main(["verify", *argv])
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_identity_is_pinned():
    assert set(GRID_NMAX2) == set(PAIR_NMAX3) == set(suite.IDENTITY_NAMES)
    assert suite.ALIASES == ALIASES


@pytest.mark.parametrize("name", list(GRID_NMAX2))
def test_grid_output(capsys, name):
    assert _sha(_verify(capsys, "--identity", name, "--nmax", "2")) == GRID_NMAX2[name]


@pytest.mark.parametrize("name", list(PAIR_NMAX3))
def test_single_pair_output(capsys, name):
    out = _verify(capsys, "--identity", name, "--nmax", "3", *_pair_args(name))
    assert _sha(out) == PAIR_NMAX3[name]


@pytest.mark.parametrize(
    "argv, digest", WITH_OPTIONS, ids=[" ".join(argv[1:]) for argv, _ in WITH_OPTIONS]
)
def test_option_output(capsys, argv, digest):
    assert _sha(_verify(capsys, *argv)) == digest


@pytest.mark.parametrize("alias", list(ALIASES))
def test_alias_output_matches_canonical(capsys, alias):
    name = ALIASES[alias]
    args = ("--nmax", "2", *_pair_args(name))
    assert _verify(capsys, "--identity", alias, *args) == _verify(
        capsys, "--identity", name, *args
    )
