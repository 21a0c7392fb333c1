"""Byte-exact stdout of ``table``, ``poly`` and ``eval`` at large sizes.

Each digest is the sha256 of stdout.  The runs reach the sizes of the
benchmark's ``tables`` workload, where the triangle rows carry rationals of
thousands of bits and the summed series of ``eval`` runs for hundreds of
terms: a json and a csv table, a degree-180 member, three series
evaluations (x positive, negative and -1), one at x = 0, which takes the
rising-factorial shortcut instead of the series, and one whose value,
about 1.7e357, is past the float range (pretty and json); its series field
is the exact value rounded to 17 significant digits.
"""

import hashlib

import pytest

from gstirling import cli

RUNS = (
    (
        ("table", "--alpha", "11/6", "--beta", "-14/9", "--nmax", "120", "--format", "json"),
        "087eaf97db26dc920f2da484fbd1b8ea6840af896d37da0e2f0f0260e3938f80",
    ),
    (
        ("table", "--alpha", "5/3", "--beta", "5/4", "--nmax", "60", "--format", "csv"),
        "f0ef7e93f338feab48d8d3bf439444a45083b3a4b30aeabf82d9bef61c94efc6",
    ),
    (
        ("poly", "--alpha", "-3/2", "--beta", "-7/5", "--n", "180", "--format", "json"),
        "48e34e7205526154e2835a4f9ed2f1375374b185c0a54403a6446ef2ee992a3e",
    ),
    (
        ("eval", "--alpha", "-3/2", "--beta", "-7/5", "--n", "162", "--x", "5/4", "--format", "json"),
        "ae5d28e9b8088cb3fbee00e64ec6e34784739e7e7531852cb4657963e2b4e8c7",
    ),
    (
        ("eval", "--alpha", "-1/4", "--beta", "-4/3", "--n", "119", "--x", "-2"),
        "8d0bbbbb9e91eeee5b35af8f020f2ec1e26c8199b8693e8084deef88ef1eb1f7",
    ),
    (
        ("eval", "--alpha", "8/9", "--beta", "7/6", "--n", "103", "--x", "-1", "--format", "json"),
        "03554dbb51c851cc3dcd2fed56c752947e20f25e4de00887fb156e0ea01b4476",
    ),
    (
        ("eval", "--alpha", "-3/2", "--beta", "-7/5", "--n", "60", "--x", "0"),
        "61cccec72bf2d57e3020933c6f05388d27492c75553fc36da415c40c0bd4cbcd",
    ),
    (
        ("eval", "--alpha", "15/8", "--beta", "-11/7", "--n", "183", "--x", "3/2"),
        "4874b35b9695355e33e06e91f61ed267c7362fcb36d3517269ecde0f4befc417",
    ),
    (
        ("eval", "--alpha", "15/8", "--beta", "-11/7", "--n", "183", "--x", "3/2", "--format", "json"),
        "0242ee17cd828b1fbfd12e721838d660777d2da497dd71486b9e22864dbdcaf5",
    ),
)


@pytest.mark.parametrize("argv, digest", RUNS, ids=[" ".join(argv) for argv, _ in RUNS])
def test_output(capsys, argv, digest):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
