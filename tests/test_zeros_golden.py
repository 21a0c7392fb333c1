"""Byte-exact stdout of ``zeros`` on a few parameter pairs.

Each digest is the sha256 of stdout.  The runs cover both widths the
benchmark asks for (1/64 and 2^-20), all three output formats, the main
and secondary real-rootedness regions, two pairs outside both (one with
non-real-rooted members, one with a repeated root at 0) and the boundary
pair (1, -1), whose members have exact rational roots printed as [r, r].
Two 2^-20 runs go past degree 7, to degree 16 in region A and degree 12
of a pair outside both regions, so the fine refinement runs on longer
chains.  The last run reaches degree 20 of the (-1/2, -1/2) family in the
default pretty format, where the remainder chains are longest.
"""

import hashlib

import pytest

from gstirling import cli

RUNS = (
    (
        ("--alpha", "-1", "--beta", "-1", "--nmax", "8", "--max-width", "1/64", "--format", "json"),
        "c2ef20584c2ac32616c55db75ba472728a36a1b56e4e9b7d87aeefa49aa4cbc9",
    ),
    (
        ("--alpha", "-1/2", "--beta", "-1/2", "--nmax", "7", "--max-width", "1/1048576", "--format", "csv"),
        "dcbab9921cca187933b870a4e13d416bf04acba3138de72ce66efb107fa11e2d",
    ),
    (
        ("--alpha", "1", "--beta", "-1", "--nmax", "7", "--max-width", "1/1048576", "--format", "pretty"),
        "452b2b573d14e886a9ae0d8f2c8b6ebf9055e1fb3b43381551bcd9fe8c95abf0",
    ),
    (
        ("--alpha", "0", "--beta", "3", "--nmax", "6", "--max-width", "1/64", "--format", "pretty"),
        "bac2843601ac3e7b04c97e7cbe6809c8f22217c35f9561e6dae0d3e567b9b78a",
    ),
    (
        ("--alpha", "5/2", "--beta", "1", "--nmax", "6", "--max-width", "1/1048576", "--format", "json"),
        "d93bc98756f45d0ad46066f060f6b872207edd656d13061805b14f408a23eb9a",
    ),
    (
        ("--alpha", "3/2", "--beta", "-3/4", "--nmax", "7", "--max-width", "1/64", "--format", "csv"),
        "32541f74b818cf057fa3f7068d14bfb8c227693c02fe2977efc63f0980db4181",
    ),
    (
        ("--alpha", "-1", "--beta", "-1", "--nmax", "16", "--max-width", "1/1048576", "--format", "csv"),
        "b69dc5e3f66504dc79d68f287738fd58c0ccf19a7df5be98e981bc98df41ae27",
    ),
    (
        ("--alpha", "3/2", "--beta", "-3/4", "--nmax", "12", "--max-width", "1/1048576", "--format", "json"),
        "cff7949931a5d7a77ea765c68aa2f7771a555e4c4779c061d62e3f8efd32c086",
    ),
    (
        ("--alpha", "-1/2", "--beta", "-1/2", "--nmax", "20"),
        "b0c46a02c99b30195d8180c1cd3778f4a379bad1b9e6be1d85817e5c7e7c5692",
    ),
)


@pytest.mark.parametrize("argv, digest", RUNS, ids=[" ".join(argv) for argv, _ in RUNS])
def test_zeros_output(capsys, argv, digest):
    code = cli.main(["zeros", *argv])
    out = capsys.readouterr().out
    assert code == 0, out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
