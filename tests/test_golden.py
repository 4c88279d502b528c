"""Golden bytes: the sha256 of every output file for fixed inputs.

The other tests compare runs with each other, so a change that altered the
output the same way on every run would pass them. These hashes pin the bytes
themselves. The tutorial and zombieworld seed 0 document hashes equal the
``tutorial`` and ``zombieworld-s0`` pins of the benchmark (perfbench/pins.json).
"""

import hashlib

import pytest

from voxgen.cli import run
from voxgen.query import LocationIndex, write_predicates
from voxgen.serialization import read_semantic_map

DOCUMENTS = {
    ("tutorial",): (
        "f7873090b167d2153ab56ec4f7d94176bea0d405baf5eee9333ff558179fba41",
        "bf120a4343c0659e0ad8cac66696c283be7c02c0aba451492da39311ec06a79f",
    ),
    ("zombieworld", "--seed", "0"): (
        "464fabf03c51150b2731136f891eb948e64035078914c0f76a421052f033d8ac",
        "3912db64b38b71aa79393e52772a26e7b049b68f12ece3372775fc0009dee135",
    ),
    ("gridworld", "--n", "3"): (
        "9d43c42a03a453d44af9a9984a9b143c41f3d1318727129f105b1058b81cc026",
        "e161711c718529e29df8c3ce824b60e58bea3a9f42cabad354ca8bbad6930738",
    ),
    ("dungeon", "--n", "4", "--seed", "1"): (
        "7f24a997918883290324509b59030685e074f970f3a290c36744db5a67399a86",
        "14b6347964a725ba651fceb54d25b59d13caf745ac14751ab7ba26ac2ea0e61c",
    ),
}

GRIDWORLD_3_RENDERINGS = {
    "hierarchy.dot": "647dda5bc7a1835fb655b22c91b70adca3ef4f169c4c3f658a0146238080f73a",
    "topology.dot": "e2edc8d5c1630f45cccb63facc3a6464513bfca8c7c26e9f1c38531e7402c289",
    "blueprint.svg": "0e5ee103db935d039e54dd46f4c1568c1bceb14ce8ee3160b7e10daf9a3535a3",
    "predicates.txt": "26d6db0a942b33eaacde7e2b08b53ad1ecf92adc93888585b91e2f463a59a6db",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(tmp_path, argv):
    hlr = tmp_path / "semantic_map.json"
    llr = tmp_path / "block_map.json"
    assert run([*argv, "--out-hlr", str(hlr), "--out-llr", str(llr)]) == 0
    return hlr, llr


@pytest.mark.parametrize("argv", list(DOCUMENTS), ids=" ".join)
def test_document_bytes_are_pinned(tmp_path, argv):
    hlr, llr = generate(tmp_path, argv)
    assert (sha256(hlr), sha256(llr)) == DOCUMENTS[argv]


def test_gridworld_renderings_are_pinned(tmp_path):
    hlr, llr = generate(tmp_path, ("gridworld", "--n", "3"))
    out = {name: tmp_path / name for name in GRIDWORLD_3_RENDERINGS}
    assert run(["viz", "graph", "--hlr", str(hlr), "--out", str(out["hierarchy.dot"])]) == 0
    assert run(["viz", "graph", "--hlr", str(hlr), "--mode", "topology", "--out", str(out["topology.dot"])]) == 0
    assert run(["viz", "blueprint", "--hlr", str(hlr), "--llr", str(llr), "--out", str(out["blueprint.svg"])]) == 0
    write_predicates(LocationIndex(read_semantic_map(hlr)).export_predicates(), out["predicates.txt"])
    assert {name: sha256(path) for name, path in out.items()} == GRIDWORLD_3_RENDERINGS
