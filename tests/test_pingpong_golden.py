"""A golden of ping-pong certificates on seeded generator sets.

``tests/golden/pingpong_certificates.json`` holds, for 200 seeded sets of
two or three invertible 2x2 rational matrices (entries n / den with
|n| <= 4 and den in {1, 2, 3}), the generators and the JSON form of
``pingpong_certify`` on them, null where no free pair is found. The test
recomputes it and compares the text byte for byte, so a change to the
search or to the printed intervals shows up; every certificate must also
re-verify. Regenerate the golden (only when a change to it is meant) with

    PYTHONPATH=src python tests/test_pingpong_golden.py > tests/golden/pingpong_certificates.json
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from gbsn.cli import _json_text
from gbsn.linalg import QMat
from gbsn.matgroups import pingpong_certify, verify_free_pair

from conftest import anon

GOLDEN = Path(__file__).resolve().parent / "golden" / "pingpong_certificates.json"
SEED, COUNT = 14035446, 200


def generator_sets(seed: int = SEED, count: int = COUNT) -> list:
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        size, gens = rng.choice((2, 3)), []
        while len(gens) < size:
            den = rng.choice((1, 2, 3))
            m = QMat([[Fraction(rng.randint(-4, 4), den) for _ in range(2)] for _ in range(2)])
            if m.det() != 0:
                gens.append(m)
        sets.append(gens)
    return sets


@lru_cache(maxsize=None)
def certified() -> tuple:
    return tuple((gens, pingpong_certify(anon(*gens))) for gens in generator_sets())


def golden_text() -> str:
    entries = [{"gens": gens, "certificate": cert} for gens, cert in certified()]
    return _json_text(entries) + "\n"


def test_certificates_match_the_golden():
    assert golden_text() == GOLDEN.read_text()


def test_every_golden_certificate_reverifies():
    found = certified()
    assert sum(cert is not None for _, cert in found) > COUNT // 2
    assert all(verify_free_pair(anon(*gens), cert) for gens, cert in found if cert is not None)


if __name__ == "__main__":
    print(golden_text(), end="")
