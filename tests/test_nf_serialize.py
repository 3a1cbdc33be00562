"""Serialization round-trips and golden-file regression.

The cubic/quintic golden files are tied back to the hand-frozen reference
tables, so they pin the engine output to the worked derivation rather than to
itself.  The quintic-cascade generators S and M have no hand table; their
goldens are regression pins whose correctness rests on the evaluated
homological identity checked in the solver tests.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from stringnf.nf_engine import (
    ANTI,
    QC,
    RationalVF,
    chi3_explicit,
    divisor_zero_form,
    dump_field,
    field_from_json,
    field_to_json,
    load_field,
    quintic_rational_solve,
    resonant_normal_form,
)

from test_nf_poly import chi3_reference, k5_reference, z3_reference, z5_reference

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def nf28():
    return resonant_normal_form(2, 8)


def sample_rational() -> RationalVF:
    w1, _ = divisor_zero_form(((1, 1), (1, 2)))
    w2, _ = divisor_zero_form(((1, 1), (1, 3), (-1, 4)))
    return RationalVF(
        {
            (3, ANTI, ((1, 1), (1, 2)), (w1,), (w2,), ()): QC(Fraction(3, 16)),
            (3, ANTI, ((1, 1), (1, 2)), (), (), (w1, w1)): QC(0, Fraction(-2, 7)),
        }
    )


def test_roundtrip_preserves_fields(nf28):
    for f in (nf28.k5, chi3_explicit(4), sample_rational()):
        doc = field_to_json(f)
        back = field_from_json(doc)
        assert back == f


def test_section_split_survives_roundtrip():
    f = sample_rational()
    doc = field_to_json(f)
    recs = {tuple(map(tuple, r["j"])): r for r in doc["terms"]}
    assert len(doc["terms"]) == 2
    by_n = sorted(doc["terms"], key=lambda r: r["n"])
    assert [r["n"] for r in by_n] == [0, 1]
    assert len(by_n[0]["k"]) == 2 and len(by_n[0]["h"]) == 0
    assert len(by_n[1]["h"]) == 2 and len(by_n[1]["k"]) == 0
    assert field_from_json(doc) == f


def test_serialized_text_is_deterministic(tmp_path):
    f = sample_rational()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_field(f, p1)
    # same terms fed in reversed insertion order
    dump_field(RationalVF(dict(reversed(list(f.terms.items())))), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_malformed_documents():
    with pytest.raises(ValueError, match="format"):
        field_from_json({"format": "other", "terms": []})
    doc = field_to_json(sample_rational())
    doc["terms"][0]["n"] = 5
    with pytest.raises(ValueError, match="divisors"):
        field_from_json(doc)


# ---------------------------------------------------------------------------
# golden files

def _golden_text(name: str) -> str:
    return (GOLDEN / f"{name}.json").read_text()


def _dumps(f) -> str:
    return json.dumps(field_to_json(f), indent=1, sort_keys=True) + "\n"


def test_golden_files_match_fresh_computation(nf28):
    s, m = quintic_rational_solve(nf28.k5, 8)
    fields = {
        "k3": nf28.z3,
        "k5": nf28.k5,
        "z5": nf28.z5,
        "chi3": chi3_explicit(8),
        "s": s,
        "m": m,
    }
    for name, f in fields.items():
        assert _dumps(f) == _golden_text(name), f"golden drift in {name}"


def test_golden_files_match_reference_tables():
    assert load_field(GOLDEN / "k3.json") == z3_reference(8)
    assert load_field(GOLDEN / "k5.json") == k5_reference(8)
    assert load_field(GOLDEN / "z5.json") == z5_reference(8)
    assert load_field(GOLDEN / "chi3.json") == chi3_reference(8)


def test_golden_generators_solve_their_stage(nf28):
    s, m = quintic_rational_solve(nf28.k5, 8)
    assert load_field(GOLDEN / "s.json") == s
    assert load_field(GOLDEN / "m.json") == m
