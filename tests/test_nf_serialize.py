"""Serialization round-trips and golden-file regression.

The cubic/quintic golden files are tied back to the hand-frozen reference
tables, so they pin the engine output to the worked derivation rather than to
itself.  The quintic-cascade generators S and M have no hand table; their
goldens are regression pins whose correctness rests on the evaluated
homological identity checked in the solver tests.
"""

from __future__ import annotations

import io
import json
import re
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


def _dumps(f) -> str:
    """The golden-table text of ``f``."""
    buf = io.StringIO()
    dump_field(field_to_json(f), buf)
    return buf.getvalue()


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


def test_serialized_text_is_deterministic():
    f = sample_rational()
    # same terms fed in reversed insertion order
    assert _dumps(f) == _dumps(RationalVF(dict(reversed(list(f.terms.items())))))


def test_dump_writes_the_document_it_is_given(tmp_path):
    # nf-verify compares the document with the golden table, then writes it
    f = sample_rational()
    doc = field_to_json(f)
    with open(tmp_path / "f.json", "w") as fh:
        dump_field(doc, fh)
    assert json.loads((tmp_path / "f.json").read_text()) == doc
    assert load_field(tmp_path / "f.json") == f


def test_rejects_malformed_documents():
    with pytest.raises(ValueError, match="format"):
        field_from_json({"format": "other", "terms": []})
    doc = field_to_json(sample_rational())
    doc["terms"][0]["n"] = 5
    with pytest.raises(ValueError, match="divisors"):
        field_from_json(doc)


@pytest.mark.parametrize("divisor", [[[1, 1], [1, 2]], [[-1, 1], [-1, 2]]])
def test_rejects_divisor_not_in_storage_form(divisor):
    # momentum 3 and momentum -3: the float and the exact evaluator would
    # read either one differently, so the loader refuses it
    rec = {"a": 3, "kind": "anti", "j": [[1, 1], [1, 2]], "h": [divisor], "k": [], "n": 1,
           "coefficient": ["3/16", "0"]}
    with pytest.raises(ValueError, match=re.escape(f"divisor {divisor!r} is not in storage form")):
        field_from_json({"format": "stringnf-vf/1", "terms": [rec]})


@pytest.mark.parametrize("change", [{"kind": "sideways"}, {"a": 0}, {"j": [[2, 1]]}])
def test_rejects_malformed_term_keys(change):
    # an unknown kind would evaluate as an anti term, and a zero mode or a
    # delta of 2 has no monomial; each is refused when the field is built
    rec = {"a": 1, "kind": "diag", "j": [[0, 1]], "h": [], "k": [], "n": 0, "coefficient": ["1", "0"]}
    field_from_json({"format": "stringnf-vf/1", "terms": [rec]})
    with pytest.raises(ValueError, match="record needs a >= 1, kind diag or anti"):
        field_from_json({"format": "stringnf-vf/1", "terms": [{**rec, **change}]})


# ---------------------------------------------------------------------------
# golden files

def _golden_text(name: str) -> str:
    return (GOLDEN / f"{name}.json").read_text()


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
