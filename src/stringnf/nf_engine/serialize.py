"""Stable JSON form of vector fields, for golden-file regression.

A field serializes to ``{"format": "stringnf-vf/1", "terms": [...]}`` with one
record per stored term, sorted, so equal fields produce byte-identical
documents:

``a``
    field mode (positive integer).
``kind``
    ``"diag"`` or ``"anti"``.
``j``
    index vector as a list of ``[delta, mode]`` pairs.
``h``
    single-weight divisor vectors; the first ``n`` are divided at the
    quadratic frequency corrections, the rest at the fully corrected ones.
``k``
    double-weight corrected divisors.
``n``
    how many entries of ``h`` are quadratic-frequency divisors.
``coefficient``
    ``[re, im]`` as exact fraction strings.

A polynomial field is the case where every ``h`` and ``k`` is empty, so one
format and one loader serve both.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from .rational import QC, RationalVF, RKey

__all__ = ["FORMAT", "field_from_json", "field_to_json", "dump_field", "load_field"]

FORMAT = "stringnf-vf/1"


def _vec_out(vec) -> List[List[int]]:
    return [[delta, m] for delta, m in vec]


def _vec_in(doc) -> tuple:
    return tuple((int(delta), int(m)) for delta, m in doc)


def field_to_json(vf: RationalVF) -> Dict:
    """Documented dictionary form of a field; deterministic term order."""
    terms = []
    for key in sorted(vf.terms):
        a, kind, j, h2, h4, kk = key
        c = vf.terms[key]
        terms.append(
            {
                "a": a,
                "kind": kind,
                "j": _vec_out(j),
                "h": [_vec_out(v) for v in h2 + h4],
                "k": [_vec_out(v) for v in kk],
                "n": len(h2),
                "coefficient": [str(c.re), str(c.im)],
            }
        )
    return {"format": FORMAT, "terms": terms}


def field_from_json(doc: Dict) -> RationalVF:
    if doc.get("format") != FORMAT:
        raise ValueError(f"unsupported field format {doc.get('format')!r}")
    terms: Dict[RKey, QC] = {}
    for rec in doc["terms"]:
        n = int(rec["n"])
        h = [_vec_in(v) for v in rec["h"]]
        if not 0 <= n <= len(h):
            raise ValueError(f"record claims {n} leading-order divisors of {len(h)}")
        key = (
            int(rec["a"]),
            rec["kind"],
            _vec_in(rec["j"]),
            tuple(h[:n]),
            tuple(h[n:]),
            tuple(_vec_in(v) for v in rec["k"]),
        )
        re, im = rec["coefficient"]
        c = QC(Fraction(re), Fraction(im))
        prev = terms.get(key)
        terms[key] = c if prev is None else prev + c
    return RationalVF(terms)


def dump_field(vf: RationalVF, path) -> None:
    text = json.dumps(field_to_json(vf), indent=1, sort_keys=True)
    Path(path).write_text(text + "\n")


def load_field(path) -> RationalVF:
    return field_from_json(json.loads(Path(path).read_text()))
