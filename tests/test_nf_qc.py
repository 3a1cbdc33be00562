"""Property checks of the exact coefficient type ``QC`` against ``helpers.EC``.

``QC`` keeps a Gaussian rational as one integer triple ``(n + i*m) / d`` in
canonical form; ``EC`` keeps it as a pair of Fractions. Every operation must
give the same value as the Fraction pair, leave the triple canonical, and
convert to floats exactly as ``float(Fraction)`` does.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringnf.nf_engine import QC

from helpers import EC, EC_I

small = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 48))
huge = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**25))
parts = st.one_of(small, small, small, huge, st.integers(-20, 20))
nonzero_ints = st.integers(-30, 30).filter(bool)
nonzero_fracs = st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 36))


@st.composite
def pairs(draw):
    """A ``QC`` and the ``EC`` of the same value."""
    re, im = draw(parts), draw(parts)
    return QC(re, im), EC(re, im)


def assert_canonical(q: QC) -> None:
    assert all(type(v) is int for v in (q.n, q.m, q.d))
    assert q.d > 0
    assert math.gcd(q.n, q.m, q.d) == 1


def assert_value(q: QC, e: EC) -> None:
    assert_canonical(q)
    assert (q.re, q.im) == (e.re, e.im)


@given(pairs(), pairs())
@settings(max_examples=300, deadline=None)
def test_ring_operations_match_fraction_pairs(a, b):
    (qa, ea), (qb, eb) = a, b
    assert_value(qa, ea)
    assert_value(qa + qb, ea + eb)
    assert_value(qa - qb, ea - eb)
    assert_value(qa * qb, ea * eb)
    assert_value(-qa, -ea)
    assert_value(qa.conj(), ea.conj())
    assert_value(qa.times_i(), ea * EC_I)
    assert qa.is_zero() == (not ea)


@given(pairs(), st.one_of(st.integers(-30, 30), small, huge))
@settings(max_examples=300, deadline=None)
def test_scalar_products_match_fraction_pairs(a, k):
    qa, ea = a
    assert_value(qa * k, ea * EC(k))
    assert_value(k * qa, ea * EC(k))


@given(pairs(), pairs())
@settings(max_examples=300, deadline=None)
def test_division_by_qc_matches_fraction_pairs(a, b):
    (qa, ea), (qb, eb) = a, b
    if qb.is_zero():
        with pytest.raises(ZeroDivisionError):
            qa / qb
        return
    norm = (eb * eb.conj()).re
    assert_value(qa / qb, ea * eb.conj() * EC(1 / norm))


@given(pairs(), st.one_of(nonzero_ints, nonzero_fracs))
@settings(max_examples=300, deadline=None)
def test_division_by_scalar_matches_fraction_pairs(a, k):
    qa, ea = a
    assert_value(qa / k, ea * EC(1 / Fraction(k)))


@given(pairs())
@settings(max_examples=100, deadline=None)
def test_division_by_zero_raises(a):
    qa, _ = a
    for zero in (QC(), QC(Fraction(0), Fraction(0, 7)), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            qa / zero


@given(parts, parts)
@settings(max_examples=200, deadline=None)
def test_parts_round_trip(re, im):
    q = QC(re, im)
    assert_canonical(q)
    assert q.re == re and q.im == im
    assert type(q.re) is Fraction and type(q.im) is Fraction
    assert repr(q) == f"QC({Fraction(re)}, {Fraction(im)})"
    if not re and not im:
        assert (q.n, q.m, q.d) == (0, 0, 1)


@given(pairs(), pairs(), st.one_of(nonzero_ints, nonzero_fracs))
@settings(max_examples=300, deadline=None)
def test_equal_values_by_different_routes_are_equal(a, b, k):
    (qa, ea), (qb, _) = a, b
    routes = [
        (qa + qb) - qb,
        qa * k / k,
        (qa * QC(k)) / QC(k),
        QC(qa.re, 0) + QC(0, qa.im),
        qa.times_i().times_i().times_i().times_i(),
        -(-qa),
        qa.conj().conj(),
        QC(ea.re, ea.im),
    ]
    for r in routes:
        assert_canonical(r)
        assert r == qa
        assert hash(r) == hash(qa)
        assert (r.n, r.m, r.d) == (qa.n, qa.m, qa.d)
    assert qa != (qa.n, qa.m, qa.d)


@given(pairs())
@settings(max_examples=300, deadline=None)
def test_float_conversion_is_fraction_rounding(a):
    qa, _ = a
    want = complex(float(qa.re)) + 1j * complex(float(qa.im))
    got = qa.to_complex()
    assert repr(got) == repr(want)
    assert abs(qa) == math.hypot(float(qa.re), float(qa.im))


@given(pairs(), st.one_of(st.sampled_from([1, -1]), nonzero_ints), nonzero_fracs)
@settings(max_examples=300, deadline=None)
def test_int_and_fraction_fast_paths_match_the_general_path(a, k, f):
    # QC / int skips Fraction(int) and QC * Fraction skips re-wrapping it; the
    # general path wraps the scalar as a QC, and a bool still goes through Fraction
    qa, ea = a
    for got, want, value in ((qa / k, qa / QC(k), ea * EC(Fraction(1, k))),
                             (qa / k, qa / Fraction(k), ea * EC(Fraction(1, k))),
                             (qa / f, qa / QC(f), ea * EC(1 / f)),
                             (qa * f, qa * QC(f), ea * EC(f)),
                             (f * qa, QC(f) * qa, ea * EC(f)),
                             (qa / True, qa / QC(1), ea)):
        assert_value(got, value)
        assert (got.n, got.m, got.d) == (want.n, want.m, want.d)


@given(pairs())
@settings(max_examples=100, deadline=None)
def test_division_by_zero_messages(a):
    qa, _ = a
    for zero in (0, Fraction(0), False, 0.0):
        with pytest.raises(ZeroDivisionError, match=r"^division of a Gaussian rational by zero$"):
            qa / zero
    with pytest.raises(ZeroDivisionError, match=r"^division by zero Gaussian rational$"):
        qa / QC()
