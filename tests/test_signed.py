from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsdp.errors import OppositeSigns
from tropsdp.signed import (
    MINUS_INF,
    SignedTrop,
    TROP_MINUS_INF,
    format_signed,
    modulus,
    neg,
    parse_rational,
    parse_signed,
    pos,
    tadd,
    tmul,
)


def test_tmul_examples():
    assert tmul(pos(2), neg(3)) == neg(5)
    assert tmul(TROP_MINUS_INF, pos(7)) == TROP_MINUS_INF
    assert tmul(neg(2), neg(3)) == pos(5)


def test_tadd_examples():
    assert tadd(pos(2), pos(3)) == pos(3)
    assert tadd(neg(2), neg(3)) == neg(3)
    assert tadd(pos(5), TROP_MINUS_INF) == pos(5)
    with pytest.raises(OppositeSigns):
        tadd(pos(2), neg(3))


def test_modulus_examples():
    assert modulus(neg(-2)) == F(-2)
    assert modulus(TROP_MINUS_INF) == MINUS_INF
    assert modulus(pos(F(7, 2))) == F(7, 2)


def test_invalid_construction():
    with pytest.raises(ValueError):
        SignedTrop(2, F(0))
    with pytest.raises(ValueError):
        SignedTrop(0, F(0))
    with pytest.raises(ValueError):
        SignedTrop(1, MINUS_INF)


values = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
signs = st.sampled_from([1, -1])
elements = st.one_of(st.just(TROP_MINUS_INF), st.builds(SignedTrop, signs, values))


@settings(max_examples=300, deadline=None)
@given(elements, elements, elements)
def test_tmul_algebra(a, b, c):
    assert tmul(a, b) == tmul(b, a)
    assert tmul(tmul(a, b), c) == tmul(a, tmul(b, c))
    assert tmul(a, pos(0)) == a
    assert tmul(a, TROP_MINUS_INF) == tmul(TROP_MINUS_INF, a) == TROP_MINUS_INF
    assert modulus(tmul(a, b)) == modulus(a) + modulus(b)


@settings(max_examples=300, deadline=None)
@given(elements, signs, values, values, values)
def test_tadd_algebra_where_defined(a, sign, u, v, w):
    assert tadd(a, TROP_MINUS_INF) == tadd(TROP_MINUS_INF, a) == a
    b, c, d = SignedTrop(sign, u), SignedTrop(sign, v), SignedTrop(sign, w)
    assert tadd(b, c) == tadd(c, b) == SignedTrop(sign, max(u, v))
    assert tadd(tadd(b, c), d) == tadd(b, tadd(c, d))
    assert tadd(b, b) == b
    with pytest.raises(OppositeSigns):
        tadd(b, SignedTrop(-sign, v))


def test_minus_inf_ordering():
    assert MINUS_INF < F(-1000)
    assert not MINUS_INF < MINUS_INF
    assert MINUS_INF <= MINUS_INF
    assert F(0) >= MINUS_INF
    assert not MINUS_INF >= F(0)
    assert MINUS_INF + F(5) == MINUS_INF
    assert 2 * MINUS_INF == MINUS_INF


def test_text_encoding_round_trip():
    cases = [TROP_MINUS_INF, pos(0), neg(0), pos(F(7, 2)), neg(F(-2)), pos(-3)]
    for a in cases:
        assert parse_signed(format_signed(a)) == a
    assert format_signed(pos(F(7, 2))) == "+7/2"
    assert format_signed(neg(2)) == "-2"
    assert format_signed(TROP_MINUS_INF) == "-inf"


def test_parse_rejects_garbage():
    for bad in ["", "7/2", "inf", "+q/0", "+1/0", "--", "+"]:
        with pytest.raises(ValueError):
            parse_signed(bad)


def test_parse_rational_is_fraction_without_exponents():
    for text, want in [("7/2", F(7, 2)), ("-3", F(-3)), (" +0.25 ", F(1, 4)), (".5", F(1, 2)),
                       ("5.", F(5)), ("-0/3", F(0))]:
        assert parse_rational(text) == want == F(text)
    # exponents, zero denominators and non-numbers: all ValueError
    for bad in ["1e3", "1E-3", "2.5e1", "1/0", "inf", "nan", "", "1/-2", "1 / 2", "0x10",
                "\u0663", "+\u0663/2", "1/\uff12", "\u0661.5", "\u00a01"]:
        with pytest.raises(ValueError):
            parse_rational(bad)
    with pytest.raises(ValueError, match="bad rational"):
        parse_signed("+1e10000000")
    # Fraction itself reads Unicode digits: "\u0663" is Arabic-Indic three
    assert F("\u0663") == 3
    with pytest.raises(ValueError, match="bad rational"):
        parse_signed("+\u0663")


@settings(max_examples=300, deadline=None)
@given(elements)
def test_text_encoding_round_trip_property(a):
    assert parse_signed(format_signed(a)) == a
