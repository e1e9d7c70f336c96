"""Tests for finite field construction and arithmetic."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgfold.galois import (
    FiniteField,
    Polynomial,
    _is_primitive,
    field_build,
    find_primitive_polynomial,
    x_power_mod,
)


def brute_force_primitive(p: int, k: int) -> tuple[int, ...]:
    """Independent search: smallest monic degree-k polynomial whose root
    has multiplicative order p^k - 1, ordered by base-p coefficient encoding."""
    order = p**k
    candidates = []
    for low in itertools.product(range(p), repeat=k):
        coeffs = tuple(low) + (1,)
        key = sum(c * p**i for i, c in enumerate(coeffs))
        candidates.append((key, coeffs))
    candidates.sort()
    for _, coeffs in candidates:
        if root_order(coeffs, p, k) == order - 1:
            return coeffs
    raise AssertionError("no primitive polynomial found")


def root_order(coeffs: tuple[int, ...], p: int, k: int) -> int:
    """Multiplicative order of x modulo the monic polynomial, or 0 if x
    hits a repeated non-one state first (reducible modulus)."""
    one = tuple([1] + [0] * (k - 1))
    if k == 1:
        current = ((-coeffs[0]) % p,)
    else:
        current = tuple([0, 1] + [0] * (k - 2))
    start = current
    for step in range(1, p**k):
        if current == one:
            return step
        overflow = current[k - 1]
        shifted = [0] + list(current[: k - 1])
        for i in range(k):
            shifted[i] = (shifted[i] - overflow * coeffs[i]) % p
        current = tuple(shifted)
        if current == start and step > 0:
            return 0
    return 0


# Every (p, k) with p^k <= 2048.
SMALL_FIELDS = [
    (p, k)
    for p in range(2, 2049)
    if all(p % d for d in range(2, int(p**0.5) + 1))
    for k in range(1, 12)
    if p**k <= 2048
]


class TestPolynomial:
    def test_make_normalizes(self):
        poly = Polynomial.make([3, 1, 0, 2, 0], 3)
        assert poly.coefficients == (0, 1, 0, 2)
        assert poly.degree == 3

    def test_str_rendering(self):
        assert str(Polynomial((1, 1, 0, 1), 2)) == "x^3+x+1"
        assert str(Polynomial((2, 1, 1), 3)) == "x^2+x+2"
        assert str(Polynomial.make([], 2)) == "0"

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Polynomial((2, 1), 2)

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            Polynomial((1, 1), 4)


class TestPrimitivePolynomial:
    def test_gf8_golden(self):
        assert find_primitive_polynomial(2, 3).coefficients == (1, 1, 0, 1)

    def test_gf2_golden(self):
        assert find_primitive_polynomial(2, 1).coefficients == (1, 1)

    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_matches_independent_search(self, p, k):
        assert find_primitive_polynomial(p, k).coefficients == brute_force_primitive(p, k)

    def test_known_table_matches_search(self):
        from pgfold.galois import _KNOWN_PRIMITIVE

        for (p, k), coeffs in _KNOWN_PRIMITIVE.items():
            assert coeffs == brute_force_primitive(p, k)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_order_test_agrees_with_root_order(self, data):
        # Zero-constant and reducible candidates are drawn as often as any.
        p, k = data.draw(st.sampled_from([(2, 1), (2, 3), (2, 6), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2)]))
        low = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
        coeffs = tuple(low) + (1,)
        assert _is_primitive(coeffs, p) == (root_order(coeffs, p, k) == p**k - 1)

    @pytest.mark.parametrize("coeffs, p", [((1, 1, 0, 1), 2), ((2, 1, 1), 3), ((3, 0, 1, 1), 5)])
    def test_x_power_mod_matches_repeated_multiplication(self, coeffs, p):
        k = len(coeffs) - 1
        power = [1] + [0] * (k - 1)
        for exponent in range(40):
            assert x_power_mod(exponent, coeffs, p) == power
            top = power[-1]
            power = [0] + power[:-1]
            power = [(c - top * f) % p for c, f in zip(power, coeffs)]

    def test_capacity_cap(self):
        with pytest.raises(ValueError, match="capacity"):
            field_build(2, 21)

    def test_search_is_not_capped_by_the_field_tables(self):
        modulus = find_primitive_polynomial(2, 21)
        assert modulus.degree == 21
        assert _is_primitive(modulus.coefficients, 2)

    def test_search_refuses_fields_past_its_bound_at_once(self):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=r"primitive search bound 2\^40"):
            find_primitive_polynomial(2, 61)
        with pytest.raises(ValueError, match="bound"):
            find_primitive_polynomial(2**61 - 1, 1)
        assert time.perf_counter() - started < 1.0

    def test_search_reaches_its_bound(self):
        modulus = find_primitive_polynomial(2, 40)
        assert modulus.degree == 40
        assert _is_primitive(modulus.coefficients, 2)


class TestFieldBuild:
    def test_gf8_alpha_cubed(self):
        f = field_build(2, 3)
        # alpha^3 = alpha + 1 under modulus x^3+x+1
        assert f.element_vector(f.element_of_exponent(3)) == (1, 1, 0)

    def test_gf8_alpha_sixth(self):
        f = field_build(2, 3)
        # alpha^6 = alpha^2 + 1
        assert f.element_vector(f.element_of_exponent(6)) == (1, 0, 1)

    def test_gf2_element_set(self):
        f = field_build(2, 1)
        assert f.order == 2
        assert sorted(f.element_vector(e) for e in range(2)) == [(0,), (1,)]

    def test_non_primitive_modulus_rejected(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible over GF(2) but its root
        # has order 5, not 15.
        with pytest.raises(ValueError, match="not primitive"):
            field_build(2, 4, Polynomial((1, 1, 1, 1, 1), 2))

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="primitive|repeated"):
            field_build(2, 3, Polynomial((1, 0, 0, 1), 2))  # x^3+1 = (x+1)(x^2+x+1)

    def test_alpha_order_is_full(self):
        for p, k in [(2, 3), (2, 4), (3, 2), (3, 3)]:
            f = field_build(p, k)
            assert f.pow(f.alpha, f.order - 1) == 1
            powers = {f.pow(f.alpha, e) for e in range(f.order - 1)}
            assert len(powers) == f.order - 1


class TestArithmetic:
    def test_exponent_addition(self):
        f = field_build(2, 3)
        a2, a4 = f.element_of_exponent(2), f.element_of_exponent(4)
        assert f.mul(a2, a4) == f.element_of_exponent(6)

    def test_characteristic_two_cancellation(self):
        f = field_build(2, 3)
        alpha_plus_one = f.element_from_vector((1, 1, 0))
        alpha = f.element_from_vector((0, 1, 0))
        one = f.element_from_vector((1, 0, 0))
        assert f.add(alpha_plus_one, alpha) == one

    def test_inverse_golden(self):
        f = field_build(2, 3)
        # inv(alpha) = alpha^6, checked exhaustively below as well
        assert f.inv(f.alpha) == f.element_of_exponent(6)

    def test_inverse_exhaustive(self):
        for p, k in [(2, 3), (3, 2)]:
            f = field_build(p, k)
            for a in range(1, f.order):
                assert f.mul(a, f.inv(a)) == 1

    def test_inv_zero_rejected(self):
        with pytest.raises(ValueError):
            field_build(2, 3).inv(0)

    @pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 1), (5, 1), (2, 5)])
    def test_axioms_exhaustive_small(self, p, k):
        f = field_build(p, k)
        elements = range(f.order)
        for a, b in itertools.product(elements, repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in itertools.product(elements, repeat=3):
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1))
    def test_axioms_sampled_gf81(self, a, b, c):
        f = field_build(3, 4)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
    def test_axioms_sampled_gf1024(self, a, b, c):
        f = field_build(2, 10)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


class TestTrace:
    def test_trace_of_zero(self):
        f = field_build(2, 4)
        assert f.trace_to_subfield(0, 2) == 0

    def test_gf16_trace_balanced(self):
        f = field_build(2, 4)
        zeros = [e for e in range(16) if f.trace_to_subfield(e, 2) == 0]
        assert len(zeros) == 8

    def test_gf16_direct_evaluation(self):
        f = field_build(2, 4)
        # Tr(alpha^0) by summing alpha^0 + alpha^0*2 + alpha^0*4 + alpha^0*8
        e = f.element_of_exponent(0)
        total = 0
        for i in range(4):
            total = f.add(total, f.pow(e, 2**i))
        assert f.trace_to_subfield(e, 2) == total

    @pytest.mark.parametrize(
        "p,k,q",
        [(2, 4, 2), (2, 6, 4), (3, 2, 3), (3, 6, 9)],
    )
    def test_trace_linear_and_kernel_size(self, p, k, q):
        f = field_build(p, k)
        m = 0
        value = 1
        while value < q:
            value *= p
            m += 1
        m = k // m  # extension degree over the subfield
        kernel = 0
        for a in range(f.order):
            if f.trace_to_subfield(a, q) == 0:
                kernel += 1
        assert kernel == q ** (m - 1)
        for a in range(0, f.order, 7):
            for b in range(0, f.order, 11):
                ta = f.trace_to_subfield(a, q)
                tb = f.trace_to_subfield(b, q)
                tsum = f.trace_to_subfield(f.add(a, b), q)
                assert f.add(_embed(f, ta, q), _embed(f, tb, q)) == _embed(f, tsum, q)

    def test_trace_surjective(self):
        f = field_build(2, 4)
        images = {f.trace_to_subfield(e, 2) for e in range(16)}
        assert images == {0, 1}

    def test_incompatible_subfield_rejected(self):
        f = field_build(2, 4)
        with pytest.raises(ValueError):
            f.trace_to_subfield(1, 8)  # GF(8) is not inside GF(16)
        with pytest.raises(ValueError):
            f.trace_to_subfield(1, 3)


def _embed(f: FiniteField, subfield_index: int, q: int) -> int:
    """Map a subfield element index back into the big field."""
    if subfield_index == 0:
        return 0
    stride = f.subfield_exponent_stride(q)
    return f.element_of_exponent(stride * (subfield_index - 1))
