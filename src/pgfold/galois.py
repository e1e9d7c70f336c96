"""Exact arithmetic in GF(p) and GF(p^k): the primitive modulus search and
log/antilog tables.

The modulus search never builds the field: a candidate f of degree k is
primitive when x^(p^k - 1) = 1 and x^((p^k - 1)/r) != 1 modulo f for every
prime r dividing p^k - 1, each power taken by square-and-multiply
(``x_power_mod``), so the work is polynomial in k.  ``projective`` builds
its offsets from the modulus and ``x_power_mod`` alone.

``FiniteField`` tabulates all p^k elements.  It serves the coordinate
incidence oracle, the tests and the public API, not the graph
construction.  Elements are dense integer indices: 0 is the zero element
and index i >= 1 stands for alpha^(i-1), where alpha is a root of the
primitive modulus polynomial.  This labeling makes multiplicative
structure (and the cyclic point labeling built on top of it) directly
visible in the indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Polynomial",
    "FiniteField",
    "find_primitive_polynomial",
    "x_power_mod",
    "field_build",
]

# FiniteField keeps two tables of p^k entries.
MAX_FIELD_ORDER = 2**20

# The primitive search factors p^k - 1 by trial division, up to sqrt(p^k)
# steps: about 0.1 s at the bound of 2^40 elements.
MAX_SEARCH_BITS = 40

# Verified cache for frequently used fields.  Every entry is re-derived by
# the brute-force search in the test suite.
_KNOWN_PRIMITIVE = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Polynomial:
    """Polynomial over GF(p), coefficients lowest degree first."""

    coefficients: tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"modulus base {self.p} is not prime")
        coeffs = self.coefficients
        if any(c < 0 or c >= self.p for c in coeffs):
            raise ValueError("coefficients must be reduced mod p")
        if coeffs and coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @classmethod
    def make(cls, coefficients, p: int) -> "Polynomial":
        """Build a polynomial, reducing mod p and trimming leading zeros."""
        coeffs = [c % p for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs), p)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else -1

    @property
    def is_monic(self) -> bool:
        return bool(self.coefficients) and self.coefficients[-1] == 1

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        terms = []
        for exp in range(self.degree, -1, -1):
            c = self.coefficients[exp]
            if c == 0:
                continue
            if exp == 0:
                terms.append(str(c))
            else:
                x = "x" if exp == 1 else f"x^{exp}"
                terms.append(x if c == 1 else f"{c}{x}")
        return "+".join(terms)


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def x_power_mod(exponent: int, coefficients: tuple[int, ...], p: int) -> list[int]:
    """x^exponent modulo the monic polynomial with the given coefficients
    (lowest degree first) over GF(p), as its k low coefficients.

    Square-and-multiply: each bit squares the running power (O(k^2)) and
    a set bit multiplies it by x, a shift with one reduction (O(k)).
    """
    k = len(coefficients) - 1
    taps = [(t, c) for t, c in enumerate(coefficients[:k]) if c]
    power = [1] + [0] * (k - 1)
    for bit in bin(exponent)[2:]:
        square = [0] * (2 * k - 1)
        for i, a in enumerate(power):
            if a:
                for j, b in enumerate(power):
                    square[i + j] += a * b
        # x^d = -sum f_t x^(d - k + t) for d >= k
        for d in range(2 * k - 2, k - 1, -1):
            top = square[d] % p
            if top:
                for t, c in taps:
                    square[d - k + t] -= top * c
        power = [c % p for c in square[:k]]
        if bit == "1":
            top = power[-1]
            power = [0] + power[:-1]
            if top:
                for t, c in taps:
                    power[t] = (power[t] - top * c) % p
    return power


def _is_primitive(coefficients: tuple[int, ...], p: int) -> bool:
    """True when x has multiplicative order exactly p^k - 1 modulo the monic
    degree-k polynomial: x^(p^k - 1) = 1 and x^((p^k - 1)/r) != 1 for every
    prime r dividing p^k - 1 (Lidl & Niederreiter, Finite Fields, ch. 3).

    A unit of order p^k - 1 exists only when GF(p)[x]/(f) is a field, so
    this also proves f irreducible.  A zero constant term makes x a zero
    divisor, so no power of it is 1.
    """
    k = len(coefficients) - 1
    order = p**k - 1
    one = [1] + [0] * (k - 1)
    if x_power_mod(order, coefficients, p) != one:
        return False
    return all(
        x_power_mod(order // r, coefficients, p) != one for r in _prime_factors(order)
    )


@lru_cache(maxsize=None)
def find_primitive_polynomial(p: int, k: int) -> Polynomial:
    """Return the deterministic primitive polynomial for GF(p^k).

    The result is monic of degree k and its root has multiplicative order
    p^k - 1.  Among all candidates the smallest one by the base-p encoding
    of its coefficient vector is chosen, so repeated builds agree.  The
    candidates are enumerated in that order and the first that passes the
    order test is returned, so the work is polynomial in k per candidate.
    Fields of more than 2^``MAX_SEARCH_BITS`` elements are refused before
    any trial division.
    """
    # With p >= 2, any k > MAX_SEARCH_BITS is past the bound, so p**k is
    # only formed when it is small.
    if p >= 2 and (k > MAX_SEARCH_BITS or p**k > 2**MAX_SEARCH_BITS):
        raise ValueError(
            f"field order {p}^{k} exceeds the primitive search bound 2^{MAX_SEARCH_BITS}"
        )
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    cached = _KNOWN_PRIMITIVE.get((p, k))
    if cached is not None:
        return Polynomial(cached, p)
    # Monic degree-k candidates in key order, encoded by their low-order
    # coefficients; x divides those with a zero constant term.
    for encoded in range(1, p**k):
        if encoded % p == 0:
            continue
        coeffs = []
        rest = encoded
        for _ in range(k):
            coeffs.append(rest % p)
            rest //= p
        coeffs.append(1)
        if _is_primitive(tuple(coeffs), p):
            return Polynomial(tuple(coeffs), p)
    raise ValueError(f"no primitive polynomial found for GF({p}^{k})")


class FiniteField:
    """GF(p^k) with log/antilog tables over the p^k - 1 nonzero elements.

    Public element values are dense indices (0 = zero, i = alpha^(i-1)).
    The tables are immutable after construction and safe to share.
    """

    def __init__(self, p: int, k: int, modulus: Polynomial | None = None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        order = p**k
        if order > MAX_FIELD_ORDER:
            raise ValueError(
                f"field order {p}^{k} exceeds the supported capacity {MAX_FIELD_ORDER}"
            )
        if modulus is None:
            modulus = find_primitive_polynomial(p, k)
        if modulus.p != p or modulus.degree != k or not modulus.is_monic:
            raise ValueError("modulus must be monic of matching degree and base")
        self.p = p
        self.k = k
        self.order = order
        self.modulus = modulus
        self._build_tables()

    def _build_tables(self) -> None:
        p, k, order = self.p, self.k, self.order
        coeffs = self.modulus.coefficients
        one = tuple([1] + [0] * (k - 1))
        vectors = [one]
        current = one
        for _ in range(order - 2):
            overflow = current[k - 1]
            shifted = [0] + list(current[: k - 1])
            if overflow:
                for i in range(k):
                    shifted[i] = (shifted[i] - overflow * coeffs[i]) % p
            current = tuple(shifted)
            if current == one:
                break
            vectors.append(current)
        if len(vectors) != order - 1:
            raise ValueError(
                f"modulus {self.modulus} is not primitive: "
                f"alpha cycles after {len(vectors)} powers, expected {order - 1}"
            )
        # antilog[j] = vector of alpha^j; vector_of[i] = vector of element i
        self._vector_of = [tuple([0] * k)] + vectors
        self._index_of = {vec: i for i, vec in enumerate(self._vector_of)}
        if len(self._index_of) != order:
            raise ValueError(f"modulus {self.modulus} produced repeated elements")

    # -- element helpers ------------------------------------------------

    @property
    def alpha(self) -> int:
        """Index of the generator alpha."""
        return 2 if self.order > 2 else 1

    def element_vector(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of element a (lowest degree first)."""
        self._check(a)
        return self._vector_of[a]

    def element_from_vector(self, vector) -> int:
        key = tuple(c % self.p for c in vector)
        if len(key) != self.k:
            raise ValueError(f"vector length {len(key)} != {self.k}")
        return self._index_of[key]

    def element_of_exponent(self, exponent: int) -> int:
        """alpha^exponent as an element index."""
        return 1 + exponent % (self.order - 1)

    def log(self, a: int) -> int:
        """Discrete log base alpha; a must be nonzero."""
        self._check(a)
        if a == 0:
            raise ValueError("log(0) is undefined")
        return a - 1

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element index of GF({self.p}^{self.k})")

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        va = self.element_vector(a)
        vb = self.element_vector(b)
        return self._index_of[tuple((x + y) % self.p for x, y in zip(va, vb))]

    def neg(self, a: int) -> int:
        va = self.element_vector(a)
        return self._index_of[tuple((-x) % self.p for x in va)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return 1 + ((a - 1) + (b - 1)) % (self.order - 1)

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if a == 0:
            if e < 0:
                raise ValueError("0 cannot be raised to a negative power")
            return 0 if e else 1
        return 1 + ((a - 1) * e) % (self.order - 1)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ValueError("0 has no multiplicative inverse")
        return 1 + (-(a - 1)) % (self.order - 1)

    # -- subfield structure ---------------------------------------------

    def subfield_exponent_stride(self, subfield_order: int) -> int:
        """Index stride of the subfield copy of GF(subfield_order) inside."""
        q = subfield_order
        if q < 2 or (self.order - 1) % (q - 1) != 0:
            raise ValueError(f"GF({q}) is not a subfield of GF({self.p}^{self.k})")
        # q must be p^s with s | k
        s = self._s_of(q)
        if self.p**s != q or self.k % s != 0:
            raise ValueError(f"GF({q}) is not a subfield of GF({self.p}^{self.k})")
        return (self.order - 1) // (q - 1)

    def subfield_elements(self, subfield_order: int) -> list[int]:
        """The copy of GF(subfield_order) inside this field, as indices."""
        stride = self.subfield_exponent_stride(subfield_order)
        return [0] + [self.element_of_exponent(stride * t)
                      for t in range(subfield_order - 1)]

    def trace_to_subfield(self, a: int, subfield_order: int) -> int:
        """Trace of a down to GF(subfield_order), as a subfield element index.

        Tr(a) = a + a^q + a^(q^2) + ... with k/s terms for q = p^s.  The
        result always lies in the subfield copy; it is returned in the
        subfield's own dense labeling (generator alpha^stride).
        """
        stride = self.subfield_exponent_stride(subfield_order)
        q = subfield_order
        terms = self.k // self._s_of(q)
        total = 0
        power = a
        for _ in range(terms):
            total = self.add(total, power)
            power = self.pow(power, q)
        if total == 0:
            return 0
        exponent = self.log(total)
        if exponent % stride != 0:
            raise AssertionError("trace left the subfield; table build is broken")
        return 1 + (exponent // stride) % (q - 1)

    def _s_of(self, subfield_order: int) -> int:
        s = 0
        value = 1
        while value < subfield_order:
            value *= self.p
            s += 1
        return s

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, k={self.k}, modulus={self.modulus})"


def field_build(p: int, k: int, modulus: Polynomial | None = None) -> FiniteField:
    """Build GF(p^k); rejects a non-primitive modulus during table build."""
    return FiniteField(p, k, modulus)
