"""Exact coefficient fields: the rationals and prime fields F_p.

Rational coefficients are plain ``fractions.Fraction`` values; prime-field
coefficients are ``ModInt`` residues.  A field object knows how to build
coefficients from integers and from integer ratios, and how to split a
coefficient into a sign and a printable magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ModInt:
    """A residue in F_p with exact modular arithmetic."""

    value: int
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.modulus)

    def _check(self, other):
        if not isinstance(other, ModInt) or other.modulus != self.modulus:
            raise ValueError("mixed prime-field arithmetic")

    def __add__(self, other):
        self._check(other)
        return ModInt(self.value + other.value, self.modulus)

    def __sub__(self, other):
        self._check(other)
        return ModInt(self.value - other.value, self.modulus)

    def __neg__(self):
        return ModInt(-self.value, self.modulus)

    def __mul__(self, other):
        self._check(other)
        return ModInt(self.value * other.value, self.modulus)

    def __truediv__(self, other):
        self._check(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return ModInt(self.value * pow(other.value, -1, self.modulus), self.modulus)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)


class RationalField:
    """The rational numbers; coefficients are ``Fraction`` values."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def ratio(self, num: int, den: int) -> Fraction:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return Fraction(num, den)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot use {x!r} as a rational coefficient")

    def split_sign(self, c: Fraction):
        """Return (negative?, magnitude) for rendering."""
        return c < 0, abs(c)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


# Miller-Rabin with these bases is exact for every p < 2**64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p in _WITNESSES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p; coefficients are ``ModInt`` residues."""

    def __init__(self, p: int):
        if p >= 2**64:
            raise ValueError(f"prime fields need p < 2**64, got {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)

    def ratio(self, num: int, den: int) -> ModInt:
        return self.coerce(num) / self.coerce(den)

    def coerce(self, x):
        if isinstance(x, ModInt):
            if x.modulus != self.p:
                raise ValueError("coefficient from a different prime field")
            return x
        if isinstance(x, int):
            return ModInt(x, self.p)
        raise TypeError(f"cannot use {x!r} as an F_{self.p} coefficient")

    def split_sign(self, c: ModInt):
        return False, c

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def parse_field(text: str):
    """Parse a field flag: ``q`` for the rationals, ``fp:<p>`` for F_p."""
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ValueError(f"bad prime field spec {text!r}") from None
        return PrimeField(p)
    raise ValueError(f"unknown field {text!r} (expected 'q' or 'fp:<p>')")
