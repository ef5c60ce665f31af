"""Exact scalars: the rationals or a prime field F_p.

A Field instance fixes the ground field for a whole session.  There is
one instance per `FieldSpec`: `Field(spec)`, `QQ()`, `GF(p)` and a
problem file's field all return it, so two fields are equal exactly when
they are the same instance, and a field carries linalg's shared empty
matrices (`empties`) for every caller.  Rational
values are `fractions.Fraction` (always lowest terms, positive
denominator); F_p values are ints in [0, p).  These are the scalar types
at the boundary of `linalg`: matrices take and return them, but store
integer rows over one denominator and compute on those, with no call
into this class per entry.  Mixed-field arithmetic is an error
everywhere in this package, never a coercion.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Serializable description of the ground field: "Q" or ("Fp", p)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
        elif self.kind == "Fp":
            if self.p is None or not (2 <= self.p <= 2**31) or not _is_prime(self.p):
                raise ValueError(f"modulus must be a prime <= 2^31, got {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")


class Field:
    """Arithmetic in one fixed exact field, one instance per spec."""

    _instances: dict[FieldSpec, Field] = {}

    def __new__(cls, spec: FieldSpec):
        f = cls._instances.get(spec)
        if f is None:
            f = cls._instances[spec] = object.__new__(cls)
            f.spec, f.p = spec, spec.p
            f.empties = {}      # linalg's shared matrices with no rows or no columns
        return f

    def __reduce__(self):
        # a copy or an unpickled field is the one instance of its spec
        return Field, (self.spec,)

    @property
    def is_rational(self) -> bool:
        return self.spec.kind == "Q"

    @property
    def characteristic(self) -> int:
        return 0 if self.is_rational else self.p

    def zero(self):
        return Fraction(0) if self.is_rational else 0

    def one(self):
        return Fraction(1) if self.is_rational else 1

    def of_int(self, n: int):
        return Fraction(n) if self.is_rational else n % self.p

    def add(self, a, b):
        return a + b if self.is_rational else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.is_rational else (a - b) % self.p

    def neg(self, a):
        return -a if self.is_rational else (-a) % self.p

    def mul(self, a, b):
        return a * b if self.is_rational else (a * b) % self.p

    def inv(self, a):
        if self.is_rational:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / a
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, s):
        """Read a scalar from its JSON form: an int or an "a/b" string.
        Raises ValueError on anything else, including a denominator that is
        zero in the field.  A JSON true or false is no scalar."""
        if isinstance(s, int) and not isinstance(s, bool):
            return self.of_int(s)
        if isinstance(s, str):
            if self.is_rational:
                try:
                    return Fraction(s)
                except ZeroDivisionError:
                    raise ValueError(f"scalar {s!r} has a zero denominator") from None
            if "/" in s:
                num, den = s.split("/")
                den = self.of_int(int(den))
                if den == 0:
                    raise ValueError(f"scalar {s!r} has a denominator divisible "
                                     f"by {self.p}")
                return self.div(self.of_int(int(num)), den)
            return self.of_int(int(s))
        raise ValueError(f"cannot parse scalar {s!r}")

    def format(self, a):
        """JSON form of a scalar: int where possible, else "a/b"."""
        if self.is_rational:
            if a.denominator == 1:
                return int(a)
            return f"{a.numerator}/{a.denominator}"
        return int(a)

    def __repr__(self):
        return "QQ" if self.is_rational else f"GF({self.p})"


def QQ() -> Field:
    return Field(FieldSpec("Q"))


def GF(p: int) -> Field:
    return Field(FieldSpec("Fp", p))


class FieldMismatch(ValueError):
    """Raised when operands live over different ground fields."""
