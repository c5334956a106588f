"""The scalar group Z: a finite cyclic group of even order written multiplicatively.

Elements are stored as exponents of a fixed abstract generator g, so the
group law is exponent addition mod order.  The even-order requirement makes
the unique element of order 2 (exponent order/2) available to play the role
of -1; every twist sign and involution sign lands on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalarGroup:
    """Cyclic group of even order; element k means g**k."""

    order: int

    def __post_init__(self):
        if self.order < 2 or self.order % 2 != 0:
            raise ValueError(
                f"scalar group order must be even and >= 2, got {self.order}"
            )

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 0)

    @property
    def minus_one(self) -> "Scalar":
        return Scalar(self, self.order // 2)

    def scalar(self, exponent: int) -> "Scalar":
        return Scalar(self, exponent % self.order)

    def elements(self) -> list["Scalar"]:
        return [Scalar(self, k) for k in range(self.order)]

    def parse(self, token: str) -> "Scalar":
        """Read a scalar from its CLI spelling.

        Integers (an optional sign, then ASCII digits) are exponents,
        reduced mod order; the spellings "+1" and "-1" are shorthands for
        exponents 0 and order/2.  (Exponent -1 itself must be written as
        order-1.)
        """
        token = token.strip()
        if token == "+1":
            return self.one
        if token == "-1":
            return self.minus_one
        digits = token[1:] if token[:1] in ("+", "-") else token
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse scalar token {token!r}")
        return self.scalar(int(token))

    def format(self, s: "Scalar") -> str:
        if s.group != self:
            raise ValueError("scalar belongs to a different group")
        if s.exponent == 0:
            return "+1"
        if s.exponent == self.order // 2:
            return "-1"
        return str(s.exponent)


def twist_dtype(order: int) -> np.dtype:
    """Exponent arrays' dtype: the narrowest unsigned one that holds 2|Z| - 2,
    object beyond uint64.  Every unsigned maximum is odd, so it holds 2|Z| - 1,
    the largest sum add_exponents forms, as well."""
    return np.min_scalar_type(2 * (order - 1))


def add_exponents(a, b, order: int, out=None) -> np.ndarray:
    """(a + b) mod |Z| for arrays in twist_dtype(order), a reduced (0..|Z|-1)
    and b in 0..|Z|, so a - t is add_exponents(a, order - t, order).  In an
    unsigned dtype s = a + b <= 2|Z| - 1, and s - |Z| (NumPy keeps the Python
    int in s's dtype) wraps above s exactly when s < |Z|, so min(s, s - |Z|)
    is the reduced sum.  Other dtypes (object beyond uint64) take remainders.
    """
    s = np.add(a, b, out=out)
    if s.dtype.kind != "u":
        return np.remainder(s, order, out=s)
    return np.minimum(s, s - order, out=s)


def make_scalar_group(order: int) -> ScalarGroup:
    """Z as the cyclic group of the given even order."""
    return ScalarGroup(order)


@dataclass(frozen=True)
class Scalar:
    group: ScalarGroup
    exponent: int

    def __post_init__(self):
        if not 0 <= self.exponent < self.group.order:
            raise ValueError(
                f"exponent {self.exponent} out of range for order {self.group.order}"
            )

    def __mul__(self, other: "Scalar") -> "Scalar":
        if other.group != self.group:
            raise ValueError("cannot multiply scalars from different groups")
        return Scalar(self.group, (self.exponent + other.exponent) % self.group.order)

    def inv(self) -> "Scalar":
        return Scalar(self.group, (-self.exponent) % self.group.order)

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    def __str__(self) -> str:
        return self.group.format(self)
