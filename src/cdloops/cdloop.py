"""n-fold Cayley-Dickson loops over a finite cyclic scalar group.

Repeated doubling of the scalar group Z introduces generators l_1, ..., l_n
with l_i**2 = gamma_i.  Every element of the resulting loop is uniquely a
scalar times a basis monomial, so we represent elements as (scalar, mask)
pairs where bit i-1 of the mask says whether l_i participates.  The product
of two basis monomials is the monomial of the XOR'd mask times a scalar
"twist", so multiplication never touches symbolic trees.

The twist exponents form one dense 2**n x 2**n table per loop, built by
applying the doubling law one generator at a time to the whole table (see
twist_table) and cached on the descriptor; the surveys read it.  Single
products unroll the same law over the mask bits instead (twist_exp), so
they cost O(n) at every depth up to MAX_GENERATORS and build no table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .budget import ensure_budget
from .scalars import Scalar, ScalarGroup

MAX_GENERATORS = 16


@dataclass(frozen=True)
class CDLoop:
    """Loop descriptor: scalar group Z plus the doubling constants gamma_i."""

    z: ScalarGroup
    gammas: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(self.gammas))
        if len(self.gammas) > MAX_GENERATORS:
            raise ValueError(
                f"at most {MAX_GENERATORS} doubling steps supported, "
                f"got {len(self.gammas)}"
            )
        for g in self.gammas:
            if g.group != self.z:
                raise ValueError(f"gamma {g} does not belong to {self.z}")

    @classmethod
    def all_minus_one(cls, z: ScalarGroup, n: int) -> "CDLoop":
        """The loop (-1, ..., -1)_Z with n doubling steps."""
        return cls(z, tuple(z.minus_one for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def order(self) -> int:
        return (1 << self.n) * self.z.order

    @property
    def identity(self) -> "LoopElement":
        return LoopElement(self, self.z.one, 0)

    def generator(self, i: int) -> "LoopElement":
        """l_i, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        return LoopElement(self, self.z.one, 1 << (i - 1))

    def element(self, scalar: Scalar, mask: int) -> "LoopElement":
        return LoopElement(self, scalar, mask)

    # -- multiplication core ------------------------------------------------

    def twist_exp(self, e: int, f: int) -> int:
        """Exponent of the scalar t(e, f) with b(e)*b(f) = t(e, f)*b(e^f).

        The doubling law of twist_table, unrolled from the top generator
        down for one pair of masks, so a single product builds no table.
        """
        half = self.z.order // 2
        exp = 0
        for level in range(self.n, 0, -1):
            top = 1 << (level - 1)
            a, b = e & top, f & top
            e, f = e & (top - 1), f & (top - 1)
            if a:
                if f:
                    exp += half
                if b:
                    exp += self.gammas[level - 1].exponent
            if b:
                e, f = f, e
        return exp % self.z.order

    def twist_table(self) -> np.ndarray:
        """Dense read-only table of twist_exp(e, f), built once per descriptor.

        Each generator l_k doubles the table T of l_1..l_{k-1}: the doubling
        law (q + r*l)(s + t*l) = qs + gamma*conj(t)*r + (t*q + r*conj(s))*l
        keeps one term per pair of monomials, giving [[T, T.T], [T + S,
        T.T + S + gamma]] mod |Z|, where S is |Z|/2 (conj's sign) in every
        column but 0.  Entries are stored in the narrowest unsigned dtype
        that holds the sum of two of them.  The table has 4**n entries;
        callers charge the budget.
        """
        return self._twist_table

    @cached_property
    def _twist_table(self) -> np.ndarray:
        order = self.z.order
        dtype = np.min_scalar_type(2 * (order - 1))
        table = np.zeros((1, 1), dtype=dtype)
        for g in self.gammas:
            sign = np.full(len(table), order // 2, dtype=dtype)
            sign[0] = 0
            sign_gamma = (sign + dtype.type(g.exponent)) % order
            flip = table.T
            table = np.block(
                [[table, flip], [(table + sign) % order, (flip + sign_gamma) % order]]
            )
        table.flags.writeable = False
        return table

    def twist(self, e: int, f: int) -> Scalar:
        self._check_mask(e)
        self._check_mask(f)
        return Scalar(self.z, self.twist_exp(e, f))

    def mul(self, x: "LoopElement", y: "LoopElement") -> "LoopElement":
        self._check_member(x)
        self._check_member(y)
        exp = (
            x.scalar.exponent + y.scalar.exponent + self.twist_exp(x.mask, y.mask)
        ) % self.z.order
        return LoopElement(self, Scalar(self.z, exp), x.mask ^ y.mask)

    def conj(self, x: "LoopElement") -> "LoopElement":
        """The doubling involution: fixes scalars, negates every other monomial."""
        self._check_member(x)
        if x.mask == 0:
            return x
        return LoopElement(self, -x.scalar, x.mask)

    def inv(self, x: "LoopElement") -> "LoopElement":
        self._check_member(x)
        exp = (-x.scalar.exponent - self.twist_exp(x.mask, x.mask)) % self.z.order
        return LoopElement(self, Scalar(self.z, exp), x.mask)

    def commutator(self, x: "LoopElement", y: "LoopElement") -> "LoopElement":
        """The unique c with x*y = c*(y*x); lands in {1, -1}."""
        return self.mul(self.mul(x, y), self.inv(self.mul(y, x)))

    def associator(
        self, x: "LoopElement", y: "LoopElement", z: "LoopElement"
    ) -> "LoopElement":
        """The unique c with (x*y)*z = c*(x*(y*z)); lands in {1, -1}."""
        left = self.mul(self.mul(x, y), z)
        right = self.mul(x, self.mul(y, z))
        return self.mul(left, self.inv(right))

    def elements(self, max_elements: int | None = None) -> list["LoopElement"]:
        """All 2**n * |Z| elements, scalar-major then mask."""
        ensure_budget(self.order, max_elements, "loop enumeration")
        return [
            LoopElement(self, Scalar(self.z, k), mask)
            for k in range(self.z.order)
            for mask in range(1 << self.n)
        ]

    # -- helpers -------------------------------------------------------------

    def _check_mask(self, e: int) -> None:
        if not 0 <= e < (1 << self.n):
            raise ValueError(f"mask {e:#x} does not fit in {self.n} bits")

    def _check_member(self, x: "LoopElement") -> None:
        if x.loop is not self and x.loop != self:
            raise ValueError("element belongs to a different loop")

    def describe(self) -> str:
        gammas = ",".join(self.z.format(g) for g in self.gammas)
        return f"({gammas})_Z{self.z.order}"


@dataclass(frozen=True)
class LoopElement:
    """One monomial scalar * l^mask of a Cayley-Dickson loop."""

    loop: CDLoop
    scalar: Scalar
    mask: int

    def __post_init__(self):
        if self.scalar.group != self.loop.z:
            raise ValueError("scalar belongs to a different group")
        if not 0 <= self.mask < (1 << self.loop.n):
            raise ValueError(f"mask {self.mask:#x} does not fit in {self.loop.n} bits")

    @property
    def is_scalar(self) -> bool:
        return self.mask == 0

    def __mul__(self, other: "LoopElement") -> "LoopElement":
        return self.loop.mul(self, other)

    def inv(self) -> "LoopElement":
        return self.loop.inv(self)

    def conj(self) -> "LoopElement":
        return self.loop.conj(self)

    def __str__(self) -> str:
        monomial = "".join(
            f"l{i + 1}" for i in range(self.loop.n) if self.mask >> i & 1
        )
        if not monomial:
            return str(self.scalar)
        if self.scalar.is_one:
            return monomial
        return f"{self.scalar}*{monomial}"
