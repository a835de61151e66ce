"""Permutations of {1..n} in one-line notation (1-based throughout)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .matrix import _unchecked


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; ``image[i-1]`` is the value at ``i``."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        if not all(type(v) is int for v in image):
            raise TypeError(f"permutation entries must be integers, got {image!r}")
        object.__setattr__(self, "image", image)
        n = len(image)
        if n == 0:
            raise ValueError("a permutation needs at least one point")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {image}")

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"point {i} outside 1..{self.n}")
        return self.image[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """(self . other)(i) = self(other(i)): other acts first."""
        if self.n != other.n:
            raise DimensionMismatch(f"cannot compose on {self.n} and {other.n} points")
        return _unchecked(Permutation, image=tuple(self.image[j - 1] for j in other.image))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image, start=1):
            inv[v - 1] = i
        return _unchecked(Permutation, image=tuple(inv))

    def sign(self) -> int:
        """+1 for even, -1 for odd, via the cycle decomposition."""
        seen = [False] * self.n
        transpositions = 0
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            cursor = start
            while not seen[cursor]:
                seen[cursor] = True
                cursor = self.image[cursor] - 1
                length += 1
            transpositions += length - 1
        return 1 if transpositions % 2 == 0 else -1

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image, start=1))

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"
