"""Positive unital linear maps used to stress congruence-type inequalities.

Four families are enough to exercise every map inequality in the catalog:
corner compressions, block-diagonal pinchings, convex mixtures of unitary
congruences, and the normalized-trace map.  Each one sends PSD to PSD and
the identity to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import PreconditionError, as_matrix
from .sectors import _unitary

__all__ = [
    "Compression",
    "Pinching",
    "UnitaryMixture",
    "TraceAverage",
    "PositiveUnitalMap",
    "MAP_KINDS",
    "apply_map",
    "random_map",
]

MAP_KINDS = ("compression", "pinching", "unitary_mixture", "trace_average")


@dataclass(frozen=True, eq=False)
class Compression:
    """Phi(A) = leading k-by-k corner of A (compression by a coordinate isometry)."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise PreconditionError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def out_dim(self) -> int:
        return self.k

    def apply(self, A: np.ndarray) -> np.ndarray:
        return A[: self.k, : self.k].copy()


@dataclass(frozen=True, eq=False)
class Pinching:
    """Phi(A) keeps the diagonal blocks of the given sizes and zeroes the rest."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.blocks or any(b < 1 for b in self.blocks):
            raise PreconditionError(f"block sizes must be positive, got {self.blocks}")

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @property
    def out_dim(self) -> int:
        return self.n

    def apply(self, A: np.ndarray) -> np.ndarray:
        out = np.zeros_like(A)
        start = 0
        for b in self.blocks:
            sl = slice(start, start + b)
            out[sl, sl] = A[sl, sl]
            start += b
        return out


@dataclass(frozen=True, eq=False)
class UnitaryMixture:
    """Phi(A) = sum_i p_i U_i* A U_i with probabilities p summing to 1."""

    unitaries: tuple[np.ndarray, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.unitaries) != len(self.probs) or not self.unitaries:
            raise PreconditionError("need matching, non-empty unitaries and probabilities")
        if any(p < 0.0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-12:
            raise PreconditionError(f"probabilities must be >= 0 and sum to 1, got {self.probs}")
        n = self.unitaries[0].shape[0]
        for U in self.unitaries:
            U = as_matrix(U)
            if U.shape != (n, n):
                raise PreconditionError("all unitaries must share one dimension")
            if np.abs(U.conj().T @ U - np.eye(n)).max() > 1e-10:
                raise PreconditionError("mixture member is not unitary within 1e-10")

    @property
    def n(self) -> int:
        return self.unitaries[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.n

    def apply(self, A: np.ndarray) -> np.ndarray:
        out = np.zeros_like(A)
        for p, U in zip(self.probs, self.unitaries):
            out += p * (U.conj().T @ A @ U)
        return out


@dataclass(frozen=True, eq=False)
class TraceAverage:
    """Phi(A) = (tr A / n) I_k, the normalized trace times an identity."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise PreconditionError(f"need n, k >= 1, got n={self.n}, k={self.k}")

    @property
    def out_dim(self) -> int:
        return self.k

    def apply(self, A: np.ndarray) -> np.ndarray:
        return (np.trace(A) / self.n) * np.eye(self.k, dtype=np.complex128)


PositiveUnitalMap = Union[Compression, Pinching, UnitaryMixture, TraceAverage]


def apply_map(phi: PositiveUnitalMap, A: np.ndarray) -> np.ndarray:
    A = as_matrix(A)
    if A.shape[0] != phi.n:
        raise PreconditionError(f"map expects dimension {phi.n}, got {A.shape[0]}")
    return phi.apply(A)


def random_map(kind: str, n: int, rng: np.random.Generator) -> PositiveUnitalMap:
    """Draw a map of the requested kind with parameters from rng."""
    if kind == "compression":
        k = int(rng.integers(1, n)) if n > 1 else 1
        return Compression(n=n, k=k)
    if kind == "pinching":
        sizes: list[int] = []
        rem = n
        while rem > 0:
            hi = rem if (sizes or n == 1) else rem - 1
            b = int(rng.integers(1, hi + 1)) if hi > 1 else 1
            sizes.append(b)
            rem -= b
        return Pinching(blocks=tuple(sizes))
    if kind == "unitary_mixture":
        m = int(rng.integers(2, 4))
        unitaries = tuple(_unitary(n, rng) for _ in range(m))
        raw = rng.uniform(0.1, 1.0, size=m)
        raw /= raw.sum()
        return UnitaryMixture(unitaries=unitaries, probs=tuple(float(p) for p in raw))
    if kind == "trace_average":
        k = int(rng.integers(1, n + 1))
        return TraceAverage(n=n, k=k)
    raise PreconditionError(f"unknown map kind {kind!r}, expected one of {MAP_KINDS}")
