"""Intermediate representation of projective nested-loop programs.

The paper (eq. 2.1) studies programs of the form::

    for x_1 in [L_1], ..., for x_d in [L_d]:
        operate on A_1[phi_1(x)], ..., A_n[phi_n(x)]

restricted to the *projective* case: each index map ``phi_j`` selects a
subset of the loop indices (e.g. ``phi(x1..x5) = (x1, x4)``).  A
projective map is therefore fully described by its *support* — the set
of loop positions it keeps — which is how :class:`ArrayRef` stores it.

The IR is deliberately small: a :class:`LoopNest` is loop names, loop
bounds, and one :class:`ArrayRef` per distinct array access.  Everything
else in the library (HBL LP, Theorem-2 bounds, tiling LP, simulators,
kernels) consumes this type.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod
from typing import Iterator, Mapping, Sequence

from ..util.rationals import beta_vector

__all__ = ["ArrayRef", "LoopNest", "LoopNestError"]

#: Largest iteration count a nest may have: the lower bound and every
#: traffic figure are floats, and a larger count overflows them.
MAX_OPERATIONS = int(sys.float_info.max)


class LoopNestError(ValueError):
    """Raised for structurally invalid loop nests."""


@dataclass(frozen=True)
class ArrayRef:
    """One projective array access ``A[phi(x)]``.

    Attributes
    ----------
    name:
        Array identifier, unique within a nest.
    support:
        Strictly increasing tuple of 0-based loop positions that the
        projection keeps.  ``A[i, k]`` in a nest with loops
        ``(i, j, k)`` has support ``(0, 2)``.
    is_output:
        Whether the reference is written (LHS of the statement).  Only
        affects traffic accounting (stores vs loads), never the bounds:
        the paper's model charges a word movement for any access.
    """

    name: str
    support: tuple[int, ...]
    is_output: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise LoopNestError("array name must be nonempty")
        if list(self.support) != sorted(set(self.support)):
            raise LoopNestError(
                f"support of {self.name!r} must be strictly increasing, got {self.support}"
            )
        if self.support and self.support[0] < 0:
            raise LoopNestError(f"negative loop position in support of {self.name!r}")

    def contains(self, loop: int) -> bool:
        """Whether loop position ``loop`` is in this access's support."""
        return loop in self.support

    def project(self, point: Sequence[int]) -> tuple[int, ...]:
        """Apply the projection ``phi`` to an iteration-space point."""
        return tuple(point[i] for i in self.support)


@dataclass(frozen=True)
class LoopNest:
    """A d-deep projective loop nest over n array accesses.

    Invariants enforced at construction:

    * loop names unique, bounds positive integers;
    * at most ``MAX_OPERATIONS`` (~1.8e308) iterations in all;
    * array supports reference valid loop positions;
    * every loop appears in the support of at least one array (the
      paper's w.l.o.g. assumption after [CDK+13] — a loop touching no
      array can be hoisted out of the communication analysis).
    """

    name: str
    loops: tuple[str, ...]
    bounds: tuple[int, ...]
    arrays: tuple[ArrayRef, ...]

    def __post_init__(self) -> None:
        if len(self.loops) != len(self.bounds):
            raise LoopNestError("loops and bounds must have equal length")
        if len(set(self.loops)) != len(self.loops):
            raise LoopNestError(f"duplicate loop names in {self.loops}")
        if not self.arrays:
            raise LoopNestError("a loop nest needs at least one array access")
        if any(b < 1 for b in self.bounds):
            raise LoopNestError(f"loop bounds must be >= 1, got {self.bounds}")
        operations = prod(self.bounds)
        if operations > MAX_OPERATIONS:
            raise LoopNestError(
                f"the nest has about 2**{operations.bit_length() - 1} iterations, "
                "more than a float can hold (~1.8e308)"
            )
        names = [a.name for a in self.arrays]
        if len(set(names)) != len(names):
            raise LoopNestError(f"duplicate array names {names}")
        d = len(self.loops)
        for arr in self.arrays:
            if arr.support and arr.support[-1] >= d:
                raise LoopNestError(
                    f"array {arr.name!r} references loop position {arr.support[-1]} "
                    f"but the nest has only {d} loops"
                )
        covered = set()
        for arr in self.arrays:
            covered.update(arr.support)
        missing = [self.loops[i] for i in range(d) if i not in covered]
        if missing:
            raise LoopNestError(
                f"loops {missing} appear in no array access; hoist them out "
                "before analysis (paper §2 w.l.o.g. assumption)"
            )

    # -- basic shape ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of loops ``d``."""
        return len(self.loops)

    @property
    def num_arrays(self) -> int:
        """Number of array accesses ``n``."""
        return len(self.arrays)

    @property
    def num_operations(self) -> int:
        """Total iteration count ``prod_i L_i`` (the paper's |hyper-rectangle|)."""
        return prod(self.bounds)

    def loop_position(self, loop_name: str) -> int:
        try:
            return self.loops.index(loop_name)
        except ValueError:
            raise LoopNestError(f"unknown loop {loop_name!r} in nest {self.name!r}") from None

    def array(self, name: str) -> ArrayRef:
        for arr in self.arrays:
            if arr.name == name:
                return arr
        raise LoopNestError(f"unknown array {name!r} in nest {self.name!r}")

    # -- derived combinatorial structure --------------------------------------

    def support_matrix(self) -> list[list[int]]:
        """The n-by-d 0/1 matrix with rows ``phi_j`` (paper eq. 3.2/3.3)."""
        mat = []
        for arr in self.arrays:
            row = [0] * self.depth
            for i in arr.support:
                row[i] = 1
            mat.append(row)
        return mat

    def arrays_containing(self, loop: int) -> tuple[int, ...]:
        """``R_j`` from §4.2: indices of arrays whose support contains ``loop``."""
        return tuple(j for j, arr in enumerate(self.arrays) if arr.contains(loop))

    def array_size(self, j: int) -> int:
        """Number of distinct elements of array ``j`` the nest touches."""
        return prod(self.bounds[i] for i in self.arrays[j].support)

    def total_footprint(self) -> int:
        """Sum of all array sizes (the §6.3 small-problem caveat threshold)."""
        return sum(self.array_size(j) for j in range(self.num_arrays))

    def betas(self, cache_words: int, digits: int = 15) -> list[Fraction]:
        """``beta_i = log_M L_i`` as exact/approximate Fractions."""
        return beta_vector(self.bounds, cache_words, digits=digits)

    # -- transforms ------------------------------------------------------------

    def with_bounds(self, bounds: Sequence[int] | Mapping[str, int]) -> "LoopNest":
        """Same structure, new loop bounds (sequence or name-keyed mapping)."""
        if isinstance(bounds, Mapping):
            new = list(self.bounds)
            for k, v in bounds.items():
                new[self.loop_position(k)] = int(v)
            bounds = new
        return replace(self, bounds=tuple(int(b) for b in bounds))

    def permuted(self, order: Sequence[int]) -> "LoopNest":
        """Reorder loops by ``order`` (a permutation of range(d)).

        Supports are remapped accordingly; used by tests to check that
        all analyses are invariant under loop permutation.
        """
        d = self.depth
        if sorted(order) != list(range(d)):
            raise LoopNestError(f"{order} is not a permutation of range({d})")
        inverse = [0] * d
        for new_pos, old_pos in enumerate(order):
            inverse[old_pos] = new_pos
        arrays = tuple(
            replace(arr, support=tuple(sorted(inverse[i] for i in arr.support)))
            for arr in self.arrays
        )
        return LoopNest(
            name=self.name,
            loops=tuple(self.loops[i] for i in order),
            bounds=tuple(self.bounds[i] for i in order),
            arrays=arrays,
        )

    def restricted(self, fixed: Mapping[int, int]) -> "LoopNest":
        """Nest with the loops in ``fixed`` pinned (bound forced to 1).

        Models the paper's "slice" construction (§4.1): fixing ``x_j``
        removes that loop from the communication analysis.
        """
        new_bounds = list(self.bounds)
        for pos in fixed:
            if not 0 <= pos < self.depth:
                raise LoopNestError(f"loop position {pos} out of range")
            new_bounds[pos] = 1
        return replace(self, bounds=tuple(new_bounds))

    # -- explicit iteration (small instances; oracles and trace generation) ----

    def iteration_points(self) -> Iterator[tuple[int, ...]]:
        """Yield every point of ``[L_1] x ... x [L_d]`` (0-based)."""
        if self.num_operations > 2_000_000:
            raise LoopNestError(
                f"refusing to enumerate {self.num_operations} iteration points; "
                "use the analytic paths for large nests"
            )
        idx = [0] * self.depth
        while True:
            yield tuple(idx)
            for pos in range(self.depth - 1, -1, -1):
                idx[pos] += 1
                if idx[pos] < self.bounds[pos]:
                    break
                idx[pos] = 0
            else:
                return

    def touched_elements(self, j: int, points: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
        """``phi_j(S)`` for an explicit point set ``S`` (paper §2)."""
        arr = self.arrays[j]
        return {arr.project(p) for p in points}

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-safe dict: the inverse of :meth:`from_json` (lossless)."""
        return {
            "name": self.name,
            "loops": list(self.loops),
            "bounds": list(self.bounds),
            "arrays": [
                {"name": a.name, "support": list(a.support), "is_output": a.is_output}
                for a in self.arrays
            ],
        }

    @classmethod
    def from_json(cls, blob: Mapping) -> "LoopNest":
        """Rebuild a nest from :meth:`to_json` output (validated)."""
        try:
            arrays = tuple(
                ArrayRef(
                    name=str(entry["name"]),
                    support=tuple(int(i) for i in entry["support"]),
                    is_output=bool(entry.get("is_output", False)),
                )
                for entry in blob["arrays"]
            )
            return cls(
                name=str(blob.get("name", "nest")),
                loops=tuple(str(x) for x in blob["loops"]),
                bounds=tuple(int(b) for b in blob["bounds"]),
                arrays=arrays,
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise LoopNestError(f"malformed nest JSON: {exc}") from exc

    # -- misc -------------------------------------------------------------------

    def describe(self) -> str:
        """One-line summary, e.g. ``matmul: i<=1024 j<=1024 k<=32 | C[i,k] A[i,j] B[j,k]``."""
        loops = " ".join(f"{nm}<={b}" for nm, b in zip(self.loops, self.bounds))
        arrays = " ".join(
            ("*" if a.is_output else "") + f"{a.name}[{','.join(self.loops[i] for i in a.support)}]"
            for a in self.arrays
        )
        return f"{self.name}: {loops} | {arrays}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
