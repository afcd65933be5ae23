"""Band splitting: an imperfect program -> maximal perfect projective bands.

A :class:`~repro.frontend.program.Program` is a statement *sequence*;
the planner wants perfect nests.  The classical decomposition (what
Tiramisu/Halide schedulers do before tiling) is to fuse maximal runs of
consecutive statements that share the same loop set into *bands*, each
of which is one perfect nest the paper's machinery handles directly:

* **Fusion rule** — statement ``k+1`` joins statement ``k``'s band iff
  it uses exactly the same set of loops.  A statement over a different
  loop set starts a new band (fusing across different iteration spaces
  would change the footprint model, not just the schedule).
* **Access merge** — the band's accesses are the union of its
  statements' accesses, halo-normalized by
  :func:`repro.frontend.stencil.normalize_accesses`: constant offsets
  are dropped (recorded as halo), duplicate projections collapse (a
  write plus a read of the same projection is one output reference),
  and true aliases — the same array through two *different* index
  tuples — are renamed ``A__2``, ``A__3``, ...
* **Loop order** — first-appearance order across the band's statements,
  so a single-statement band reproduces :func:`repro.core.parser.
  parse_nest`'s ordering exactly (and einsum twins stay bit-identical).

Each band lowers to a :class:`~repro.core.loopnest.LoopNest` named
``{program}.band{k}``, ready for one shared
:class:`~repro.plan.Planner` — bands with the same canonical structure
(e.g. a loop over matmul-shaped updates) hit the plan cache warm.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.loopnest import ArrayRef, LoopNest, LoopNestError
from .einsum import FrontendError
from .program import Program
from .stencil import normalize_accesses

__all__ = ["Band", "split_bands"]


@dataclass(frozen=True)
class Band:
    """One maximal perfect projective band of a program."""

    #: Position of the band within the program (0-based).
    index: int
    #: Indices of the program statements fused into this band.
    statement_indices: tuple[int, ...]
    #: The lowered perfect nest (named ``{program}.band{index}``).
    nest: LoopNest
    #: Per-array halo (max |offset| per index slot), sorted by array.
    halo: tuple[tuple[str, tuple[int, ...]], ...]
    #: Alias renames applied during normalization, sorted by alias.
    renames: tuple[tuple[str, str], ...]

    @property
    def halo_map(self) -> dict[str, tuple[int, ...]]:
        return dict(self.halo)

    @property
    def renames_map(self) -> dict[str, str]:
        return dict(self.renames)


def split_bands(program: Program) -> tuple[Band, ...]:
    """Decompose ``program`` into maximal perfect projective bands.

    Consecutive statements fuse while their loop *sets* are equal; each
    band's merged accesses are halo-normalized and lowered to one
    :class:`LoopNest` over the shared bounds.  Raises
    :class:`FrontendError` if a band is not a valid :class:`LoopNest`
    after normalization (e.g. a loop no array uses).
    """
    groups: list[list[int]] = []
    current_loops: frozenset[str] | None = None
    for idx, stmt in enumerate(program.statements):
        loops = frozenset(stmt.loop_names())
        if groups and loops == current_loops:
            groups[-1].append(idx)
        else:
            groups.append([idx])
            current_loops = loops

    bounds = program.bounds_map
    bands: list[Band] = []
    for band_index, members in enumerate(groups):
        statements = [program.statements[i] for i in members]
        order: list[str] = []
        for stmt in statements:
            for ident in stmt.loop_names():
                if ident not in order:
                    order.append(ident)
        position = {ident: i for i, ident in enumerate(order)}
        merged = tuple(acc for stmt in statements for acc in stmt.parsed.accesses)
        normalized, renames, halo = normalize_accesses(merged)
        arrays = tuple(
            ArrayRef(
                name=name,
                support=tuple(sorted(position[ident] for ident in indices)),
                is_output=is_output,
            )
            for name, indices, is_output in normalized
        )
        name = f"{program.name}.band{band_index}"
        try:
            nest = LoopNest(
                name=name,
                loops=tuple(order),
                bounds=tuple(int(bounds[ident]) for ident in order),
                arrays=arrays,
            )
        except LoopNestError as exc:
            raise FrontendError(
                f"program {program.name!r}: band {band_index} "
                f"(statements {members}) is not a valid loop nest: {exc}"
            ) from exc
        bands.append(
            Band(
                index=band_index,
                statement_indices=tuple(members),
                nest=nest,
                halo=tuple(sorted(halo.items())),
                renames=tuple(sorted(renames.items())),
            )
        )
    return tuple(bands)
