"""Kept for the perfbench tracer only.

Ordered batches and sweeps are served by :meth:`repro.api.Session.batch`
and :meth:`repro.api.Session.sweep`.  ``perfbench/traced_serve.py``
patches :func:`parametric_tile_exponent` in every module that imports
it, this one included, so the name must stay importable from here.
"""

from ..core.mplp import parametric_tile_exponent  # noqa: F401
