"""Analysis extensions: quantifying what sampling rate buys scientifically.

The paper's what-if layer treats the required sampling rate as an input
("assume that the climate scientists need to track the eddies by the hour").
This package closes the loop: :mod:`repro.analysis.quality` measures, on the
*real* mini ocean model, how eddy-tracking fidelity actually degrades as the
output cadence coarsens — the "cognitive fidelity" the abstract promises to
maintain.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.quality import (
        SamplingQuality,
        evaluate_sampling_quality,
        quality_table,
    )

__all__ = ["SamplingQuality", "evaluate_sampling_quality", "quality_table"]

__getattr__, __dir__ = lazy_exports(__name__)
