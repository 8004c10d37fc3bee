"""The paper's primary contribution: characterization + modeling.

* :mod:`repro.core.metrics` — per-run measurements and comparison tables
  (execution time, power, energy, storage — Section V);
* :mod:`repro.core.model` — the analytical model, Equations (1)–(7);
* :mod:`repro.core.calibration` — solving for ``t_sim``, α, β from measured
  configurations (Equation 5), exactly or by least squares;
* :mod:`repro.core.whatif` — sampling-rate sweeps and budget inversions
  (Figures 9 and 10);
* :mod:`repro.core.advisor` — pipeline/rate recommendation under storage,
  energy and time constraints (Section VII's envisioned automated framework);
* :mod:`repro.core.characterization` — the full Section V experiment grid on
  a simulated platform.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.advisor import Constraints, PipelineAdvisor, Recommendation
    from repro.core.calibration import CalibrationResult, calibrate_exact, calibrate_least_squares
    from repro.core.characterization import CharacterizationStudy, run_characterization
    from repro.core.hypotheses import HypothesisVerdict, evaluate_hypotheses, findings_summary
    from repro.core.metrics import Measurement, MetricSet
    from repro.core.model import DataModel, PerformanceModel
    from repro.core.report import StudyReport, render_report
    from repro.core.whatif import WhatIfAnalyzer

__all__ = [
    "CalibrationResult",
    "CharacterizationStudy",
    "Constraints",
    "DataModel",
    "HypothesisVerdict",
    "Measurement",
    "MetricSet",
    "PerformanceModel",
    "PipelineAdvisor",
    "Recommendation",
    "StudyReport",
    "WhatIfAnalyzer",
    "calibrate_exact",
    "calibrate_least_squares",
    "evaluate_hypotheses",
    "findings_summary",
    "render_report",
    "run_characterization",
]

__getattr__, __dir__ = lazy_exports(__name__)
