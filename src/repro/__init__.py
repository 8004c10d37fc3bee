"""repro — reproduction of *Characterizing and Modeling Power and Energy for
Extreme-Scale In-Situ Visualization* (Adhinarayanan et al., IPDPS 2017).

The library provides:

* a discrete-event compute-cluster + Lustre storage simulator with calibrated
  power models and paper-faithful metering (:mod:`repro.events`,
  :mod:`repro.cluster`, :mod:`repro.storage`, :mod:`repro.power`);
* a real, runnable mini ocean model with Okubo-Weiss eddy detection and a
  software renderer / Cinema image database (:mod:`repro.ocean`,
  :mod:`repro.viz`, :mod:`repro.io`);
* the two visualization pipelines of the paper's Fig. 1
  (:mod:`repro.pipelines`); and
* the paper's primary contribution — the characterization methodology and the
  performance/energy/storage model with what-if analysis
  (:mod:`repro.core`).

Quickstart::

    from repro import run_characterization
    study = run_characterization()
    print(study.table())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.calibration import calibrate_exact, calibrate_least_squares
    from repro.core.characterization import CharacterizationStudy, run_characterization
    from repro.core.metrics import Measurement, MetricSet
    from repro.core.model import PerformanceModel
    from repro.core.whatif import WhatIfAnalyzer

__version__ = "1.0.0"

__all__ = [
    "CharacterizationStudy",
    "Measurement",
    "MetricSet",
    "PerformanceModel",
    "WhatIfAnalyzer",
    "calibrate_exact",
    "calibrate_least_squares",
    "run_characterization",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__)
