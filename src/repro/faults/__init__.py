"""repro.faults — seeded fault injection and resilience.

The deterministic chaos layer for the reproduction: declarative
:class:`FaultSpec` schedules (OST dropout, MDS stall, write brownout,
transient I/O errors, node crashes) delivered by a :class:`FaultInjector`
as ordinary DES events; :class:`RetryPolicy` backoff on the storage paths;
:class:`CheckpointPolicy` periodic checkpoint/restart in the pipelines; and
the analytic :class:`FailureModel` (Daly/Young) that extends the paper's
Eq. 4 with expected rework and recovery.  Everything is a pure function of
``(seed, spec)`` — same inputs, bit-identical run.

See the README's "Fault injection & resilience" section for the spec format
and CLI examples.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.campaign import (
        FaultCampaignResult,
        PipelineFaultReport,
        run_fault_campaign,
    )
    from repro.faults.gate import FaultGate
    from repro.faults.injector import FaultInjector
    from repro.faults.model import FailureModel
    from repro.faults.resilience import CheckpointPolicy, ResumeState
    from repro.faults.retry import DEFAULT_RETRYABLE, RetryPolicy
    from repro.faults.spec import (
        FAULT_KINDS,
        IO_ERROR,
        MDS_STALL,
        NODE_CRASH,
        OST_DROPOUT,
        WRITE_BROWNOUT,
        FaultEvent,
        FaultSpec,
    )

__all__ = [
    "CheckpointPolicy",
    "DEFAULT_RETRYABLE",
    "FAULT_KINDS",
    "FailureModel",
    "FaultCampaignResult",
    "FaultEvent",
    "FaultGate",
    "FaultInjector",
    "FaultSpec",
    "IO_ERROR",
    "MDS_STALL",
    "NODE_CRASH",
    "OST_DROPOUT",
    "PipelineFaultReport",
    "ResumeState",
    "RetryPolicy",
    "WRITE_BROWNOUT",
    "run_fault_campaign",
]

__getattr__, __dir__ = lazy_exports(__name__)
