"""End-to-end benchmark of the reproduction, measured from outside the program.

Three workloads, each in fresh child processes; end-to-end host-time metrics
from untraced reps, in host-normalised seconds, per-layer metrics from one
separately traced rep.  Run
it from the repository root with ``python -m benchmarks.e2e run``; see
``README.md`` in this directory.
"""

__all__: list = []
