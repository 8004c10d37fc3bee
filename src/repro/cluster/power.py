"""Node and CPU power models for the compute cluster.

The models are utilization-driven: a socket draws its idle power plus a
dynamic component that scales with utilization (the fraction of cycles doing
work) and with the cube of the DVFS frequency ratio (the classic ``P ~ f V²``
approximation with voltage tracking frequency).

Default constants are calibrated so a 150-node cluster reproduces the
paper's measurements on *Caddy*: **15 kW idle** (100 W/node) and **44 kW**
running the MPAS-O workload (293.3 W/node) — the "193 % increase" of
Section V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["PState", "CpuPowerModel", "NodePowerModel"]

_INF = float("inf")


def _require(model: object, name: str, unit: str, positive: bool = False) -> None:
    """Reject a NaN, infinite or out-of-range constant where it arrives.

    Left in, such a value fails far from the input (a NaN idle power makes
    every draw NaN) or silently bends the model (``gamma = inf`` flattens
    the utilization curve).
    """
    value = getattr(model, name)
    # ``not`` of the chain also rejects NaN.
    if not (0 < value < _INF if positive else 0 <= value < _INF):
        floor = "> 0" if positive else ">= 0"
        raise ConfigurationError(
            f"{type(model).__name__}.{name} must be finite and {floor}{unit}, got {value}"
        )


@dataclass(frozen=True)
class PState:
    """A DVFS operating point of a CPU socket."""

    #: Core frequency in GHz.
    frequency_ghz: float
    #: Human-readable label, e.g. ``"P0"``.
    label: str = ""

    def __post_init__(self) -> None:
        _require(self, "frequency_ghz", " GHz", positive=True)


@dataclass(frozen=True)
class CpuPowerModel:
    """Power model of one CPU socket.

    ``power(util)`` = ``idle + (peak - idle) * util**gamma * (f/f_base)**3``
    where ``f`` is the current P-state frequency.  ``gamma = 1`` (linear in
    utilization) is the default and is what the paper's flat Fig. 5 implies
    for this workload mix.
    """

    idle_watts: float
    peak_watts: float
    base_frequency_ghz: float = 2.6
    gamma: float = 1.0
    pstates: tuple[PState, ...] = field(
        default_factory=lambda: (
            PState(2.6, "P0"),
            PState(2.2, "P1"),
            PState(1.8, "P2"),
            PState(1.2, "Pn"),
        )
    )

    def __post_init__(self) -> None:
        _require(self, "idle_watts", " W")
        _require(self, "peak_watts", " W")
        _require(self, "base_frequency_ghz", " GHz", positive=True)
        _require(self, "gamma", "", positive=True)
        if self.peak_watts < self.idle_watts:
            raise ConfigurationError(
                f"peak power {self.peak_watts} below idle {self.idle_watts}"
            )
        if not self.pstates:
            raise ConfigurationError("a CPU needs at least one P-state")

    def power(self, utilization: float, frequency_ghz: float | None = None) -> float:
        """Socket power in watts at the given utilization and frequency."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(f"utilization outside [0, 1]: {utilization}")
        f = self.base_frequency_ghz if frequency_ghz is None else frequency_ghz
        # NaN and inf too: a NaN or infinite draw would reach the power signal.
        if not 0 < f < _INF:
            raise ConfigurationError(f"frequency must be finite and > 0 GHz, got {f}")
        ratio = f / self.base_frequency_ghz
        dynamic = (self.peak_watts - self.idle_watts) * utilization**self.gamma
        try:
            cube = ratio**3
        except OverflowError:  # the cube leaves the float range
            cube = _INF
        watts = self.idle_watts + dynamic * cube
        # A finite frequency can still overflow the draw: reject it here too.
        if not watts < _INF:
            raise ConfigurationError(
                f"socket draw at utilization {utilization} and {f} GHz is not finite"
            )
        return watts

    def slowest_pstate(self) -> PState:
        """The lowest-frequency P-state (for idle-period management studies)."""
        return min(self.pstates, key=lambda p: p.frequency_ghz)


@dataclass(frozen=True)
class NodePowerModel:
    """Power model of a whole compute node.

    The node is ``base`` (board, fans, NIC) + ``n_sockets`` CPU sockets +
    DRAM, with DRAM power interpolating linearly between its idle and active
    draw with utilization.
    """

    cpu: CpuPowerModel
    n_sockets: int = 2
    base_watts: float = 34.0
    dram_idle_watts: float = 16.0
    dram_active_watts: float = 40.0

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise ConfigurationError(f"node needs >= 1 socket, got {self.n_sockets}")
        for name in ("base_watts", "dram_idle_watts", "dram_active_watts"):
            _require(self, name, " W")
        if self.dram_active_watts < self.dram_idle_watts:
            raise ConfigurationError("active DRAM power below idle DRAM power")

    @property
    def idle_watts(self) -> float:
        """Node power at zero utilization."""
        return self.power(0.0)

    @property
    def peak_watts(self) -> float:
        """Node power at full utilization and base frequency."""
        return self.power(1.0)

    def power(self, utilization: float, frequency_ghz: float | None = None) -> float:
        """Node power in watts at ``utilization``."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(f"utilization outside [0, 1]: {utilization}")
        dram = self.dram_idle_watts + (self.dram_active_watts - self.dram_idle_watts) * utilization
        cpu = self.cpu.power(utilization, frequency_ghz)
        watts = self.base_watts + dram + self.n_sockets * cpu
        if not watts < _INF:
            raise ConfigurationError(f"node draw is not finite: {watts}")
        return watts

    def dynamic_range(self) -> float:
        """Fractional increase from idle to peak (the paper's 193 % for compute)."""
        return self.peak_watts / self.idle_watts - 1.0


def e5_2670_node() -> NodePowerModel:
    """The calibrated *Caddy* node: 2 × 8-core Intel E5-2670 @ 2.6 GHz.

    Idle 100 W and peak 293.33 W per node, so that 150 nodes give the
    measured 15 kW idle and 44 kW under the MPAS-O workload.
    """
    cpu = CpuPowerModel(idle_watts=25.0, peak_watts=109.665, base_frequency_ghz=2.6)
    return NodePowerModel(cpu=cpu, n_sockets=2, base_watts=34.0,
                          dram_idle_watts=16.0, dram_active_watts=40.0)


__all__.append("e5_2670_node")
