"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.machine import caddy
from repro.events.engine import Simulator
from repro.ocean.driver import MPASOceanConfig
from repro.pipelines.base import PipelineSpec
from repro.pipelines.platform import SimulatedPlatform
from repro.pipelines.real import MiniOceanDriver
from repro.pipelines.sampling import SamplingPolicy
from repro.storage.lustre import StorageCluster
from repro.units import MONTH


@pytest.fixture
def sim() -> Simulator:
    """A fresh discrete-event simulator."""
    return Simulator()


@pytest.fixture
def cluster(sim):
    """The 150-node Caddy model."""
    return caddy(sim)


@pytest.fixture
def storage(sim):
    """The Lustre storage cluster model."""
    return StorageCluster(sim)


@pytest.fixture
def platform() -> SimulatedPlatform:
    """A fresh simulated platform (own simulator, cluster, storage)."""
    return SimulatedPlatform()


@pytest.fixture(scope="session")
def mini_driver() -> MiniOceanDriver:
    """A spun-up mini ocean model shared across read-only tests."""
    driver = MiniOceanDriver(nx=64, ny=32, seed=7)
    driver.advance(30)
    return driver


@pytest.fixture(scope="session")
def mini_fields(mini_driver) -> dict[str, np.ndarray]:
    """Output fields of the shared mini driver (do not mutate)."""
    return mini_driver.output_fields()


@pytest.fixture
def short_spec() -> PipelineSpec:
    """A 1-simulated-month campaign (fast: 10-30 samples)."""
    return PipelineSpec(
        ocean=MPASOceanConfig(duration_seconds=1 * MONTH),
        sampling=SamplingPolicy(72.0),
    )


def paper_spec(hours: float) -> PipelineSpec:
    """The paper's full 6-month campaign at a given cadence."""
    return PipelineSpec(sampling=SamplingPolicy(hours))
