"""The AccelTransport seam: protocol conformance, probe, fallback."""

import dataclasses

import pytest

from repro.soc.config import SoCConfig, SoCConfigError
from repro.soc.pcie import PcieParams, PcieTransport
from repro.soc.rocc import RoccInterface
from repro.soc.transport import (
    TRANSPORTS,
    AccelTransport,
    TransportResolution,
    build_transport,
    probe_transport,
    resolve_transport,
)


def test_both_attach_points_satisfy_the_protocol():
    assert isinstance(RoccInterface(), AccelTransport)
    assert isinstance(PcieTransport(), AccelTransport)


def test_registered_transport_names():
    assert TRANSPORTS == ("rocc", "pcie")


def test_rocc_probe_always_succeeds():
    assert probe_transport("rocc", SoCConfig()) is None


def test_pcie_probe_checks_capability():
    assert probe_transport("pcie", SoCConfig()) is None
    absent = SoCConfig(pcie=PcieParams(present=False))
    reason = probe_transport("pcie", absent)
    assert reason is not None and "pcie.present" in reason


def test_resolve_default_is_rocc_without_fallback():
    resolution = resolve_transport(SoCConfig())
    assert resolution == TransportResolution("rocc", "rocc")
    assert not resolution.fell_back


def test_unknown_transport_is_a_config_error_not_a_fallback():
    """An unknown name is a typo, not a missing device: surface it as a
    structured SoCConfigError naming the knob.  SoCConfig itself
    rejects it too; resolve_transport guards callers that bypass
    __post_init__ (here via dataclasses.replace-style mutation)."""
    config = SoCConfig()
    config.transport = "infiniband"
    with pytest.raises(SoCConfigError) as excinfo:
        resolve_transport(config)
    assert excinfo.value.knob == "transport"
    assert excinfo.value.value == "infiniband"


def test_probe_failure_falls_back_to_rocc_with_reason():
    config = SoCConfig(transport="pcie",
                       pcie=PcieParams(present=False))
    resolution = resolve_transport(config)
    assert resolution.requested == "pcie"
    assert resolution.effective == "rocc"
    assert resolution.fell_back
    assert "probe" in resolution.fallback_reason


def test_build_transport_returns_matching_implementation():
    rocc, resolution = build_transport(SoCConfig())
    assert isinstance(rocc, RoccInterface)
    assert not isinstance(rocc, PcieTransport)
    assert rocc.name == "rocc" and not resolution.fell_back

    pcie, resolution = build_transport(SoCConfig(transport="pcie"))
    assert isinstance(pcie, PcieTransport)
    assert pcie.name == "pcie" and not resolution.fell_back
    assert pcie.params == SoCConfig().pcie


def test_build_transport_honors_fallback():
    config = SoCConfig(transport="pcie", pcie=PcieParams(present=False))
    transport, resolution = build_transport(config)
    assert isinstance(transport, RoccInterface)
    assert not isinstance(transport, PcieTransport)
    assert resolution.fell_back


def test_driver_surfaces_the_resolution():
    from repro.accel.driver import ProtoAccelerator
    accel = ProtoAccelerator(
        config=SoCConfig(transport="pcie",
                         pcie=PcieParams(present=False)))
    assert accel.transport.name == "rocc"
    assert accel.transport_resolution.fell_back
    assert accel.transport_resolution.requested == "pcie"


def test_rocc_transport_surface_is_flat():
    """RoCC's window/payload hooks are no-ops and its drained cycles
    are exactly dispatch_cycles_each per issued instruction."""
    from repro.soc.rocc import RoccFunct, RoccInstruction
    rocc = RoccInterface(dispatch_cycles_each=4)
    rocc.begin_batch()
    rocc.issue(RoccInstruction(RoccFunct.DESER_INFO))
    rocc.note_payload(1 << 20)  # no link to charge
    rocc.end_batch()
    assert rocc.take_cycles() == 4.0
    assert rocc.take_cycles() == 0.0


def test_resolution_is_frozen():
    resolution = TransportResolution("rocc", "rocc")
    with pytest.raises(dataclasses.FrozenInstanceError):
        resolution.effective = "pcie"
