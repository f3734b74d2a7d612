"""Driver-level fault recovery: every site, both recovery paths.

For each injection site the accelerator must survive a forced fault and
still produce the exact software-parser result: transient sites via a
retry (no CPU involvement), persistent sites via the per-message CPU
fallback.  Cycle accounting must charge the wasted attempt, the backoff
pauses, and any fallback decode on top of the productive work.
"""

import pytest

from repro.accel import perf
from repro.accel.driver import ProtoAccelerator
from repro.faults import (
    FaultPlan,
    FaultSite,
    PERSISTENT_SITES,
    RecoveryPolicy,
    TRANSIENT_SITES,
)
from repro.faults.plan import PCIE_SITES
from repro.proto import parse_schema
from repro.proto.decoder import parse_message
from repro.soc.config import SoCConfig

_SCHEMA = parse_schema("""
    message Inner { optional int32 v = 1; optional string tag = 2; }
    message Probe {
      optional int32 a = 1;
      optional string s = 2;
      optional Inner child = 3;
      repeated int32 packed = 4 [packed = true];
      repeated Inner kids = 5;
      optional sint64 z = 6;
      optional double d = 7;
    }
""")
# Reach the utf8.corrupt site: the validator only runs on strings with
# proto3-style validation enabled.
_SCHEMA["Probe"].field_by_name("s").validate_utf8 = True


def _probe_message():
    message = _SCHEMA["Probe"].new_message()
    message["a"] = 150
    message["s"] = "héllo wörld"
    message["z"] = -7
    message["d"] = 2.5
    message["packed"] = [3, 270, 86942]
    child = message.mutable("child")
    child["v"] = 99
    for tag in ("x", "y"):
        kid = message["kids"].add()
        kid["tag"] = tag
    return message


def _accel(plan=None, recovery=None, transport="rocc"):
    device = ProtoAccelerator(config=SoCConfig(transport=transport),
                              deser_arena_bytes=1 << 20,
                              ser_arena_bytes=1 << 20,
                              faults=plan, recovery=recovery)
    device.register_schema(_SCHEMA)
    return device


def _transport_for(site):
    """Transport sites only exist over PCIe; everything else is tested
    on the default RoCC attach point."""
    return "pcie" if site in PCIE_SITES else "rocc"


def _single_site_plan(site, **kwargs):
    kwargs.setdefault("rate", 1.0)
    kwargs.setdefault("max_trigger", 1)
    return FaultPlan(seed=1, sites=(site,), **kwargs)


_DESER_SITES = [s for s in FaultSite
                if s not in (FaultSite.SER_ABORT, FaultSite.SER_HANG)]
_SER_SITES = (FaultSite.ADT_ENTRY, FaultSite.BUS_STALL,
              FaultSite.TLB_FAULT, FaultSite.SER_ABORT,
              FaultSite.SER_HANG) + PCIE_SITES


@pytest.mark.parametrize("site", _DESER_SITES,
                         ids=[s.value for s in _DESER_SITES])
def test_deserialize_recovers_per_site(site):
    """One forced fault at each site: transient sites recover by retry,
    persistent sites by CPU fallback -- and the decoded message is
    bit-identical to the software parse either way."""
    message = _probe_message()
    wire = message.serialize()
    accel = _accel(_single_site_plan(site), transport=_transport_for(site))
    result = accel.deserialize(_SCHEMA["Probe"], wire)
    stats = result.stats
    assert stats.faults_injected == 1
    if site in TRANSIENT_SITES:
        assert stats.fault_retries == 1
        assert stats.cpu_fallbacks == 0
        assert stats.recovery_backoff_cycles > 0
    else:
        assert stats.fault_retries == 0
        assert stats.cpu_fallbacks == 1
        assert stats.fallback_cpu_cycles > 0
    observed = accel.read_message(_SCHEMA["Probe"], result.dest_addr)
    assert observed == parse_message(_SCHEMA["Probe"], wire)
    assert observed == message


@pytest.mark.parametrize("site", _SER_SITES,
                         ids=[s.value for s in _SER_SITES])
def test_serialize_recovers_per_site(site):
    """Serialization faults roll back the partial arena output and the
    recovered wire bytes equal the software encoding exactly."""
    message = _probe_message()
    wire = message.serialize()
    accel = _accel(_single_site_plan(site), transport=_transport_for(site))
    addr = accel.load_object(message)
    result = accel.serialize(_SCHEMA["Probe"], addr)
    assert result.stats.faults_injected == 1
    if site in TRANSIENT_SITES:
        assert result.stats.fault_retries == 1
        assert result.stats.cpu_fallbacks == 0
    else:
        assert result.stats.cpu_fallbacks == 1
    assert result.data == wire


def test_retry_exhaustion_falls_back_to_cpu():
    """A transient fault that outlives the retry budget still completes
    -- through the CPU -- with the retries and the fallback all charged."""
    plan = _single_site_plan(FaultSite.BUS_STALL, transient_duration=10)
    policy = RecoveryPolicy(max_retries=2)
    message = _probe_message()
    wire = message.serialize()
    accel = _accel(plan, recovery=policy)
    result = accel.deserialize(_SCHEMA["Probe"], wire)
    stats = result.stats
    assert stats.fault_retries == 2
    assert stats.cpu_fallbacks == 1
    assert stats.faults_injected == 3  # initial attempt + two retries
    assert accel.read_message(_SCHEMA["Probe"], result.dest_addr) == message


def test_transient_heals_within_default_budget():
    """transient_duration=2 needs two retries but no fallback under the
    default policy (max_retries=3)."""
    plan = _single_site_plan(FaultSite.TLB_FAULT, transient_duration=2)
    accel = _accel(plan)
    wire = _probe_message().serialize()
    result = accel.deserialize(_SCHEMA["Probe"], wire)
    assert result.stats.fault_retries == 2
    assert result.stats.cpu_fallbacks == 0


def test_faulted_cycles_exceed_clean_cycles():
    """Recovery is never free: the faulted run charges wasted attempt
    cycles plus backoff on top of the productive decode.  Both devices
    are warmed by one operation first so TLB state matches (a retry
    runs against the TLB its own faulted attempt warmed)."""
    wire = _probe_message().serialize()
    clean_accel = _accel()
    faulted_accel = _accel(_single_site_plan(FaultSite.BUS_STALL))
    clean_accel.deserialize(_SCHEMA["Probe"], wire)
    faulted_accel.deserialize(_SCHEMA["Probe"], wire)
    clean = clean_accel.deserialize(_SCHEMA["Probe"], wire)
    faulted = faulted_accel.deserialize(_SCHEMA["Probe"], wire)
    assert faulted.stats.cycles > clean.stats.cycles
    overhead = (faulted.stats.wasted_accel_cycles
                + faulted.stats.recovery_backoff_cycles)
    assert overhead > 0
    assert faulted.stats.cycles == pytest.approx(clean.stats.cycles
                                                 + overhead)


def test_recovery_is_deterministic():
    """Same plan, same inputs: identical cycles and counters."""
    plan = FaultPlan(seed=42, rate=0.5)
    wire = _probe_message().serialize()
    runs = []
    for _ in range(2):
        accel = _accel(plan)
        totals = []
        for _ in range(20):
            result = accel.deserialize(_SCHEMA["Probe"], wire)
            totals.append((result.stats.cycles,
                           result.stats.faults_injected,
                           result.stats.fault_retries,
                           result.stats.cpu_fallbacks))
        runs.append(totals)
    assert runs[0] == runs[1]
    assert any(t[1] for t in runs[0]), "rate 0.5 over 20 ops injected nothing"


def test_fault_free_device_has_zero_fault_counters():
    accel = _accel()
    wire = _probe_message().serialize()
    result = accel.deserialize(_SCHEMA["Probe"], wire)
    assert result.stats.faults_injected == 0
    assert result.stats.cpu_fallbacks == 0
    assert accel.faults is None
    report = perf.collect(accel)
    assert report.faults_injected == 0
    assert report.cpu_fallbacks == 0
    assert report.bus_stalls == 0


def test_perf_report_surfaces_recovery_counters():
    plan = FaultPlan(seed=3, rate=1.0, max_trigger=1)
    accel = _accel(plan)
    wire = _probe_message().serialize()
    for _ in range(5):
        accel.deserialize(_SCHEMA["Probe"], wire)
    report = perf.collect(accel)
    assert report.faults_injected >= 1
    assert report.fault_interrupts == report.faults_injected
    assert report.faults_injected == (report.transient_retries
                                      + report.cpu_fallbacks)
    rendered = report.render()
    assert "faults injected" in rendered
    assert "CPU fallbacks" in rendered


def test_rocc_records_fault_sites():
    plan = _single_site_plan(FaultSite.TLB_FAULT)
    accel = _accel(plan)
    accel.deserialize(_SCHEMA["Probe"], _probe_message().serialize())
    assert accel.transport.faults_raised == 1
    assert accel.transport.fault_sites == {"tlb.fault": 1}


def test_bus_stall_recorded_on_bus_ledger():
    plan = _single_site_plan(FaultSite.BUS_STALL)
    accel = _accel(plan)
    accel.deserialize(_SCHEMA["Probe"], _probe_message().serialize())
    assert accel.bus.stalls == 1
