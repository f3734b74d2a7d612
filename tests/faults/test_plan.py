"""FaultPlan / FaultInjector mechanics: validation, determinism,
arming, trigger counting, and transient healing."""

import pytest

from repro.faults import (
    DESER_SITES,
    FaultInjector,
    FaultPlan,
    FaultSite,
    IMMEDIATE_SITES,
    PERSISTENT_SITES,
    RecoveryPolicy,
    SER_SITES,
    TRANSIENT_SITES,
)
from repro.faults.plan import PCIE_SITES
from repro.proto.errors import AccelFault


class _Stats:
    cycles = 17.0


class TestPlanValidation:
    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(rate=-0.1)

    def test_transient_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_duration=0)

    def test_max_trigger_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(max_trigger=0)

    def test_empty_sites_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(sites=())

    def test_string_sites_coerced(self):
        plan = FaultPlan(sites=("tlb.fault", "deser.abort"))
        assert plan.sites == (FaultSite.TLB_FAULT, FaultSite.DESER_ABORT)

    def test_unknown_site_name_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(sites=("alu.sadness",))

    def test_zero_rate_plan_is_disabled(self):
        assert not FaultPlan(rate=0.0).enabled()
        assert FaultPlan(rate=0.001).enabled()


class TestSiteTaxonomy:
    def test_transient_and_persistent_partition_all_sites(self):
        assert TRANSIENT_SITES | PERSISTENT_SITES == frozenset(FaultSite)
        assert not TRANSIENT_SITES & PERSISTENT_SITES

    def test_sites_for_restricts_by_operation_kind(self):
        plan = FaultPlan(rate=0.5)
        assert plan.sites_for("deser") == DESER_SITES
        assert plan.sites_for("ser") == SER_SITES
        assert FaultSite.SER_ABORT not in plan.sites_for("deser")
        assert FaultSite.DESER_ABORT not in plan.sites_for("ser")
        # PCIe kinds additionally reach the transport's submission
        # sites; the RoCC kinds never do (bit-identical site draws).
        assert plan.sites_for("pcie.deser") == DESER_SITES + PCIE_SITES
        assert plan.sites_for("pcie.ser") == SER_SITES + PCIE_SITES
        assert FaultSite.PCIE_DMA not in plan.sites_for("deser")
        assert FaultSite.PCIE_DOORBELL not in plan.sites_for("ser")

    def test_single_site_plan_only_arms_that_site(self):
        plan = FaultPlan(rate=1.0, sites=(FaultSite.TLB_FAULT,),
                         max_trigger=1)
        injector = FaultInjector(plan)
        injector.begin_operation("deser")
        injector.begin_attempt(_Stats())
        injector.poll(FaultSite.DESER_ABORT)  # different site: no fire
        with pytest.raises(AccelFault):
            injector.poll(FaultSite.TLB_FAULT)


class TestFingerprint:
    def test_derive_is_deterministic_and_label_sensitive(self):
        plan = FaultPlan(seed=7, rate=0.1)
        assert plan.derive("w", "deser") == plan.derive("w", "deser")
        assert plan.derive("w", "deser") != plan.derive("w", "ser")
        assert plan.derive("w", "deser").seed != plan.seed
        assert plan.derive("w", "deser").rate == plan.rate


class TestInjectorMechanics:
    def test_deterministic_replay(self):
        plan = FaultPlan(seed=11, rate=0.4)
        logs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            fired = []
            for index in range(200):
                injector.begin_operation("deser")
                injector.begin_attempt(_Stats())
                for site in DESER_SITES:
                    try:
                        injector.poll(site)
                    except AccelFault as fault:
                        fired.append((index, fault.site, fault.transient))
                injector.end_operation()
            logs.append(fired)
        assert logs[0] == logs[1]
        assert logs[0], "a 40% rate over 200 ops must inject something"

    def test_immediate_sites_fire_on_first_poll(self):
        for site in IMMEDIATE_SITES:
            plan = FaultPlan(rate=1.0, sites=(site,), max_trigger=8)
            injector = FaultInjector(plan)
            # Transport sites are only reachable from PCIe-kind ops.
            kind = "pcie.deser" if site in PCIE_SITES else "deser"
            injector.begin_operation(kind)
            injector.begin_attempt(_Stats())
            with pytest.raises(AccelFault):
                injector.poll(site)

    def test_trigger_delays_firing_to_nth_poll(self):
        plan = FaultPlan(rate=1.0, sites=(FaultSite.VARINT_OVERLONG,),
                         max_trigger=1)
        injector = FaultInjector(plan)
        injector.begin_operation("deser")
        injector.begin_attempt(_Stats())
        trigger = injector._armed.trigger
        for _ in range(trigger - 1):
            injector.poll(FaultSite.VARINT_OVERLONG)
        with pytest.raises(AccelFault) as excinfo:
            injector.poll(FaultSite.VARINT_OVERLONG)
        assert excinfo.value.injected
        assert excinfo.value.cycle == 17.0

    def test_transient_fault_heals_after_duration(self):
        plan = FaultPlan(rate=1.0, sites=(FaultSite.BUS_STALL,),
                         transient_duration=2)
        injector = FaultInjector(plan)
        injector.begin_operation("deser")
        for _ in range(2):  # fires on the first two attempts...
            injector.begin_attempt(_Stats())
            with pytest.raises(AccelFault) as excinfo:
                injector.poll(FaultSite.BUS_STALL)
            assert excinfo.value.transient
        injector.begin_attempt(_Stats())
        injector.poll(FaultSite.BUS_STALL)  # ...then clears
        assert injector.injected == 2

    def test_persistent_fault_fires_every_attempt(self):
        plan = FaultPlan(rate=1.0, sites=(FaultSite.MEMLOADER_TRUNCATE,))
        injector = FaultInjector(plan)
        injector.begin_operation("deser")
        for _ in range(5):
            injector.begin_attempt(_Stats())
            with pytest.raises(AccelFault) as excinfo:
                injector.poll(FaultSite.MEMLOADER_TRUNCATE)
            assert not excinfo.value.transient

    def test_stream_alignment_is_site_independent(self):
        # Restricting the site list must not change *which* operations
        # arm a fault (one RNG draw per operation either way).
        def armed_ops(sites):
            injector = FaultInjector(FaultPlan(seed=5, rate=0.3,
                                               sites=sites))
            armed = []
            for index in range(100):
                injector.begin_operation("deser")
                armed.append(injector._armed is not None)
                injector.end_operation()
            return armed
        assert armed_ops(tuple(FaultSite)) == \
            armed_ops((FaultSite.TLB_FAULT,))


class TestRecoveryPolicy:
    def test_backoff_grows_geometrically(self):
        policy = RecoveryPolicy(max_retries=3, backoff_cycles=64.0,
                                backoff_multiplier=2.0)
        assert [policy.backoff(i) for i in range(3)] == [64.0, 128.0, 256.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_cycles=-1.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_multiplier=0.0)
