"""Tests for the campaign fault injectors (pure wrappers)."""

import pytest

from repro.campaign import CrashOnceStore, PartitionInjector
from repro.core.verification import DeviceStatus
from repro.fleet import Fleet, FleetVerifier, InProcessTransport
from repro.sim import SimulationEngine
from repro.store import MemoryStore, StoreError
from tests.fleet.helpers import small_profile

SECRET = b"campaign-fault-master-secret"


def provision(count=4, engine=None, **overrides):
    engine = engine if engine is not None else SimulationEngine()
    return Fleet.provision(small_profile(b"fault-firmware"), count,
                           master_secret=SECRET, engine=engine, **overrides)


class TestPartitionInjector:
    def test_drops_only_cut_devices_inside_windows(self):
        engine = SimulationEngine()
        transport = PartitionInjector(InProcessTransport(engine),
                                      windows=[(50.0, 70.0)],
                                      fraction=0.5, seed=1)
        with provision(count=8, engine=engine,
                       transport=transport) as fleet:
            cut = {d for d in fleet.device_ids() if transport.is_cut(d)}
            assert cut and cut < set(fleet.device_ids())

            fleet.run_until(60.0)
            assert transport.partition_active()
            reports = fleet.collect_all()
            missing = {r.device_id for r in reports
                       if r.status is DeviceStatus.NO_DATA}
            assert missing == cut
            assert transport.dropped_exchanges == len(cut)

            fleet.run_until(120.0)
            assert not transport.partition_active()
            reports = fleet.collect_all()
            assert all(r.status is DeviceStatus.HEALTHY for r in reports)
            assert transport.dropped_exchanges == len(cut)

    def test_cut_set_is_deterministic(self):
        engine = SimulationEngine()
        first = PartitionInjector(InProcessTransport(engine),
                                  windows=[(0.0, 1.0)], fraction=0.4, seed=9)
        second = PartitionInjector(InProcessTransport(engine),
                                   windows=[(0.0, 1.0)], fraction=0.4,
                                   seed=9)
        names = [f"dev-{i:04d}" for i in range(20)]
        assert [first.is_cut(n) for n in names] == \
            [second.is_cut(n) for n in names]

    def test_passthrough_attributes(self):
        engine = SimulationEngine()
        inner = InProcessTransport(engine)
        wrapped = PartitionInjector(inner, windows=[(0.0, 1.0)])
        assert wrapped.engine is engine
        assert "in-process" in wrapped.name

    def test_invalid_parameters_rejected(self):
        inner = InProcessTransport(SimulationEngine())
        with pytest.raises(ValueError):
            PartitionInjector(inner, windows=[(5.0, 2.0)])
        with pytest.raises(ValueError):
            PartitionInjector(inner, windows=[(0.0, 1.0)], fraction=2.0)


class TestCrashOnceStore:
    def test_crashes_exactly_once_then_recovers(self):
        engine = SimulationEngine()
        store = CrashOnceStore(MemoryStore(), crash_after_reports=6)
        with provision(engine=engine, store=store) as fleet:
            fleet.run_until(60.0)
            fleet.collect_all()  # 4 reports journaled
            assert store.reports_appended == 4
            fleet.run_until(120.0)
            with pytest.raises(StoreError, match="injected store crash"):
                fleet.collect_all()  # dies on the 7th append
            assert store.crashed

            # The PR-3 restart drill: resume from the crashed store.
            fleet.verifier = FleetVerifier.restore(
                small_profile(b"fault-firmware").config, store)
            reports = fleet.collect_all()
            assert all(r.status is DeviceStatus.HEALTHY for r in reports)
            assert store.reports_appended >= 10

    def test_journal_matches_successful_appends(self):
        inner = MemoryStore()
        store = CrashOnceStore(inner, crash_after_reports=2)
        engine = SimulationEngine()
        with provision(engine=engine, store=store) as fleet:
            fleet.run_until(60.0)
            with pytest.raises(StoreError):
                fleet.collect_all()
            device_ids = fleet.device_ids()
            journaled = sum(
                len(inner.device_history(d)) for d in device_ids)
            assert journaled == 2

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            CrashOnceStore(MemoryStore(), crash_after_reports=-1)
