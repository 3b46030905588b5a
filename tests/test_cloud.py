"""Tests for the cloud substrate (data centers, topology, costs, SLA)."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.cloud.datacenter import DataCenter, Server
from repro.cloud.energy import EnergyModel, GOOGLE_WEB_SEARCH_KWH
from repro.cloud.frontend import FrontEnd
from repro.cloud.sla import ServiceLevelAgreement
from repro.cloud.topology import CloudTopology, TopologyArrays, random_topology
from repro.cloud.transfer import TransferModel
from repro.core.request import RequestClass
from repro.core.tuf import ConstantTUF, StepDownwardTUF


class TestServer:
    def test_valid(self):
        srv = Server("dc1", 0, capacity=1.0)
        assert srv.capacity == 1.0

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            Server("dc1", -1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Server("dc1", 0, capacity=0.0)


class TestDataCenter:
    def _dc(self, **kw):
        defaults = dict(
            name="dc", num_servers=4,
            service_rates=np.array([100.0, 120.0]),
            energy_per_request=np.array([1e-4, 2e-4]),
        )
        defaults.update(kw)
        return DataCenter(**defaults)

    def test_num_request_classes(self):
        assert self._dc().num_request_classes == 2

    def test_servers_iteration(self):
        servers = list(self._dc().servers())
        assert len(servers) == 4
        assert servers[2].index == 2

    def test_max_rate(self):
        dc = self._dc(server_capacity=2.0)
        assert dc.max_rate(0) == pytest.approx(200.0)
        assert dc.total_max_rate(0) == pytest.approx(800.0)

    def test_rejects_rate_energy_length_mismatch(self):
        with pytest.raises(ValueError, match="agree"):
            self._dc(energy_per_request=np.array([1e-4]))

    def test_allows_zero_servers(self):
        # A fully failed data center (zero available servers) is a valid
        # degraded state; the formulations force its load to zero.
        dc = self._dc(num_servers=0)
        assert dc.num_servers == 0
        assert list(dc.servers()) == []
        assert dc.total_max_rate(0) == 0.0

    def test_rejects_negative_servers(self):
        with pytest.raises(ValueError):
            self._dc(num_servers=-1)

    def test_rejects_pue_below_one(self):
        with pytest.raises(ValueError, match="pue"):
            self._dc(pue=0.9)

    def test_with_servers(self):
        assert self._dc().with_servers(9).num_servers == 9

    def test_scaled_rates(self):
        dc = self._dc().scaled_rates(2.0)
        assert dc.service_rates.tolist() == [200.0, 240.0]

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            self._dc(service_rates=np.array([100.0, 0.0]))


class TestCloudTopology:
    def test_sizes(self, small_topology):
        assert small_topology.num_classes == 2
        assert small_topology.num_frontends == 2
        assert small_topology.num_datacenters == 2
        assert small_topology.num_servers == 5

    def test_matrices(self, small_topology):
        assert small_topology.service_rates.shape == (2, 2)
        assert small_topology.energy_per_request.shape == (2, 2)
        assert small_topology.transfer_unit_costs.tolist() == [0.001, 0.002]

    def test_server_offsets_and_flat_index(self, small_topology):
        assert small_topology.server_offsets().tolist() == [0, 3, 5]
        assert small_topology.flat_server_index(0, 2) == 2
        assert small_topology.flat_server_index(1, 0) == 3

    def test_flat_index_bounds(self, small_topology):
        with pytest.raises(IndexError):
            small_topology.flat_server_index(0, 3)
        with pytest.raises(IndexError):
            small_topology.flat_server_index(2, 0)

    def test_iter_servers(self, small_topology):
        pairs = list(small_topology.iter_servers())
        assert pairs == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

    def test_rejects_class_count_mismatch(self, small_topology):
        bad_dc = DataCenter("bad", 2, np.array([100.0]), np.array([1e-4]))
        with pytest.raises(ValueError, match="request classes"):
            small_topology.with_datacenters([bad_dc, bad_dc])

    def test_rejects_distance_shape(self):
        rc = RequestClass("r", ConstantTUF(1.0, 0.1))
        dc = DataCenter("d", 1, np.array([100.0]), np.array([1e-4]))
        with pytest.raises(ValueError, match="distances"):
            CloudTopology((rc,), (FrontEnd("f"),), (dc,),
                          distances=np.zeros((2, 1)))

    def test_scaled_capacity(self, small_topology):
        scaled = small_topology.scaled_capacity(3.0)
        assert scaled.service_rates[0, 0] == pytest.approx(360.0)

    def test_with_servers_per_datacenter(self, small_topology):
        resized = small_topology.with_servers_per_datacenter(7)
        assert resized.num_servers == 14

    def test_random_topology_is_valid_and_deterministic(self):
        a = random_topology(seed=3)
        b = random_topology(seed=3)
        assert a.num_servers == b.num_servers
        assert np.array_equal(a.distances, b.distances)
        assert a.num_classes == 3


def _record_arrays(arrays):
    """The record's array fields, by name."""
    return {
        f.name: getattr(arrays, f.name)
        for f in dataclasses.fields(TopologyArrays)
        if isinstance(getattr(arrays, f.name), np.ndarray)
    }


def assert_same_record(a, b):
    assert a.offsets == b.offsets and a.idle_power == b.idle_power
    for name, arr in _record_arrays(a).items():
        other = getattr(b, name)
        assert arr.dtype == other.dtype and arr.tobytes() == other.tobytes(), name


class TestTopologyArrays:
    def test_contents(self, small_topology):
        topo = small_topology
        arrays = topo.arrays
        assert arrays.offsets == (0, 3, 5)
        assert all(type(o) is int for o in arrays.offsets)
        assert arrays.dc_of_server.tolist() == [0, 0, 0, 1, 1]
        assert np.array_equal(arrays.service_rates,
                              topo.service_rates[:, [0, 0, 0, 1, 1]])
        assert np.array_equal(arrays.energy_kwh,
                              EnergyModel(topo.datacenters).energy_kwh)
        assert np.array_equal(
            arrays.energy_kwh_pue,
            EnergyModel(topo.datacenters, apply_pue=True).energy_kwh)
        assert np.array_equal(arrays.transfer_cost,
                              topo.transfer_model().per_request_cost())
        assert arrays.idle_power is False
        assert topo.arrays is arrays

    def test_tuf_tables_pad_shorter_classes(self):
        classes = (
            RequestClass("a", StepDownwardTUF([9.0, 5.0, 2.0], [0.1, 0.2, 0.4])),
            RequestClass("b", ConstantTUF(4.0, 0.3)),
        )
        dc = DataCenter("d", 2, np.array([10.0, 20.0]), np.array([1e-4, 2e-4]),
                        idle_power_kw=0.1)
        topo = CloudTopology(classes, (FrontEnd("f"),), (dc,), np.array([[5.0]]))
        arrays = topo.arrays
        assert arrays.tuf_deadlines.tolist() == [[0.1, 0.2, 0.4],
                                                 [0.3, np.inf, np.inf]]
        assert arrays.tuf_values.tolist() == [[9.0, 5.0, 2.0, 0.0],
                                              [4.0, 0.0, 0.0, 0.0]]
        assert arrays.idle_power is True

    def test_arrays_are_read_only(self, small_topology):
        arrays = small_topology.arrays
        fields = _record_arrays(arrays)
        assert len(fields) == 7
        for name, arr in fields.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            arrays.offsets = (0,)

    @pytest.mark.parametrize("derive", [
        lambda t: t.with_servers_per_datacenter(4),
        lambda t: t.scaled_capacity(2.0),
        lambda t: t.with_datacenters(t.datacenters[::-1]),
    ], ids=["with_servers_per_datacenter", "scaled_capacity", "with_datacenters"])
    def test_derived_topology_builds_its_own_record(self, small_topology, derive):
        parent = small_topology.arrays
        derived = derive(small_topology)
        assert "arrays" not in vars(derived)
        assert derived.arrays is not parent
        assert np.array_equal(
            derived.arrays.service_rates,
            derived.service_rates[:, derived.arrays.dc_of_server]
            * derived.server_capacities[derived.arrays.dc_of_server])
        assert derived.arrays.offsets == tuple(derived.server_offsets().tolist())
        assert small_topology.arrays is parent

    @pytest.mark.parametrize("clone", [
        lambda t: pickle.loads(pickle.dumps(t)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_copies_rebuild_a_read_only_record(self, small_topology, clone):
        original = small_topology.arrays
        twin = clone(small_topology)
        assert "arrays" not in vars(twin)
        assert twin.arrays is not original
        assert_same_record(twin.arrays, original)
        for name, arr in _record_arrays(twin.arrays).items():
            assert not arr.flags.writeable, name
        assert "arrays" in vars(small_topology)


class TestTransferModel:
    @pytest.fixture
    def model(self):
        return TransferModel(
            unit_costs=np.array([0.003, 0.005]),
            distances=np.array([[100.0, 200.0]]),
        )

    def test_per_request_cost(self, model):
        cost = model.per_request_cost()
        assert cost.shape == (2, 1, 2)
        assert cost[0, 0, 0] == pytest.approx(0.3)
        assert cost[1, 0, 1] == pytest.approx(1.0)

    def test_slot_cost(self, model):
        rates = np.zeros((2, 1, 2))
        rates[0, 0, 0] = 10.0  # 10 req/u at 0.3 $/req
        assert model.slot_cost(rates, slot_duration=2.0) == pytest.approx(6.0)

    def test_slot_cost_shape_check(self, model):
        with pytest.raises(ValueError, match="shape"):
            model.slot_cost(np.zeros((2, 2, 2)), 1.0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            TransferModel(np.array([[0.1]]), np.array([[1.0]]))


class TestEnergyModel:
    def _datacenters(self, pue=(1.0, 1.5)):
        return [
            DataCenter("d1", 1, np.array([100.0]), np.array([2e-4]), pue=pue[0]),
            DataCenter("d2", 1, np.array([100.0]), np.array([4e-4]), pue=pue[1]),
        ]

    def test_energy_matrix(self):
        model = EnergyModel(self._datacenters())
        assert model.energy_kwh.shape == (1, 2)
        assert model.energy_kwh[0, 1] == pytest.approx(4e-4)

    def test_pue_applied(self):
        model = EnergyModel(self._datacenters(), apply_pue=True)
        assert model.energy_kwh[0, 1] == pytest.approx(6e-4)

    def test_per_request_cost(self):
        model = EnergyModel(self._datacenters())
        cost = model.per_request_cost(np.array([0.1, 0.2]))
        assert cost[0, 0] == pytest.approx(2e-5)
        assert cost[0, 1] == pytest.approx(8e-5)

    def test_slot_cost_and_energy(self):
        model = EnergyModel(self._datacenters())
        rates = np.array([[10.0, 0.0]])
        assert model.slot_cost(rates, np.array([0.1, 0.2]), 3600.0) == \
            pytest.approx(2e-5 * 10 * 3600)
        assert model.slot_energy_kwh(rates, 3600.0) == \
            pytest.approx(2e-4 * 10 * 3600)

    def test_rejects_class_mismatch(self):
        dcs = [
            DataCenter("d1", 1, np.array([100.0]), np.array([2e-4])),
            DataCenter("d2", 1, np.array([100.0, 1.0]), np.array([1e-4, 1e-4])),
        ]
        with pytest.raises(ValueError, match="disagree"):
            EnergyModel(dcs)

    def test_google_constant(self):
        assert GOOGLE_WEB_SEARCH_KWH == pytest.approx(3e-4)


class TestServiceLevelAgreement:
    @pytest.fixture
    def sla(self, small_topology):
        return ServiceLevelAgreement(small_topology.request_classes)

    def test_revenue_per_request(self, sla):
        assert sla.revenue_per_request(0, 0.01) == pytest.approx(5.0)
        assert sla.revenue_per_request(0, 0.06) == pytest.approx(0.0)

    def test_revenue_rate(self, sla):
        total = sla.revenue_rate(np.array([0.01, 0.01]), np.array([2.0, 3.0]))
        assert total == pytest.approx(5.0 * 2 + 9.0 * 3)

    def test_level_achieved(self, sla):
        assert sla.level_achieved(0, 0.01) == 0
        assert sla.level_achieved(0, 0.10) == -1

    def test_meets_deadline(self, sla):
        assert sla.meets_deadline(1, 0.08)
        assert not sla.meets_deadline(1, 0.081)

    def test_summary(self, sla):
        summary = sla.summary()
        assert summary["r1"]["max_value"] == 5.0
        assert summary["r2"]["levels"] == 1

    def test_frontend_rejects_empty_name(self):
        with pytest.raises(ValueError):
            FrontEnd("")
