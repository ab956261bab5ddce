"""Unit tests for physical servers and the VM menu."""

import pytest

from repro.cluster import PhysicalServer, VmType
from repro.cluster.vmtypes import AZURE_MENU


def make_server(**kwargs):
    defaults = dict(server_id=0, cluster=0, rack=0, cores=48,
                    memory_gb=384.0)
    defaults.update(kwargs)
    return PhysicalServer(**defaults)


class TestPhysicalServer:
    def test_place_and_evict_accounting(self):
        server = make_server()
        server.place(1, cores=8, memory_gb=32)
        assert server.free_cores == 40
        assert server.free_memory_gb == 352
        server.evict(1)
        assert server.free_cores == 48
        assert server.free_memory_gb == 384

    def test_cannot_overcommit(self):
        server = make_server(cores=4)
        with pytest.raises(ValueError):
            server.place(1, cores=8, memory_gb=16)

    def test_duplicate_vm_rejected(self):
        server = make_server()
        server.place(1, cores=2, memory_gb=8)
        with pytest.raises(ValueError):
            server.place(1, cores=2, memory_gb=8)

    def test_stranding_predicate(self):
        server = make_server(cores=8, memory_gb=64)
        assert not server.is_stranded
        server.place(1, cores=8, memory_gb=32)
        # All cores gone, 32 GB left unallocated -> stranded.
        assert server.is_stranded
        assert server.stranded_memory_gb == 32

    def test_full_memory_is_not_stranded(self):
        server = make_server(cores=8, memory_gb=64)
        server.place(1, cores=8, memory_gb=63.5)
        # Less than 1 GB free: below the stranding threshold.
        assert not server.is_stranded
        assert server.stranded_memory_gb == 0


class TestVmMenu:
    def test_menu_shapes_are_valid(self):
        for vm_type in AZURE_MENU:
            assert vm_type.cores >= 1
            assert vm_type.spot_price_per_hour < vm_type.price_per_hour

    def test_menu_has_varied_memory_ratios(self):
        ratios = {t.memory_per_core for t in AZURE_MENU}
        assert len(ratios) >= 3  # compute-, general-, memory-optimized

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            VmType("bad", cores=0, memory_gb=8, price_per_hour=1,
                   spot_price_per_hour=0.5)
        with pytest.raises(ValueError):
            VmType("bad", cores=2, memory_gb=8, price_per_hour=1,
                   spot_price_per_hour=2)
