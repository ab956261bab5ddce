"""The VM size menu.

The cache manager "must choose VMs from the menu of VM sizes offered by
the cloud provider.  Each VM size has fixed cores and memory" (§6.1).
Prices are representative pay-as-you-go / spot rates; what matters for
the reproduction is their *relative* structure: spot is ~60-90% cheaper,
and there are "relatively few VM sizes with a high ratio of memory to
cores" -- the constraint §6.1 calls out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["AZURE_MENU", "STRANDING_THRESHOLD_GB", "VmType"]

#: A server counts as stranded when all cores are allocated while at
#: least this much memory remains unallocated (§2.1).
STRANDING_THRESHOLD_GB = 1.0


@dataclass(frozen=True)
class VmType:
    """One entry of the provider's VM menu."""

    name: str
    cores: int
    memory_gb: float
    price_per_hour: float
    spot_price_per_hour: float

    def __post_init__(self) -> None:
        if self.cores < 0 or self.memory_gb <= 0:
            raise ValueError(f"invalid VM shape: {self}")
        if self.cores == 0 and not self.name.startswith("harvest"):
            # Only harvest VMs (memory carved out of stranded servers,
            # accessed one-sided with zero server cores) may be core-less.
            raise ValueError(f"only harvest VMs may have zero cores: {self}")
        if not 0 < self.spot_price_per_hour <= self.price_per_hour:
            raise ValueError(
                f"spot price must be in (0, full price]: {self}")

    @property
    def memory_per_core(self) -> float:
        return self.memory_gb / self.cores

    def fits_requirements(self, cores: int, memory_gb: float) -> bool:
        return self.cores >= cores and self.memory_gb >= memory_gb

    def price(self, spot: bool) -> float:
        return self.spot_price_per_hour if spot else self.price_per_hour


#: A representative general-purpose menu (D/E-series-like shapes).
AZURE_MENU: List[VmType] = [
    VmType("d2", cores=2, memory_gb=8, price_per_hour=0.096,
           spot_price_per_hour=0.019),
    VmType("d4", cores=4, memory_gb=16, price_per_hour=0.192,
           spot_price_per_hour=0.038),
    VmType("d8", cores=8, memory_gb=32, price_per_hour=0.384,
           spot_price_per_hour=0.077),
    VmType("d16", cores=16, memory_gb=64, price_per_hour=0.768,
           spot_price_per_hour=0.154),
    VmType("d32", cores=32, memory_gb=128, price_per_hour=1.536,
           spot_price_per_hour=0.307),
    VmType("e2", cores=2, memory_gb=16, price_per_hour=0.126,
           spot_price_per_hour=0.025),
    VmType("e4", cores=4, memory_gb=32, price_per_hour=0.252,
           spot_price_per_hour=0.050),
    VmType("e8", cores=8, memory_gb=64, price_per_hour=0.504,
           spot_price_per_hour=0.101),
    VmType("e16", cores=16, memory_gb=128, price_per_hour=1.008,
           spot_price_per_hour=0.202),
    VmType("e32", cores=32, memory_gb=256, price_per_hour=2.016,
           spot_price_per_hour=0.403),
    VmType("f4", cores=4, memory_gb=8, price_per_hour=0.169,
           spot_price_per_hour=0.034),
    VmType("f8", cores=8, memory_gb=16, price_per_hour=0.338,
           spot_price_per_hour=0.068),
    VmType("f16", cores=16, memory_gb=32, price_per_hour=0.676,
           spot_price_per_hour=0.135),
]


#: Nominal bookkeeping price of harvested stranded memory, $/GB/hour.
#: "Stranded memory is essentially free" (§8.3); the tiny non-zero value
#: keeps price arithmetic well-defined.
HARVEST_PRICE_PER_GB_HOUR = 1e-4


def harvest_vm_type(memory_gb: float) -> VmType:
    """A core-less memory slice carved out of a stranded server.

    Accessed purely one-sided (the s = 0 configurations of Table 2), so
    zero server cores suffice -- "All latency-optimal configurations use
    one-sided memory access using no server cores, so Redy is
    particularly cheap for this case" (§7.2).
    """
    price = max(memory_gb * HARVEST_PRICE_PER_GB_HOUR, 1e-6)
    return VmType(name=f"harvest-{memory_gb:g}gb", cores=0,
                  memory_gb=memory_gb, price_per_hour=price,
                  spot_price_per_hour=price)
