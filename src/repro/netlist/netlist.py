"""Netlist container: instances grouped into named modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

from ..errors import NetlistError
from .cells import CELL_LIBRARY, StandardCell, get_cell


class Instance:
    """One placed cell instance."""

    __slots__ = ("name", "cell", "module")

    def __init__(self, name: str, cell: StandardCell, module: str):
        self.name = name
        self.cell = cell
        self.module = module

    def __repr__(self) -> str:
        return f"Instance({self.name}:{self.cell.name}@{self.module})"


@dataclass(frozen=True)
class ModuleStats:
    """Aggregated per-module figures."""

    module: str
    n_cells: int
    n_sequential: int
    area_um2: float
    switch_cap_ff: float
    leakage_na: float


class Netlist:
    """A collection of cell instances grouped by module.

    The container is inventory-oriented: it answers "how many cells of
    which kind live in which module, with what aggregate area /
    switched capacitance / leakage" — which is what the placement and
    EM-activity models consume.
    """

    def __init__(self, name: str):
        self.name = name
        self._instances: List[Instance] = []
        self._by_module: Dict[str, List[Instance]] = {}
        self._names: set[str] = set()

    # -- construction --------------------------------------------------------

    def add_instance(self, name: str, cell_name: str, module: str) -> Instance:
        """Add one instance; names must be unique."""
        if name in self._names:
            raise NetlistError(f"duplicate instance name {name!r}")
        instance = Instance(name, get_cell(cell_name), module)
        self._instances.append(instance)
        self._by_module.setdefault(module, []).append(instance)
        self._names.add(name)
        return instance

    def add_bulk(self, module: str, mix: Dict[str, int]) -> int:
        """Add ``mix[cell_name]`` instances per cell kind to ``module``.

        Returns the number of instances added.  Instance names are
        generated as ``{module}/{cell}_{index}``.
        """
        added = 0
        for cell_name in sorted(mix):
            count = mix[cell_name]
            if count < 0:
                raise NetlistError(
                    f"negative count {count} for {cell_name} in {module}"
                )
            if cell_name not in CELL_LIBRARY:
                raise NetlistError(f"unknown cell {cell_name!r}")
            start = len(self._by_module.get(module, ()))
            for index in range(count):
                self.add_instance(
                    f"{module}/{cell_name}_{start + index}", cell_name, module
                )
            added += count
        return added

    def merge(self, other: "Netlist") -> None:
        """Absorb all instances of ``other`` (names must stay unique)."""
        for instance in other:
            self.add_instance(instance.name, instance.cell.name, instance.module)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self._instances)

    @property
    def modules(self) -> List[str]:
        """Module names in insertion order."""
        return list(self._by_module)

    def module_instances(self, module: str) -> List[Instance]:
        """Instances of one module."""
        if module not in self._by_module:
            raise NetlistError(f"netlist has no module {module!r}")
        return list(self._by_module[module])

    def cell_count(self, module: str | None = None) -> int:
        """Instance count, optionally restricted to one module."""
        if module is None:
            return len(self._instances)
        return len(self.module_instances(module))

    def cell_histogram(self, module: str | None = None) -> Dict[str, int]:
        """Counts per cell kind."""
        instances = (
            self._instances if module is None else self.module_instances(module)
        )
        histogram: Dict[str, int] = {}
        for instance in instances:
            histogram[instance.cell.name] = (
                histogram.get(instance.cell.name, 0) + 1
            )
        return histogram

    def module_stats(self, module: str) -> ModuleStats:
        """Aggregate electrical figures for one module."""
        instances = self.module_instances(module)
        return ModuleStats(
            module=module,
            n_cells=len(instances),
            n_sequential=sum(1 for i in instances if i.cell.is_sequential),
            area_um2=sum(i.cell.area_um2 for i in instances),
            switch_cap_ff=sum(i.cell.switch_cap_ff for i in instances),
            leakage_na=sum(i.cell.leakage_na for i in instances),
        )

    def mean_switch_cap_ff(self, module: str) -> float:
        """Average switched capacitance per cell in a module [fF]."""
        instances = self.module_instances(module)
        if not instances:
            raise NetlistError(f"module {module!r} is empty")
        return sum(i.cell.switch_cap_ff for i in instances) / len(instances)
