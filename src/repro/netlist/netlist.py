"""Netlist container: instances grouped into named modules."""

from __future__ import annotations

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


class Netlist:
    """A collection of cell instances grouped by module.

    The container is inventory-oriented: it answers "how many cells
    live in which module" — which is what the placement and
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
