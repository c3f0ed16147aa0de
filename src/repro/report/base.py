"""The shared report-serialization contract.

Every operator-facing result object in the library — the sweep
scorecards, the fleet monitoring summary, a single chip's session
report, the serve service's metrics snapshot — defines its own
:meth:`ReportBase.to_dict` payload and inherits
:meth:`ReportBase.to_json`, which serializes that payload exactly the
way every report always serialized it (``json.dumps(…, indent=2)``),
so one module decides the JSON form.
"""

from __future__ import annotations

import json
from typing import Dict


class ReportBase:
    """Mixin giving a result object the shared JSON form.

    Subclasses must provide :meth:`to_dict`.  The mixin carries no
    state, so frozen dataclasses subclass it freely.
    """

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload of the report (subclass-defined)."""
        raise NotImplementedError

    def to_json(self, indent: int = 2) -> str:
        """Serialize :meth:`to_dict` exactly as reports always did."""
        return json.dumps(self.to_dict(), indent=indent)
