"""Section VI-B: SNR measurement (Equation (1)).

Reproduces the paper's comparison: PSA 41.0 dB, on-chip single coil
30.5 dB, external Langer LF1 probe 14.3 dB, plus the text remark that
the best external micro-probe (ICR HH100-6) reaches ~34 dB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..baselines.common import ReceiverBench
from ..baselines.psa_method import PsaMethod
from ..calibration import PAPER_SNR_DB
from ..em.probes import icr_hh100_probe, langer_lf1_probe, single_coil_receiver
from .context import ExperimentContext, default_context
from .reporting import format_table


@dataclass(frozen=True)
class SnrResult:
    """Measured vs paper SNR per receiver."""

    measured_db: Dict[str, float]
    paper_db: Dict[str, float]

    def deviation_db(self, name: str) -> float:
        """Measured minus paper value."""
        return self.measured_db[name] - self.paper_db[name]


def run_snr(
    ctx: Optional[ExperimentContext] = None, n_traces: int = 2
) -> SnrResult:
    """Measure He-style SNR for the PSA and the three comparators."""
    ctx = ctx or default_context()
    measured: Dict[str, float] = {
        "psa": PsaMethod(ctx.chip, ctx.campaign, ctx.psa).snr_db(n_traces)
    }
    for name, receiver in [
        ("single_coil", single_coil_receiver()),
        ("langer_lf1", langer_lf1_probe()),
        ("icr_hh100", icr_hh100_probe()),
    ]:
        bench = ReceiverBench(ctx.chip, receiver)
        measured[name] = bench.snr_db(ctx.campaign, n_traces)
    return SnrResult(measured_db=measured, paper_db=dict(PAPER_SNR_DB))


def format_snr(result: SnrResult) -> str:
    """Render the Section VI-B comparison."""
    rows = []
    for name in ["psa", "single_coil", "icr_hh100", "langer_lf1"]:
        rows.append(
            (
                name,
                f"{result.measured_db[name]:.1f}",
                f"{result.paper_db[name]:.1f}",
                f"{result.deviation_db(name):+.1f}",
            )
        )
    return format_table(
        ["receiver", "measured SNR [dB]", "paper [dB]", "delta"], rows
    )
