"""Table I: comparison of EM side-channel data collection methods.

Regenerates every row of the paper's Table I from simulation:
HT detection rate, localization capability, required measurement
count, SNR, and run-time deployability — for the external probe, the
backscattering method, the on-chip single coil and the proposed PSA.

The PSA row is a thin preset over :mod:`repro.sweep`: its per-Trojan
populations are the named ``table1`` grid evaluated through the
batched-engine orchestrator under the shared Table I protocol; the
bench-instrument baselines keep their own evaluation paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..baselines.backscatter import BackscatterMethod
from ..baselines.external_probe import ExternalProbeMethod
from ..baselines.protocol import MethodReport, TrojanOutcome
from ..baselines.psa_method import PsaMethod
from ..baselines.single_coil import SingleCoilMethod
from ..errors import AnalysisError
from ..sweep import DetectionSweep, table1_grid
from .context import ExperimentContext, default_context
from .reporting import format_table

#: Paper's Table I, for side-by-side reporting.
PAPER_TABLE1 = {
    "external_probe": {
        "rate": "Low",
        "localization": "No",
        "measurements": ">10,000",
        "snr": "14.3 dB",
        "runtime": "No",
    },
    "backscatter": {
        "rate": "High",
        "localization": "No",
        "measurements": "100",
        "snr": "N/A",
        "runtime": "No",
    },
    "single_coil": {
        "rate": "Low",
        "localization": "No",
        "measurements": ">10,000",
        "snr": "30.5 dB",
        "runtime": "Yes",
    },
    "psa": {
        "rate": "High",
        "localization": "Yes",
        "measurements": "<10",
        "snr": "41.0 dB",
        "runtime": "Yes",
    },
}


@dataclass(frozen=True)
class Table1Result:
    """Method reports in paper column order."""

    reports: Dict[str, MethodReport]

    def measurement_ordering_holds(self) -> bool:
        """PSA needs fewest measurements; probe/coil need the most."""
        psa = self.reports["psa"].worst_n_required
        backscatter = self.reports["backscatter"].worst_n_required
        coil = self.reports["single_coil"].worst_n_required
        probe = self.reports["external_probe"].worst_n_required
        return psa < backscatter < min(coil, probe)


def run_psa_sweep(
    ctx: ExperimentContext, n_traces: int = 10
) -> MethodReport:
    """The PSA's Table I row, evaluated through the sweep orchestrator.

    One ``table1`` grid cell per Trojan renders as a batched engine
    pass; each cell's populations give the Trojan's effect size,
    required-measurement count and detection rate.
    """
    if n_traces < 4:
        raise AnalysisError("need at least 4 traces per population")
    psa_method = PsaMethod(ctx.chip, ctx.campaign, ctx.psa)
    report = MethodReport(
        name=psa_method.name,
        localization=psa_method.localization,
        runtime=psa_method.runtime,
    )
    report.snr_db = psa_method.snr_db()
    sweep = DetectionSweep(ctx.campaign)
    for cell in sweep.run(table1_grid(n_traces=n_traces)).cells:
        best = cell.best
        report.outcomes[cell.trojan] = TrojanOutcome(
            trojan=cell.trojan,
            effect_size=best.effect_size,
            n_required=best.n_required,
            detection_rate=best.detection_rate,
        )
    return report


def run_table1(
    ctx: Optional[ExperimentContext] = None, n_traces: int = 10
) -> Table1Result:
    """Evaluate all four methods under the shared protocol."""
    ctx = ctx or default_context()
    methods = [
        ExternalProbeMethod(ctx.chip, ctx.campaign),
        BackscatterMethod(ctx.chip, ctx.campaign),
        SingleCoilMethod(ctx.chip, ctx.campaign),
    ]
    reports = {}
    for method in methods:
        if isinstance(method, BackscatterMethod):
            reports[method.name] = method.evaluate(n_traces=max(3 * n_traces, 24))
        else:
            reports[method.name] = method.evaluate(n_traces=n_traces)
    reports["psa"] = run_psa_sweep(ctx, n_traces=n_traces)
    return Table1Result(reports=reports)


def _measurements_label(report: MethodReport) -> str:
    worst = report.worst_n_required
    if worst >= 10_000:
        return ">10,000"
    if worst < 10:
        return "<10"
    return str(worst)


def format_table1(result: Table1Result) -> str:
    """Render Table I with measured and paper values."""
    rows = []
    for name in ["external_probe", "backscatter", "single_coil", "psa"]:
        report = result.reports[name]
        paper = PAPER_TABLE1[name]
        snr = "N/A" if report.snr_db != report.snr_db else f"{report.snr_db:.1f} dB"
        rows.append(
            (
                name,
                f"{report.rate_label()} ({report.mean_detection_rate:.0%})",
                "Yes" if report.localization else "No",
                _measurements_label(report),
                snr,
                "Yes" if report.runtime else "No",
                "| "
                + " / ".join(
                    [
                        paper["rate"],
                        paper["localization"],
                        paper["measurements"],
                        paper["snr"],
                        paper["runtime"],
                    ]
                ),
            )
        )
    header = "Table I — comparison of EM side-channel methods\n"
    return header + format_table(
        [
            "method",
            "HT detection",
            "localizes",
            "measurements",
            "SNR",
            "run-time",
            "| paper (rate/loc/meas/SNR/runtime)",
        ],
        rows,
    )
