"""Ground-truth checks and the order statistics the benchmark reports.

Every check returns the list of reasons an operation failed, so an
empty list means the operation is correct.  An operation is one chip of
a fleet or one replay upload.
"""

from __future__ import annotations

#: Fewest samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def verdict_failures(report, trojan, host_sensor=None):
    """Why one monitor report disagrees with its scripted truth.

    The truth is: the chip alarmed at or after its trigger window, the
    IDENTIFY stage named the injected Trojan and, when ``host_sensor``
    is given, the LOCALIZE stage picked the sensor above the implant.
    """
    failures = []
    first, trigger = report.get("first_alarm"), report.get("trigger_index")
    if first is None:
        failures.append("no alarm")
    elif trigger is None or first < trigger:
        failures.append(f"alarm at window {first} before trigger {trigger}")
    if not report.get("detected"):
        failures.append("not detected")
    label = (report.get("identification") or {}).get("label")
    if label != trojan:
        failures.append(f"identified {label}, injected {trojan}")
    if host_sensor is not None:
        sensor = (report.get("localization") or {}).get("sensor")
        if sensor != host_sensor:
            failures.append(f"localized sensor {sensor}, implant under {host_sensor}")
    return failures


def upload_failures(status, report, trojan, trigger_index, n_windows):
    """Why one replay upload failed: transport, status or verdict."""
    if status != 200:
        return [f"HTTP status {status}"]
    failures = verdict_failures(report, trojan)
    if report.get("trigger_index") != trigger_index:
        failures.append(
            f"trigger {report.get('trigger_index')}, archive says {trigger_index}"
        )
    if report.get("n_windows") != n_windows:
        failures.append(f"{report.get('n_windows')} of {n_windows} windows")
    return failures


def store_failures(workload, hits, misses):
    """Why a fleet run did not use the store the way its workload must.

    The cold fleet reads nothing back (hit ratio 0); the warm fleet
    reads every record back (hit ratio 1).
    """
    lookups = hits + misses
    if lookups == 0:
        return [f"{workload}: no store lookups"]
    ratio = hits / lookups
    expected = {"fleet_cold": 0.0, "fleet_warm": 1.0}[workload]
    if ratio != expected:
        return [f"{workload}: store hit ratio {ratio:.3f}, expected {expected:.0f}"]
    return []


def tail(values):
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, samples)``; the value is the sample
    with exactly ``TAIL_BEYOND`` larger ranks after it.  With too few
    samples for that, it is the maximum, labelled as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n
