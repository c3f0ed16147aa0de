"""Replay-workload helpers that run inside the library's interpreter.

Two commands, both started by ``perfbench/run.py`` with ``PYTHONPATH=src``:

``corpus DIR``
    Record the upload corpus: one soak session (24 quiet + 12 active
    windows) of the run-time monitor sensor for each catalog Trojan,
    as ``.npz`` archives plus ``manifest.json`` with their truth.  The
    corpus is fixed; the workload seed picks which archive each upload
    sends.

``serve SPANS -- ARGS...``
    Run ``repro serve ARGS`` with every layer entry point wrapped by
    the span recorder, and write the spans to ``SPANS`` once the
    service has shut down (the traced run's server).
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import Recorder, install_layers  # noqa: E402

#: Fixed seed of the recorded corpus.
CORPUS_SEED = 20240122


def record_corpus(directory):
    """Write the four soak archives and their manifest into ``directory``."""
    from repro.runtime import build_chip_monitor, build_preset, record_stream
    from repro.runtime.sources import DEFAULT_MONITOR_SENSOR, ReplaySource

    preset = build_preset("soak")
    entries = []
    for spec in preset.specs(4, base_seed=CORPUS_SEED):
        spec = replace(spec, sensors=(DEFAULT_MONITOR_SENSOR,))
        monitor = build_chip_monitor(spec, pipeline_config=preset.pipeline_config())
        path = directory / f"{spec.trojan}.npz"
        record_stream(monitor.source, path)
        source = ReplaySource(path)
        entries.append(
            {
                "file": path.name,
                "trojan": spec.trojan,
                "trigger_index": source.trigger_index,
                "n_windows": source.n_windows,
                "n_streams": source.n_streams,
            }
        )
    (directory / "manifest.json").write_text(json.dumps(entries, indent=1))


def serve_traced(spans_path, argv):
    """``repro serve`` with the layer wrappers installed."""
    from repro.cli import serve_main

    recorder = Recorder()
    install_layers(recorder)
    try:
        return serve_main(argv)
    finally:
        recorder.uninstall()
        Path(spans_path).write_text(
            json.dumps({"spans": recorder.spans, "counters": dict(recorder.counters)})
        )


def main(argv):
    if len(argv) == 2 and argv[0] == "corpus":
        record_corpus(Path(argv[1]))
        return 0
    if len(argv) >= 3 and argv[0] == "serve" and argv[2] == "--":
        return serve_traced(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
