"""Run one ``phl`` command with the benchmark's tracing wrappers installed.

    python3 perfbench/traced_cli.py STATS_FILE ARGS...

Behaves as ``python -m phl.cli ARGS...`` and afterwards writes the summary
of the spans of this process, with the time spent in ``phl.cli.main``, to
STATS_FILE as JSON.
"""
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import phl.cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    stats_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        t0 = perf_counter()
        code = phl.cli.main(argv)
        main_s = perf_counter() - t0
    summary = tracer.summary()
    summary["main_s"] = main_s
    Path(stats_file).write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
