"""`python -m eqindex.cli` with spans recorded around eqindex's boundaries.

    python3 perfbench/clitrace.py <cli arguments>     (payload on stdin)

Behaves like the CLI on stdout and in its exit code, and adds one last
stderr line: TRACE_MARK followed by the span counters as JSON, including the
time taken to import `eqindex.cli`.
"""

import json
import sys
from time import perf_counter

from tracing import TRACE_MARK, Tracer


def main():
    t0 = perf_counter()
    import eqindex.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.on = True
    try:
        code = eqindex.cli.main(sys.argv[1:])
    finally:
        tracer.on = False
        sys.stdout.flush()
        trace = tracer.snapshot()
        trace["import_s"] = import_s
        print(TRACE_MARK + json.dumps(trace), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
