"""The job daemon of the ``service_store`` workload, optionally traced.

``python3 perfbench/daemon.py --socket ADDR --workers N`` serves like
``python -m repro.harness serve``.  With ``--trace-dir DIR --run ID`` the
benchmark's timing wrappers are installed first; the daemon and each of
its workers write their spans to ``DIR/spans-<pid>.json`` when they exit.
"""

import argparse
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--run", default="")
    args = parser.parse_args()

    tracer = None
    if args.trace_dir:
        from perfbench import layers
        from perfbench.tracer import Tracer

        tracer = Tracer(run=args.run)
        layers.install(tracer)
        tracer.install_fork_hook(args.trace_dir)

    from repro.service import Daemon

    try:
        Daemon(args.socket, workers=args.workers).serve_forever()
    finally:
        # A "shutdown" request stops the daemon from a helper thread, and
        # serve_forever() can return before that thread has stopped the
        # workers; wait for it so workers exit cleanly instead of being
        # terminated at interpreter exit (and so they write their spans).
        deadline = time.monotonic() + 30.0
        for thread in threading.enumerate():
            if thread is not threading.current_thread():
                thread.join(max(deadline - time.monotonic(), 0.0))
        if tracer is not None:
            tracer.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
