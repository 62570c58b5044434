"""The server side of ``service-mix``: one ``MatchingService`` process.

Started by ``workloads.running_server`` as
``python service_host.py STORE_DIR``. Prints one JSON line
(``url``, ``startup_s``) once the worker is warm and the socket is
bound, then serves until SIGTERM, which unwinds ``serve_forever`` so
that the pool shuts down once, from the main thread.
"""

from __future__ import annotations

import json
import signal
import sys
from time import perf_counter


def main(store_dir: str) -> None:
    from repro.service import MatchingService, ServiceConfig

    t = perf_counter()
    service = MatchingService(
        ServiceConfig(port=0, store_dir=store_dir, workers=1, mp_context="spawn")
    )
    print(json.dumps({"url": service.url, "startup_s": perf_counter() - t}), flush=True)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    service.serve_forever()


# The spawned pool worker re-imports this file; only the parent serves.
if __name__ == "__main__":
    main(sys.argv[1])
