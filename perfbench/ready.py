"""Set-up probe: boot an in-process service in a fresh interpreter, then say ``ready``.

Reads ``{"tenants": {name: [pd, ...]}}`` (wire-encoded PDs) on stdin, imports
the service, builds the session the workload serves from (the default
config's session, then one ``add_dependencies`` per tenant) and prints
``ready``.  The parent times spawn to ``ready``: the start-to-ready cost a
fresh serving process pays before its first answer.
"""

import json
import sys

from repro.service.config import ServiceConfig
from repro.service.wire import decode_pd


def main() -> int:
    payload = json.loads(sys.stdin.read())
    session = ServiceConfig().make_session()
    for tenant, theory in payload["tenants"].items():
        session.add_dependencies([decode_pd(pd) for pd in theory], tenant=tenant)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
