"""CI driver for the simulation service: burst, verify, shut down.

Starts a real ``python -m repro serve`` process, fires a concurrent
burst of sweep and experiment requests at it, checks the served
results byte-identical against the offline ``python -m repro`` path,
then asserts a clean shutdown: exit code 0 and no process left in the
server's process group.

Usage::

    python benchmarks/ci_serve_burst.py --clients 6 --out telemetry

Exits non-zero on any violated invariant (CI gate).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))

from repro.serve import ServeClient, sweep_point  # noqa: E402


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_healthy(client: ServeClient, deadline: float) -> None:
    while True:
        try:
            health = client.healthz()
            assert health["ok"]
            return
        except (OSError, AssertionError):
            if time.time() > deadline:
                raise RuntimeError("service never became healthy")
            time.sleep(0.1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=6,
                        help="concurrent burst size (default 6)")
    parser.add_argument("--out", default="serve-telemetry",
                        help="server telemetry directory")
    args = parser.parse_args()

    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         env.get("PYTHONPATH", "")])
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--cache", "serve-cache", "--telemetry", args.out],
        env=env, start_new_session=True)
    client = ServeClient(port=port)
    try:
        wait_healthy(client, time.time() + 60)
        print(f"[serve-burst] server healthy on :{port} "
              f"(pid {server.pid})")

        # the offline reference for one experiment, via the real CLI
        subprocess.run(
            [sys.executable, "-m", "repro", "fig11", "--json",
             "offline", "-q"], env=env, check=True)
        offline = json.load(open("offline/fig11.json"))

        points = [sweep_point(code, l3_mb=l3)
                  for code in ("MG", "FT", "CG", "LU")
                  for l3 in (0, 2, 4, 6, 8)]
        results = [None] * args.clients
        errors = []

        def issue(slot: int) -> None:
            try:
                own = ServeClient(port=port)
                if slot % 3 == 2:
                    results[slot] = ("experiment",
                                     own.experiment("fig11"))
                else:
                    results[slot] = ("sweep", own.sweep(points))
            except Exception as exc:  # noqa: BLE001 - CI gate
                errors.append(f"client {slot}: {exc}")

        threads = [threading.Thread(target=issue, args=(slot,))
                   for slot in range(args.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        assert not errors, errors
        assert all(r is not None for r in results), "client timed out"

        sweep_bodies = {json.dumps(r[1]["points"], sort_keys=True)
                        for r in results if r[0] == "sweep"}
        assert len(sweep_bodies) == 1, \
            "concurrent sweep responses disagree"
        for kind, response in results:
            if kind == "experiment":
                assert json.dumps(response["result"], sort_keys=True) \
                    == json.dumps(offline, sort_keys=True), \
                    "served fig11 drifted from the offline CLI run"
        print(f"[serve-burst] {args.clients} concurrent clients "
              "agree; served fig11 == offline fig11")

        # a settled repeat must come from the shared tier
        settled = client.sweep(points)
        assert settled["cache"] == "hit", settled["cache"]
        stats = client.stats()
        assert stats["cache_hits"] > 0, stats
        assert stats["errors"] == 0, stats
        print(f"[serve-burst] stats: {json.dumps(stats, sort_keys=True)}")

        client.shutdown()
        rc = server.wait(timeout=60)
        assert rc == 0, f"server exited {rc}"
        # clean shutdown leaves nothing behind in its process group
        time.sleep(0.5)
        try:
            os.killpg(os.getpgid(server.pid), 0)
            orphaned = True
        except (ProcessLookupError, PermissionError):
            orphaned = False
        assert not orphaned, "orphaned processes in server process group"
        assert os.path.exists(os.path.join(args.out, "requests.jsonl"))
        assert os.path.exists(os.path.join(args.out, "metrics.json"))
        print("[serve-burst] clean shutdown, telemetry exported")
        return 0
    finally:
        if server.poll() is None:
            try:
                os.killpg(os.getpgid(server.pid), signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass


if __name__ == "__main__":
    sys.exit(main())
