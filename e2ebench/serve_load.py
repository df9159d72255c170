"""The ``serve-mixed`` load: a live service and a closed-loop client.

Each pass starts ``python -m repro serve --jobs 1`` on a fresh cache
directory, waits for ``/healthz``, replays the seeded request stream
from two client threads that each send their next request only after
the previous reply (service callers are scripts that wait for their
answer), reads the server's peak memory and shuts it down.
"""

from __future__ import annotations

import http.client
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import BENCH_DIR, canonical_json, child_env, digest

CLIENT_THREADS = 2
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
_LISTENING = re.compile(r"serve\.listening\b.*\bport=(\d+)")
#: What a request to a starting, busy or dying server can raise.
_HTTP_ERRORS = (OSError, http.client.HTTPException)


def _request(port: int, method: str, path: str,
             body: Optional[bytes] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One service process on a fresh cache directory."""

    def __init__(self, pass_dir: Path, max_records: int,
                 spans_out: Optional[Path] = None):
        serve_args = ["serve", "--port", "0", "--jobs", "1",
                      "--cache", str(pass_dir / "cache"),
                      "--max-records", str(max_records)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro"] + serve_args
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                   str(spans_out)] + serve_args
        tmp = pass_dir / "tmp"
        tmp.mkdir(parents=True)
        self.log_path = pass_dir / "serve.log"
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=self._log,
            env=child_env(str(tmp)), cwd=str(pass_dir))
        self.port: Optional[int] = None

    def wait_healthy(self) -> float:
        """Seconds from spawn until the first healthy ``/healthz``."""
        deadline = self.started + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode}: "
                                   f"{self.log_tail()}")
            if self.port is None:
                match = _LISTENING.search(
                    self.log_path.read_text(errors="replace"))
                if match:
                    self.port = int(match.group(1))
            if self.port is not None:
                try:
                    status, _ = _request(self.port, "GET", "/healthz")
                except _HTTP_ERRORS:
                    status = None
                if status == 200:
                    return time.perf_counter() - self.started
            time.sleep(0.002)
        raise RuntimeError(f"server not healthy after {START_TIMEOUT_S}s")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Ask for a clean shutdown; kill if it does not come."""
        try:
            if self.proc.poll() is None:
                if self.port is None:
                    self.proc.kill()
                else:
                    _request(self.port, "POST", "/v1/shutdown", b"{}")
            self.proc.wait(timeout=30)
        except _HTTP_ERRORS + (subprocess.TimeoutExpired,):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]


def replay(port: int, stream: List[Tuple[str, Dict]],
           reference: Dict[str, str]) -> List[Dict]:
    """Send the stream from the client threads; one record per request.

    A record holds the request's kind, the latency, the cache flag the
    service put on the reply and whether the reply was correct: status
    200, the requested points in order, and every point's ``result``
    matching its reference digest.
    """
    records: List[Optional[Dict]] = [None] * len(stream)
    cursor = iter(range(len(stream)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            kind, request = stream[index]
            body = json.dumps(request).encode()
            start = time.perf_counter()
            try:
                status, raw = _request(port, "POST", "/v1/sweep", body)
                error = None
            except _HTTP_ERRORS as exc:
                status, raw, error = None, b"", repr(exc)
            latency = time.perf_counter() - start
            records[index] = dict(_check(request, status, raw, error,
                                         latency, reference), kind=kind)

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * len(stream))
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("client threads did not finish")
    return records


def _check(request: Dict, status, raw: bytes, error, latency: float,
           reference: Dict[str, str]) -> Dict:
    record = {"latency_s": latency, "cache": None, "ok": False,
              "error": error}
    if status != 200:
        record["error"] = error or f"HTTP {status}"
        return record
    try:
        payload = json.loads(raw)
    except ValueError:
        record["error"] = "reply is not JSON"
        return record
    record["cache"] = payload.get("cache")
    points = payload.get("points") or []
    if len(points) != len(request["points"]):
        record["error"] = "wrong number of points"
        return record
    for asked, served in zip(request["points"], points):
        key = canonical_json(served["point"])
        if any(served["point"].get(k) != v for k, v in asked.items()):
            record["error"] = f"point {key} does not match the request"
            return record
        if reference.get(key) != digest(served["result"]):
            record["error"] = f"point {key} differs from its reference"
            return record
    record["ok"] = True
    return record
