"""Drive a long-lived ``repro serve`` over HTTP, then shut it down.

One of the commands ``tools/reachability.py`` traces: the paths of the
service that ``repro serve --selftest`` does not take.  It starts
``python -m repro.cli serve --port 0 --preset smoke`` with the given
extra arguments, onboards a live chip and reads it until its session is
done, asks for unknown chips, paths and methods, uploads a body that is
not an archive, and ends with ``POST /shutdown``::

    PYTHONPATH=src python tools/reachability_serve.py --no-store
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import time


def request(port, method, path, body=b""):
    """Print and return ``(status, body)`` of one request."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        connection.request(method, path, body)
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    print(method, path, response.status, payload[:120])
    return response.status, payload


def drive(port):
    request(port, "GET", "/healthz")
    request(port, "POST", "/chips/a/live", json.dumps({"trojan": "T1"}).encode())
    request(port, "POST", "/chips/b/live", json.dumps({"trojan": "nope"}).encode())
    for _ in range(600):
        request(port, "GET", "/chips/a/report")
        if json.loads(request(port, "GET", "/chips")[1])["chips"][0]["done"]:
            break
        time.sleep(0.1)
    for path in ("/chips/a/report", "/chips/a/nope", "/chips/zz/report", "/metrics", "/nope"):
        request(port, "GET", path)
    request(port, "PUT", "/metrics")
    request(port, "POST", "/chips/c/replay", b"not an archive")
    request(port, "POST", "/shutdown")


def main(argv):
    command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--preset", "smoke"]
    server = subprocess.Popen(command + argv, stdout=subprocess.PIPE, text=True)
    try:
        for line in server.stdout:
            if "listening on http://" in line:
                drive(int(line.split("http://")[1].split()[0].rsplit(":", 1)[1]))
                break
        return server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
