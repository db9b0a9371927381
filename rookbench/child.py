"""One rookposet CLI run in a fresh interpreter, reported as one JSON line.

    PYTHONPATH=src python3 rookbench/child.py '{"argv": [...], "trace": false}'

``ready`` is read just before the call into ``cli.run``: everything before it
(interpreter start, imports, and for a traced run the wrappers) is set-up.
The parent turns the monotonic clock readings into times, since
CLOCK_MONOTONIC is shared by every process on the host.  With ``trace`` the
line also carries per-layer calls and self times, and with ``order_n`` the
size of the order relation and of the cover relation of that board's index.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    import rookposet
    from rookposet import cli, poset

    build_index = poset.poset_index  # unwrapped, to read the cached index afterwards
    recorder = None
    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        for name in spans.install(recorder):
            print(f"child: layer {name} not found in the program", file=sys.stderr)
    out = io.StringIO()
    ready = time.monotonic()
    with contextlib.redirect_stdout(out):
        code = cli.run(job["argv"])
    done = time.monotonic()
    record = {
        "exit": code,
        "stdout": out.getvalue(),
        "ready": ready,
        "done": done,
        "source": rookposet.__file__,
    }
    if recorder is not None:
        record["layers"] = recorder.summary()
        record["cells"] = recorder.cells
    if job.get("order_n"):
        index = build_index(job["order_n"])
        record["order"] = [int(index.le.sum()), int(index.covers.sum())]
    print(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
