"""Digest a pointflow JSON report and parse it, keeping a sample of its points.

    python3 perfbench/reduce_report.py <report.json> <seed> <count>

prints {"digest": ..., "report": ...}. The digest is the sha256 of the
file without its duration_s line, so equal digests mean byte-identical
reports apart from the wall time. With count > 0, payload.points is
replaced by `count` points drawn with random.Random(seed), and
payload.point_count records how many there were. The benchmark runs
this as a child process for the 35 MB landau report, so that parsing
it does not count toward the workload process's peak memory. It uses
only the standard library.
"""

import hashlib
import json
import random
import re
import sys

_DURATION_LINE = re.compile(rb'\n  "duration_s": [^\n]*')


def reduce(path, seed=0, count=0):
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(_DURATION_LINE.sub(b"", data)).hexdigest()
    report = json.loads(data)
    if count:
        payload = report["payload"]
        points = payload["points"]
        payload["point_count"] = len(points)
        payload["points"] = [points[i] for i in
                             random.Random(seed).sample(range(len(points)), count)]
    return digest, report


if __name__ == "__main__":
    digest, report = reduce(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
    print(json.dumps({"digest": digest, "report": report}))
