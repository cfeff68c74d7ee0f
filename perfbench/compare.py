"""Flag digests and work counts that differ between two benchmark runs.

python3 perfbench/compare.py RUN_A.txt RUN_B.txt

Each file is the saved standard output of one `run.py` invocation, or of
`run.py --workload all`. Runs of the same workload and seed must print the
same `digest:` and `counts:` lines; the exit code is 1 if any differ.
"""

import re
import sys

LINE = re.compile(r"^(\[\w+\] )?(digest|counts): (.*)$")


def fingerprint(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return {(m[1] or "") + m[2]: m[3] for m in map(LINE.match, f) if m}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (fingerprint(p) for p in argv)
    differ = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    for key in differ:
        print(f"DIFFERS {key}:\n  {a.get(key)}\n  {b.get(key)}")
    if not a:
        print("no digest or counts lines found")
        return 1
    print(f"{len(differ)} line(s) differ" if differ else "identical digests and counts")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
