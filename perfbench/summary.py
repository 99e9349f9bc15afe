"""Self time per layer from an exported span file.

    python3 perfbench/summary.py perfbench/out/spans-micro-w1-1.json

A layer's self time is its spans' duration minus the part of them that their
child spans cover: ``exec`` minus the reaction bodies is the scheduler's own
time, a body minus its ``ctx.*`` calls is the program's own code.
"""

import sys

from spans import format_table, load_chrome, summarize


def main(paths) -> int:
    for path in paths:
        rows = load_chrome(path)
        summary = summarize(rows)
        print(f"{path}: {len(rows)} spans, {summary['tags']} tags, "
              f"{summary['levels_run']} (tag, level) pairs")
        print(format_table(summary, label="file"))
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:]))
