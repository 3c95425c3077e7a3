"""Reopen a durable_commit checkpoint in a fresh process.

    python3 perfbench/reopen.py DIR

Prints the current ``[id, seq]`` pairs of relation ``r`` as JSON.  The
benchmark compares them with every write it saw acknowledged.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402


def main(directory: str) -> None:
    with repro.connect(f"file:{directory}") as session:
        session.execute("range of r is r")
        rows = session.execute(
            'retrieve (r.id, r.seq) when r overlap "now"'
        ).rows
    print(json.dumps([[row[0], row[1]] for row in rows]))


if __name__ == "__main__":
    main(sys.argv[1])
