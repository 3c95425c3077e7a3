"""Run ``repro.server`` with the traced run's span wrappers installed.

    python3 perfbench/serve.py --summary OUT.json --spans OUT.npz -- \
        --database file:DIR --port 0

Arguments after ``--`` go to ``repro.server.__main__.main`` unchanged.
Spans are recorded between SIGUSR1 and SIGUSR2, so loading the
checkpoint, preparing statements and shutting down stay out of the
numbers; when the server exits after SIGTERM, the per-name summary is
written to OUT.json and every span to OUT.npz.
"""

import argparse
import pathlib
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from repro.server.__main__ import main as server_main  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]

    log = layers.SpanLog()
    log.install()

    def record(signum, frame):
        log.enabled = signum == signal.SIGUSR1

    signal.signal(signal.SIGUSR1, record)
    signal.signal(signal.SIGUSR2, record)
    try:
        return server_main(server_args)
    finally:
        log.write(args.spans)
        layers.dump_json(args.summary, log.summary())


if __name__ == "__main__":
    sys.exit(main())
