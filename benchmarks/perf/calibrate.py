"""The calibrator child: time a fixed spin loop every 100 ms, for ever.

Writes ``<perf_counter> <ms>`` lines to standard output until it is
stopped.  Run as a script by ``timed.Calibrator``; it imports nothing of
the repository, so starting it costs the host next to nothing.
"""

import sys
import time


def main() -> None:
    while True:
        started = time.perf_counter()
        x = 0
        for i in range(20_000):
            x += i * i % 7
        sys.stdout.write(
            f"{started:.6f} {(time.perf_counter() - started) * 1e3:.4f}\n"
        )
        sys.stdout.flush()
        time.sleep(0.1)


if __name__ == "__main__":
    main()
