"""Host-speed probe, run beside every timed command of the harness.

    python3 perfbench/probe.py

Prints ``ready``, then repeats a fixed round of work at the lowest CPU
priority until it receives SIGTERM, and prints one JSON line: the number
of rounds and their mean CPU seconds. A round is an FFT round trip, a
few small dense layers and a plain-Python loop, the kinds of work
spoofcm does, and random reads from an array far larger than the caches,
which wait on memory.

The host this benchmark was defined on shares its cores with other
tenants, and their load slows every process on it by up to a half, in
stretches of seconds to minutes. The harness divides a command's times by
the probe's round time taken over the same seconds, which cancels much of
that slowdown (``README.md``, "Run-to-run noise"). The probe counts CPU
time, not wall time, so its figure holds even when the command leaves it
little CPU.
"""
import json
import os
import signal
import time

import numpy as np


def main() -> None:
    os.nice(19)
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((64, 1024))
    x = rng.standard_normal((32, 25))
    w = rng.standard_normal((25, 64))
    table = np.arange(8_000_000, dtype=np.float64)  # 64 MB
    reads = rng.integers(0, len(table), 20_000)
    rounds = 0
    cpu_s = 0.0
    print("ready", flush=True)
    while not stop:
        t0 = time.thread_time()
        np.fft.irfft(np.fft.rfft(frames, axis=1), axis=1)
        for _ in range(20):
            np.tanh(x @ w)
        acc = 0
        for i in range(5000):
            acc += i * i % 7
        np.take(table, reads)
        cpu_s += time.thread_time() - t0
        rounds += 1
    print(json.dumps({"rounds": rounds, "cpu_s_per_round": cpu_s / rounds if rounds else None}), flush=True)


if __name__ == "__main__":
    main()
