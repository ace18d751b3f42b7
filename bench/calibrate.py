"""Calibration probe: interpreter start-up plus imports that involve no guidelab code.

Run as a fresh process; it prints the instant its imports finished on
the shared monotonic clock, so the caller can time it from spawn. No
change to the program can move this time, yet it slows down and speeds
up with the machine the way the CLI's own start-up and work do, so the
benchmark scales its timings by it (see run.py).
"""

import time

import argparse  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import hashlib  # noqa: F401
import json  # noqa: F401

import numpy  # noqa: F401

if __name__ == "__main__":
    print(time.perf_counter())
