"""Check every at-scale report pin: run each command and compare its sha256.

The tier-1 pins stop at pmax 3000 (survey) and 1000 (noncm).  These pin, byte
for byte:
- the E x E survey to 10^6 for D = -4, -3 and -163, which holds the CM trace
  route at every split prime of three unit groups;
- three noncm sweeps to 10^4: conductor 37, and y^2 = x^3 + x and
  y^2 = x^3 + 1, whose point counts reach the character sum as well as the
  order cut;
- four prime-ideal counts to 10^7: D = -4 (one split class), D = 7989 (2,662
  split classes) and D = 40009 (blocks of one |D|), all three off the
  split-class mask, and D = -131143 (|D| above the segment length: one symbol
  per prime);
- three least non-split bound reports: the search at c = 200 (exact_value
  from a second, wider evaluation) and at |D| near 10^6, and the bound at
  1024 bits;
- two d = 5 tate reports, which hold the cyclotomic scan on a ratio
  polynomial of odd degree (N = 45 at k = 1) and on the N = 210 row.

Each command runs as ``python -m tatecycles`` in a fresh process with this
checkout's ``src`` first on PYTHONPATH.  One Markdown line per command goes
to stdout with its wall time and its peak RSS (the child's own rusage, from
``os.wait4``); every mismatch goes to stderr, and the exit status is 1 if any
command exited nonzero or printed other bytes.  Run from anywhere:

    python tools/sweep_pins.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PINS = (
    ("cm survey --disc -4 --pmax 1000000 --json", "be0bfa8fddb3f818e5d667110b2b7faac8e64b1ee7316d0ba342d273722de75e"),
    ("cm survey --disc -3 --pmax 1000000 --json", "46d7266aa898581da4977b74c8b252e8b683b2721fe8c00ddf0e0906fb033ad5"),
    ("cm survey --disc -163 --pmax 1000000 --json", "9fb887928bc69b9ed9a525e43d8b8a8fb19f2191c8b8d6a05ebe8aaedeae0937"),
    ("cm noncm --curve 0,0,1,-1,0 --pmax 10000 --json", "66a0a18b3c48cecce9a0cc3df71bdb73f40ccd588066c39610788ddbfa47bf07"),
    ("cm noncm --curve 0,0,0,1,0 --pmax 10000 --json", "408c63f31c8549bee71b0b6bce58ae2f713624b29a55e662d0cd08c6a021fc08"),
    ("cm noncm --curve 0,0,0,0,1 --pmax 10000 --json", "225ce2ef94eb9f4e23577d77abdbc048bf592b8c9e2c04832db79f096d31ec76"),
    ("cm pik --disc -4 --x 10000000 --json", "48ddbd9b63f893e4d9bbff84b0783370e8da4a7599217237418e29ec4dd0e2d2"),
    ("cm pik --disc 7989 --x 10000000 --json", "511a192238cd2d3816681864fd874da4d9751d605bc3a6fb85f78832d58e217f"),
    ("cm pik --disc 40009 --x 10000000 --json", "2043b69627784b420bb6f8f0399af7c156bb06996aa63deb2def890b0270a579"),
    ("cm pik --disc -131143 --x 10000000 --json", "cf482414decf1123d2d4bc46af05ccbc5e2cbefc697a8cc2d549111d03f854f4"),
    ("cm nonsplit --disc -4 --c 200 --json", "b2a1645e8b768ddbb858a336d6c36f6c9fe5e7a0232e63d85bee3691a6835ac2"),
    ("cm nonsplit --disc 1000001 --c 0.5 --json", "1271f5c1e8fcfe1a3bb6b67f5e39deca71b82acd9c46fbfc7883f61d0456fbfb"),
    (
        "bounds nonsplit --nk 2 --log-dk 3 --exceptional unknown --log-dl 500 --n 2 --precision 1024 --json",
        "ca706118d68645833d421b1af18153ba100da20feb864a06d3c8d59f9fc145a4",
    ),
    (
        "tate --poly 16807,-21609,20580,-13083,6923,-2832,989,-267,60,-9,1 --q 7 --json",
        "674c31944e7d77e7438ef8557599ff5b398a54315232a1ca28e7516e1937ce20",
    ),
    (
        "tate --poly 3125,-1250,1125,-425,320,-142,64,-17,9,-2,1 --q 5 --json",
        "3c3ce9b9c1938065a138bf9adfeaf2c2972c086c22ee887f3e2ff9ed36c00955",
    ),
)


def check(command: str, expected: str, env: dict) -> str | None:
    """Run one pinned command, print its timing line, and return a mismatch
    message, or None if it exited 0 with the pinned digest."""
    start = time.monotonic()
    child = subprocess.Popen([sys.executable, "-m", "tatecycles", *command.split()], stdout=subprocess.PIPE, env=env)
    digest = hashlib.sha256()
    with child.stdout:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(chunk)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - start
    print(f"- `tatecycles {command}`: {wall:.2f} s, {usage.ru_maxrss / 1024:.1f} MB peak RSS", flush=True)
    if child.returncode or digest.hexdigest() != expected:
        return f"tatecycles {command}: exit {child.returncode}, sha256 {digest.hexdigest()}, expected {expected}"
    return None


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    print("### Sweep wall times and peak RSS", flush=True)
    failures = [message for command, expected in PINS if (message := check(command, expected, env))]
    for message in failures:
        print(message, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
