"""Load generator: the benchmark's inputs, built from the workload seed.

Two kinds of input, each written once per seed and program version
under the checkout's ``.bench_inputs/`` directory and shared by every
workload that needs it:

* ``logs-<seed>-<sources>/`` — the six §IV-A drive logs from
  :func:`repro.logs.vehicle_logs.generate_drive_logs`, written as the
  CSV trace files ``repro check`` and ``repro fleet replay`` read.
* ``rules-<seed>-<sources>/`` — fuzzed ``.rules`` spec files: the strict and
  relaxed paper rules with every comparison threshold scaled by a
  seeded random factor (temporal bounds and zero thresholds are kept,
  so every set stays well formed and period-aligned).

``<sources>`` is a digest of every file under ``src/repro/`` and of
this file, so a change to the program or to the generator makes new
inputs instead of reusing ones an older version wrote.

Generation runs in a child process (``run.py --generate``) before any
clock starts, so the simulator work and memory it takes never reach a
measured metric.  A directory is published by renaming a finished
temporary one, so an interrupted generation leaves nothing behind.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import zlib
from typing import List

#: Fuzzed rule sets per seed (half from the strict, half from the
#: relaxed paper rules).
FUZZED_SETS = 6

_NUMBER = re.compile(r"(?<![\w.])(\d+\.\d+)")
_BRACKETS = re.compile(r"\[[^\]]*\]")


def sources_digest(root: str) -> str:
    """Checksum of the program's sources and of this generator.

    CRC-32, because :mod:`zlib` is loaded with the program anyway while
    :mod:`hashlib` would add its crypto library to the resident size the
    benchmark measures.
    """
    digest = 0
    paths = [os.path.abspath(__file__)]
    for directory, subdirs, files in os.walk(os.path.join(root, "src", "repro")):
        subdirs[:] = sorted(name for name in subdirs if name != "__pycache__")
        paths.extend(os.path.join(directory, name) for name in sorted(files))
    for path in paths:
        digest = zlib.crc32(os.path.relpath(path, root).encode(), digest)
        with open(path, "rb") as handle:
            digest = zlib.crc32(handle.read(), digest)
    return "%08x" % digest


def input_dir(root: str, kind: str, seed: int) -> str:
    name = "%s-%d-%s" % (kind, seed, sources_digest(root))
    return os.path.join(root, ".bench_inputs", name)


def write_logs(directory: str, seed: int) -> None:
    from repro.logs.format import write_trace
    from repro.logs.vehicle_logs import generate_drive_logs

    for trace in generate_drive_logs(seed=seed):
        name = trace.name.replace(":", "_") + ".csv"
        write_trace(trace, os.path.join(directory, name))


def fuzz_formula(text: str, rng: random.Random) -> str:
    """Scale every non-zero threshold outside ``[lo, hi]`` bounds."""
    kept = [match.span() for match in _BRACKETS.finditer(text)]

    def scale(match: "re.Match[str]") -> str:
        if any(lo <= match.start() < hi for lo, hi in kept):
            return match.group(0)
        value = float(match.group(1))
        if value == 0.0:
            return match.group(0)
        return "%.3f" % (value * rng.uniform(0.5, 2.0))

    return _NUMBER.sub(scale, text)


def fuzzed_rule_texts(seed: int) -> List[str]:
    from repro.core.specfile import dumps_specs
    from repro.rules.safety_rules import paper_specset

    rng = random.Random(seed)
    bases = [dumps_specs(paper_specset(relaxed)) for relaxed in (False, True)]
    texts = []
    for index in range(FUZZED_SETS):
        lines = []
        for line in bases[index % 2].splitlines():
            if line.startswith(("formula = ", "gate = ")):
                key, _, formula = line.partition(" = ")
                line = "%s = %s" % (key, fuzz_formula(formula, rng))
            lines.append(line)
        texts.append("\n".join(lines) + "\n")
    return texts


def write_rules(directory: str, seed: int) -> None:
    for index, text in enumerate(fuzzed_rule_texts(seed)):
        path = os.path.join(directory, "fuzz%02d.rules" % index)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


WRITERS = {"logs": write_logs, "rules": write_rules}


def generate(root: str, kind: str, seed: int) -> str:
    """Write one input kind for ``seed`` unless it is already there."""
    final = input_dir(root, kind, seed)
    if os.path.isdir(final):
        return final
    partial = "%s.tmp%d" % (final, os.getpid())
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    try:
        WRITERS[kind](partial, seed)
        os.rename(partial, final)
    except OSError:
        # Another invocation published the same inputs first.
        if not os.path.isdir(final):
            raise
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    return final
