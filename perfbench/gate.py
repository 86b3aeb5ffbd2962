"""Output gate: every operation's bytes against the run's first pass and the reference.

The committed reference holds the rendered output of every operation of one
pass at :data:`workloads.DEFAULT_SEED`.  The package promises bit-identical
reruns on one platform (the C9 determinism gate), not across numpy/scipy
builds or CPU instruction sets, so the reference is compared only when the
platform signature it was written on matches the running one.
"""

import json
import platform
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def platform_signature() -> dict:
    import numpy
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    return {
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def reference_dir(workload, seed, base=REFERENCE_DIR) -> Path:
    return base / workload / f"seed-{int(seed)}"


def write_reference(workload, seed, outputs, base=REFERENCE_DIR) -> Path:
    """Store one pass's ``{op_name: bytes}`` with the platform signature."""
    target = reference_dir(workload, seed, base)
    target.mkdir(parents=True, exist_ok=True)
    for old in target.glob("*.txt"):
        old.unlink()
    for name, data in outputs.items():
        (target / f"{name}.txt").write_bytes(data)
    (target / "platform.json").write_text(json.dumps(platform_signature(), indent=2) + "\n")
    return target


def load_reference(workload, seed, base=REFERENCE_DIR):
    """Return ``(outputs or None, status)`` for the reference of this seed."""
    source = reference_dir(workload, seed, base)
    if not source.is_dir():
        return None, f"no reference for seed {int(seed)}"
    written_on = json.loads((source / "platform.json").read_text())
    if written_on != platform_signature():
        return None, "reference skipped: written on another platform signature"
    outputs = {path.stem: path.read_bytes() for path in source.glob("*.txt")}
    return outputs, f"compared with {source.relative_to(base.parent).as_posix()}"


class Gate:
    """Counts an operation as failed when its bytes differ from the first pass or the reference."""

    def __init__(self, reference=None):
        self.reference = reference
        self.first = {}
        self.mismatches = []

    def check(self, pass_index, name, data) -> bool:
        first = self.first.setdefault(name, data)
        problems = []
        if data != first:
            problems.append("differs from the first pass")
        if self.reference is not None and self.reference.get(name) != data:
            problems.append("differs from the reference")
        for problem in problems:
            self.mismatches.append(f"pass {pass_index} op {name}: {problem}")
        return not problems
