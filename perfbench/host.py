"""Host facts stamped on every result file.

Results are only comparable when they were measured on the same host:
:func:`host_mismatches` compares the facts that identify it (CPU, core count,
memory, interpreter, numpy and the kernel boot) and ignores the source
revision, which is what a comparison is meant to vary.
"""

from __future__ import annotations

import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

#: Facts that must match for two results to be compared.
HOST_KEYS = ("nproc", "cpu_model", "machine", "mem_total_kb", "python", "numpy", "boot_id")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _field(text: str, name: str) -> Optional[str]:
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == name:
            return value.strip()
    return None


def _commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_facts(root: Path) -> Dict[str, object]:
    """The host and revision a result was measured on."""
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    mem_total = _field(_read("/proc/meminfo"), "MemTotal")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _field(_read("/proc/cpuinfo"), "model name") or platform.processor(),
        "machine": platform.machine(),
        "mem_total_kb": int(mem_total.split()[0]) if mem_total else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "boot_id": _read("/proc/sys/kernel/random/boot_id").strip() or None,
        "commit": _commit(root),
    }


def host_mismatches(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """The host facts on which two result stamps differ."""
    return [key for key in HOST_KEYS if a.get(key) != b.get(key)]
