"""Peak resident memory of a process, from ``/proc``.

The kernel keeps a high-water mark (``VmHWM``) per process; writing
``5`` to ``/proc/<pid>/clear_refs`` resets it to the current resident
size.  The driver resets its own mark once its inputs are generated
(after :func:`release_free_heap`, so the resident size at the reset is
the driver's live data), so the peak it reports is what the program's
set-up and requests reached on top of the driver's retained inputs, not
the input generator's peak.
"""

from __future__ import annotations

import ctypes
import re


def _status_mib(field: str, pid: str) -> float:
    with open(f"/proc/{pid}/status") as handle:
        match = re.search(rf"^{field}:\s+(\d+) kB", handle.read(), re.MULTILINE)
    if match is None:
        raise OSError(f"/proc/{pid}/status has no {field}")
    return int(match.group(1)) / 1024.0


def release_free_heap() -> None:
    """Return the heap memory this process has freed to the system."""
    libc = ctypes.CDLL(None)
    if hasattr(libc, "malloc_trim"):  # glibc
        libc.malloc_trim(0)


def reset_peak(pid: object = "self") -> float:
    """Reset the high-water mark of ``pid``; returns its resident size
    (MiB) at the reset."""
    with open(f"/proc/{pid}/clear_refs", "w") as handle:
        handle.write("5")
    return _status_mib("VmRSS", str(pid))


def peak(pid: object = "self") -> float:
    """Peak resident size (MiB) of ``pid`` since its last reset."""
    return _status_mib("VmHWM", str(pid))
