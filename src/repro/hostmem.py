"""Process-wide allocator policy, set by the program's entry points.

By default glibc hands every allocation of 128 KiB or more (an int64
array of 16k elements) to ``mmap`` and unmaps it when it is freed, and
returns free space at the heap top to the kernel.  The fast model
allocates and frees NumPy temporaries of that size by the thousand, so
each new one page-faults its memory in again, freshly zeroed.
:func:`retain_freed_memory` raises both thresholds, so freed
temporaries are reused from the heap instead.

It changes a setting of the whole process, so only entry points call
it: ``repro.__main__.main()`` and the process pool's worker initializer
(a worker started by spawn or forkserver inherits no allocator
setting).  Importing a ``repro`` module never does.
"""

from __future__ import annotations

import ctypes
import os

# mallopt(3) parameter numbers, as glibc's <malloc.h> defines them.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# Measured on a 2-core x86 VM: 200 rounds that each allocate and free
# two 64k-element int64 temporaries take 224 minor faults and 350 us
# per round under glibc's defaults, and 1.2 faults and 57 us under
# these thresholds (medians of 3 fresh interpreters).  One in-process
# default-scale `report run --workers 1` takes 55,590 minor faults under
# the defaults and 16,640 under them.

#: glibc's ceiling for the mmap threshold (its DEFAULT_MMAP_THRESHOLD_MAX:
#: 32 MiB on 64-bit hosts, 16 MiB on 32-bit ones); a larger value is
#: rejected.
MMAP_THRESHOLD = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
#: free bytes kept at the heap top before trimming: above the peak of
#: every benchmark workload (about 100 MB RSS), so a running command
#: never hands its heap back to the kernel.
TRIM_THRESHOLD = 512 << 20


def _glibc_mallopt():
    """glibc's ``mallopt`` with its C signature, or None elsewhere."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return None
    if not libc.startswith("glibc"):
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def retain_freed_memory() -> bool:
    """Keep freed memory in the process for reuse (glibc only).

    Returns True when glibc accepted both thresholds and False when it
    rejected either; each is set on its own, so a rejected one leaves
    the other in force.  Where the C library is not glibc it does
    nothing and returns False.
    """
    mallopt = _glibc_mallopt()
    if mallopt is None:
        return False
    # mallopt returns 1 for an accepted value and 0 for a rejected one.
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return mmap_set and trim_set
