"""Session-based next-item recommendation with two-level graph attention."""

import ctypes
import platform

__version__ = "0.1.0"


def _retain_heap():
    """Keep the memory a training step frees mapped for the next step (glibc).

    By default glibc serves large arrays from fresh mappings and hands the
    heap top back to the kernel once it is free, so each step faults in
    again the (B, items) arrays and item-table-sized gradients the step
    before released: 1.5k-8.1k minor page faults per benchmark
    `train_model` call on digi43k-k1 and 16k-22k on zipf5k-k2 (getrusage).
    A fixed mmap threshold of 32 MiB, glibc's own ceiling for its dynamic
    threshold on 64-bit, serves every array below it from the heap, and a
    trim threshold of 2**31 - 1 keeps the heap top mapped.  It takes both:
    per zipf5k-k2 train call, the trim setting alone gave 38k-45k faults
    and the mmap setting alone 26k-28k; both give 0 once the heap has grown
    to the process's high-water mark.  The process then holds no more
    memory than the peak it has already reached.  On another C library, or
    where `mallopt` refuses, nothing changes.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 32 << 20):   # M_MMAP_THRESHOLD
        mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD


_retain_heap()
