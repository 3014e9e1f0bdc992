"""Importing sessrec keeps freed memory mapped on glibc, so arrays a training
step frees are reused by the next step instead of being faulted in again."""

import platform
import resource

import numpy as np
import pytest

import sessrec  # noqa: F401  (the import sets the allocator up)


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's mallopt")
def test_freed_arrays_are_reused_without_page_faults():
    size = 3 << 20  # bytes per array: above glibc's default mmap threshold
    count = 40
    pages = count * size // resource.getpagesize()
    arrays = [np.ones(size // 8) for _ in range(count)]
    del arrays
    before = minor_faults()
    arrays = [np.ones(size // 8) for _ in range(count)]
    faults = minor_faults() - before
    del arrays
    assert faults < pages // 100, f"{faults} minor faults for {pages} pages allocated again"
