"""Independent work split over two threads in contiguous halves.

numpy's generators, ufuncs, fancy indexing and matmul run without holding
the GIL, so two threads overlap on work made of them.  ``run_pipeline``'s
link stage and ``ber_curve``'s SNR points both split this way.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def in_two_halves(work, items, *, split: bool) -> list:
    """``work(items)``, or ``work(items[:half]) + work(items[half:])`` on two threads.

    ``work`` maps a contiguous run of ``items`` to a list in item order and
    must give each item's entry whatever else runs at the same time.  When
    ``split`` holds and two CPUs are usable, the calling thread takes the
    first half and one worker thread the second, and the two lists are
    joined in item order.
    """
    if not split or usable_cpus() < 2:
        return work(items)
    # Imported here, so that ``import xrmimo`` does not pay for it.
    from concurrent.futures import ThreadPoolExecutor

    half = len(items) // 2
    with ThreadPoolExecutor(max_workers=1) as pool:
        second = pool.submit(work, items[half:])
        return work(items[:half]) + second.result()
