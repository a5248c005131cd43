"""Run the test suite under a 4 GiB address-space cap.

A pruning fault in a search with no node budget grows memory instead of
failing a test: with the subset test in ``lattice._dominates`` turned
round, one pytest process once reached 7.1 GB.  Under the cap such a run
ends in ``MemoryError``.  The whole suite peaks under 200 MB.  The soft
``RLIMIT_AS`` is only ever lowered, never raised, and subprocesses the
tests start inherit it.
"""

import resource

ADDRESS_SPACE_CAP = 4 << 30

soft, hard = resource.getrlimit(resource.RLIMIT_AS)
if soft == resource.RLIM_INFINITY or soft > ADDRESS_SPACE_CAP:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, hard))
