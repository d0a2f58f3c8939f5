import os
import sys

sys.dont_write_bytecode = True

from bench.run import THREAD_VARS, main  # noqa: E402  (imports no numpy)

# One BLAS/OpenMP thread: the benchmark is a single-thread closed loop.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

sys.exit(main())
