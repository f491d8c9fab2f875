"""``python -m benchmarks.suite``: see :mod:`benchmarks.suite.run`."""

import sys

from benchmarks.suite.run import main

sys.exit(main())
