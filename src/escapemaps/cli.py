"""The command line of ``escapemaps.commands``, with every layer loaded.

``build_parser`` and ``main`` are those of ``escapemaps.commands``.
Importing this module also imports every layer module and binds every name
of ``escapemaps.__all__`` in the package namespace, for code that patches
library functions at each of their bindings after this import (the
benchmark's tracer, ``perfbench/tracing.py``).
"""

import sys

from . import _load
from .commands import build_parser, main

__all__ = ["build_parser", "main"]

_load()

if __name__ == "__main__":
    sys.exit(main())
