"""Make the benchmark's modules importable the way ``run.py`` sees them."""

import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402

run.prepare_imports()
