"""Put the repository's ``src`` directory on the import path for the
benchmark's own tests."""

import os
import sys

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
if SOURCE not in sys.path:
    sys.path.insert(0, SOURCE)
