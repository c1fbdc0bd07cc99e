"""Make the program's source importable when pytest runs these tests."""

import os
import sys

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")
if SOURCE not in sys.path:
    sys.path.insert(0, SOURCE)
