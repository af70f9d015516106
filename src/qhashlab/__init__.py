"""Simulation laboratory for a classical-quantum hash.

Small key sets over Z_N drive an amplitude-form hash: a message maps to
a superposition whose branch phases are the scaled products key*message.
The package measures how biased a key set is, prepares the hash states
both analytically and as rotation circuits, compares states with SWAP
and uncompute-style tests, sets the construction against linear-code
fingerprinting, and runs a one-bit signature protocol on top.
"""

from . import bias, fingerprint, keyset, qhash, qsim, signature
from .bias import *
from .fingerprint import *
from .keyset import *
from .qhash import *
from .qsim import *
from .signature import *

__all__ = [*bias.__all__, *fingerprint.__all__, *keyset.__all__,
           *qhash.__all__, *qsim.__all__, *signature.__all__]
