"""Size caps, each defined once, and the one check that raises past them.

A MAX_* cap is the largest value allowed, a *_RANGE the first one refused.
Callers read a cap here when they check it, so a test patches one name.
"""

import math

from .errors import ResourceError

MAX_TERMS = 16                    # progression terms of lambda_D
MAX_SIEVE_LIMIT = 10 ** 9         # factor sieve limit: a 4 GB uint32 table
SIEVE_RANGE = 1 << 32             # subset-rule moduli: past a uint32 table's range
INT64_RANGE = 1 << 63             # |form coefficients, values, partial counts|
W_RANGE = 1 << 64                 # W = primorial(w): a majorant table's uint64 field
W_FIELD_PRIME = 53                # the least prime whose primorial reaches W_RANGE
MAX_FAMILY_FORMS = 1 << 16        # forms a family constructor builds
MAX_SUBSPACES = 500000            # hyperplanes plus subspaces a lattice walk finds
MAX_DEVIATION_SUBSPACES = 200000  # the deviation engine holds each flat; walks stream
MAX_RANDOM_MODULUS = 1 << 27      # draws a random weight model materializes
MAX_MC_SAMPLES = 10 ** 8          # Monte Carlo samples one call draws
MAX_ARRAY_ENTRIES = 1 << 26       # a hyperplane count's array; values a Monte Carlo batch looks up
EXACT_CAP = 10 ** 7               # exact-average terms: box points (times N', table)
MAX_QUADRATURE_ENTRIES = 1 << 22  # entries of a sieve-factor integral's largest array
MAX_PMAX = 10 ** 8                # Euler product truncation: a 100 MB boolean sieve
MAX_DELTA = 10 ** 12              # |Delta(h)| of the E weight, by trial division
MAX_BOX_DIM = 64                  # coordinates of a Gallagher box
MAX_SAMPLE_ENTRIES = 10 ** 7      # sampled coordinates: samples times box dimension


def short(value):
    """value as text; an integer of more than 20 digits as about d.ddde+N."""
    if not isinstance(value, int) or abs(value) < 10 ** 20:
        return str(value)
    e = math.log10(abs(value))   # str() of an int past 4300 digits raises
    return f"{'-' * (value < 0)}{10 ** (e % 1):.3f}e+{int(e)}"


def check(value, cap, what, below=False):
    """value, or ResourceError when it passes cap (reaches it, if below)."""
    if value >= cap if below else value > cap:
        relation = "must be below" if below else "is past the cap of"
        raise ResourceError(f"{what} {short(value)} {relation} {short(cap)}")
    return value
