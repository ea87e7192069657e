import pathlib
import re

import pytest

from narrowlab import limits
from narrowlab.errors import ResourceError

SRC = pathlib.Path(limits.__file__).parent


def test_short_cuts_only_integers_past_20_digits():
    assert limits.short(10 ** 20 - 1) == "99999999999999999999"
    assert limits.short(10 ** 20) == "1.000e+20"
    assert limits.short(-2 * 10 ** 308) == "-2.000e+308"
    assert limits.short(10 ** 5000) == "1.000e+5000"   # past str()'s digit limit
    assert limits.short(1e308) == "1e+308"
    assert limits.short(float("inf")) == "inf"


def test_check_passes_at_the_cap_and_below_it():
    assert limits.check(16, 16, "terms") == 16
    with pytest.raises(ResourceError, match="^terms 17 is past the cap of 16$"):
        limits.check(17, 16, "terms")
    assert limits.check(2 ** 32 - 1, 2 ** 32, "limit", below=True) == 2 ** 32 - 1
    with pytest.raises(ResourceError, match="^limit 4294967296 must be below 4294967296$"):
        limits.check(2 ** 32, 2 ** 32, "limit", below=True)
    with pytest.raises(ResourceError, match="^P_max 1.000e\\+308 is past"):
        limits.check(10 ** 308, limits.MAX_PMAX, "P_max")


def test_every_cap_is_defined_in_limits_only():
    names = {name for name in vars(limits) if name.isupper()}
    pattern = re.compile(rf"^({'|'.join(sorted(names))})\s*=", re.M)
    for path in SRC.glob("*.py"):
        if path.name != "limits.py":
            assert not pattern.search(path.read_text()), path.name
