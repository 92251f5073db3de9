"""The package's public names: every entry of __all__ exists, once."""

from collections import Counter

import gaussquad


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in Counter(gaussquad.__all__).items() if count > 1]
    assert not repeated
    missing = [name for name in gaussquad.__all__ if not hasattr(gaussquad, name)]
    assert not missing
