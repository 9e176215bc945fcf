from __future__ import annotations

import tropsdp


def test_every_exported_name_resolves():
    # a name deleted from a module but left in __all__ breaks
    # "from tropsdp import *" for every caller
    missing = [name for name in tropsdp.__all__ if not hasattr(tropsdp, name)]
    assert missing == []
    assert len(set(tropsdp.__all__)) == len(tropsdp.__all__)
    namespace: dict = {}
    exec("from tropsdp import *", namespace)
    assert set(tropsdp.__all__) <= namespace.keys()
