"""Helpers shared by the test modules."""


def entries(state) -> dict:
    """{digit tuple: amplitude} of a sparse state, read from its ``keys``
    and ``amps``."""
    return dict(zip(map(tuple, state.keys.tolist()), state.amps.tolist()))
