"""Shared fixtures."""

import pytest

from drivenchain import occupation


@pytest.fixture
def after_each_event(monkeypatch):
    """``install(check)`` makes the event engine call check(state) after every event."""

    def install(check):
        real = occupation._jump

        def watched(state, rng):
            real(state, rng)
            check(state)

        monkeypatch.setattr(occupation, "_jump", watched)

    return install
