"""The package's public names: each resolves, none repeats, and the count
holds at the number the ROADMAP states."""

import voigt2d

PUBLIC_NAMES = 64


def test_every_public_name_resolves():
    missing = [name for name in voigt2d.__all__ if not hasattr(voigt2d, name)]
    assert missing == []


def test_no_public_name_repeats():
    assert len(set(voigt2d.__all__)) == len(voigt2d.__all__)


def test_public_name_count():
    assert len(voigt2d.__all__) == PUBLIC_NAMES
