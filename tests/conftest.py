import pytest

import tokcheck as tk
from helpers import fig1_pieces, swap_pieces, the_vocab


@pytest.fixture(scope="session")
def fig1():
    return fig1_pieces()


@pytest.fixture(scope="session")
def swap():
    return swap_pieces()


@pytest.fixture(scope="session")
def vocab():
    return the_vocab()


@pytest.fixture(scope="session")
def sigma(vocab):
    return vocab.sigma


@pytest.fixture(scope="session")
def munch6(vocab):
    """Greedy tokenizer over texts of length up to 6, shared across tests."""
    return tk.munch_tokenizer(vocab, 6)
