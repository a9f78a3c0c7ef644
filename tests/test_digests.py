"""Weight bytes pinned across versions: a sha256 of every layer the
constructions emit (shapes, dtypes and the bytes of the CSR arrays and
bias), read through net.layers.  A change in how networks are built or
stored must leave these digests unchanged."""

import hashlib

import numpy as np
import pytest

from requnet import (
    assemble_affine_system,
    build_reduced_basis,
    identity_network,
    inversion_network,
    mult_network,
    parallelize,
    power_network,
    scalar_product_network,
    solution_network,
)


def _digest(net):
    h = hashlib.sha256()
    for A, b in net.layers:
        arrays = (A.data, A.indices, A.indptr, b)
        h.update(repr((A.shape, [(a.dtype.str, a.shape) for a in arrays])).encode())
        for a in arrays:
            h.update(a.tobytes())
    return h.hexdigest()


def _pde_nets():
    system = assemble_affine_system(9, 2, 0.1)
    rb = build_reduced_basis(system, np.random.default_rng(303).uniform(0, 1, (8, 4)))
    return solution_network(rb, 1e-3, 1.01 * np.linalg.norm(rb.f_rb))


def _corpus():
    nets = {
        f"inversion d{d} eps{eps:g} delta{delta:g}": inversion_network(d, eps, delta)
        for d in (1, 2, 3, 8)
        for eps, delta in ((0.5, 0.9), (1e-3, 0.2), (1e-6, 0.05))
    }
    nets["identity 3 6"] = identity_network(3, 6)
    nets["power 2 3"] = power_network(2, 3)
    nets["scalar product"] = scalar_product_network()
    nets["parallel"] = parallelize(
        [identity_network(2, 4), power_network(2, 1), mult_network(2, 2, 1)]
    )
    nets["rb_net"], nets["h_net"] = _pde_nets()
    return nets


DIGESTS = {
    'h_net': '4c2adecb9171c2c12705d83a8e30fd6ae58685635ae19f25c06cb011c71531a5',
    'identity 3 6': '0615349ef192ffd741ab6d1cf3751ac45c2b3ebbf52d01fe397748cff14e2943',
    'inversion d1 eps0.001 delta0.2': '5c2d18e589fb2856155af796b013d95f93e8a2189c579211890a9a9b932198bf',
    'inversion d1 eps0.5 delta0.9': '63fdc7f85dc85367e97b0c1b847f40cd957fe4fa0536feb48fc72d1a78696a37',
    'inversion d1 eps1e-06 delta0.05': '36c5d908f8997f9db5e546925215875dfdcf22ac2ffc707bbf45c09a566b4abc',
    'inversion d2 eps0.001 delta0.2': 'f75b25934a48932bab54a78f8f6064dc26b6fabbf684ae474ec8c78ab3b34568',
    'inversion d2 eps0.5 delta0.9': 'c970a3ea4ccc72d2cb8a33d60ad25d77476659510c2bbdcd1274a46d3eedb88d',
    'inversion d2 eps1e-06 delta0.05': '7b9ac1eba010321825030575d61eb0f9b82b390955a7cec72b7bd665373c1378',
    'inversion d3 eps0.001 delta0.2': '0b2ab926a615fc6a42a6fd11c5ac6a8991c9b31a65ee1e08b2299040d4a3cfd0',
    'inversion d3 eps0.5 delta0.9': '49753ab8530f2658fde8bd4521f83a7edcbd76dab750242093b0cc4667ae2cb3',
    'inversion d3 eps1e-06 delta0.05': 'b65cf7480ce6b0678429b4ade650c2714a4ad18b1d2343731e4c2991e67a2c5c',
    'inversion d8 eps0.001 delta0.2': 'aff7910c1d4b90744b7402a60c78ab3aa425f8768fe326af20dd0fc047f670b5',
    'inversion d8 eps0.5 delta0.9': '6fc1635b0bbec71f5b5e937011e35a37ceecb15555cbf06a4f69cf15a4623f6f',
    'inversion d8 eps1e-06 delta0.05': 'b4e39521a1412cdff0c4284801a0b21b7d9c51f6bdb3637410740ef01744dfa2',
    'parallel': 'b2fcf5997ab6c0ffe190d02f8ac0d9f663f3e71443992ad8459dd927d7262e1b',
    'power 2 3': 'bb7d7e0f0244c320f79f28f6eee92ef0a85976d0376f8d9edc26140ad9578fb8',
    'rb_net': '118a376bee2255b56c32cd1399d4dbc671ec9ef2a91af9c98e2d5c2e6205b057',
    'scalar product': '3b5eb51c4de5c740b73363d5f8707323ff6da801ba6a3c678549d3c6f7fe92bc',
}


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_layer_bytes_match_recorded_digest(corpus, name):
    assert _digest(corpus[name]) == DIGESTS[name]


def test_digest_corpus_is_complete(corpus):
    assert sorted(corpus) == sorted(DIGESTS)
