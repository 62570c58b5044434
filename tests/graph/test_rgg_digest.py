"""Every rgg graph the repo builds keeps its exact bytes.

One sha256 over ``xadj``, ``adjncy`` and ``weights`` per graph: the
benchmark ladder's 64 000-vertex inputs (seeds 1 and 2) and its 2000
vertex warm-up, the ``rgg-8k/16k/32k`` datasets (which are also fig4a's
``2000 * p`` series and ext-incl's ``500 * p`` graph), fig4a's full-mode
64 000 point, ext-coloring's 4000 graph, the ablation's 150 vertex rgg,
the coloring example, and the default-radius and explicit-radius paths.
A change to how the edges are found must leave every digest in place.
"""

import hashlib

import pytest

from repro.graph.generators import rgg_graph
from repro.harness.spec import DEFAULT_SEED

#: (n, radius, target_avg_degree, seed) -> sha256 of the CSR arrays
DIGESTS = {
    (64000, None, 8, 1): "d414b678016c836fde507de01de40a07f9d7d75c7ffa596de913250c7c0cfec0",
    (64000, None, 8, 2): "8317797af26b414a471e135211f07643c143c9e4b342a307f4ab00d5bd31f87f",
    (2000, None, 8, 1): "9b5c6e83a8864f153725c7b6558301601ac0931c00ecc6af6451228fdc762965",
    (8000, None, 8, DEFAULT_SEED): "03f6062794c30f4163c3d0ea202d181bc45211c35d738d086cda9de65b2f8968",
    (16000, None, 8, DEFAULT_SEED): "de61c7bce93ded82e4206907ead60d5e72f7090b3960b003fc6e1a89daff8318",
    (32000, None, 8, DEFAULT_SEED): "acae657ec9a81cb179cb0f39389fafaa1eb2b42c1c92fd94fbef1de776ccf5d6",
    (64000, None, 8, DEFAULT_SEED): "52ffda0b9c01305e68b3604a0fc5042a4254a7e0470cd5d7abda973bc67332cb",
    (4000, None, 8, DEFAULT_SEED): "02a1e3abfbabc7b3cd8dc84806d01a93fe4461dd04e3af6e47ad98e2d2c86908",
    (150, None, 6, DEFAULT_SEED): "c37f2170dd2ac1f0567dc566dc4b53b7687e7c7eff4ed693076f4762fffcb7ce",
    (6000, None, 8, 13): "132e3526eca454783ea429ec0eb39bb7ddfb68ba22ee733b9288048b60da7a48",
    (200, None, None, 1): "fa68e14d8b7db98a3bc98578138601edc63ab73dbe45ce712a5faf10895ea386",
    (5000, None, None, 3): "3635ef71d43294d109d8100501cf00598cd73515d6f2e4c6f4c89126e20db038",
    (500, 0.05, None, 4): "88c05dafaa675823df5f54c72294eeb80c0d5a509ae3a4bcbe81027b5d1c8a71",
}


@pytest.mark.parametrize("key", list(DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_rgg_graph_bytes_are_pinned(key):
    n, radius, degree, seed = key
    g = rgg_graph(n, radius, target_avg_degree=degree, seed=seed)
    h = hashlib.sha256()
    for a in (g.xadj, g.adjncy, g.weights):
        h.update(a.tobytes())
    assert h.hexdigest() == DIGESTS[key]
